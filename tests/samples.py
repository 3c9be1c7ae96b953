"""Test data that no process of the program uses: a second reference
light, CoRE link listings, and a small campus of pointer summaries."""

from __future__ import annotations

from digstack import fixtures
from digstack.digcovery import GeoPoint, PointerSummary
from digstack.semantics import ServiceMetadata


def lab_light_metadata() -> ServiceMetadata:
    """The lab light whose metadata ships as three separate TXT records."""
    return ServiceMetadata(
        rt="light",
        ins=1,
        lt=86400,
        model="normal",
        if_="X10",
        verbs=["onoff", "status", "dimmer"],
        extra={"housecode": "A", "unitcode": "5"},
    )



# A small device's /.well-known/core listing: nine links, one flag
# attribute, and a trailing comma the parser must tolerate.
DEVICE_LINK_PAYLOAD = (
    '</s>;rt="simple.sen";if="core.b",'
    '</s/lt>;rt="simple.sen.lt";if="core.s",'
    '</s/tmp>;rt="simple.sen.tmp";if="core.s";obs,'
    '</s/hum>;rt="simple.sen.hum";if="core.s",'
    '</a>;rt="simple.act";if="core.b",'
    '</a/1/led>;rt="simple.act.led";if="core.a",'
    '</a/2/led>;rt="simple.act.led";if="core.a",'
    '</d>;rt="simple.dev";if="core.ll",'
    '</l>;if="core.lb",'
)

# A sensor index used to pin the link-list to JSON mapping.
SENSOR_LINK_PAYLOAD = (
    '</sensors>;ct=40;title="Sensor Index",'
    '</sensors/temp>;rt="temperature-c";if="sensor",'
    '</sensors/light>;rt="light-lux";if="sensor",'
    '<http://www.example.com/sensors/t123>;anchor="/sensors/temp";rel="describedby",'
    '</t>;anchor="/sensors/temp";rel="alternate"'
)

SENSOR_LINK_JSON = (
    '[{"href":"/sensors","ct":"40","title":"Sensor Index"},'
    '{"href":"/sensors/temp","rt":"temperature-c","if":"sensor"},'
    '{"href":"/sensors/light","rt":"light-lux","if":"sensor"},'
    '{"href":"http://www.example.com/sensors/t123","anchor":"/sensors/temp","rel":"describedby"},'
    '{"href":"/t","anchor":"/sensors/temp","rel":"alternate"}]'
)


# Five pointer summaries spread around a campus; exactly two fall inside
# the lab courtyard box (latitude 37.997..37.999, longitude -1.142..-1.140).
CAMPUS_BOX = {
    "latitude": (37.997, 37.999),
    "longitude": (-1.142, -1.140),
}


def campus_summaries() -> list[PointerSummary]:
    return [
        PointerSummary(
            instance=fixtures.INSTANCE,
            service_path=fixtures.SERVICE_PATH,
            domain=fixtures.DOMAIN,
            rt="light",
            geo=GeoPoint(37.998, -1.141),
            revision=1,
        ),
        PointerSummary(
            instance="thermo_lab",
            service_path="_thermometer._sub._coap._udp",
            domain=fixtures.DOMAIN,
            rt="temperature-c",
            geo=GeoPoint(37.9975, -1.1405),
            revision=1,
        ),
        PointerSummary(
            instance="light_hall",
            service_path=fixtures.SERVICE_PATH,
            domain=fixtures.DOMAIN,
            rt="light",
            geo=GeoPoint(38.002, -1.141),
            revision=1,
        ),
        PointerSummary(
            instance="gate_cam",
            service_path="_camera._sub._coap._udp",
            domain=fixtures.DOMAIN,
            rt="video",
            geo=GeoPoint(37.998, -1.150),
            revision=1,
        ),
        PointerSummary(
            instance="roof_wind",
            service_path="_anemometer._sub._coap._udp",
            domain=fixtures.DOMAIN,
            rt="wind-speed",
            geo=None,
            revision=1,
        ),
    ]


def campus_box_query() -> dict:
    """JSON query tree selecting everything inside the courtyard box."""
    (lat_lo, lat_hi) = CAMPUS_BOX["latitude"]
    (lon_lo, lon_hi) = CAMPUS_BOX["longitude"]
    return {
        "filtered": {
            "query": {"bool": {}},
            "filter": {
                "bool": {
                    "must": [
                        {"range": {"latitude": {"from": lat_lo, "to": lat_hi}}},
                        {"range": {"longitude": {"from": lon_lo, "to": lon_hi}}},
                    ]
                }
            },
        }
    }
