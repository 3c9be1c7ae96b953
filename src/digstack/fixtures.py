"""Reference fixtures shared by the test suite and the frame-comparison report.

The four message transcripts reproduce one smart object (a lab light
behind a local directory for the `rd.esiot.com` domain) as captured by
a stock resolver: the optimized SRV/TXT replies that the directory
serves on constrained links, and the original full-section equivalents
they replace.
"""

from __future__ import annotations

import ipaddress

from .digcovery import GeoPoint, PointerSummary
from .digrectory import DirectoryEntry
from .dnscodec import (
    DnsHeader,
    DnsMessage,
    DomainName,
    Question,
    ResourceRecord,
    RType,
    SrvData,
)
from .lmdns import SmartObjectProfile
from .semantics import ServiceMetadata

DOMAIN = "rd.esiot.com"
INSTANCE = "light_lab"
INSTANCE_NAME = f"{INSTANCE}.{DOMAIN}"
HOSTNAME = f"light1.{DOMAIN}"
SERVICE_PATH = "_lamp._sub._coap._udp"
SERVICE_ALIASES = (
    "_status._lamp._sub._coap._udp",
    "_onoff._lamp._sub._coap._udp",
    "_dimmer._lamp._sub._coap._udp",
    "_x10._lamp._sub._coap._udp",
)

HOST_ADDR4 = ipaddress.IPv4Address("155.54.210.163").packed
HOST_ADDR6 = ipaddress.IPv6Address("2001:720:1710::11").packed
ZONE_ADDR4 = ipaddress.IPv4Address("155.54.210.159").packed
ZONE_ADDR6 = ipaddress.IPv6Address("2001:720:1710:0:216:3eff:fe00:9").packed

JOINED_TXT = b"rt=light;ins=2;lt=86400;model=dimmer;if=EIB;area=1;zone=2;deviceID=3;value;onoff"
MULTI_TXT = (
    b"if=X10;housecode=A;unitcode=5",
    b"rt=light;ins=1;lt=86400;model=normal",
    b"onoff;status;dimmer",
)


def _name(text: str) -> DomainName:
    return DomainName.from_text(text)


def srv_record(ttl: int = 604800) -> ResourceRecord:
    return ResourceRecord(
        _name(INSTANCE_NAME),
        RType.SRV,
        ttl,
        SrvData(priority=0, capacity=0, port=1234, target=_name(HOSTNAME)),
    )


def srv_reply_optimized() -> DnsMessage:
    """Optimized SRV lookup reply: question plus one answer, nothing else (79 bytes)."""
    return DnsMessage(
        header=DnsHeader(id=6373, qr=1, rd=1, ra=1),
        questions=(Question(_name(INSTANCE_NAME), RType.SRV),),
        answers=(srv_record(),),
    )


def srv_reply_original() -> DnsMessage:
    """The same SRV lookup as a stock resolver serves it: authority and additional attached."""
    return DnsMessage(
        header=DnsHeader(id=9950, qr=1, rd=1, ra=1),
        questions=(Question(_name(INSTANCE_NAME), RType.SRV),),
        answers=(srv_record(ttl=602400),),
        authority=(ResourceRecord(_name(DOMAIN), RType.NS, 602400, _name(DOMAIN)),),
        additional=(
            ResourceRecord(_name(HOSTNAME), RType.A, 602512, HOST_ADDR4),
            ResourceRecord(_name(HOSTNAME), RType.AAAA, 602400, HOST_ADDR6),
            ResourceRecord(_name(DOMAIN), RType.A, 602400, ZONE_ADDR4),
            ResourceRecord(_name(DOMAIN), RType.AAAA, 602400, ZONE_ADDR6),
        ),
    )


def txt_reply_joined() -> DnsMessage:
    """Metadata lookup with every TXT pair joined into one record (130 bytes)."""
    return DnsMessage(
        header=DnsHeader(id=19187, qr=1, rd=1, ra=1),
        questions=(Question(_name(HOSTNAME), RType.TXT),),
        answers=(ResourceRecord(_name(HOSTNAME), RType.TXT, 604800, (JOINED_TXT,)),),
    )


def txt_reply_multi() -> DnsMessage:
    """Metadata lookup in the original shape: three TXT records plus optional sections (221 bytes)."""
    owner = _name(INSTANCE_NAME)
    return DnsMessage(
        header=DnsHeader(id=24910, qr=1, rd=1, ra=1),
        questions=(Question(owner, RType.TXT),),
        answers=tuple(ResourceRecord(owner, RType.TXT, 604800, (chunk,)) for chunk in MULTI_TXT),
        authority=(ResourceRecord(_name(DOMAIN), RType.NS, 604800, _name(DOMAIN)),),
        additional=(
            ResourceRecord(_name(DOMAIN), RType.A, 604800, ZONE_ADDR4),
            ResourceRecord(_name(DOMAIN), RType.AAAA, 604800, ZONE_ADDR6),
        ),
    )


def frame_comparison_pairs() -> list[tuple[str, DnsMessage, DnsMessage]]:
    """(label, original, optimized) message pairs for the frame report."""
    return [
        ("srv-lookup", srv_reply_original(), srv_reply_optimized()),
        ("txt-metadata", txt_reply_multi(), txt_reply_joined()),
    ]


def dimmer_metadata() -> ServiceMetadata:
    """The dimmer light whose joined TXT string the transcripts carry."""
    return ServiceMetadata(
        rt="light",
        ins=2,
        lt=86400,
        model="dimmer",
        if_="EIB",
        verbs=["value", "onoff"],
        extra={"area": "1", "zone": "2", "deviceID": "3"},
    )


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


def light_lab_profile() -> SmartObjectProfile:
    """The lab light as a smart object: path plus per-service and
    per-technology subtype aliases."""
    return SmartObjectProfile(
        instance=INSTANCE,
        service_path=SERVICE_PATH,
        aliases=list(SERVICE_ALIASES),
        meta=dimmer_metadata(),
        port=1234,
        addr6=HOST_ADDR6,
        addr4=HOST_ADDR4,
        domain=DOMAIN,
        hostname=HOSTNAME,
        ttl=604800,
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
            instance=INSTANCE,
            service_path=SERVICE_PATH,
            domain=DOMAIN,
            rt="light",
            geo=GeoPoint(37.998, -1.141),
            revision=1,
        ),
        PointerSummary(
            instance="thermo_lab",
            service_path="_thermometer._sub._coap._udp",
            domain=DOMAIN,
            rt="temperature-c",
            geo=GeoPoint(37.9975, -1.1405),
            revision=1,
        ),
        PointerSummary(
            instance="light_hall",
            service_path=SERVICE_PATH,
            domain=DOMAIN,
            rt="light",
            geo=GeoPoint(38.002, -1.141),
            revision=1,
        ),
        PointerSummary(
            instance="gate_cam",
            service_path="_camera._sub._coap._udp",
            domain=DOMAIN,
            rt="video",
            geo=GeoPoint(37.998, -1.150),
            revision=1,
        ),
        PointerSummary(
            instance="roof_wind",
            service_path="_anemometer._sub._coap._udp",
            domain=DOMAIN,
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


def light_lab_entry() -> DirectoryEntry:
    """The lab light as its directory holds it, geo-tagged to the courtyard."""
    entry = light_lab_profile().entry()
    entry.geo = GeoPoint(37.998, -1.141)
    return entry
