"""Reference fixtures for the frame-comparison report, the demo, the
benchmark's paper checks and the test suite.

The four message transcripts reproduce one smart object (a lab light
behind a local directory for the `rd.esiot.com` domain) as captured by
a stock resolver: the optimized SRV/TXT replies that the directory
serves on constrained links, and the original full-section equivalents
they replace.
"""

from __future__ import annotations

import ipaddress

from .digcovery import GeoPoint
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


def light_lab_entry() -> DirectoryEntry:
    """The lab light as its directory holds it, geo-tagged to the courtyard."""
    entry = light_lab_profile().entry()
    entry.geo = GeoPoint(37.998, -1.141)
    return entry
