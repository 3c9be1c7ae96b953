"""Lightweight mDNS: how smart objects announce themselves and how a
directory learns about them without flooding a constrained link.

The economy rules: answers never carry authority/additional sections,
metadata travels as one joined TXT record, and a directory that already
knows an instance stops after the PTR round instead of re-resolving
SRV/TXT/AAAA.
"""

from __future__ import annotations

import random
import socket
import time
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Protocol

from .dnscodec import (
    CodecError,
    DnsHeader,
    DnsMessage,
    DomainName,
    Question,
    ResourceRecord,
    RType,
    SrvData,
    decode,
    encode,
    response_for,
)
from .semantics import ServiceMetadata, from_txt, to_txt

MDNS_GROUP = "224.0.0.251"
MDNS_PORT = 5353


class LmdnsError(Exception):
    pass


class HandshakeTimeout(LmdnsError):
    """A registration handshake that never completed; lists what is missing."""

    def __init__(self, instance: str, missing: list[str]) -> None:
        super().__init__(f"no {'/'.join(missing)} answer from {instance}")
        self.instance = instance
        self.missing = missing


class Transport(Protocol):
    """What probe, ask and the handshake need from a transport; both the
    simulated link endpoint and the UDP transport satisfy it."""

    multicast_address: object

    def send(self, dst, payload: bytes) -> None: ...

    def poll(self, timeout: float | None = None) -> list[tuple[bytes, object]]: ...


@dataclass
class SmartObjectProfile:
    """Everything one smart object announces.

    `instance` is a single label; `service_path` and `aliases` are the
    subtype paths it answers PTR queries for; `hostname` is the SRV
    target (defaults to instance.domain).
    """

    instance: str
    service_path: str
    meta: ServiceMetadata
    port: int
    addr6: bytes
    domain: str = "local"
    hostname: str | None = None
    aliases: list[str] = field(default_factory=list)
    addr4: bytes | None = None
    ttl: int = 604800
    priority: int = 0
    capacity: int = 0

    def __post_init__(self) -> None:
        if "." in self.instance:
            raise ValueError("instance must be a single label")
        if len(self.addr6) != 16:
            raise ValueError("addr6 must be 16 bytes")
        if self.addr4 is not None and len(self.addr4) != 4:
            raise ValueError("addr4 must be 4 bytes")

    @property
    def instance_name(self) -> DomainName:
        return DomainName.from_text(f"{self.instance}.{self.domain}")

    @property
    def host_name(self) -> DomainName:
        if self.hostname:
            return DomainName.from_text(self.hostname)
        return self.instance_name

    def ptr_owner_names(self) -> list[DomainName]:
        """Names this object answers PTR queries on: each subtype path,
        bare and under the domain."""
        names = []
        for path in [self.service_path, *self.aliases]:
            names.append(DomainName.from_text(path))
            names.append(DomainName.from_text(f"{path}.{self.domain}"))
        return names

    def srv_data(self) -> SrvData:
        return SrvData(self.priority, self.capacity, self.port, self.host_name)


def answer_query(profile: SmartObjectProfile, query: DnsMessage) -> DnsMessage | None:
    """The agent's answer to one query, or None for silence.

    Replies carry no authority/additional records, and TXT data is the
    single joined string.  A records are served only when the profile
    carries an IPv4 address.
    """
    if query.header.qr:
        return None
    answers: list[ResourceRecord] = []
    instance_name = profile.instance_name
    host_name = profile.host_name
    for q in query.questions:
        if q.rrtype == RType.PTR and q.name in profile.ptr_owner_names():
            answers.append(ResourceRecord(q.name, RType.PTR, profile.ttl, instance_name))
        elif q.rrtype == RType.SRV and q.name == instance_name:
            answers.append(ResourceRecord(q.name, RType.SRV, profile.ttl, profile.srv_data()))
        elif q.rrtype == RType.TXT and q.name in (instance_name, host_name):
            answers.append(ResourceRecord(q.name, RType.TXT, profile.ttl, (to_txt(profile.meta).encode("utf-8"),)))
        elif q.rrtype == RType.AAAA and q.name in (instance_name, host_name):
            answers.append(ResourceRecord(q.name, RType.AAAA, profile.ttl, profile.addr6))
        elif q.rrtype == RType.A and q.name in (instance_name, host_name) and profile.addr4 is not None:
            answers.append(ResourceRecord(q.name, RType.A, profile.ttl, profile.addr4))
    if not answers:
        return None
    return response_for(query, answers)


class SmartObjectAgent:
    """Binds a profile to a simulated link and answers queries in place."""

    def __init__(self, profile: SmartObjectProfile, link, address: str | None = None) -> None:
        self.profile = profile
        self.endpoint = link.attach(address or f"obj:{profile.instance}", responder=self._handle)

    def _handle(self, payload: bytes, src) -> None:
        try:
            query = decode(payload)
        except CodecError:
            return
        reply = answer_query(self.profile, query)
        if reply is not None:
            self.endpoint.send(src, encode(reply))


@dataclass(frozen=True)
class ProbeResult:
    instance: str
    responder: object


def _exchange(
    transport: Transport, dst, name: str | DomainName, rrtype: int, window: float
) -> Iterator[tuple[DnsMessage, object]]:
    """Send `dst` one question under a fresh random id, then yield each
    decoded reply carrying that id, with its source, until the window ends."""
    query = DnsMessage(
        header=DnsHeader(id=random.randrange(0x10000)),
        questions=(Question(DomainName.from_text(name), rrtype),),
    )
    transport.send(dst, encode(query))
    deadline = time.monotonic() + window
    while True:
        remaining = deadline - time.monotonic()
        batch = transport.poll(max(0.0, remaining))
        if not batch:
            return
        for payload, src in batch:
            try:
                reply = decode(payload)
            except CodecError:
                continue
            if reply.header.qr and reply.header.id == query.header.id:
                yield reply, src
        if remaining <= 0:
            return


def probe(transport: Transport, service_path: str, window: float = 1.0) -> list[ProbeResult]:
    """Multicast one PTR question and collect the instances that answer.

    Duplicate announcements for the same instance are collapsed onto the
    first responder seen.
    """
    found: dict[str, ProbeResult] = {}
    for reply, src in _exchange(transport, transport.multicast_address, service_path, RType.PTR, window):
        for rr in reply.answers:
            if rr.rrtype == RType.PTR:
                instance = str(rr.rdata).lower()
                found.setdefault(instance, ProbeResult(instance, src))
    return list(found.values())


def ask(transport: Transport, dst, name: str | DomainName, rrtype: int, window: float = 1.0) -> DnsMessage | None:
    """Ask `dst` one question; the first reply to it, or None on silence."""
    return next((reply for reply, _src in _exchange(transport, dst, name, rrtype, window)), None)


@dataclass(frozen=True)
class InstanceRecords:
    """What a completed registration handshake yields."""

    instance: str
    srv: SrvData
    meta: ServiceMetadata
    addr6: bytes


def _record(transport: Transport, responder, name: DomainName, rrtype: int, window: float) -> ResourceRecord | None:
    reply = ask(transport, responder, name, rrtype, window)
    return next((rr for rr in reply.answers if rr.rrtype == rrtype), None) if reply is not None else None


def registration_handshake(
    known: Iterable[str],
    discovered: ProbeResult,
    transport: Transport,
    *,
    window: float = 1.0,
) -> InstanceRecords | None:
    """Resolve a probed instance, or skip it entirely when already known.

    A known instance costs zero messages.  A new one costs exactly one
    SRV, one TXT and one AAAA exchange.
    """
    instance = discovered.instance.lower()
    if instance in {k.lower() for k in known}:
        return None
    name = DomainName.from_text(instance)
    srv_rr = _record(transport, discovered.responder, name, RType.SRV, window)
    txt_rr = _record(transport, discovered.responder, name, RType.TXT, window)
    aaaa_owner = srv_rr.rdata.target if srv_rr is not None else name
    aaaa_rr = _record(transport, discovered.responder, aaaa_owner, RType.AAAA, window)
    missing = [label for label, rr in (("SRV", srv_rr), ("TXT", txt_rr), ("AAAA", aaaa_rr)) if rr is None]
    if missing:
        raise HandshakeTimeout(instance, missing)
    meta = from_txt([chunk.decode("utf-8") for chunk in txt_rr.rdata])
    return InstanceRecords(instance=instance, srv=srv_rr.rdata, meta=meta, addr6=aaaa_rr.rdata)


class UdpTransport:
    """Datagram transport over a real socket with the probe/poll contract.

    Probes go to the mDNS group address; a caller on plain loopback points
    `multicast_address` at the responder instead.
    """

    def __init__(self, bind: tuple[str, int] = ("0.0.0.0", 0)) -> None:
        self.multicast_address = (MDNS_GROUP, MDNS_PORT)
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._sock.bind(bind)
        self.address = self._sock.getsockname()

    def send(self, dst, payload: bytes) -> None:
        self._sock.sendto(payload, tuple(dst))

    def poll(self, timeout: float | None = None) -> list[tuple[bytes, object]]:
        """Wait up to `timeout` for a datagram, then take whatever else is
        already queued without waiting again."""
        batch: list[tuple[bytes, object]] = []
        self._sock.settimeout(timeout if timeout and timeout > 0 else 0.0)
        while True:
            try:
                batch.append(self._sock.recvfrom(65535))
            except (socket.timeout, BlockingIOError):
                return batch
            self._sock.setblocking(False)

    def close(self) -> None:
        self._sock.close()
