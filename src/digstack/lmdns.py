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
from typing import Container, Iterator, Protocol

from .digrectory import Digrectory, DirectoryEntry, InstanceRecords, resolve_instance
from .dnscodec import (
    CodecError,
    DnsHeader,
    DnsMessage,
    DomainName,
    Question,
    RType,
    SrvData,
    decode,
    encode,
    query_name,
)
from .dnsserver import family_for
from .semantics import ServiceMetadata

MDNS_GROUP = "224.0.0.251"
MDNS_PORT = 5353


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

    def entry(self) -> DirectoryEntry:
        """The record set this object announces, as a directory holds it."""
        target = DomainName.from_text(self.hostname) if self.hostname else self.instance_name
        return DirectoryEntry(
            instance=self.instance,
            domain=self.domain,
            ptr_paths=(self.service_path, *self.aliases),
            srv=SrvData(0, 0, self.port, target),
            meta=self.meta,
            addr6=self.addr6,
            addr4=self.addr4,
            ttl=self.ttl,
        )


class SmartObjectAgent:
    """Binds a profile to a simulated link and answers queries in place.

    The object answers as a one-entry directory holding its own entry, so
    both discovery mechanisms serve one record set by one set of rules.
    Where a directory would say NXDOMAIN the object stays silent: an mDNS
    responder speaks only for the names it owns (RFC 6762, section 6).  A
    question about any other name is dropped once its name is read off the
    wire, before the message is decoded.  A profile whose names do not fit
    DNS, or whose metadata is not one TXT string, is refused with a
    ValueError before the object joins the link.
    """

    def __init__(self, profile: SmartObjectProfile, link, address: str | None = None) -> None:
        entry = profile.entry().servable()
        self.directory = Digrectory(profile.domain)
        self.directory.register(entry)
        self._owned = entry.name_keys()
        self.endpoint = link.attach(address or f"obj:{profile.instance}", responder=self._handle)

    def answer(self, query: DnsMessage) -> DnsMessage | None:
        """The reply to a query's first question, or None for silence."""
        reply = self.directory.answer(query)
        return reply if reply is not None and reply.header.rcode == 0 else None

    def _handle(self, payload: bytes, src) -> None:
        try:
            name = query_name(payload)
            if name is None or name.key() not in self._owned:
                return
            query = decode(payload)
        except CodecError:
            return
        reply = self.answer(query)
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


def registration_handshake(
    known: Container[str],
    discovered: ProbeResult,
    transport: Transport,
    *,
    window: float = 1.0,
) -> InstanceRecords | None:
    """Resolve a probed instance, or skip it entirely when already known.

    `known` holds the lowercased names of the instances already known, as
    `probe` reports them ("instance.domain"); a set makes the check one
    lookup.  A known instance costs zero messages.  A new one costs
    exactly one SRV, one TXT and one AAAA exchange, also when it does not
    answer (`digrectory.Unresolved`).
    """
    instance = discovered.instance.lower()
    if instance in known:
        return None
    return resolve_instance(lambda owner, rrtype: ask(transport, discovered.responder, owner, rrtype, window), instance)


class UdpTransport:
    """Datagram transport over a real socket with the probe/poll contract.

    Probes go to the mDNS group address; a caller on plain loopback points
    `multicast_address` at the responder instead.  The socket's family
    follows the bind host, as a server's does.
    """

    def __init__(self, bind: tuple[str, int] = ("0.0.0.0", 0)) -> None:
        self.multicast_address = (MDNS_GROUP, MDNS_PORT)
        self._sock = socket.socket(family_for(bind[0]), socket.SOCK_DGRAM)
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
