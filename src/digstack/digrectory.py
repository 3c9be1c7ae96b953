"""The local directory: registered smart objects, DNS answering, publishing.

A directory owns one domain.  Objects land here by direct registration,
by the mDNS handshake, or from an EPCIS repository, and are answered
over DNS with optimized replies (answer section only, compressed).  The
directory keeps a revision counter so the pointer publisher can ship
deltas to the global lookup service and prune acknowledged tombstones.

With a journal, the journal is the source of truth: every change, from
any source (a file, the handshake, EPCIS, expiry), is appended to it and
takes effect only when the journal is read back, so every reader of the
journal agrees on entries, revisions and tombstones.
"""

from __future__ import annotations

import hashlib
import ipaddress
import json
import os
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Optional

from .digcovery import GeoPoint, PointerSummary
from .dnscodec import (
    DnsMessage,
    DomainName,
    Question,
    ResourceRecord,
    RType,
    SrvData,
    response_for,
)
from .lmdns import InstanceRecords
from .semantics import ServiceMetadata, from_txt, to_txt
from .webapi import HttpDigcoveryClient


class DirectoryError(Exception):
    pass


class DomainMismatch(DirectoryError):
    pass


class UnknownInstance(DirectoryError):
    pass


class ParseError(DirectoryError):
    """Bad entry in a registration file; carries the 1-based position."""

    def __init__(self, position: int, reason: str) -> None:
        super().__init__(f"entry {position}: {reason}")
        self.position = position
        self.reason = reason


@dataclass
class DirectoryEntry:
    """One smart object as the directory stores it."""

    instance: str
    domain: str
    ptr_paths: tuple[str, ...]
    srv: SrvData
    meta: ServiceMetadata
    addr6: Optional[bytes] = None
    addr4: Optional[bytes] = None
    ttl: int = 604800
    geo: Optional[GeoPoint] = None
    origin: str = "local"
    last_seen: float = 0.0
    revision: int = 0

    def __post_init__(self) -> None:
        if not self.instance:
            raise ValueError("instance must be non-empty")
        if not self.ptr_paths:
            raise ValueError("at least one service path required")
        if not isinstance(self.ptr_paths, tuple):
            self.ptr_paths = tuple(self.ptr_paths)
        if self.ttl <= 0:
            raise ValueError("ttl must be positive")

    @property
    def instance_name(self) -> str:
        return f"{self.instance}.{self.domain}"

    @property
    def hostname(self) -> str:
        return str(self.srv.target)

    def content_key(self) -> tuple:
        """Everything that makes a re-registration an update, not a refresh."""
        return (
            self.instance.lower(),
            self.ptr_paths,
            self.srv,
            to_txt(self.meta),
            self.addr6,
            self.addr4,
            self.ttl,
            self.geo,
        )

    def to_dict(self) -> dict:
        return {
            "instance": self.instance,
            "domain": self.domain,
            "ptr_paths": list(self.ptr_paths),
            "hostname": self.hostname,
            "port": self.srv.port,
            "priority": self.srv.priority,
            "capacity": self.srv.capacity,
            "addr6": str(ipaddress.IPv6Address(self.addr6)) if self.addr6 else None,
            "addr4": str(ipaddress.IPv4Address(self.addr4)) if self.addr4 else None,
            "ttl": self.ttl,
            "geo": {"lat": self.geo.lat, "lon": self.geo.lon} if self.geo else None,
            "origin": self.origin,
            "meta": self.meta.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> DirectoryEntry:
        meta = ServiceMetadata.from_dict(data.get("meta", {}))
        geo = data.get("geo")
        return cls(
            instance=data["instance"],
            domain=data["domain"],
            ptr_paths=tuple(data["ptr_paths"]),
            srv=SrvData(
                priority=int(data.get("priority", 0)),
                capacity=int(data.get("capacity", 0)),
                port=int(data["port"]),
                target=DomainName.from_text(data["hostname"]),
            ),
            meta=meta,
            addr6=ipaddress.IPv6Address(data["addr6"]).packed if data.get("addr6") else None,
            addr4=ipaddress.IPv4Address(data["addr4"]).packed if data.get("addr4") else None,
            ttl=int(data.get("ttl", 604800)),
            geo=GeoPoint(geo["lat"], geo["lon"]) if geo else None,
            origin=data.get("origin", "local"),
        )


def entry_from_instance_records(
    records: InstanceRecords,
    domain: str,
    ptr_paths: Iterable[str],
    geo: Optional[GeoPoint] = None,
) -> DirectoryEntry:
    """Adopt what the mDNS handshake resolved into a directory entry."""
    return DirectoryEntry(
        instance=records.instance.split(".")[0],
        domain=domain,
        ptr_paths=tuple(ptr_paths),
        srv=records.srv,
        meta=records.meta,
        addr6=records.addr6,
        ttl=records.meta.lt,
        geo=geo,
        origin="mdns",
    )


class Digrectory:
    """Registry plus DNS answer logic for one domain."""

    def __init__(
        self,
        domain: str,
        *,
        clock: Callable[[], float] = time.time,
        journal_path: Optional[str] = None,
    ) -> None:
        self.domain = domain
        self.clock = clock
        self._entries: dict[str, DirectoryEntry] = {}
        self._tombstones: list[PointerSummary] = []
        self._revision = 0
        # Held while the entries dict changes and while a reader copies it,
        # so a DNS thread never iterates a dict another thread is resizing.
        self._lock = threading.Lock()
        self._journal_path = Path(journal_path) if journal_path else None
        self._journal_offset = 0  # bytes of the journal already applied
        self._journal_lines = 0  # lines in those bytes, for error positions
        self._journal_inode: Optional[int] = None  # which file the offset is into
        self.follow_journal()

    # -- registration --

    def register(self, entry: DirectoryEntry) -> str:
        """Admit or refresh an entry; returns created/updated/refreshed.

        A journaled directory applies the change, a refresh included, when
        `follow_journal` reads it back; any other applies it at once.  A
        refresh leaves the revision alone.
        """
        if self._journal_path is None:
            return self._apply_register(entry)
        outcome = self._outcome(entry)  # checks the domain, so a foreign entry is never journaled
        self._append_journal({"op": "register", "entry": entry.to_dict()})
        return outcome

    def withdraw(self, instance: str) -> DirectoryEntry:
        """Remove an entry and tombstone its pointers; journaled as `register` is."""
        if self._journal_path is None:
            return self._apply_withdraw(instance)
        entry = self.get(instance)
        self._append_journal({"op": "withdraw", "instance": entry.instance})
        return entry

    def _outcome(self, entry: DirectoryEntry) -> str:
        if entry.domain.lower() != self.domain.lower():
            raise DomainMismatch(f"{entry.domain!r} registered with the {self.domain!r} directory")
        stored = self._entries.get(entry.instance.lower())
        if stored is None:
            return "created"
        return "refreshed" if stored.content_key() == entry.content_key() else "updated"

    def _apply_register(self, entry: DirectoryEntry) -> str:
        """With `_apply_withdraw`, the only writer of entries, revision and tombstones."""
        now = self.clock()
        with self._lock:
            outcome = self._outcome(entry)
            stored = self._entries.get(key := entry.instance.lower())
            if outcome == "refreshed":
                stored.last_seen = now
                return outcome
            self._revision += 1
            entry.revision, entry.last_seen = self._revision, now
            self._entries[key] = entry
            if stored is not None:  # tombstone what the update drops: a path, or the old spelling
                carried = {p.key() for p in self._pointers(entry, self._revision)}
                dropped = self._pointers(stored, self._revision, removed=True)
                self._tombstones += [t for t in dropped if t.key() not in carried]
        return outcome

    def _apply_withdraw(self, instance: str) -> DirectoryEntry:
        with self._lock:
            entry = self._entries.pop(instance.lower(), None)
            if entry is None:
                raise UnknownInstance(instance)
            self._revision += 1
            self._tombstones += self._pointers(entry, self._revision, removed=True)
        return entry

    def expire_stale(self) -> list[DirectoryEntry]:
        """Drop entries not seen within their ttl; tombstones follow."""
        now = self.clock()
        stale = [e.instance for e in self._snapshot() if now - e.last_seen > e.ttl]
        return [self.withdraw(name) for name in stale]

    def get(self, instance: str) -> DirectoryEntry:
        try:
            return self._entries[instance.lower()]
        except KeyError:
            raise UnknownInstance(instance) from None

    def live_entries(self) -> list[DirectoryEntry]:
        return sorted(self._snapshot(), key=lambda e: e.instance.lower())

    def _snapshot(self) -> list[DirectoryEntry]:
        with self._lock:
            return list(self._entries.values())

    @property
    def revision(self) -> int:
        return self._revision

    # -- journal --

    def _append_journal(self, op: dict) -> None:
        with self._journal_path.open("ab") as fh:
            fh.write(json.dumps(op).encode("utf-8") + b"\n")
        self.follow_journal()

    def follow_journal(self) -> None:
        """Apply every complete journal line past the offset, in file order.

        A last line without its newline is still being written and waits
        for the next call.  A bad line raises `ParseError` with its line
        number and stays unapplied.  A journal that was emptied, cut short
        or replaced by another file (log rotation) is read again from its
        start; the entries already held stay.
        """
        if self._journal_path is None:
            return
        try:
            with self._journal_path.open("rb") as fh:
                stat = os.fstat(fh.fileno())
                if stat.st_ino != self._journal_inode or stat.st_size < self._journal_offset:
                    self._journal_inode = stat.st_ino
                    self._journal_offset = self._journal_lines = 0
                fh.seek(self._journal_offset)
                data = fh.read()
        except FileNotFoundError:
            return
        start = 0
        while (end := data.find(b"\n", start) + 1) > 0:
            line = data[start:end].strip()
            if line:
                try:
                    op = json.loads(line)
                    if op["op"] == "register":
                        self._apply_register(DirectoryEntry.from_dict(op["entry"]))
                    elif op["op"] == "withdraw":
                        self._apply_withdraw(op["instance"])
                    else:
                        raise ValueError(f"unknown op {op['op']!r}")
                except (AttributeError, KeyError, TypeError, ValueError, DirectoryError) as err:
                    raise ParseError(self._journal_lines + 1, str(err)) from None
            self._journal_offset += end - start
            self._journal_lines += 1
            start = end

    # -- pointers --

    def _pointers(self, entry: DirectoryEntry, revision: int, removed: bool = False) -> list[PointerSummary]:
        """The pointer of each of an entry's service paths."""
        return [
            PointerSummary(entry.instance, path, self.domain, entry.meta.rt, entry.geo, revision, removed)
            for path in entry.ptr_paths
        ]

    def pointer_summaries(self) -> list[PointerSummary]:
        """One live pointer per (instance, service path)."""
        return [p for entry in self.live_entries() for p in self._pointers(entry, entry.revision)]

    def pending_tombstones(self) -> list[PointerSummary]:
        return list(self._tombstones)

    def prune_tombstones(self, up_to_revision: int) -> None:
        self._tombstones = [t for t in self._tombstones if t.revision > up_to_revision]

    # -- DNS answering --

    def _ptr_answers(self, qname: DomainName) -> list[ResourceRecord]:
        answers = []
        for entry in self.live_entries():
            for path in entry.ptr_paths:
                for owner in (path, f"{path}.{self.domain}"):
                    if qname == DomainName.from_text(owner):
                        answers.append(
                            ResourceRecord(
                                qname, RType.PTR, entry.ttl, DomainName.from_text(entry.instance_name)
                            )
                        )
                        break
        return answers

    def _entry_for_name(self, qname: DomainName) -> Optional[DirectoryEntry]:
        for entry in self._snapshot():
            if qname == DomainName.from_text(entry.instance_name) or qname == entry.srv.target:
                return entry
        return None

    def answer(self, query: DnsMessage) -> Optional[DnsMessage]:
        """Optimized reply: answer section only, NXDOMAIN when unknown."""
        if query.header.qr or not query.questions:
            return None
        question = query.questions[0]
        qname, rrtype = question.name, question.rrtype
        answers: list[ResourceRecord] = []
        if rrtype == RType.PTR:
            answers = self._ptr_answers(qname)
        else:
            entry = self._entry_for_name(qname)
            if entry is not None:
                if rrtype == RType.SRV and qname == DomainName.from_text(entry.instance_name):
                    answers = [ResourceRecord(qname, RType.SRV, entry.ttl, entry.srv)]
                elif rrtype == RType.TXT:
                    answers = [ResourceRecord(qname, RType.TXT, entry.ttl, (to_txt(entry.meta).encode("utf-8"),))]
                elif rrtype == RType.AAAA and entry.addr6:
                    answers = [ResourceRecord(qname, RType.AAAA, entry.ttl, entry.addr6)]
                elif rrtype == RType.A and entry.addr4:
                    answers = [ResourceRecord(qname, RType.A, entry.ttl, entry.addr4)]
        if not answers:
            return response_for(query, [], rcode=3)
        return response_for(query, answers)


def load_entry_file(path: str) -> list[DirectoryEntry]:
    """Registration file: a JSON array of entry objects."""
    raw = Path(path).read_text(encoding="utf-8")
    try:
        data = json.loads(raw)
    except json.JSONDecodeError as err:
        raise ParseError(err.lineno, err.msg) from None
    if not isinstance(data, list):
        raise ParseError(1, "expected a JSON array of entries")
    entries = []
    for position, item in enumerate(data, start=1):
        try:
            entries.append(DirectoryEntry.from_dict(item))
        except (AttributeError, KeyError, TypeError, ValueError) as err:
            raise ParseError(position, str(err)) from None
    return entries


class PointerPublisher:
    """Ships pointer deltas to the lookup service, tracking a revision
    watermark so only changes since the last acknowledged publish go out."""

    def __init__(self, directory: Digrectory, client: HttpDigcoveryClient) -> None:
        self.directory = directory
        self.client = client
        self.watermark = 0

    def pending(self) -> list[PointerSummary]:
        fresh = [s for s in self.directory.pointer_summaries() if s.revision > self.watermark]
        tombs = [t for t in self.directory.pending_tombstones() if t.revision > self.watermark]
        return fresh + tombs

    def publish(self) -> int:
        """One delta publish; returns how many pointers the service accepted."""
        goal = self.directory.revision
        batch = self.pending()
        if not batch:
            return 0
        accepted = self.client.publish_pointers(self.directory.domain, batch)
        self.watermark = goal
        self.directory.prune_tombstones(goal)
        return accepted


# --- EPCIS bridge ------------------------------------------------------------------


EPC_PREFIX = bytes.fromhex("fd00657063730000")


class EpcCollision(DirectoryError):
    pass


@dataclass
class MockEpcis:
    """Stand-in EPCIS repository: tag ids with capture attributes."""

    tags: dict[str, dict] = field(default_factory=dict)

    def capture(self, epc: str, attributes: dict) -> None:
        self.tags[epc] = dict(attributes)

    def decommission(self, epc: str) -> None:
        self.tags.pop(epc, None)


class EpcMapper:
    """Deterministic EPC to IPv6 mapping inside a ULA prefix.

    The interface identifier is the first 8 bytes of the tag id's
    SHA-256, which keeps the mapping stable across restarts; the mapper
    refuses hash collisions so the reverse direction stays unambiguous.
    """

    def __init__(self) -> None:
        self._by_epc: dict[str, bytes] = {}
        self._by_addr: dict[bytes, str] = {}

    def address_for(self, epc: str) -> bytes:
        digest = hashlib.sha256(epc.encode("utf-8")).digest()[:8]
        return EPC_PREFIX + digest

    def register(self, epc: str) -> bytes:
        addr = self.address_for(epc)
        owner = self._by_addr.get(addr)
        if owner is not None and owner != epc:
            raise EpcCollision(f"{epc!r} and {owner!r} map to the same address")
        self._by_epc[epc] = addr
        self._by_addr[addr] = epc
        return addr

    def epc_for(self, addr: bytes) -> str:
        try:
            return self._by_addr[addr]
        except KeyError:
            raise KeyError(f"no tag mapped to {addr.hex()}") from None

    def remove(self, epc: str) -> None:
        addr = self._by_epc.pop(epc, None)
        if addr is not None:
            del self._by_addr[addr]

    def __len__(self) -> int:
        return len(self._by_epc)


def metadata_from_attributes(attributes: dict) -> ServiceMetadata:
    """EPCIS capture attributes to service metadata, core keys split out."""
    known = {"rt", "ins", "lt", "model", "if", "verbs"}
    extra = {
        k: str(v)
        for k, v in attributes.items()
        if k not in known and k not in ("instance", "service_path", "port", "hostname")
    }
    return ServiceMetadata(
        rt=attributes["rt"],
        ins=int(attributes.get("ins", 1)),
        lt=int(attributes.get("lt", 86400)),
        model=str(attributes.get("model", "")),
        if_=str(attributes.get("if", "")),
        verbs=tuple(attributes.get("verbs", ())),
        extra=extra,
    )


def _epc_instance(epc: str, attributes: dict) -> str:
    if "instance" in attributes:
        return str(attributes["instance"])
    tail = epc.split(":")[-1]
    return "tag_" + tail.replace(".", "_")


@dataclass
class ResolvedTag:
    instance_name: str
    addr6: str
    port: int
    meta: ServiceMetadata


class EpcisDriver:
    """Keeps a directory in step with an EPCIS repository and resolves
    tags through either the object API or the DNS path."""

    def __init__(self, epcis: MockEpcis, directory: Digrectory) -> None:
        self.epcis = epcis
        self.directory = directory
        self.mapper = EpcMapper()

    def sync(self) -> int:
        """Register every captured tag; returns how many changed the directory."""
        changed = 0
        for epc, attributes in sorted(self.epcis.tags.items()):
            instance = _epc_instance(epc, attributes)
            addr6 = self.mapper.register(epc)
            meta = metadata_from_attributes(attributes)
            entry = DirectoryEntry(
                instance=instance,
                domain=self.directory.domain,
                ptr_paths=(str(attributes.get("service_path", "_epc._sub._coap._udp")),),
                srv=SrvData(
                    priority=0,
                    capacity=0,
                    port=int(attributes.get("port", 5683)),
                    target=DomainName.from_text(
                        str(attributes.get("hostname", f"{instance}.{self.directory.domain}"))
                    ),
                ),
                meta=meta,
                addr6=addr6,
                ttl=meta.lt,
                origin="epcis",
            )
            if self.directory.register(entry) != "refreshed":
                changed += 1
        return changed

    def expire_tag(self, epc: str) -> None:
        attributes = self.epcis.tags.get(epc, {})
        instance = _epc_instance(epc, attributes)
        self.epcis.decommission(epc)
        self.directory.withdraw(instance)
        self.mapper.remove(epc)

    # -- resolution, two ways --

    def resolve(self, epc: str, via: str = "api") -> ResolvedTag:
        if via not in ("api", "dns"):
            raise ValueError(f"unknown resolution path {via!r}")
        if epc not in self.epcis.tags:
            raise UnknownInstance(epc)
        instance = _epc_instance(epc, self.epcis.tags[epc])
        return self._resolve_api(instance) if via == "api" else self._resolve_dns(epc, instance)

    def _resolve_api(self, instance: str) -> ResolvedTag:
        entry = self.directory.get(instance)
        return ResolvedTag(
            instance_name=entry.instance_name,
            addr6=str(ipaddress.IPv6Address(entry.addr6)),
            port=entry.srv.port,
            meta=entry.meta,
        )

    def _resolve_dns(self, epc: str, instance: str) -> ResolvedTag:
        name = DomainName.from_text(f"{instance}.{self.directory.domain}")

        def ask(rrtype: RType, owner: DomainName) -> ResourceRecord:
            query = DnsMessage(questions=(Question(owner, rrtype),))
            reply = self.directory.answer(query)
            if reply is None or reply.header.rcode != 0 or not reply.answers:
                raise UnknownInstance(f"{epc}: no {rrtype.name} answer")
            return reply.answers[0]

        srv = ask(RType.SRV, name).rdata
        txt = ask(RType.TXT, name).rdata
        aaaa = ask(RType.AAAA, srv.target).rdata
        return ResolvedTag(
            instance_name=str(name),
            addr6=str(ipaddress.IPv6Address(aaaa)),
            port=srv.port,
            meta=from_txt([chunk.decode("utf-8") for chunk in txt]),
        )
