"""The local directory: registered smart objects, DNS answering, publishing.

A directory owns one domain.  Objects land here by direct registration,
by the mDNS handshake, or from an EPCIS repository, and are answered
over DNS with optimized replies (answer section only, compressed).  Its
pointer rows, live or removed, stay in revision order for the publisher.

With a journal, the journal is the source of truth: every change, from
any source (a file, the handshake, EPCIS, expiry), is appended to it and
takes effect only when the journal is read back, so every reader of the
journal agrees on entries, revisions and pointer rows.
"""

from __future__ import annotations

import hashlib
import ipaddress
import json
import logging
import os
import threading
import time
from dataclasses import dataclass, field
from itertools import takewhile
from pathlib import Path
from typing import Callable, Iterable, Optional

from . import webapi
from .digcovery import GeoPoint, PointerSummary
from .dnscodec import (
    MAX_NAME_WIRE,
    DnsMessage,
    DomainName,
    Question,
    ResourceRecord,
    RType,
    SrvData,
    response_for,
)
from .semantics import ServiceMetadata, from_txt, to_txt

log = logging.getLogger(__name__)

# The most bytes that one pointer row adds to a publish batch's JSON.  Its
# names come from a servable entry, whose "instance.domain" and each
# "path.domain" are at most 253 bytes of text, so instance, path and domain
# hold at most 2 x 252 bytes together; rt sits in one 255-byte TXT string
# after "rt=", so it holds at most 252.  JSON writes a byte in at most 6
# characters (a control byte as \u00XX), a coordinate on the globe in at
# most 24 (a float's repr) and a revision in at most 20 digits; the keys,
# quotes and separators take 120.  A 16 MiB front thus takes 3,551 rows a
# batch, where the campus corpus averages 178 B a row.
MAX_ROW_BYTES = 120 + (2 * 252 + 252) * 6 + 2 * 24 + 20


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

    def servable(self) -> DirectoryEntry:
        """This entry, once each name it answers for fits DNS (labels of at
        most 63 bytes, names of at most 255 on the wire and 253 as text, so
        that no dot that `from_text` strips makes one longer), its metadata
        renders to one TXT string and its geo point lies on the globe; else
        a ValueError.  The doors for outside records call it, and so does a
        journaled `register`; `__post_init__` does not, so an entry the
        program builds for an unjournaled directory skips it."""
        for name in (self.instance_name, *(f"{path}.{self.domain}" for path in self.ptr_paths)):
            if len(name.encode("utf-8")) > MAX_NAME_WIRE - 2:
                raise ValueError(f"name {name[:40]!r}... over {MAX_NAME_WIRE - 2} bytes")
            DomainName.from_text(name)
        to_txt(self.meta)
        if self.geo and not (abs(self.geo.lat) <= 90 and abs(self.geo.lon) <= 180):
            raise ValueError(f"geo point off the globe ({self.geo.lat}, {self.geo.lon})")
        return self

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
            "geo": self.geo.to_dict() if self.geo else None,
            "origin": self.origin,
            "meta": self.meta.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> DirectoryEntry:
        """The entry door for outside records (entry files, journal lines,
        EPCIS captures); what it returns is servable."""
        instance, domain, hostname, paths = data["instance"], data["domain"], data["hostname"], data["ptr_paths"]
        if not (isinstance(instance, str) and isinstance(domain, str) and isinstance(hostname, str)):
            raise TypeError("instance, domain and hostname must be strings")
        if not isinstance(paths, list) or not all(isinstance(path, str) for path in paths):
            raise TypeError("ptr_paths must be a list of strings")
        port, priority, capacity = data["port"], data.get("priority", 0), data.get("capacity", 0)
        ttl = data.get("ttl", 604800)
        if not all(type(n) is int for n in (port, priority, capacity, ttl)):
            raise TypeError("port, priority, capacity and ttl must be integers")
        meta = ServiceMetadata.from_dict(data.get("meta", {}))
        return cls(
            instance=instance,
            domain=domain,
            ptr_paths=tuple(paths),
            srv=SrvData(priority, capacity, port, DomainName.from_text(hostname)),
            meta=meta,
            addr6=ipaddress.IPv6Address(data["addr6"]).packed if data.get("addr6") else None,
            addr4=ipaddress.IPv4Address(data["addr4"]).packed if data.get("addr4") else None,
            ttl=ttl,
            geo=GeoPoint.from_dict(data.get("geo")),
            origin=data.get("origin", "local"),
        ).servable()


@dataclass(frozen=True)
class InstanceRecords:
    """One resolved DNS-SD instance: its SRV, its metadata and the address
    of its SRV target."""

    instance: str
    srv: SrvData
    meta: ServiceMetadata
    addr6: bytes


class Unresolved(UnknownInstance):
    """A resolution that did not complete; lists the records missing."""

    def __init__(self, instance: str, missing: list[str]) -> None:
        super().__init__(f"no {'/'.join(missing)} answer from {instance}")
        self.instance = instance
        self.missing = missing


def resolve_instance(ask: Callable[[DomainName, RType], Optional[DnsMessage]], name: str) -> InstanceRecords:
    """Resolve an instance (RFC 6763 sections 5-6): its SRV and TXT records,
    then the AAAA of the SRV target, or of the name when no SRV came, so
    that a failure costs the same three questions.  `ask(owner, rrtype)`
    returns a reply, or None on silence.  Raises `Unresolved`."""
    qname = DomainName.from_text(name)

    def rdata(owner: DomainName, rrtype: RType):
        reply = ask(owner, rrtype)
        return next((rr.rdata for rr in reply.answers if rr.rrtype == rrtype), None) if reply is not None else None

    srv, txt = rdata(qname, RType.SRV), rdata(qname, RType.TXT)
    addr6 = rdata(srv.target if srv is not None else qname, RType.AAAA)
    missing = [label for label, found in (("SRV", srv), ("TXT", txt), ("AAAA", addr6)) if found is None]
    if missing:
        raise Unresolved(name, missing)
    return InstanceRecords(name, srv, from_txt([chunk.decode("utf-8") for chunk in txt]), addr6)


def entry_from_instance_records(
    records: InstanceRecords,
    domain: str,
    ptr_paths: Iterable[str],
    geo: Optional[GeoPoint] = None,
) -> DirectoryEntry:
    """Adopt a resolved instance into a directory entry."""
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
    ).servable()


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
        self._rows: dict[tuple[str, str, str], PointerSummary] = {}  # by key, in revision order
        self._revision = 0
        # Held while the entries or rows change and while a reader copies
        # them, so no thread iterates a dict another thread is resizing.
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
        # a foreign or unservable entry is never journaled, as replay would refuse it
        outcome = self._outcome(entry.servable())
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
        """With `_apply_withdraw`, the only writer of entries, revision and rows."""
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
            if stored is not None:  # an update removes the old rows; the new ones it keeps come back
                self._pointers(stored, removed=True)
            self._pointers(entry)
        return outcome

    def _apply_withdraw(self, instance: str) -> DirectoryEntry:
        with self._lock:
            entry = self._entries.pop(instance.lower(), None)
            if entry is None:
                raise UnknownInstance(instance)
            self._revision += 1
            self._pointers(entry, removed=True)
        return entry

    def expire_stale(self) -> list[DirectoryEntry]:
        """Drop entries not seen within their ttl; their rows are removed."""
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
        for the next call.  A withdraw of an entry not held is a no-op.  A
        bad line raises `ParseError` with its line number and stays
        unapplied.  A journal that was emptied, cut short or replaced by
        another file (log rotation) is read again from its start; the
        entries already held stay.
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
                        # another follower of this journal may have withdrawn it first
                        if op["instance"].lower() in self._entries:
                            self._apply_withdraw(op["instance"])
                    else:
                        raise ValueError(f"unknown op {op['op']!r}")
                except (AttributeError, KeyError, TypeError, ValueError, DirectoryError) as err:
                    raise ParseError(self._journal_lines + 1, str(err)) from None
            self._journal_offset += end - start
            self._journal_lines += 1
            start = end

    # -- pointers --

    def _pointers(self, entry: DirectoryEntry, removed: bool = False) -> None:
        """Write the row of each of an entry's service paths at the current
        revision, moved to the end of the table."""
        for path in entry.ptr_paths:
            row = PointerSummary(entry.instance, path, self.domain, entry.meta.rt, entry.geo, self._revision, removed)
            self._rows.pop(key := row.key(), None)
            self._rows[key] = row

    def pointer_summaries(self, removed: bool = False) -> list[PointerSummary]:
        """One live row per (instance, service path), or the removed rows not
        yet pruned, in revision order."""
        with self._lock:
            return [row for row in self._rows.values() if row.removed == removed]

    def prune_tombstones(self, up_to_revision: int) -> None:
        with self._lock:
            self._rows = {k: row for k, row in self._rows.items() if not row.removed or row.revision > up_to_revision}

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

    def __init__(self, directory: Digrectory, client: webapi.HttpDigcoveryClient) -> None:
        self.directory = directory
        self.client = client
        self.watermark = 0

    def pending(self) -> list[PointerSummary]:
        """The rows written since the watermark, oldest first: a walk back from the newest."""
        with self.directory._lock:
            return list(takewhile(lambda r: r.revision > self.watermark, reversed(self.directory._rows.values())))[::-1]

    def publish(self) -> int:
        """Ship the rows written since the watermark, oldest first, in
        batches under the front's body cap; returns how many pointers the
        service accepted.  After each acknowledged batch the watermark is
        one below the first row not yet sent, so a publish that fails goes
        on from there the next time; resending part of a revision is
        harmless, as the service ignores a row at the revision it holds."""
        rows = self.pending()
        if not rows:
            return 0
        size, accepted = max(1, webapi.MAX_BODY // MAX_ROW_BYTES), 0
        for start in range(0, len(rows), size):
            accepted += self.client.publish_pointers(self.directory.domain, rows[start:start + size])
            end = start + size
            self.watermark = rows[end].revision - 1 if end < len(rows) else rows[-1].revision
        self.directory.prune_tombstones(self.watermark)
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
        self._by_addr: dict[bytes, str] = {}

    def address_for(self, epc: str) -> bytes:
        digest = hashlib.sha256(epc.encode("utf-8")).digest()[:8]
        return EPC_PREFIX + digest

    def register(self, epc: str) -> bytes:
        addr = self.address_for(epc)
        owner = self._by_addr.get(addr)
        if owner is not None and owner != epc:
            raise EpcCollision(f"{epc!r} and {owner!r} map to the same address")
        self._by_addr[addr] = epc
        return addr

    def epc_for(self, addr: bytes) -> str:
        try:
            return self._by_addr[addr]
        except KeyError:
            raise KeyError(f"no tag mapped to {addr.hex()}") from None

    def remove(self, epc: str) -> None:
        addr = self.address_for(epc)
        if self._by_addr.get(addr) == epc:
            del self._by_addr[addr]

    def __len__(self) -> int:
        return len(self._by_addr)


_ENTRY_ATTRIBUTES = ("instance", "service_path", "port", "hostname")  # shape the entry, not its metadata


def metadata_from_attributes(attributes: dict) -> ServiceMetadata:
    """EPCIS capture attributes to service metadata, core keys split out.
    Captures are untyped, so ins and lt are read as integers, and model,
    if and the extras as text."""
    data = {k: v for k, v in attributes.items() if k in ("rt", "verbs")}
    data.update((k, int(v)) for k, v in attributes.items() if k in ("ins", "lt"))
    data.update((k, str(v)) for k, v in attributes.items() if k in ("model", "if"))
    extra = {k: str(v) for k, v in attributes.items() if k not in data and k not in _ENTRY_ATTRIBUTES}
    return ServiceMetadata.from_dict({**data, "extra": extra})


def _epc_instance(epc: str, attributes: dict) -> str:
    if "instance" in attributes:
        return str(attributes["instance"])
    tail = epc.split(":")[-1]
    return "tag_" + tail.replace(".", "_")


class EpcisDriver:
    """Keeps a directory in step with an EPCIS repository and resolves
    tags through either the object API or the DNS path."""

    def __init__(self, epcis: MockEpcis, directory: Digrectory) -> None:
        self.epcis = epcis
        self.directory = directory
        self.mapper = EpcMapper()

    def sync(self) -> int:
        """Register every captured tag; returns how many changed the
        directory.  A tag the doors refuse is logged and skipped, and
        changes nothing."""
        changed = 0
        for epc, attributes in sorted(self.epcis.tags.items()):
            instance, domain = _epc_instance(epc, attributes), self.directory.domain
            try:
                meta = metadata_from_attributes(attributes)
                entry = DirectoryEntry.from_dict({
                    "instance": instance,
                    "domain": domain,
                    "ptr_paths": [str(attributes.get("service_path", "_epc._sub._coap._udp"))],
                    "hostname": str(attributes.get("hostname", f"{instance}.{domain}")),
                    "port": int(attributes.get("port", 5683)),
                    "addr6": str(ipaddress.IPv6Address(self.mapper.address_for(epc))),
                    "ttl": meta.lt,
                    "origin": "epcis",
                    "meta": meta.to_dict(),
                })
                self.mapper.register(epc)  # a collision refuses the tag before the directory sees it
            except (KeyError, TypeError, ValueError, DirectoryError) as err:
                log.warning("epcis: tag %s refused: %s", epc, err)
            else:
                changed += self.directory.register(entry) != "refreshed"
        return changed

    def expire_tag(self, epc: str) -> None:
        """Withdraw a tag's entry, then decommission the tag; a tag the
        directory does not hold raises `UnknownInstance` and changes nothing."""
        self.directory.withdraw(_epc_instance(epc, self.epcis.tags.get(epc, {})))
        self.epcis.decommission(epc)
        self.mapper.remove(epc)

    def resolve(self, epc: str, via: str = "api") -> InstanceRecords:
        """A tag's records, read from its directory entry ("api") or
        resolved through the directory's DNS answers ("dns")."""
        if via not in ("api", "dns"):
            raise ValueError(f"unknown resolution path {via!r}")
        if epc not in self.epcis.tags:
            raise UnknownInstance(epc)
        instance = _epc_instance(epc, self.epcis.tags[epc])
        if via == "dns":
            return resolve_instance(
                lambda owner, rrtype: self.directory.answer(DnsMessage(questions=(Question(owner, rrtype),))),
                f"{instance}.{self.directory.domain}",
            )
        entry = self.directory.get(instance)
        return InstanceRecords(entry.instance_name, entry.srv, entry.meta, entry.addr6)
