"""DNS wire codec for the mDNS/DNS-SD record subset.

RFC 1035 message framing with name compression (0xC0 pointers), typed
rdata for A/NS/CNAME/PTR/TXT/AAAA/SRV, and opaque pass-through for every
other record type.  Compression follows common resolver behaviour: owner
names and the rdata names of NS/CNAME/PTR compress against any earlier
occurrence, SRV targets are written uncompressed (RFC 2782) but still
enter the compression table so later owner names can point into them.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from enum import IntEnum
from typing import Iterable, Union

HEADER_LEN = 12
MAX_LABEL = 63
MAX_NAME_WIRE = 255
MAX_TXT_STRING = 255
CLASS_IN = 1

_POINTER_MASK = 0xC0
_MAX_POINTER_TARGET = 0x3FFF
_MAX_POINTER_JUMPS = 126


class CodecError(Exception):
    """Base for every wire-format failure."""


class LabelTooLong(CodecError, ValueError):
    """Also a ValueError, as an empty label is: text that names no DNS name."""


class NameTooLong(CodecError, ValueError):
    pass


class TxtStringTooLong(CodecError):
    pass


class Truncated(CodecError):
    """Input ends before the structure it announces."""


class BadPointer(CodecError):
    """Compression pointer that is forward, reserved, or cyclic."""


class MalformedRdata(CodecError):
    """Rdata length or layout inconsistent with the record type."""


class RType(IntEnum):
    A = 1
    NS = 2
    CNAME = 5
    PTR = 12
    TXT = 16
    AAAA = 28
    SRV = 33


# Record types whose rdata is a single domain name that may be compressed.
_NAME_RDATA_TYPES = frozenset({RType.NS, RType.CNAME, RType.PTR})


@dataclass(frozen=True, eq=False)
class DomainName:
    """A DNS name as a tuple of byte labels.  Equality is case-insensitive."""

    labels: tuple[bytes, ...]

    def __post_init__(self) -> None:
        for label in self.labels:
            if not label:
                raise ValueError("empty label inside a name")
            if len(label) > MAX_LABEL:
                raise LabelTooLong(f"label of {len(label)} bytes (limit {MAX_LABEL})")
        if self.wire_length > MAX_NAME_WIRE:
            raise NameTooLong(f"name encodes to {self.wire_length} bytes (limit {MAX_NAME_WIRE})")

    @classmethod
    def from_text(cls, text: str | DomainName) -> DomainName:
        if isinstance(text, DomainName):
            return text
        stripped = text.strip(".")
        if not stripped:
            return cls(())
        return cls(tuple(part.encode("utf-8") for part in stripped.split(".")))

    @property
    def wire_length(self) -> int:
        """Bytes this name occupies on the wire when written without compression."""
        return sum(len(label) + 1 for label in self.labels) + 1

    def key(self) -> tuple[bytes, ...]:
        return tuple(label.lower() for label in self.labels)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, DomainName):
            return self.key() == other.key()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.key())

    def __str__(self) -> str:
        return ".".join(label.decode("utf-8", "backslashreplace") for label in self.labels)

    def __repr__(self) -> str:
        return f"DomainName({str(self)!r})"


@dataclass(frozen=True)
class SrvData:
    """SRV rdata: priority, capacity (the RFC 2782 weight slot), port, target."""

    priority: int
    capacity: int
    port: int
    target: DomainName

    def __post_init__(self) -> None:
        for name, value in (("priority", self.priority), ("capacity", self.capacity), ("port", self.port)):
            if not 0 <= value <= 0xFFFF:
                raise ValueError(f"SRV {name} {value} outside 16-bit range")


# What a ResourceRecord may carry, keyed by rrtype:
#   A/AAAA -> 4/16 raw address bytes, NS/CNAME/PTR -> DomainName,
#   TXT -> tuple of character-strings, SRV -> SrvData, unknown -> raw bytes.
Rdata = Union[bytes, DomainName, SrvData, tuple]


@dataclass(frozen=True)
class Question:
    name: DomainName
    rrtype: int
    qclass: int = CLASS_IN


@dataclass(frozen=True)
class ResourceRecord:
    name: DomainName
    rrtype: int
    ttl: int
    rdata: Rdata

    def __post_init__(self) -> None:
        if not 0 <= self.ttl <= 0xFFFFFFFF:
            raise ValueError(f"ttl {self.ttl} outside 32-bit range")
        rrtype, rdata = self.rrtype, self.rdata
        if rrtype == RType.A:
            if not isinstance(rdata, bytes) or len(rdata) != 4:
                raise ValueError("A rdata must be 4 bytes")
        elif rrtype == RType.AAAA:
            if not isinstance(rdata, bytes) or len(rdata) != 16:
                raise ValueError("AAAA rdata must be 16 bytes")
        elif rrtype in _NAME_RDATA_TYPES:
            if not isinstance(rdata, DomainName):
                raise ValueError("NS/CNAME/PTR rdata must be a DomainName")
        elif rrtype == RType.SRV:
            if not isinstance(rdata, SrvData):
                raise ValueError("SRV rdata must be SrvData")
        elif rrtype == RType.TXT:
            if not isinstance(rdata, tuple) or not rdata or not all(isinstance(s, bytes) for s in rdata):
                raise ValueError("TXT rdata must be a non-empty tuple of bytes strings")
        elif not isinstance(rdata, bytes):
            raise ValueError("unknown rrtype carries opaque bytes rdata")


@dataclass(frozen=True)
class DnsHeader:
    id: int = 0
    qr: int = 0
    opcode: int = 0
    aa: int = 0
    tc: int = 0
    rd: int = 0
    ra: int = 0
    rcode: int = 0

    def __post_init__(self) -> None:
        if not 0 <= self.id <= 0xFFFF:
            raise ValueError("id outside 16-bit range")
        for bit in (self.qr, self.aa, self.tc, self.rd, self.ra):
            if bit not in (0, 1):
                raise ValueError("flag bits must be 0 or 1")
        if not 0 <= self.opcode <= 0xF or not 0 <= self.rcode <= 0xF:
            raise ValueError("opcode/rcode outside 4-bit range")

    def flags_word(self) -> int:
        return (
            (self.qr << 15)
            | (self.opcode << 11)
            | (self.aa << 10)
            | (self.tc << 9)
            | (self.rd << 8)
            | (self.ra << 7)
            | self.rcode
        )

    @classmethod
    def from_flags_word(cls, id: int, word: int) -> DnsHeader:
        return cls(
            id=id,
            qr=(word >> 15) & 1,
            opcode=(word >> 11) & 0xF,
            aa=(word >> 10) & 1,
            tc=(word >> 9) & 1,
            rd=(word >> 8) & 1,
            ra=(word >> 7) & 1,
            rcode=word & 0xF,
        )


@dataclass(frozen=True)
class DnsMessage:
    header: DnsHeader = field(default_factory=DnsHeader)
    questions: tuple[Question, ...] = ()
    answers: tuple[ResourceRecord, ...] = ()
    authority: tuple[ResourceRecord, ...] = ()
    additional: tuple[ResourceRecord, ...] = ()

    def __post_init__(self) -> None:
        # Accept any iterable per section; store tuples so messages hash/compare cleanly.
        for name in ("questions", "answers", "authority", "additional"):
            value = getattr(self, name)
            if not isinstance(value, tuple):
                object.__setattr__(self, name, tuple(value))

    # Section counts are derived, never stored, so they cannot disagree
    # with the actual sections.
    @property
    def qdcount(self) -> int:
        return len(self.questions)

    @property
    def ancount(self) -> int:
        return len(self.answers)

    @property
    def nscount(self) -> int:
        return len(self.authority)

    @property
    def arcount(self) -> int:
        return len(self.additional)

    def records(self) -> tuple[ResourceRecord, ...]:
        return self.answers + self.authority + self.additional


def response_for(query: DnsMessage, answers: Iterable[ResourceRecord], rcode: int = 0) -> DnsMessage:
    """Build the optimized reply shape: question echoed, no authority/additional."""
    header = DnsHeader(id=query.header.id, qr=1, aa=1, rd=query.header.rd, rcode=rcode)
    return DnsMessage(header=header, questions=query.questions, answers=tuple(answers))


class _Compressor:
    """Tracks name-suffix offsets while a message is written."""

    __slots__ = ("enabled", "offsets")

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.offsets: dict[tuple[bytes, ...], int] = {}

    def write_name(self, name: DomainName, out: bytearray, *, compressible: bool = True) -> None:
        labels = name.labels
        for i in range(len(labels)):
            suffix = tuple(label.lower() for label in labels[i:])
            if self.enabled and compressible:
                pos = self.offsets.get(suffix)
                if pos is not None:
                    out += struct.pack("!H", 0xC000 | pos)
                    return
            if len(out) <= _MAX_POINTER_TARGET and suffix not in self.offsets:
                self.offsets[suffix] = len(out)
            out.append(len(labels[i]))
            out += labels[i]
        out.append(0)


def _write_rdata(rr: ResourceRecord, out: bytearray, comp: _Compressor) -> None:
    length_at = len(out)
    out += b"\x00\x00"
    if rr.rrtype in _NAME_RDATA_TYPES:
        comp.write_name(rr.rdata, out)
    elif rr.rrtype == RType.SRV:
        srv: SrvData = rr.rdata
        out += struct.pack("!HHH", srv.priority, srv.capacity, srv.port)
        comp.write_name(srv.target, out, compressible=False)
    elif rr.rrtype == RType.TXT:
        for chunk in rr.rdata:
            if len(chunk) > MAX_TXT_STRING:
                raise TxtStringTooLong(f"TXT character-string of {len(chunk)} bytes (limit {MAX_TXT_STRING})")
            out.append(len(chunk))
            out += chunk
    else:
        out += rr.rdata
    rdlen = len(out) - length_at - 2
    struct.pack_into("!H", out, length_at, rdlen)


def encode(msg: DnsMessage, compression: bool = True) -> bytes:
    """Serialize a message to RFC 1035 wire bytes.

    With `compression` off every name is written in full; the two forms
    decode to the same message.
    """
    out = bytearray()
    out += struct.pack(
        "!HHHHHH",
        msg.header.id,
        msg.header.flags_word(),
        msg.qdcount,
        msg.ancount,
        msg.nscount,
        msg.arcount,
    )
    comp = _Compressor(compression)
    for q in msg.questions:
        comp.write_name(q.name, out)
        out += struct.pack("!HH", q.rrtype, q.qclass)
    for rr in msg.records():
        comp.write_name(rr.name, out)
        out += struct.pack("!HHI", rr.rrtype, CLASS_IN, rr.ttl)
        _write_rdata(rr, out, comp)
    return bytes(out)


class _Reader:
    __slots__ = ("data", "pos")

    def __init__(self, data: bytes) -> None:
        self.data = data
        self.pos = 0

    def take(self, n: int, what: str) -> bytes:
        if self.pos + n > len(self.data):
            raise Truncated(f"{what} runs past end of message")
        chunk = self.data[self.pos : self.pos + n]
        self.pos += n
        return chunk

    def u16(self, what: str) -> int:
        return struct.unpack("!H", self.take(2, what))[0]

    def u32(self, what: str) -> int:
        return struct.unpack("!I", self.take(4, what))[0]

    def read_name(self) -> DomainName:
        labels: list[bytes] = []
        wire_len = 1
        pos = self.pos
        resume = None
        jumps = 0
        seen_targets: set[int] = set()
        while True:
            if pos >= len(self.data):
                raise Truncated("name runs past end of message")
            length = self.data[pos]
            kind = length & _POINTER_MASK
            if kind == _POINTER_MASK:
                if pos + 2 > len(self.data):
                    raise Truncated("compression pointer runs past end of message")
                target = ((length & 0x3F) << 8) | self.data[pos + 1]
                if target >= pos:
                    raise BadPointer(f"pointer at offset {pos} references {target}, not strictly backward")
                if target in seen_targets:
                    raise BadPointer(f"pointer loop through offset {target}")
                seen_targets.add(target)
                jumps += 1
                if jumps > _MAX_POINTER_JUMPS:
                    raise BadPointer("pointer chain exceeds jump limit")
                if resume is None:
                    resume = pos + 2
                pos = target
            elif kind:
                raise BadPointer(f"reserved label type 0x{kind:02x} at offset {pos}")
            elif length == 0:
                self.pos = resume if resume is not None else pos + 1
                return DomainName(tuple(labels))
            else:
                if pos + 1 + length > len(self.data):
                    raise Truncated("label runs past end of message")
                wire_len += 1 + length
                if wire_len > MAX_NAME_WIRE:
                    raise NameTooLong("assembled name exceeds 255 bytes")
                labels.append(self.data[pos + 1 : pos + 1 + length])
                pos += 1 + length


def _read_rdata(reader: _Reader, rrtype: int, rdlen: int) -> Rdata:
    end = reader.pos + rdlen
    if end > len(reader.data):
        raise Truncated("rdata runs past end of message")
    if rrtype == RType.A:
        if rdlen != 4:
            raise MalformedRdata(f"A rdata of {rdlen} bytes")
        return reader.take(4, "A rdata")
    if rrtype == RType.AAAA:
        if rdlen != 16:
            raise MalformedRdata(f"AAAA rdata of {rdlen} bytes")
        return reader.take(16, "AAAA rdata")
    if rrtype in _NAME_RDATA_TYPES:
        name = reader.read_name()
        if reader.pos != end:
            raise MalformedRdata("name rdata length mismatch")
        return name
    if rrtype == RType.SRV:
        if rdlen < 7:
            raise MalformedRdata(f"SRV rdata of {rdlen} bytes")
        priority, capacity, port = struct.unpack("!HHH", reader.take(6, "SRV fields"))
        target = reader.read_name()
        if reader.pos != end:
            raise MalformedRdata("SRV rdata length mismatch")
        return SrvData(priority, capacity, port, target)
    if rrtype == RType.TXT:
        if rdlen == 0:
            return (b"",)
        strings: list[bytes] = []
        while reader.pos < end:
            slen = reader.take(1, "TXT string length")[0]
            if reader.pos + slen > end:
                raise MalformedRdata("TXT character-string crosses rdata end")
            strings.append(reader.take(slen, "TXT string"))
        return tuple(strings)
    return reader.take(rdlen, "rdata")


def decode(data: bytes) -> DnsMessage:
    """Parse wire bytes into a message.

    Unknown record types come back with their rdata preserved verbatim;
    the mDNS cache-flush / unicast-response bit on the class field is
    accepted and dropped.
    """
    reader = _Reader(data)
    if len(data) < HEADER_LEN:
        raise Truncated(f"message of {len(data)} bytes is shorter than a header")
    msg_id, flags, qdcount, ancount, nscount, arcount = struct.unpack("!HHHHHH", reader.take(HEADER_LEN, "header"))
    header = DnsHeader.from_flags_word(msg_id, flags)

    questions = []
    for _ in range(qdcount):
        name = reader.read_name()
        rrtype = reader.u16("question type")
        qclass = reader.u16("question class") & 0x7FFF
        questions.append(Question(name, rrtype, qclass))

    def read_records(count: int) -> tuple[ResourceRecord, ...]:
        records = []
        for _ in range(count):
            name = reader.read_name()
            rrtype = reader.u16("record type")
            reader.u16("record class")
            ttl = reader.u32("record ttl")
            rdlen = reader.u16("rdata length")
            rdata = _read_rdata(reader, rrtype, rdlen)
            records.append(ResourceRecord(name, rrtype, ttl, rdata))
        return tuple(records)

    answers = read_records(ancount)
    authority = read_records(nscount)
    additional = read_records(arcount)
    return DnsMessage(header, tuple(questions), answers, authority, additional)


def query_name(data: bytes) -> DomainName | None:
    """The first question's name of a query, read without decoding the rest;
    None for a response (QR set) or a message with no question.  Raises the
    `CodecError` that `decode` raises on the header or on that name."""
    if len(data) < HEADER_LEN:
        raise Truncated(f"message of {len(data)} bytes is shorter than a header")
    flags, qdcount = struct.unpack_from("!HH", data, 2)
    if flags & 0x8000 or not qdcount:
        return None
    reader = _Reader(data)
    reader.pos = HEADER_LEN
    return reader.read_name()


def _skip_name(wire: bytes, pos: int) -> int:
    while wire[pos] and not wire[pos] & _POINTER_MASK:
        pos += 1 + wire[pos]
    return pos + (2 if wire[pos] else 1)


def truncate(wire: bytes, limit: int) -> bytes:
    """Cut an encoded message to at most `limit` bytes (RFC 1035 §4.2.1).

    A message that fits comes back unchanged.  Otherwise the wire is cut
    after the last whole question or record that fits, the section counts
    are fixed and TC is set.  Cutting at a record boundary keeps every
    compression pointer valid, because pointers only point backward.
    `wire` must be a well-formed message, as `encode` writes it.
    """
    if len(wire) <= limit:
        return wire
    kept = [0, 0, 0, 0]
    pos = end = HEADER_LEN
    for section, count in enumerate(struct.unpack_from("!4H", wire, 4)):
        for _ in range(count):
            pos = _skip_name(wire, pos)
            pos += 4 if section == 0 else 10 + struct.unpack_from("!H", wire, pos + 8)[0]
            if pos > limit:
                break
            end = pos
            kept[section] += 1
        if pos > limit:
            break
    out = bytearray(wire[:end])
    out[2] |= 0x02  # TC
    struct.pack_into("!4H", out, 4, *kept)
    return bytes(out)


def measure(msg: DnsMessage) -> int:
    """Encoded size in bytes, compressed."""
    return len(encode(msg))
