"""Wire codec: round-trips, compression neutrality, size accounting, hostile input."""

from __future__ import annotations

import struct
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from digstack import fixtures
from digstack.dnscodec import (
    HEADER_LEN,
    BadPointer,
    CodecError,
    DnsHeader,
    DnsMessage,
    DomainName,
    LabelTooLong,
    MalformedRdata,
    NameTooLong,
    Question,
    ResourceRecord,
    RType,
    SrvData,
    Truncated,
    TxtStringTooLong,
    decode,
    encode,
    measure,
    query_name,
    response_for,
    truncate,
)

# --- strategies -------------------------------------------------------------

# A small shared label pool makes generated names collide on suffixes,
# which is what actually exercises the compression table.
_LABEL_POOL = ["a", "bb", "light1", "rd", "esiot", "com", "_coap", "_udp", "x" * 63]

def _fits_wire(parts: list[str]) -> bool:
    # Encoded form is one length byte per label plus the trailing root byte;
    # names over 255 wire bytes are rejected by the codec by design, so the
    # strategy must only compose legal ones (several 63-byte labels overflow).
    return sum(len(p) + 1 for p in parts) + 1 <= 255


_names = st.builds(
    lambda parts: DomainName(tuple(p.encode() for p in parts)),
    st.lists(st.sampled_from(_LABEL_POOL), min_size=1, max_size=5).filter(_fits_wire),
)

_ttl = st.integers(min_value=0, max_value=0xFFFFFFFF)
_u16 = st.integers(min_value=0, max_value=0xFFFF)


def _record_strategy() -> st.SearchStrategy[ResourceRecord]:
    a = st.builds(lambda n, t, b: ResourceRecord(n, RType.A, t, bytes(b)), _names, _ttl, st.binary(min_size=4, max_size=4))
    aaaa = st.builds(lambda n, t, b: ResourceRecord(n, RType.AAAA, t, bytes(b)), _names, _ttl, st.binary(min_size=16, max_size=16))
    ptr = st.builds(lambda n, t, tgt: ResourceRecord(n, RType.PTR, t, tgt), _names, _ttl, _names)
    ns = st.builds(lambda n, t, tgt: ResourceRecord(n, RType.NS, t, tgt), _names, _ttl, _names)
    cname = st.builds(lambda n, t, tgt: ResourceRecord(n, RType.CNAME, t, tgt), _names, _ttl, _names)
    srv = st.builds(
        lambda n, t, pri, cap, port, tgt: ResourceRecord(n, RType.SRV, t, SrvData(pri, cap, port, tgt)),
        _names, _ttl, _u16, _u16, _u16, _names,
    )
    txt = st.builds(
        lambda n, t, chunks: ResourceRecord(n, RType.TXT, t, tuple(chunks)),
        _names, _ttl, st.lists(st.binary(max_size=40), min_size=1, max_size=4),
    )
    unknown = st.builds(
        lambda n, t, rrtype, blob: ResourceRecord(n, rrtype, t, blob),
        _names, _ttl, st.sampled_from([13, 15, 47, 255]), st.binary(max_size=24),
    )
    return st.one_of(a, aaaa, ptr, ns, cname, srv, txt, unknown)


_messages = st.builds(
    DnsMessage,
    header=st.builds(
        DnsHeader,
        id=_u16,
        qr=st.integers(0, 1),
        opcode=st.integers(0, 15),
        aa=st.integers(0, 1),
        tc=st.integers(0, 1),
        rd=st.integers(0, 1),
        ra=st.integers(0, 1),
        rcode=st.integers(0, 15),
    ),
    questions=st.lists(
        st.builds(Question, _names, st.sampled_from([int(t) for t in RType]), st.integers(1, 255)),
        max_size=3,
    ).map(tuple),
    answers=st.lists(_record_strategy(), max_size=3).map(tuple),
    authority=st.lists(_record_strategy(), max_size=2).map(tuple),
    additional=st.lists(_record_strategy(), max_size=2).map(tuple),
)


# --- names ------------------------------------------------------------------


def test_name_equality_ignores_case():
    assert DomainName.from_text("Light1.RD.esiot.COM") == DomainName.from_text("light1.rd.esiot.com")
    assert hash(DomainName.from_text("A.B")) == hash(DomainName.from_text("a.b"))


def test_name_limits():
    with pytest.raises(LabelTooLong):
        DomainName((b"x" * 64,))
    with pytest.raises(NameTooLong):
        DomainName(tuple(b"x" * 63 for _ in range(5)))
    DomainName((b"x" * 63,))  # boundary is fine


# --- fixed-size checks ------------------------------------------------------


def test_empty_query_is_bare_header():
    assert encode(DnsMessage(header=DnsHeader(id=0))) == b"\x00" * 12
    assert decode(b"\x00" * 12) == DnsMessage()


def test_reference_reply_sizes():
    assert len(encode(fixtures.srv_reply_optimized())) == 79
    assert len(encode(fixtures.srv_reply_original())) == 181
    assert len(encode(fixtures.txt_reply_joined())) == 130
    assert len(encode(fixtures.txt_reply_multi())) == 221


def test_joined_txt_reply_decodes_to_single_answer():
    data = encode(fixtures.txt_reply_joined())
    msg = decode(data)
    assert len(msg.answers) == 1
    (chunk,) = msg.answers[0].rdata
    assert chunk.startswith(b"rt=light;ins=2;lt=86400;model=dimmer")
    assert chunk == fixtures.JOINED_TXT


def test_srv_fields_survive_roundtrip():
    msg = decode(encode(fixtures.srv_reply_optimized()))
    srv = msg.answers[0].rdata
    assert (srv.priority, srv.capacity, srv.port) == (0, 0, 1234)
    assert srv.target == DomainName.from_text("light1.rd.esiot.com")


# --- error paths ------------------------------------------------------------


def test_decode_truncated_header():
    with pytest.raises(Truncated):
        decode(b"\x00" * 11)


def test_decode_truncated_record():
    data = encode(fixtures.srv_reply_optimized())
    with pytest.raises(Truncated):
        decode(data[:-3])


def test_self_pointer_rejected():
    # One question whose name is a pointer to its own offset (12).
    data = struct.pack("!HHHHHH", 1, 0, 1, 0, 0, 0) + struct.pack("!H", 0xC000 | 12) + struct.pack("!HH", 1, 1)
    with pytest.raises(BadPointer):
        decode(data)


def test_forward_pointer_rejected():
    data = struct.pack("!HHHHHH", 1, 0, 1, 0, 0, 0) + struct.pack("!H", 0xC000 | 100) + struct.pack("!HH", 1, 1)
    with pytest.raises(BadPointer):
        decode(data)


def test_pointer_loop_rejected():
    # Two pointers that reference each other through a label in between.
    header = struct.pack("!HHHHHH", 1, 0, 1, 0, 0, 0)
    # offset 12: pointer -> 14 would be forward; build loop at 12<-16 via labels:
    # offset 12: label "ab", offset 15: pointer -> 12 (re-walks the same label forever).
    name = b"\x02ab" + struct.pack("!H", 0xC000 | 12)
    data = header + name + struct.pack("!HH", 1, 1)
    with pytest.raises((BadPointer, NameTooLong)):
        decode(data)


def test_reserved_label_type_rejected():
    data = struct.pack("!HHHHHH", 1, 0, 1, 0, 0, 0) + b"\x40ab" + struct.pack("!HH", 1, 1)
    with pytest.raises(BadPointer):
        decode(data)


def test_malformed_rdata_lengths():
    base = struct.pack("!HHHHHH", 1, 0x8000, 0, 1, 0, 0)
    # A record claiming 5 rdata bytes.
    record = b"\x01a\x00" + struct.pack("!HHIH", 1, 1, 0, 5) + b"\x00" * 5
    with pytest.raises(MalformedRdata):
        decode(base + record)
    # SRV record too short for its fixed fields.
    record = b"\x01a\x00" + struct.pack("!HHIH", 33, 1, 0, 4) + b"\x00" * 4
    with pytest.raises(MalformedRdata):
        decode(base + record)


def test_txt_string_too_long_on_encode():
    rr = ResourceRecord(DomainName.from_text("a"), RType.TXT, 0, (b"x" * 256,))
    msg = DnsMessage(answers=(rr,))
    with pytest.raises(TxtStringTooLong):
        encode(msg)
    with pytest.raises(TxtStringTooLong):
        measure(msg)


def test_unknown_rrtype_is_opaque_not_an_error():
    rr = ResourceRecord(DomainName.from_text("a.b"), 47, 60, b"\x01\x02\x03")
    msg = DnsMessage(header=DnsHeader(id=7), answers=(rr,))
    back = decode(encode(msg))
    assert back.answers[0].rrtype == 47
    assert back.answers[0].rdata == b"\x01\x02\x03"


def test_cache_flush_class_bit_ignored():
    msg = DnsMessage(questions=(Question(DomainName.from_text("a.b"), RType.PTR, 1),))
    raw = bytearray(encode(msg))
    raw[-2] |= 0x80  # set the top bit of the question class
    assert decode(bytes(raw)) == msg


# --- transforms -------------------------------------------------------------


def test_response_for_shape():
    query = DnsMessage(header=DnsHeader(id=41, rd=1), questions=fixtures.srv_reply_optimized().questions)
    reply = response_for(query, [fixtures.srv_record()])
    assert reply.header.id == 41 and reply.header.qr == 1
    assert reply.questions == query.questions
    assert reply.nscount == 0 and reply.arcount == 0


# --- properties -------------------------------------------------------------


@settings(max_examples=250, deadline=None)
@given(_messages)
def test_roundtrip_both_modes(msg):
    assert decode(encode(msg, compression=True)) == msg
    assert decode(encode(msg, compression=False)) == msg


@settings(max_examples=250, deadline=None)
@given(_messages)
def test_compression_is_semantically_neutral(msg):
    assert decode(encode(msg, True)) == decode(encode(msg, False))
    assert len(encode(msg, True)) <= len(encode(msg, False))


@settings(max_examples=250, deadline=None)
@given(_messages, st.booleans(), st.integers(HEADER_LEN, 400))
def test_truncate_keeps_a_prefix_of_whole_records(msg, compression, limit):
    msg = replace(msg, header=replace(msg.header, tc=0))
    wire = encode(msg, compression)
    cut = truncate(wire, limit)
    kept = decode(cut)
    assert encode(kept, compression) == cut  # cut at a record boundary
    assert cut == wire if len(wire) <= limit else len(cut) <= limit
    items = msg.questions + msg.records()
    kept_items = kept.questions + kept.records()
    assert kept_items == items[: len(kept_items)]
    assert kept.header.tc == (len(kept_items) < len(items)) == (len(wire) > limit)
    assert replace(kept.header, tc=0) == msg.header


@settings(max_examples=100, deadline=None)
@given(st.binary(max_size=160))
def test_decode_is_total_over_garbage(blob):
    # Arbitrary input either parses or raises a codec error; it never hangs.
    try:
        decode(blob)
    except CodecError:
        pass


@settings(max_examples=250, deadline=None)
@given(st.one_of(_messages.map(encode), st.binary(max_size=160)))
def test_query_name_reads_what_decode_reads(wire):
    try:
        msg = decode(wire)
    except CodecError:
        msg = None
    try:
        name = query_name(wire)
    except CodecError:
        assert msg is None  # it raises only where decode raises
        return
    if msg is not None:
        first = msg.questions[0].name if msg.questions and not msg.header.qr else None
        assert (name and name.labels) == (first and first.labels)
