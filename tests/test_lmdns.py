"""Agent answering, probing and the registration handshake."""

from __future__ import annotations

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from digstack import fixtures, lmdns
from digstack.digrectory import Unresolved
from digstack.dnscodec import (
    CodecError,
    DnsHeader,
    DnsMessage,
    DomainName,
    Question,
    RType,
    decode,
    encode,
)
from digstack.lmdns import (
    ProbeResult,
    SmartObjectAgent,
    UdpTransport,
    probe,
    registration_handshake,
)
from digstack.dnsserver import UdpDnsServer
from digstack.netsim import SimulatedLink


def _query(name: str, rrtype: int) -> DnsMessage:
    return DnsMessage(header=DnsHeader(id=99), questions=(Question(DomainName.from_text(name), rrtype),))


def _profile():
    return fixtures.light_lab_profile()


def _answer(profile, query: DnsMessage) -> DnsMessage | None:
    return SmartObjectAgent(profile, SimulatedLink()).answer(query)


# --- the agent's answer ---------------------------------------------------------


def test_ptr_answer_on_service_path():
    reply = _answer(_profile(), _query("_lamp._sub._coap._udp", RType.PTR))
    assert reply is not None
    assert reply.answers[0].rdata == DomainName.from_text("light_lab.rd.esiot.com")
    assert reply.header.id == 99 and reply.header.qr == 1


def test_ptr_answer_on_alias_and_domain_qualified_path():
    profile = _profile()
    for name in ("_dimmer._lamp._sub._coap._udp", "_x10._lamp._sub._coap._udp.rd.esiot.com"):
        reply = _answer(profile, _query(name, RType.PTR))
        assert reply is not None, name


def test_srv_answer_is_compact():
    reply = _answer(_profile(), _query("light_lab.rd.esiot.com", RType.SRV))
    srv = reply.answers[0].rdata
    assert (srv.priority, srv.capacity, srv.port) == (0, 0, 1234)
    assert srv.target == DomainName.from_text("light1.rd.esiot.com")
    assert reply.nscount == 0 and reply.arcount == 0
    assert len(encode(reply)) <= 85


def test_txt_answer_is_single_joined_record():
    reply = _answer(_profile(), _query("light_lab.rd.esiot.com", RType.TXT))
    assert len(reply.answers) == 1
    assert reply.answers[0].rdata == (fixtures.JOINED_TXT,)
    # The hostname carries the same metadata.
    by_host = _answer(_profile(), _query("light1.rd.esiot.com", RType.TXT))
    assert by_host.answers[0].rdata == (fixtures.JOINED_TXT,)


def test_aaaa_and_a_answers():
    assert _answer(_profile(), _query("light1.rd.esiot.com", RType.AAAA)).answers[0].rdata == fixtures.HOST_ADDR6
    assert _answer(_profile(), _query("light1.rd.esiot.com", RType.A)).answers[0].rdata == fixtures.HOST_ADDR4


def test_a_answering_defaults_off():
    profile = _profile()
    profile.addr4 = None
    assert _answer(profile, _query("light1.rd.esiot.com", RType.A)) is None


def test_silence_on_foreign_question():
    assert _answer(_profile(), _query("_thermo._coap._udp", RType.PTR)) is None
    assert _answer(_profile(), _query("other.rd.esiot.com", RType.SRV)) is None


def test_silence_on_responses():
    query = _query("_lamp._sub._coap._udp", RType.PTR)
    reply = _answer(_profile(), query)
    assert _answer(_profile(), reply) is None


def test_only_the_first_question_is_answered():
    questions = tuple(Question(DomainName.from_text("light_lab.rd.esiot.com"), t) for t in (RType.SRV, RType.TXT))
    reply = _answer(_profile(), DnsMessage(header=DnsHeader(id=99), questions=questions))
    assert [rr.rrtype for rr in reply.answers] == [RType.SRV]


def test_an_agent_with_a_name_that_does_not_fit_dns_is_refused():
    link = SimulatedLink()
    SmartObjectAgent(_lamp_profile(1), link)
    unfit = _lamp_profile(2)
    unfit.service_path = "_" + "x" * 69 + "._sub._coap._udp"
    with pytest.raises(ValueError):
        SmartObjectAgent(unfit, link)
    # the refused agent is not on the link, so a probe for another path still works
    prober = link.attach("directory")
    assert [r.instance for r in probe(prober, "_lamp._sub._coap._udp", window=0.01)] == ["lamp1.rd.esiot.com"]


# --- what the agent sends, and what it does not decode ----------------------------------


def test_a_probe_is_decoded_only_by_the_agents_that_own_its_path(monkeypatch):
    link = SimulatedLink()
    for i in range(6):
        profile = _lamp_profile(i)
        if i % 2:
            profile.service_path, profile.aliases = "_thermo._coap._udp", []
        SmartObjectAgent(profile, link)
    prober = link.attach("directory")
    decoded = []

    def counting_decode(payload):
        decoded.append(payload)
        return decode(payload)

    monkeypatch.setattr(lmdns, "decode", counting_decode)
    assert len(probe(prober, "_lamp._sub._coap._udp", window=0.01)) == 3
    assert len(decoded) == 3 + 3  # the three owners decode the probe, the prober their three replies


_PATHS = (fixtures.SERVICE_PATH, *fixtures.SERVICE_ALIASES)
# one group per rule of the agent's answers, and one of names it does not own
_NAME_GROUPS = (
    _PATHS,
    tuple(f"{path}.{fixtures.DOMAIN}" for path in _PATHS),
    (fixtures.INSTANCE_NAME,),
    (fixtures.HOSTNAME,),
    (
        "_thermo._coap._udp",
        "_sub._coap._udp.rd.esiot.com",
        "other.rd.esiot.com",
        "light_lab",
        fixtures.DOMAIN,
        "light1.rd.esiot.org",
    ),
)

_qnames = st.builds(
    lambda name, mask: "".join(c.upper() if mask >> i & 1 else c for i, c in enumerate(name)),
    st.one_of(*(st.sampled_from(group) for group in _NAME_GROUPS)),
    st.integers(0, 2**64 - 1),
)


def _labels(name: str) -> bytes:
    return b"".join(bytes([len(label)]) + label for label in (part.encode() for part in name.split(".")))


@st.composite
def _queries(draw) -> bytes:
    """Query wire bytes, written by hand so that the first name can be
    compressed: either its root is a pointer to the zero high byte of the
    question count, or its last label "com" is a pointer into a header
    whose id and flags spell that label."""
    names = draw(st.lists(_qnames, max_size=2))
    qtype = st.one_of(st.sampled_from([int(t) for t in RType]), st.integers(0, 0xFFFF))
    qclass = st.sampled_from([1, 0x8001, 255])
    ident, flags = draw(st.integers(0, 0xFFFF)), draw(st.sampled_from([0, 0x0100, 0x8400, 0x8000]))
    form = draw(st.sampled_from(["plain", "root pointer", "label in header"]))
    first = b""
    if names:
        first = _labels(names[0]) + b"\x00"
        if form == "root pointer":
            first = first[:-1] + b"\xc0\x04"
        elif form == "label in header" and names[0].lower().endswith(".com"):
            ident, flags = 0x0363, 0x6F6D  # "\x03c" "om", then the question count's zero high byte
            first = _labels(names[0][: -len(".com")]) + b"\xc0\x00"
    wire = struct.pack("!HHHHHH", ident, flags, len(names), 0, 0, 0)
    for i, name in enumerate(names):
        wire += (first if i == 0 else _labels(name) + b"\x00") + struct.pack("!HH", draw(qtype), draw(qclass))
    return wire


_payloads = st.one_of(
    st.binary(max_size=80),
    _queries(),
    _queries().flatmap(lambda wire: st.integers(0, len(wire)).map(lambda cut: wire[:cut])),
)


@settings(max_examples=400, deadline=None)
@given(_payloads)
def test_handle_sends_what_decode_answer_encode_would(payload):
    link = SimulatedLink()
    agent = SmartObjectAgent(_profile(), link)
    peer = link.attach("peer")
    agent._handle(payload, "peer")
    try:
        reply = agent.answer(decode(payload))
    except CodecError:
        reply = None
    assert peer.poll() == ([] if reply is None else [(encode(reply), agent.endpoint.address)])


# --- probe ----------------------------------------------------------------------


def _lamp_profile(i: int):
    profile = _profile()
    profile.instance = f"lamp{i}"
    profile.hostname = f"lamp{i}host.rd.esiot.com"
    return profile


def test_probe_collects_all_responders():
    link = SimulatedLink()
    for i in range(3):
        SmartObjectAgent(_lamp_profile(i), link)
    prober = link.attach("directory")
    results = probe(prober, "_lamp._sub._coap._udp", window=0.01)
    assert sorted(r.instance for r in results) == [f"lamp{i}.rd.esiot.com" for i in range(3)]


def test_probe_empty_when_nobody_answers():
    link = SimulatedLink()
    prober = link.attach("directory")
    assert probe(prober, "_lamp._sub._coap._udp", window=0.01) == []


def test_probe_deduplicates_instances():
    link = SimulatedLink()
    agent = SmartObjectAgent(_lamp_profile(1), link)

    def double_responder(payload, src):
        agent._handle(payload, src)
        agent._handle(payload, src)

    link.attach("echo-twin", responder=double_responder)
    # The twin answers through the same agent state, so the same instance
    # arrives twice; probe must collapse it.
    prober = link.attach("directory")
    results = probe(prober, "_lamp._sub._coap._udp", window=0.01)
    assert len(results) == 1


# --- registration handshake ------------------------------------------------------


def _single_agent_link():
    link = SimulatedLink()
    agent = SmartObjectAgent(_profile(), link)
    prober = link.attach("directory")
    return link, agent, prober


def test_handshake_skips_known_instance():
    link, _, prober = _single_agent_link()
    result = probe(prober, "_lamp._sub._coap._udp", window=0.01)[0]
    before = len(link.log)
    assert registration_handshake({"light_lab.rd.esiot.com"}, result, prober) is None
    assert len(link.log) == before  # zero messages for a known instance


def test_handshake_resolves_new_instance():
    link, _, prober = _single_agent_link()
    result = probe(prober, "_lamp._sub._coap._udp", window=0.01)[0]
    before = len(link.log)
    records = registration_handshake(set(), result, prober, window=0.01)
    assert records.srv.port == 1234
    assert records.meta == fixtures.dimmer_metadata()
    assert records.addr6 == fixtures.HOST_ADDR6
    exchanges = link.log[before:]
    questions = [decode(d.payload) for d in exchanges if not decode(d.payload).header.qr]
    answers = [decode(d.payload) for d in exchanges if decode(d.payload).header.qr]
    assert [q.questions[0].rrtype for q in questions] == [RType.SRV, RType.TXT, RType.AAAA]
    assert len(answers) == 3


def test_handshake_timeout_reports_missing_records():
    link = SimulatedLink()
    prober = link.attach("directory")
    ghost = ProbeResult("ghost.rd.esiot.com", "nowhere")
    with pytest.raises(Unresolved) as err:
        registration_handshake(set(), ghost, prober, window=0.01)
    assert err.value.missing == ["SRV", "TXT", "AAAA"]
    # a failure costs the same three questions as a success, and nothing else;
    # with no SRV target, the address is asked on the instance name
    questions = [decode(d.payload).questions[0] for d in link.log]
    assert [(str(q.name), q.rrtype) for q in questions] == [
        ("ghost.rd.esiot.com", rrtype) for rrtype in (RType.SRV, RType.TXT, RType.AAAA)
    ]


# --- UDP transport -------------------------------------------------------------------


def test_probe_and_handshake_over_loopback_udp():
    agent = SmartObjectAgent(_profile(), SimulatedLink())
    server = UdpDnsServer(agent.answer).start()
    prober = UdpTransport(("127.0.0.1", 0))
    # Point "multicast" at the agent directly: loopback stands in for the group.
    prober.multicast_address = server.address
    try:
        results = probe(prober, "_lamp._sub._coap._udp", window=0.5)
        assert [r.instance for r in results] == ["light_lab.rd.esiot.com"]
        records = registration_handshake(set(), results[0], prober, window=0.5)
        assert records.srv.port == 1234
        assert records.meta.model == "dimmer"
    finally:
        server.stop()
        prober.close()
