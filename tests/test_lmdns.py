"""Agent answering, probing, the registration handshake, and refresh."""

from __future__ import annotations

import pytest

from digstack import fixtures
from digstack.dnscodec import (
    DnsHeader,
    DnsMessage,
    DomainName,
    Question,
    RType,
    SrvData,
    decode,
    encode,
)
from digstack.lmdns import (
    HandshakeTimeout,
    InstanceRecords,
    ProbeResult,
    RefreshOutcome,
    RefreshPolicy,
    RefreshState,
    SmartObjectAgent,
    UdpTransport,
    answer_query,
    probe,
    refresh,
    registration_handshake,
    select_responder,
)
from digstack.dnsserver import UdpDnsServer
from digstack.netsim import SimulatedLink


def _query(name: str, rrtype: int) -> DnsMessage:
    return DnsMessage(header=DnsHeader(id=99), questions=(Question(DomainName.from_text(name), rrtype),))


def _profile():
    return fixtures.light_lab_profile()


# --- answer_query --------------------------------------------------------------


def test_ptr_answer_on_service_path():
    reply = answer_query(_profile(), _query("_lamp._sub._coap._udp", RType.PTR))
    assert reply is not None
    assert reply.answers[0].rdata == DomainName.from_text("light_lab.rd.esiot.com")
    assert reply.header.id == 99 and reply.header.qr == 1


def test_ptr_answer_on_alias_and_domain_qualified_path():
    profile = _profile()
    for name in ("_dimmer._lamp._sub._coap._udp", "_x10._lamp._sub._coap._udp.rd.esiot.com"):
        reply = answer_query(profile, _query(name, RType.PTR))
        assert reply is not None, name


def test_srv_answer_is_compact():
    reply = answer_query(_profile(), _query("light_lab.rd.esiot.com", RType.SRV))
    srv = reply.answers[0].rdata
    assert (srv.priority, srv.capacity, srv.port) == (0, 0, 1234)
    assert srv.target == DomainName.from_text("light1.rd.esiot.com")
    assert reply.nscount == 0 and reply.arcount == 0
    assert len(encode(reply)) <= 85


def test_txt_answer_is_single_joined_record():
    reply = answer_query(_profile(), _query("light_lab.rd.esiot.com", RType.TXT))
    assert len(reply.answers) == 1
    assert reply.answers[0].rdata == (fixtures.JOINED_TXT,)
    # The hostname carries the same metadata.
    by_host = answer_query(_profile(), _query("light1.rd.esiot.com", RType.TXT))
    assert by_host.answers[0].rdata == (fixtures.JOINED_TXT,)


def test_aaaa_and_a_answers():
    assert answer_query(_profile(), _query("light1.rd.esiot.com", RType.AAAA)).answers[0].rdata == fixtures.HOST_ADDR6
    assert answer_query(_profile(), _query("light1.rd.esiot.com", RType.A)).answers[0].rdata == fixtures.HOST_ADDR4


def test_a_answering_defaults_off():
    profile = _profile()
    profile.addr4 = None
    assert answer_query(profile, _query("light1.rd.esiot.com", RType.A)) is None


def test_silence_on_foreign_question():
    assert answer_query(_profile(), _query("_thermo._coap._udp", RType.PTR)) is None
    assert answer_query(_profile(), _query("other.rd.esiot.com", RType.SRV)) is None


def test_silence_on_responses():
    query = _query("_lamp._sub._coap._udp", RType.PTR)
    reply = answer_query(_profile(), query)
    assert answer_query(_profile(), reply) is None


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
    with pytest.raises(HandshakeTimeout) as err:
        registration_handshake(set(), ghost, prober, window=0.01)
    assert err.value.missing == ["SRV", "TXT", "AAAA"]


# --- selection and refresh ---------------------------------------------------------


def _candidate(instance: str, priority: int, capacity: int) -> InstanceRecords:
    return InstanceRecords(
        instance=instance,
        srv=SrvData(priority, capacity, 5683, DomainName.from_text(instance)),
        meta=fixtures.dimmer_metadata(),
        addr6=fixtures.HOST_ADDR6,
    )


def test_select_responder_ordering():
    a = _candidate("a.local", priority=1, capacity=50)
    b = _candidate("b.local", priority=0, capacity=10)
    c = _candidate("c.local", priority=0, capacity=90)
    d = _candidate("d.local", priority=0, capacity=90)
    assert select_responder([a, b, c, d]) is c  # lowest priority, highest capacity, first name
    with pytest.raises(ValueError):
        select_responder([])


def test_refresh_policy_defaults():
    policy = RefreshPolicy.from_lifetime(86400)
    assert policy.refresh_interval == 21600
    assert policy.max_missed == 3
    with pytest.raises(ValueError):
        RefreshPolicy(refresh_interval=0)


def test_refresh_keeps_young_entry():
    policy = RefreshPolicy(refresh_interval=300)
    called = []
    assert refresh(0, policy, lambda: called.append(1) or True) is RefreshOutcome.KEEP
    assert not called  # young entries are not probed at all


def test_refresh_refreshes_live_entry():
    policy = RefreshPolicy(refresh_interval=300)
    assert refresh(300, policy, lambda: True) is RefreshOutcome.REFRESHED


def test_refresh_expires_after_consecutive_misses():
    policy = RefreshPolicy(refresh_interval=300, max_missed=3)
    state = RefreshState()
    assert refresh(300, policy, lambda: False, state) is RefreshOutcome.KEEP
    assert refresh(600, policy, lambda: False, state) is RefreshOutcome.KEEP
    assert refresh(900, policy, lambda: False, state) is RefreshOutcome.EXPIRED


def test_refresh_answer_resets_miss_count():
    policy = RefreshPolicy(refresh_interval=300, max_missed=2)
    state = RefreshState()
    assert refresh(300, policy, lambda: False, state) is RefreshOutcome.KEEP
    assert refresh(600, policy, lambda: True, state) is RefreshOutcome.REFRESHED
    assert state.missed == 0


# --- UDP transport -------------------------------------------------------------------


def test_probe_and_handshake_over_loopback_udp():
    profile = _profile()
    server = UdpDnsServer(lambda q: answer_query(profile, q)).start()
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
