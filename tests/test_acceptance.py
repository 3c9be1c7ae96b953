"""Acceptance gate: every promised behavior, one test per criterion.

Each test carries its tolerance and time budget inline; the terminal
summary prints one PASS/FAIL line per criterion (see conftest).
"""

from __future__ import annotations

import ipaddress
import json
import random
import time

import pytest

from digstack import fixtures
from digstack.digcovery import (
    Bool,
    Digcovery,
    DomainRecord,
    Filtered,
    GeoRange,
    MalformedQuery,
    PointerSummary,
    Prefix,
    Range,
    Term,
    Wildcard,
    cacheability,
    parse_query,
)
from digstack.digrectory import (
    Digrectory,
    DirectoryEntry,
    EpcMapper,
    EpcisDriver,
    MockEpcis,
    PointerPublisher,
)
from digstack.dnscodec import (
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
    measure,
)
from digstack.dnsserver import UdpDnsServer
from digstack.lmdns import SmartObjectAgent, UdpTransport, ask, probe, registration_handshake
from digstack.netsim import FrameBudget, SimulatedLink, frames_required
from digstack.semantics import (
    compact_txt,
    expand_txt,
    from_txt,
    link_list_to_json,
    parse_link_format,
    render_link_format,
    to_txt,
)
from digstack.webapi import DigcoveryHttpServer, HttpDigcoveryClient
from oracle_queries import oracle_hits, random_query, random_summaries
import samples

BUDGET = FrameBudget()  # 127-byte frames, worst-case 41-byte overhead


def keys(hits):
    return [(h.domain, h.instance, h.service_path) for h in hits]


# -- service lookup traffic ------------------------------------------------------------


def test_c01_srv_reply_shrinks_to_one_frame():
    started = time.monotonic()
    optimized = measure(fixtures.srv_reply_optimized())
    original = measure(fixtures.srv_reply_original())
    assert 79 - 6 <= optimized <= 79 + 6
    assert 188 - 12 <= original <= 188 + 12
    assert frames_required(optimized, BUDGET) == 1
    assert frames_required(original, BUDGET) == 3
    assert time.monotonic() - started < 1.0


def test_c02_txt_metadata_joined_and_compacted():
    started = time.monotonic()
    joined = measure(fixtures.txt_reply_joined())
    multi = measure(fixtures.txt_reply_multi())
    assert 130 - 10 <= joined <= 130 + 10
    assert 221 - 12 <= multi <= 221 + 12
    assert frames_required(multi, BUDGET) == 3
    assert frames_required(joined, BUDGET) == 2

    compact = compact_txt(fixtures.dimmer_metadata())
    assert not compact.truncated
    assert len(compact.data) <= 80
    assert frames_required(len(compact.data), BUDGET) == 1
    assert expand_txt(compact.data) == fixtures.dimmer_metadata()
    assert time.monotonic() - started < 1.0


# -- mDNS message economy --------------------------------------------------------------


def test_c03_handshake_message_counts_exact():
    link = SimulatedLink()
    profile = fixtures.light_lab_profile()
    SmartObjectAgent(profile, link)
    client = link.attach("client")

    found = probe(client, profile.service_path)
    assert [r.instance for r in found] == [str(profile.instance_name)]
    assert len(link.log) == 2  # one PTR question, one PTR answer

    # already known: the handshake must stay silent
    assert registration_handshake([str(profile.instance_name)], found[0], client) is None
    assert len(link.log) == 2

    # unknown: exactly one SRV, TXT and AAAA exchange
    records = registration_handshake([], found[0], client)
    assert len(link.log) == 2 + 6
    questions = [
        decode(d.payload).questions[0].rrtype
        for d in link.log[2:]
        if not decode(d.payload).header.qr
    ]
    assert questions == [RType.SRV, RType.TXT, RType.AAAA]
    replies = [decode(d.payload) for d in link.log[2:] if decode(d.payload).header.qr]
    assert all(len(r.answers) == 1 and not r.authority and not r.additional for r in replies)
    assert records.meta == fixtures.dimmer_metadata()
    assert records.addr6 == fixtures.HOST_ADDR6


# -- query engine equivalence -----------------------------------------------------------


DOMAINS = ("rd.campus-a.example", "rd.campus-b.example", "rd.campus-c.example")


@pytest.fixture(scope="module")
def big_engine():
    rng = random.Random(0xD16C0)
    rows = random_summaries(rng, 10_000, DOMAINS)
    core = Digcovery()
    for d in DOMAINS:
        core.register_domain(DomainRecord(d, "127.0.0.1", 5300))
    batches: dict[str, list[PointerSummary]] = {}
    for s in rows:
        batches.setdefault(s.domain, []).append(s)
    for d, batch in batches.items():
        core.ingest(d, batch)
    return rows, core


def test_c04_thousand_queries_match_linear_oracle(big_engine):
    started = time.monotonic()
    rows, core = big_engine
    rng = random.Random(20260816)
    for _ in range(1000):
        node = random_query(rng, rows)
        expected = oracle_hits(rows, node)
        assert keys(core.execute(node)) == expected
        cached, _ = core.execute_cached(node)
        assert keys(cached) == expected
    assert time.monotonic() - started < 30.0


def test_c04_pages_match_the_linear_oracle_slice(big_engine):
    started = time.monotonic()
    rows, core = big_engine
    rng = random.Random(0x9A6E)
    queries = [Wildcard("*.*"), Term("rt", "light"), Term("rt", "nothing-here")]
    queries += [random_query(rng, rows) for _ in range(40)]
    for node in queries:
        expected = oracle_hits(rows, node)
        ends = (len(expected), len(expected) + 5)  # at and past the end
        for offset in (0, 7, 8, 9, 99, 100) + ends:
            for limit in (0, 7, 8, 9, 99, 100, None) + ends[1:]:
                window = expected[offset : None if limit is None else offset + limit]
                assert keys(core.execute(node, offset=offset, limit=limit)) == window
                cached, _ = core.execute_cached(node, offset=offset, limit=limit)
                assert keys(cached) == window
    assert time.monotonic() - started < 30.0


def test_c05_cache_policy_and_transparency(big_engine):
    started = time.monotonic()
    # the policy table, exhaustively
    assert cacheability(Term("rt", "light"))
    assert cacheability(Prefix("instance", "li"))
    assert cacheability(Range("instance", "a", "b"))
    assert not cacheability(Range("latitude", 0.0, 1.0))
    assert not cacheability(Range("longitude", 0.0, 1.0))
    assert not cacheability(GeoRange(0, 1, 0, 1))
    assert not cacheability(Wildcard("*.*"))
    assert not cacheability(Bool())
    assert not cacheability(Filtered(Bool(), Bool()))
    for kind, expected in (
        ("term", True),
        ("prefix", True),
        ("range", True),
        ("bool", False),
        ("filtered", False),
        ("geo_range", False),
        ("wildcard", False),
        ("script", False),
    ):
        assert cacheability(kind) is expected
    with pytest.raises(MalformedQuery):
        cacheability("fuzzy")

    # cached execution is invisible in the results
    rows, core = big_engine
    rng = random.Random(0xCAC4E)
    for _ in range(1000):
        node = random_query(rng, rows)
        plain = keys(core.execute(node))
        warm, _ = core.execute_cached(node)
        hot, _ = core.execute_cached(node)
        assert keys(warm) == plain == keys(hot)
    assert time.monotonic() - started < 30.0


def test_c06_geo_box_selects_exactly_the_courtyard():
    rows = samples.campus_summaries()
    core = Digcovery()
    core.register_domain(DomainRecord(fixtures.DOMAIN, "127.0.0.1", 5300))
    core.ingest(fixtures.DOMAIN, rows)

    node = parse_query(samples.campus_box_query())
    hits = core.execute(node)
    assert {h.instance for h in hits} == {"light_lab", "thermo_lab"}
    assert len(hits) == 2
    assert keys(hits) == oracle_hits(rows, node)

    box = GeoRange(37.997, 37.999, -1.142, -1.140)
    assert keys(core.execute(box)) == oracle_hits(rows, box)


# -- codec robustness --------------------------------------------------------------------


_LABEL_POOL = (b"rd", b"esiot", b"com", b"local", b"_coap", b"_udp", b"_lamp", b"_sub", b"light", b"x" * 30)


def _random_name(rng: random.Random) -> DomainName:
    return DomainName(tuple(rng.choice(_LABEL_POOL) for _ in range(rng.randint(1, 5))))


def _random_record(rng: random.Random) -> ResourceRecord:
    name = _random_name(rng)
    ttl = rng.randrange(0, 2**32)
    kind = rng.randrange(7)
    if kind == 0:
        return ResourceRecord(name, RType.A, ttl, rng.randbytes(4))
    if kind == 1:
        return ResourceRecord(name, RType.AAAA, ttl, rng.randbytes(16))
    if kind == 2:
        return ResourceRecord(name, rng.choice((RType.NS, RType.CNAME, RType.PTR)), ttl, _random_name(rng))
    if kind == 3:
        strings = tuple(rng.randbytes(rng.randint(0, 40)) for _ in range(rng.randint(1, 3)))
        return ResourceRecord(name, RType.TXT, ttl, strings)
    if kind == 4:
        return ResourceRecord(
            name,
            RType.SRV,
            ttl,
            SrvData(rng.randrange(2**16), rng.randrange(2**16), rng.randrange(2**16), _random_name(rng)),
        )
    if kind == 5:
        return ResourceRecord(name, 200, ttl, rng.randbytes(rng.randint(0, 30)))
    return ResourceRecord(name, RType.PTR, ttl, _random_name(rng))


def _random_message(rng: random.Random) -> DnsMessage:
    header = DnsHeader(
        id=rng.randrange(2**16),
        qr=rng.randint(0, 1),
        opcode=rng.randrange(16),
        aa=rng.randint(0, 1),
        tc=rng.randint(0, 1),
        rd=rng.randint(0, 1),
        ra=rng.randint(0, 1),
        rcode=rng.randrange(16),
    )
    questions = tuple(
        Question(_random_name(rng), rng.choice((RType.A, RType.AAAA, RType.PTR, RType.SRV, RType.TXT)))
        for _ in range(rng.randint(0, 3))
    )
    return DnsMessage(
        header=header,
        questions=questions,
        answers=tuple(_random_record(rng) for _ in range(rng.randint(0, 4))),
        authority=tuple(_random_record(rng) for _ in range(rng.randint(0, 2))),
        additional=tuple(_random_record(rng) for _ in range(rng.randint(0, 2))),
    )


def test_c07_codec_roundtrips_and_survives_hostile_input():
    started = time.monotonic()
    rng = random.Random(0xC0DEC)
    wires = []
    for _ in range(10_000):
        msg = _random_message(rng)
        compressed = encode(msg, compression=True)
        plain = encode(msg, compression=False)
        assert decode(compressed) == msg
        assert decode(plain) == msg
        assert measure(msg) == len(compressed)
        wires.append(compressed)

    # mutations of valid traffic must decode or raise, never hang
    survived = 0
    for wire in wires[:300]:
        for _ in range(10):
            blob = bytearray(wire)
            op = rng.randrange(3)
            if op == 0 and blob:
                blob[rng.randrange(len(blob))] = rng.randrange(256)
            elif op == 1:
                blob = blob[: rng.randrange(len(blob) + 1)]
            elif op == 2 and len(blob) >= 2:
                at = rng.randrange(len(blob) - 1)
                blob[at] = 0xC0
                blob[at + 1] = rng.randrange(256)
            try:
                decode(bytes(blob))
                survived += 1
            except CodecError:
                pass
    assert survived >= 0  # reaching here at all means no hang or stray exception

    # crafted pointer abuse: self-loops, forward jumps, long chains
    header = DnsHeader(id=1).flags_word()
    base = (1).to_bytes(2, "big") + header.to_bytes(2, "big") + b"\x00\x01" + b"\x00\x00" * 3
    for tail in (
        b"\xc0\x0c\x00\x0c\x00\x01",  # name points at itself
        b"\xc0\x20\x00\x0c\x00\x01",  # name points forward
        b"\x01a\xc0\x0c" + b"\x00\x0c\x00\x01",  # pointer back into a label that flows into itself
    ):
        with pytest.raises(CodecError):
            decode(base + tail)
    # a backward pointer ladder: every hop is legal on its own, but the
    # walk is 200 jumps long and has to trip the jump cap, not spin
    rungs = 200
    ladder = bytearray()
    ladder += (0x4242).to_bytes(2, "big") + (0x8000).to_bytes(2, "big")
    ladder += (0).to_bytes(2, "big") + (2).to_bytes(2, "big") + b"\x00" * 4
    ladder += b"\x00"  # record 1 owner: root, at offset 12
    ladder += (200).to_bytes(2, "big") + (1).to_bytes(2, "big")  # opaque rrtype
    ladder += (0).to_bytes(4, "big") + (2 * rungs).to_bytes(2, "big")
    assert len(ladder) == 23  # rdata (the rungs) starts here
    for k in range(rungs):
        target = 12 if k == 0 else 23 + 2 * (k - 1)
        ladder += bytes([0xC0 | (target >> 8), target & 0xFF])
    top = 23 + 2 * (rungs - 1)
    ladder += bytes([0xC0 | (top >> 8), top & 0xFF])  # record 2 owner: the top rung
    ladder += (12).to_bytes(2, "big") + (1).to_bytes(2, "big")
    ladder += (0).to_bytes(4, "big") + (1).to_bytes(2, "big") + b"\x00"
    with pytest.raises(CodecError):
        decode(bytes(ladder))
    assert time.monotonic() - started < 30.0


# -- link-format semantics ----------------------------------------------------------------


def test_c08_link_listings_and_json_mapping():
    device = parse_link_format(samples.DEVICE_LINK_PAYLOAD)
    assert len(device) == 9
    by_href = {e.href: e for e in device}
    assert by_href["/s/tmp"].attrs["obs"] == ""
    assert by_href["/a/1/led"].attrs["rt"] == "simple.act.led"

    sensors = parse_link_format(samples.SENSOR_LINK_PAYLOAD)
    produced = json.loads(link_list_to_json(sensors), object_pairs_hook=list)
    expected = json.loads(samples.SENSOR_LINK_JSON, object_pairs_hook=list)
    assert produced == expected  # same keys, same order, same values

    doubled = parse_link_format('</x>;rel="a";rel="b";if="core.s"')
    assert doubled[0].attrs["rel"] == ["a", "b"]
    again = parse_link_format(render_link_format(doubled))
    assert again == doubled
    mapped = json.loads(link_list_to_json(doubled))
    assert mapped[0]["rel"] == ["a", "b"]


# -- federation end to end ----------------------------------------------------------------


class _Clock:
    def __init__(self):
        self.now = 1_000_000.0

    def __call__(self):
        return self.now


def _fleet_entry(domain: str, i: int, fan: bool) -> DirectoryEntry:
    from digstack.semantics import ServiceMetadata

    instance = f"{'fan' if fan else 'obj'}_{i:02d}"
    host = f"h{i:02d}.{domain}"
    addr6 = ipaddress.IPv6Address(int(ipaddress.IPv6Address("2001:db8::")) + i + 1).packed
    paths = ("_fan._coap._udp",) if fan else (
        ("_lamp._sub._coap._udp",),
        ("_thermometer._sub._coap._udp",),
        ("_camera._sub._coap._udp",),
    )[i % 3]
    return DirectoryEntry(
        instance=instance,
        domain=domain,
        ptr_paths=paths,
        srv=SrvData(0, 0, 49152 + i, DomainName.from_text(host)),
        meta=ServiceMetadata(
            rt="fan-speed" if fan else ("light", "temperature-c", "video")[i % 3],
            ins=i,
            lt=86400,
            model="m%d" % i,
            if_="core.a",
            verbs=["status"],
            extra={"slot": str(i)},
        ),
        addr6=addr6,
        ttl=300 if fan else 604800,
    )


def test_c09_three_directories_publish_discover_resolve_expire():
    started = time.monotonic()
    clock = _Clock()
    core = Digcovery()
    http = DigcoveryHttpServer(core).start()
    dns_servers, publishers, all_entries = [], [], {}
    transport = UdpTransport(("127.0.0.1", 0))
    try:
        client = HttpDigcoveryClient(http.url, timeout=5.0)
        for d_index, domain in enumerate(DOMAINS):
            directory = Digrectory(domain, clock=clock)
            fan_domain = domain == DOMAINS[1]
            for i in range(50):
                fan = fan_domain and i < 10
                entry = _fleet_entry(domain, i, fan)
                assert directory.register(entry) == "created"
                all_entries[(domain, entry.instance)] = entry
            server = UdpDnsServer(directory.answer).start()
            dns_servers.append(server)
            client.register_domain(DomainRecord(domain, server.address[0], server.address[1]))
            publisher = PointerPublisher(directory, client)
            assert publisher.publish() == 50
            publishers.append((directory, publisher))

        # global discovery sees all three domains
        found = client.discover("*.*")
        assert [d["domain"] for d in found] == sorted(DOMAINS)
        endpoints = {d["domain"]: (d["host"], d["dns_port"]) for d in found}

        # every one of the 150 objects resolves through its own directory
        for (domain, instance), entry in all_entries.items():
            host, port = endpoints[domain]
            name = f"{instance}.{domain}"
            srv_reply = ask(transport, (host, port), name, RType.SRV, 3.0)
            assert srv_reply is not None and srv_reply.header.rcode == 0
            srv = srv_reply.answers[0].rdata
            assert srv.port == entry.srv.port
            txt_reply = ask(transport, (host, port), name, RType.TXT, 3.0)
            meta = from_txt([c.decode() for c in txt_reply.answers[0].rdata])
            assert meta == entry.meta
            aaaa = ask(transport, (host, port), str(srv.target), RType.AAAA, 3.0)
            assert aaaa.answers[0].rdata == entry.addr6

        # the ten short-lived fans exist, then expire, then vanish globally
        assert [d["domain"] for d in client.discover("_fan.*")] == [DOMAINS[1]]
        clock.now += 301
        fan_directory, fan_publisher = publishers[1]
        expired = fan_directory.expire_stale()
        assert sorted(e.instance for e in expired) == [f"fan_{i:02d}" for i in range(10)]
        assert fan_publisher.publish() == 10  # one publish cycle carries the tombstones
        assert client.discover("_fan.*") == []
        reply = client.query({"term": {"rt": "fan-speed"}})
        assert reply["results"] == []
        # everything else is still discoverable
        assert [d["domain"] for d in client.discover("*.*")] == sorted(DOMAINS)
    finally:
        transport.close()
        for server in dns_servers:
            server.stop()
        http.stop()
    assert time.monotonic() - started < 60.0


# -- EPC resolution -----------------------------------------------------------------------


def test_c10_epc_paths_agree_and_mapping_stays_bijective():
    epcis = MockEpcis()
    epcs = [f"urn:epc:id:sgtin:0614141.{i:06d}.{i * 7}" for i in range(100)]
    for i, epc in enumerate(epcs):
        epcis.capture(
            epc,
            {
                "rt": "pallet",
                "model": f"gen{i % 4}",
                "if": "core.s",
                "verbs": ["status"],
                "lot": f"L{i:03d}",
                "port": 5683 + i,
            },
        )
    directory = Digrectory("rd.warehouse.example", clock=_Clock())
    driver = EpcisDriver(epcis, directory)
    assert driver.sync() == 100

    for epc in epcs:
        assert driver.resolve(epc, via="api") == driver.resolve(epc, via="dns")

    # register/remove interleavings never break the two-way mapping
    rng = random.Random(0xE9C)
    mapper = EpcMapper()
    present: set[str] = set()
    for _ in range(600):
        epc = rng.choice(epcs)
        if epc in present and rng.random() < 0.5:
            mapper.remove(epc)
            present.discard(epc)
        else:
            addr = mapper.register(epc)
            assert addr == mapper.address_for(epc)
            present.add(epc)
        assert len(mapper) == len(present)
        for p in rng.sample(sorted(present), min(5, len(present))):
            assert mapper.epc_for(mapper.address_for(p)) == p
    # a fresh mapper gives the same addresses: the mapping is stateless
    fresh = EpcMapper()
    assert all(fresh.address_for(e) == mapper.address_for(e) for e in epcs)
