"""Query engine, filter cache, ingest, discovery, and the HTTP/DNS fronts."""

from __future__ import annotations

import http.client
import json
import random
import socket
import urllib.request

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from digstack import fixtures
from digstack.digcovery import (
    Bool,
    Digcovery,
    DomainRecord,
    DuplicateDomain,
    FilterCache,
    Filtered,
    GeoRange,
    MalformedPattern,
    MalformedQuery,
    PointerSummary,
    Prefix,
    Query,
    Range,
    Term,
    UnknownDomain,
    Wildcard,
    cacheability,
    match_service_path,
    node_kind,
    parse_query,
)
from digstack.dnscodec import DnsHeader, DnsMessage, DomainName, Question, RType, decode, encode
from digstack.dnsserver import UdpDnsServer
from digstack.webapi import (
    ApiError,
    DigcoveryHttpServer,
    EndpointUnreachable,
    HttpDigcoveryClient,
    dns_front_answer,
)
from oracle_queries import compile_oracle, oracle_hits, random_query, random_summaries

DOMAINS = ("rd.esiot.com", "rd.other.org", "lab.example.net")


def make_core(summaries=None, domains=DOMAINS) -> Digcovery:
    core = Digcovery()
    for d in domains:
        core.register_domain(DomainRecord(domain=d, host="127.0.0.1", dns_port=5300))
    if summaries:
        by_domain: dict[str, list[PointerSummary]] = {}
        for s in summaries:
            by_domain.setdefault(s.domain, []).append(s)
        for d, batch in by_domain.items():
            core.ingest(d, batch)
    return core


def hit_keys(hits: list[PointerSummary]) -> list[tuple[str, str, str]]:
    return [(h.domain, h.instance, h.service_path) for h in hits]


# --- pattern matching ------------------------------------------------------------


@pytest.mark.parametrize(
    "pattern,path,expected",
    [
        ("*.*", "_lamp._sub._coap._udp", True),
        ("*.*", "_coap._udp", True),
        ("*.*", "_udp", False),
        ("*", "_udp", True),
        ("*", "_coap._udp", True),
        ("_lamp.*", "_lamp._sub._coap._udp", True),
        ("_lamp.*", "_lamp", False),
        ("_lamp.*", "_fan._coap._udp", False),
        ("*._udp", "_coap._udp", True),
        ("*._udp", "_lamp._sub._coap._udp", False),
        ("*._sub.*", "_lamp._sub._coap._udp", True),
        ("*._sub.*", "_lamp._coap._udp", False),
        ("_COAP._UDP", "_coap._udp", True),
        ("_coap._udp", "_coap._udp", True),
        ("_coap._udp", "_coap._tcp", False),
    ],
)
def test_match_service_path(pattern, path, expected):
    assert match_service_path(pattern, path) is expected


def test_bad_patterns_rejected():
    for pattern in ("", ".", "a..b", ".a", "a."):
        with pytest.raises(MalformedPattern):
            match_service_path(pattern, "_coap._udp")
    with pytest.raises(MalformedPattern):
        Wildcard("x..y")


# --- node semantics on a small corpus ----------------------------------------------


@pytest.fixture()
def campus():
    return make_core(fixtures.campus_summaries(), domains=("rd.esiot.com",))


def test_term_and_prefix(campus):
    hits = campus.execute(Term("rt", "light"))
    assert {h.instance for h in hits} == {"light_lab", "light_hall"}
    hits = campus.execute(Prefix("instance", "light"))
    assert {h.instance for h in hits} == {"light_lab", "light_hall"}
    assert campus.execute(Term("rt", "nothing")) == []
    assert campus.execute(Term("color", "red")) == []


def test_range_on_names(campus):
    hits = campus.execute(Range("instance", "gate_cam", "light_lab"))
    assert {h.instance for h in hits} == {"gate_cam", "light_hall", "light_lab"}
    hits = campus.execute(Range("instance", "gate_cam", "light_lab", include_from=False, include_to=False))
    assert {h.instance for h in hits} == {"light_hall"}


def test_geo_box_two_ways(campus):
    box = GeoRange(37.997, 37.999, -1.142, -1.140)
    expected = {"light_lab", "thermo_lab"}
    assert {h.instance for h in campus.execute(box)} == expected
    paired = Filtered(
        Bool(),
        Bool(must=(Range("latitude", 37.997, 37.999), Range("longitude", -1.142, -1.140))),
    )
    assert {h.instance for h in campus.execute(paired)} == expected


def test_geo_missing_never_matches(campus):
    assert all(
        h.instance != "roof_wind"
        for h in campus.execute(GeoRange(-90, 90, -180, 180))
    )


def test_bool_semantics(campus):
    assert len(campus.execute(Bool())) == 5
    hits = campus.execute(Bool(must=(Term("rt", "light"), Wildcard("_lamp.*"))))
    assert {h.instance for h in hits} == {"light_lab", "light_hall"}
    hits = campus.execute(Bool(should=(Term("rt", "video"), Term("rt", "wind-speed"))))
    assert {h.instance for h in hits} == {"gate_cam", "roof_wind"}
    # should is a tiebreaker only when must is empty
    hits = campus.execute(Bool(must=(Term("rt", "light"),), should=(Term("rt", "video"),)))
    assert {h.instance for h in hits} == {"light_lab", "light_hall"}
    hits = campus.execute(Bool(must_not=(Prefix("instance", "light"),)))
    assert {h.instance for h in hits} == {"thermo_lab", "gate_cam", "roof_wind"}


def test_results_sorted_and_paged(campus):
    hits = campus.execute(Bool())
    assert hit_keys(hits) == sorted(hit_keys(hits))
    assert len(campus.execute(Bool(), limit=2)) == 2
    assert campus.execute(Bool(), offset=4, limit=10) == hits[4:]
    assert campus.execute(Bool(), offset=99) == []


def test_wildcard_over_index(campus):
    assert len(campus.execute(Wildcard("*.*"))) == 5
    assert {h.instance for h in campus.execute(Wildcard("_camera.*"))} == {"gate_cam"}


# --- cacheability and the filter cache ---------------------------------------------


@pytest.mark.parametrize(
    "node,cached",
    [
        (Term("rt", "light"), True),
        (Prefix("instance", "light"), True),
        (Range("instance", "a", "b"), True),
        (Range("rt", "a", "b"), True),
        (Range("latitude", 1.0, 2.0), False),
        (Range("longitude", 1.0, 2.0), False),
        (GeoRange(0, 1, 0, 1), False),
        (Wildcard("*.*"), False),
        (Bool(), False),
        (Filtered(Bool(), Bool()), False),
    ],
)
def test_cacheability_nodes(node, cached):
    assert cacheability(node) is cached


def test_cacheability_kind_strings():
    assert cacheability("term") and cacheability("prefix") and cacheability("range")
    for kind in ("bool", "filtered", "geo_range", "wildcard", "script"):
        assert not cacheability(kind)
    with pytest.raises(MalformedQuery):
        cacheability("fuzzy")


@pytest.mark.parametrize(
    "kind,body",
    [
        ("term", {"rt": "light"}),
        ("prefix", {"instance": "li"}),
        ("range", {"instance": {"from": "a", "to": "b"}}),
        ("bool", {}),
        ("filtered", {}),
        ("geo_range", {"latitude": {"from": 0, "to": 1}, "longitude": {"from": 0, "to": 1}}),
        ("wildcard", "*.*"),
    ],
)
def test_node_kind_is_the_dsl_kind(kind, body):
    # the benchmark's tracer names its per-kind metrics by these strings
    assert node_kind(parse_query({kind: body})) == kind


def test_filter_cache_lru_and_invalidation():
    cache = FilterCache(capacity=2)
    cache.put(Term("rt", "a"), frozenset({1}))
    cache.put(Term("instance", "b"), frozenset({2}))
    assert cache.get(Term("rt", "a")) == frozenset({1})
    cache.put(Prefix("rt", "c"), frozenset({3}))  # evicts the LRU entry
    assert cache.get(Term("instance", "b")) is None
    assert cache.get(Term("rt", "a")) == frozenset({1})
    # an equal node is the same key; a node of another kind is not
    assert cache.get(Prefix("rt", "a")) is None
    assert len(cache) == 2


def test_execute_cached_transparent(campus):
    query = Bool(must=(Term("rt", "light"), Range("latitude", 37.99, 38.01)))
    plain = campus.execute(query)
    first, stats1 = campus.execute_cached(query)
    second, stats2 = campus.execute_cached(query)
    assert first == plain == second
    # the term filter caches, the latitude range never does
    assert stats1.events == [(Term("rt", "light"), False)]
    assert stats2.events == [(Term("rt", "light"), True)]


def test_ingest_invalidates_touched_fields(campus):
    query = Term("rt", "light")
    campus.execute_cached(query)
    _, stats = campus.execute_cached(query)
    assert stats.hits == 1
    campus.ingest(
        "rd.esiot.com",
        [
            PointerSummary(
                instance="light_new",
                service_path="_lamp._sub._coap._udp",
                domain="rd.esiot.com",
                rt="light",
                revision=1,
            )
        ],
    )
    hits, stats = campus.execute_cached(query)
    assert stats.misses == 1 and stats.hits == 0
    assert {h.instance for h in hits} == {"light_lab", "light_hall", "light_new"}


# --- ingest rules ----------------------------------------------------------------


def summary(instance="light_lab", rev=1, removed=False, rt="light", domain="rd.esiot.com"):
    return PointerSummary(
        instance=instance,
        service_path="_lamp._sub._coap._udp",
        domain=domain,
        rt=rt,
        revision=rev,
        removed=removed,
    )


def test_ingest_needs_registered_domain():
    core = Digcovery()
    with pytest.raises(UnknownDomain):
        core.ingest("rd.esiot.com", [summary()])


def test_ingest_rejects_foreign_summaries():
    core = make_core()
    with pytest.raises(ValueError):
        core.ingest("rd.other.org", [summary(domain="rd.esiot.com")])


def test_refused_ingest_batch_changes_nothing():
    core = make_core()
    with pytest.raises(ValueError):
        core.ingest("rd.esiot.com", [summary("x"), summary("y", domain="rd.other.org")])
    # an accepted batch, even for another domain, must not reveal the refused one
    assert core.ingest("rd.other.org", [summary("z", domain="rd.other.org")]) == 1
    assert [h.instance for h in core.execute(Bool())] == ["z"]


def test_ingest_revision_gating():
    core = make_core()
    assert core.ingest("rd.esiot.com", [summary(rev=3)]) == 1
    # replay and stale revisions are ignored
    assert core.ingest("rd.esiot.com", [summary(rev=3)]) == 0
    assert core.ingest("rd.esiot.com", [summary(rev=2, rt="video")]) == 0
    assert core.execute(Term("rt", "light")) != []
    # a newer revision replaces the stored pointer
    assert core.ingest("rd.esiot.com", [summary(rev=4, rt="video")]) == 1
    assert core.execute(Term("rt", "light")) == []
    assert len(core.execute(Term("rt", "video"))) == 1


def test_tombstone_removes_and_blocks_replay():
    core = make_core()
    core.ingest("rd.esiot.com", [summary(rev=3)])
    assert core.ingest("rd.esiot.com", [summary(rev=4, removed=True)]) == 1
    assert core.execute(Bool()) == []
    # a late duplicate of the removed revision must not resurrect it
    assert core.ingest("rd.esiot.com", [summary(rev=3)]) == 0
    assert core.execute(Bool()) == []
    # removal of something unknown is a no-op
    assert core.ingest("rd.esiot.com", [summary(instance="ghost", rev=9, removed=True)]) == 0
    # life continues at a higher revision
    assert core.ingest("rd.esiot.com", [summary(rev=5)]) == 1
    assert len(core.execute(Bool())) == 1


def _live(row):
    return None if row is None or row.removed else row


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.lists(
            st.tuples(st.sampled_from("abc"), st.integers(0, 4), st.booleans(), st.sampled_from(("light", "video"))),
            max_size=5,
        ),
        max_size=6,
    )
)
def test_ingest_keeps_the_highest_revision_per_key(batches):
    core = make_core()
    winners: dict[str, PointerSummary] = {}  # per key, the first row of the highest revision
    for batch in batches:
        rows = [summary(instance, rev=rev, removed=removed, rt=rt) for instance, rev, removed, rt in batch]
        changed = 0
        for row in rows:
            old = winners.get(row.instance)
            if old is None or row.revision > old.revision:
                winners[row.instance] = row
                changed += _live(old) != _live(row)
        assert core.ingest("rd.esiot.com", rows) == changed
        live = sorted((r for r in winners.values() if not r.removed), key=lambda r: r.instance)
        assert core.execute(Bool()) == live


def test_register_domain_conflicts():
    core = make_core()
    with pytest.raises(DuplicateDomain):
        core.register_domain(DomainRecord("RD.ESIOT.COM", "127.0.0.1", 5300))
    with pytest.raises(UnknownDomain):
        core.ingest("nowhere.example", [])


# --- discover ---------------------------------------------------------------------


def test_discover_maps_patterns_to_domains():
    rows = fixtures.campus_summaries()
    other = [
        PointerSummary(
            instance="fan_one",
            service_path="_fan._coap._udp",
            domain="rd.other.org",
            rt="wind-speed",
            revision=1,
        )
    ]
    core = make_core(rows + other)
    assert [d.domain for d in core.discover("*.*")] == ["rd.esiot.com", "rd.other.org"]
    assert [d.domain for d in core.discover("_fan.*")] == ["rd.other.org"]
    assert [d.domain for d in core.discover("_lamp.*")] == ["rd.esiot.com"]
    assert core.discover("_nothing.*") == []
    with pytest.raises(MalformedPattern):
        core.discover("bad..pattern")


# --- JSON DSL ---------------------------------------------------------------------


def test_parse_query_shapes():
    assert parse_query({"term": {"rt": "light"}}) == Term("rt", "light")
    assert parse_query({"query": {"prefix": {"instance": "li"}}}) == Prefix("instance", "li")
    assert parse_query('{"term": {"rt": "light"}}') == Term("rt", "light")
    assert parse_query({"term": {"rt": 5}}) == Term("rt", "5")
    node = parse_query(
        {"range": {"latitude": {"from": 1, "to": 2, "include_to": False}}}
    )
    assert node == Range("latitude", 1.0, 2.0, include_to=False)
    assert parse_query({"range": {"instance": {"from": "a", "to": "b"}}}) == Range("instance", "a", "b")
    node = parse_query(
        {
            "bool": {
                "must": [{"term": {"rt": "light"}}],
                "must_not": {"wildcard": "_fan.*"},
            }
        }
    )
    assert node == Bool(must=(Term("rt", "light"),), must_not=(Wildcard("_fan.*"),))
    node = parse_query({"filtered": {"filter": {"term": {"domain": "rd.esiot.com"}}}})
    assert node == Filtered(Bool(), Term("domain", "rd.esiot.com"))
    node = parse_query(fixtures.campus_box_query())
    assert isinstance(node, Filtered)
    assert parse_query({"geo_range": {"latitude": {"from": 1, "to": 2}, "longitude": {"from": 3, "to": 4}}}) == GeoRange(1, 2, 3, 4)
    assert parse_query({"wildcard": "*.*"}) == Wildcard("*.*")
    assert parse_query({"wildcard": {"service_path": "*.*"}}) == Wildcard("*.*")


@pytest.mark.parametrize(
    "bad",
    [
        42,
        {},
        {"term": {"rt": "a"}, "prefix": {"rt": "b"}},
        {"term": {"rt": "a", "domain": "b"}},
        {"term": {"rt": None}},
        {"range": {"rt": {"from": "b"}}},
        {"range": {"rt": {"from": "b", "to": "a"}}},
        {"range": {"latitude": {"from": "x", "to": "y"}}},
        {"bool": {"mosts": []}},
        {"geo_range": {"latitude": {"from": 0, "to": 1}}},
        {"wildcard": 7},
        {"fuzzy": {"rt": "light"}},
        "not json at all {",
    ],
)
def test_parse_query_rejects(bad):
    with pytest.raises(MalformedQuery):
        parse_query(bad)


def test_query_fixture_finds_two(campus):
    node = parse_query(fixtures.campus_box_query())
    assert {h.instance for h in campus.execute(node)} == {"light_lab", "thermo_lab"}


# --- oracle equivalence ------------------------------------------------------------


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_engine_matches_linear_oracle(data):
    seed = data.draw(st.integers(0, 2**32 - 1))
    rng = random.Random(seed)
    rows = random_summaries(rng, 60, DOMAINS)
    core = make_core(rows)
    for _ in range(4):
        node = random_query(rng, rows)
        expected = oracle_hits(rows, node)
        assert hit_keys(core.execute(node)) == expected
        cached_hits, _ = core.execute_cached(node)
        assert hit_keys(cached_hits) == expected
        # cached rerun stays equal
        rerun, _ = core.execute_cached(node)
        assert hit_keys(rerun) == expected


def test_cache_stays_honest_across_ingest():
    rng = random.Random(77)
    rows = random_summaries(rng, 40, DOMAINS)
    core = make_core(rows)
    live = {s.key(): s for s in rows}
    queries = [random_query(rng, rows) for _ in range(30)]
    for q in queries:
        core.execute_cached(q)
    for step in range(15):
        fresh = random_summaries(rng, 3, (DOMAINS[step % 3],))
        batch = [
            s if s.key() not in live else PointerSummary(
                instance=s.instance,
                service_path=s.service_path,
                domain=s.domain,
                rt=s.rt,
                geo=s.geo,
                revision=live[s.key()].revision + 1,
            )
            for s in fresh
        ]
        core.ingest(DOMAINS[step % 3], batch)
        for s in batch:
            live[s.key()] = s
        snapshot_rows = list(live.values())
        for q in queries[:6]:
            expected = oracle_hits(snapshot_rows, q)
            got, _ = core.execute_cached(q)
            assert hit_keys(got) == expected


@pytest.mark.parametrize("newer_reader_first", [False, True])
@pytest.mark.parametrize(
    "c_rt,lights_before,lights_after",
    [("light", {"a", "b", "c"}, {"b", "c"}), ("video", {"a", "b"}, {"b"})],
)
def test_cache_entry_from_a_replaced_snapshot_is_never_served(c_rt, lights_before, lights_after, newer_reader_first):
    """A reader that missed the cache on one snapshot and stores its ids
    after an ingest has replaced that snapshot must not poison the cache,
    whether or not a reader on the newer snapshot stored its own ids first.

    The interleaving is replayed in one thread: the writer's withdraw (and
    the newer reader's whole query) runs inside the first reader's cache
    lookup, between its snapshot read and its put.
    """
    core = make_core(domains=("rd.esiot.com",))
    core.ingest("rd.esiot.com", [summary("a"), summary("b"), summary("c", rt=c_rt)])
    query = Term("rt", "light")
    cache = core._read().cache  # the cache of the snapshot the first reader holds
    lookup = cache.get

    def get_then_withdraw(node):
        cache.get = lookup
        core.ingest("rd.esiot.com", [summary("a", rev=2, removed=True)])
        if newer_reader_first:
            newer, _ = core.execute_cached(query)
            assert {h.instance for h in newer} == lights_after
        return lookup(node)

    cache.get = get_then_withdraw
    during, _ = core.execute_cached(query)
    assert cache.get is lookup  # the hook ran
    assert {h.instance for h in during} == lights_before

    after, _ = core.execute_cached(query)
    assert after == core.execute(query)
    assert {h.instance for h in after} == lights_after


# --- wire forms ------------------------------------------------------------------


def test_pointer_summary_round_trip():
    for s in fixtures.campus_summaries():
        assert PointerSummary.from_dict(json.loads(json.dumps(s.to_dict()))) == s
    tomb = PointerSummary("a", "_x._udp", "d", "", revision=5, removed=True)
    again = PointerSummary.from_dict(tomb.to_dict())
    assert again.removed and again.revision == 5


def test_domain_record_round_trip():
    record = DomainRecord("rd.esiot.com", "127.0.0.1", 5300, http_port=8080, owner="lab")
    assert record.to_dict() == {
        "domain": "rd.esiot.com", "host": "127.0.0.1", "dns_port": 5300, "http_port": 8080, "owner": "lab"
    }
    assert DomainRecord.from_dict(json.loads(json.dumps(record.to_dict()))) == record
    assert DomainRecord.from_dict({"domain": "d", "host": "h", "dns_port": "53"}) == DomainRecord("d", "h", 53)


# --- HTTP API ----------------------------------------------------------------------


@pytest.fixture()
def served():
    core = Digcovery()
    server = DigcoveryHttpServer(core).start()
    client = HttpDigcoveryClient(server.url, timeout=5.0)
    try:
        yield core, client
    finally:
        server.stop()


def test_http_register_publish_query_discover(served):
    core, client = served
    record = DomainRecord("rd.esiot.com", "127.0.0.1", 5300, http_port=8080, owner="lab")
    assert client.register_domain(record) == {"registered": "rd.esiot.com"}
    with pytest.raises(ApiError) as err:
        client.register_domain(record)
    assert err.value.status == 409 and err.value.error == "duplicate-domain"

    accepted = client.publish_pointers("rd.esiot.com", fixtures.campus_summaries())
    assert accepted == 5
    with pytest.raises(ApiError) as err:
        client.publish_pointers("rd.unknown.example", fixtures.campus_summaries())
    assert err.value.status == 404

    reply = client.query(fixtures.campus_box_query())
    assert [r["instance"] for r in reply["results"]] == ["light_lab", "thermo_lab"]
    assert reply["limit"] == 100
    reply = client.query({"bool": {}}, offset=1, limit=2)
    assert len(reply["results"]) == 2 and reply["offset"] == 1

    domains = client.discover("_lamp.*")
    assert [d["domain"] for d in domains] == ["rd.esiot.com"]
    assert client.discover("_nothing._here") == []
    assert [d["domain"] for d in client.domains()] == ["rd.esiot.com"]


def test_http_error_paths(served):
    core, client = served
    with pytest.raises(ApiError) as err:
        client.query({"fuzzy": {"rt": "x"}})
    assert err.value.status == 400 and err.value.error == "malformed-query"
    with pytest.raises(ApiError) as err:
        client._request("POST", "/api/v1/nowhere", {})
    assert err.value.status == 404
    with pytest.raises(ApiError) as err:
        client.discover("bad..pattern")
    assert err.value.status == 400 and err.value.error == "malformed-pattern"
    # raw body that is not JSON at all
    req = urllib.request.Request(
        client.base_url + "/api/v1/query", data=b"{nope", method="POST"
    )
    with pytest.raises(urllib.error.HTTPError) as raw_err:
        urllib.request.urlopen(req, timeout=5)
    raw_err.value.close()
    assert raw_err.value.code == 400


@pytest.mark.parametrize("page", [{"offset": -2}, {"limit": -1}])
def test_negative_offset_or_limit_is_a_bad_request(served, page):
    _, client = served
    client.register_domain(DomainRecord("rd.esiot.com", "127.0.0.1", 5300))
    client.publish_pointers("rd.esiot.com", fixtures.campus_summaries())
    with pytest.raises(ApiError) as err:
        client.query({"bool": {}}, **page)
    assert err.value.status == 400 and err.value.error == "bad-request"


def test_deeply_nested_query_is_a_malformed_query(served):
    core, client = served
    depth = 900
    body = '{"bool": {"must": [' * depth + '{"term": {"rt": "light"}}' + "]}}" * depth
    req = urllib.request.Request(client.base_url + "/api/v1/query", data=body.encode(), method="POST")
    with pytest.raises(urllib.error.HTTPError) as raw_err:
        urllib.request.urlopen(req, timeout=5)
    reply = json.loads(raw_err.value.read())
    raw_err.value.close()
    assert raw_err.value.code == 400 and reply["error"] == "malformed-query"
    # the same server still answers a valid query
    assert client.query({"bool": {}})["results"] == []


def test_negative_content_length_is_a_bad_request(served):
    _, client = served
    host, port = client.base_url.rsplit("/", 1)[1].split(":")
    with socket.create_connection((host, int(port)), timeout=3) as sock:
        sock.sendall(b"POST /api/v1/query HTTP/1.1\r\nHost: x\r\nContent-Length: -1\r\n\r\n")
        reply = http.client.HTTPResponse(sock)
        reply.begin()
        body = json.loads(reply.read())
        reply.close()
    assert reply.status == 400 and body["error"] == "bad-request"


def test_pointer_batch_item_that_is_not_an_object_is_a_bad_request(served, capsys):
    core, client = served
    client.register_domain(DomainRecord("rd.esiot.com", "127.0.0.1", 5300))
    for batch in ([1], [None], [fixtures.campus_summaries()[0].to_dict(), "x"]):
        with pytest.raises(ApiError) as err:
            client._request("POST", "/api/v1/domains/rd.esiot.com/pointers", batch)
        assert err.value.status == 400 and err.value.error == "bad-request"
    assert core.execute(Bool()) == []  # a refused batch changes nothing
    assert client.publish_pointers("rd.esiot.com", fixtures.campus_summaries()) == 5
    assert len(client.query({"bool": {}})["results"]) == 5
    assert "Traceback" not in capsys.readouterr().err


def test_client_reports_unreachable():
    client = HttpDigcoveryClient("http://127.0.0.1:1", timeout=0.5)
    with pytest.raises(EndpointUnreachable):
        client.discover("*.*")


# --- DNS front ---------------------------------------------------------------------


def ptr_query(pattern: str, qid: int = 7) -> DnsMessage:
    return DnsMessage(
        header=DnsHeader(id=qid, rd=0),
        questions=(Question(DomainName.from_text(pattern), RType.PTR),),
    )


def test_dns_front_lists_domains():
    core = make_core(fixtures.campus_summaries(), domains=("rd.esiot.com", "rd.other.org"))
    reply = dns_front_answer(core, ptr_query("_lamp._sub._coap._udp"))
    assert reply.header.rcode == 0 and len(reply.answers) == 1
    assert reply.answers[0].rdata == DomainName.from_text("rd.esiot.com")
    reply = dns_front_answer(core, ptr_query("_nothing._udp"))
    assert reply.header.rcode == 3 and reply.answers == ()
    assert dns_front_answer(core, ptr_query("*.*")) .answers[0].rdata == DomainName.from_text("rd.esiot.com")


def test_dns_front_over_udp():
    core = make_core(fixtures.campus_summaries(), domains=("rd.esiot.com",))
    server = UdpDnsServer(lambda q: dns_front_answer(core, q)).start()
    try:
        sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        sock.settimeout(2.0)
        sock.sendto(encode(ptr_query("_lamp._sub._coap._udp", qid=99)), server.address)
        reply = decode(sock.recvfrom(4096)[0])
        sock.close()
    finally:
        server.stop()
    assert reply.header.id == 99 and reply.header.qr == 1
    assert reply.answers[0].rdata == DomainName.from_text("rd.esiot.com")


def test_dns_front_truncation_bit():
    core = Digcovery()
    rows = []
    for i in range(40):
        d = f"very-long-domain-name-number-{i:02d}.family.example.net"
        core.register_domain(DomainRecord(d, "127.0.0.1", 5300))
        rows.append(
            PointerSummary(
                instance=f"node_{i}",
                service_path="_lamp._sub._coap._udp",
                domain=d,
                rt="light",
                revision=1,
            )
        )
        core.ingest(d, rows[-1:])
    query = ptr_query("_lamp.*")
    whole = dns_front_answer(core, query).answers
    server = UdpDnsServer(lambda q: dns_front_answer(core, q)).start()
    try:
        sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        sock.settimeout(2.0)
        sock.sendto(encode(query), server.address)
        wire = sock.recvfrom(65535)[0]
        sock.close()
    finally:
        server.stop()
    reply = decode(wire)
    assert len(wire) <= 512 and reply.header.tc == 1
    assert 0 < len(reply.answers) < len(whole) == 40
    assert reply.answers == whole[: len(reply.answers)]
