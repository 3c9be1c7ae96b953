"""Directory registration, DNS answering, journal, publisher, EPCIS bridge."""

from __future__ import annotations

import ipaddress
import json
import logging
import sys
import threading

import pytest

from digstack import fixtures, webapi
from digstack.digcovery import Digcovery, DomainRecord, GeoPoint, Term, Wildcard
from digstack.digrectory import (
    MAX_ROW_BYTES,
    Digrectory,
    DirectoryEntry,
    EPC_PREFIX,
    DomainMismatch,
    EpcCollision,
    EpcMapper,
    EpcisDriver,
    InstanceRecords,
    MockEpcis,
    ParseError,
    PointerPublisher,
    UnknownInstance,
    entry_from_instance_records,
    load_entry_file,
    metadata_from_attributes,
)
from digstack.dnscodec import (
    DnsHeader,
    DnsMessage,
    DomainName,
    Question,
    RType,
    encode,
)
from digstack.semantics import ServiceMetadata, to_txt
from digstack.webapi import DigcoveryHttpServer, EndpointUnreachable, HttpDigcoveryClient


class FakeClock:
    def __init__(self, now=1000.0):
        self.now = now

    def __call__(self):
        return self.now


def make_directory(clock=None, journal=None) -> Digrectory:
    d = Digrectory(fixtures.DOMAIN, clock=clock or FakeClock(), journal_path=journal)
    d.register(fixtures.light_lab_entry())
    return d


def query(name: str, rrtype: RType, qid: int = 1, rd: int = 1) -> DnsMessage:
    return DnsMessage(
        header=DnsHeader(id=qid, rd=rd),
        questions=(Question(DomainName.from_text(name), rrtype),),
    )


# --- registration lifecycle --------------------------------------------------------


def test_register_outcomes_and_revisions():
    clock = FakeClock()
    d = Digrectory(fixtures.DOMAIN, clock=clock)
    entry = fixtures.light_lab_entry()
    assert d.register(entry) == "created"
    assert entry.revision == 1 and entry.last_seen == 1000.0

    clock.now = 1500.0
    again = fixtures.light_lab_entry()
    assert d.register(again) == "refreshed"
    assert d.get("light_lab").last_seen == 1500.0
    assert d.get("light_lab").revision == 1  # refresh leaves the revision alone

    moved = fixtures.light_lab_entry()
    moved.geo = GeoPoint(38.0, -1.15)
    assert d.register(moved) == "updated"
    assert d.get("light_lab").revision == 2
    assert d.revision == 2


def test_register_rejects_foreign_domain():
    d = Digrectory("rd.other.org")
    with pytest.raises(DomainMismatch):
        d.register(fixtures.light_lab_entry())


def test_lookup_is_case_insensitive():
    d = make_directory()
    assert d.get("LIGHT_LAB").instance == "light_lab"
    with pytest.raises(UnknownInstance):
        d.get("missing")


def test_withdraw_and_tombstones():
    d = make_directory()
    entry = d.withdraw("light_lab")
    assert entry.instance == "light_lab"
    assert d.live_entries() == []
    tombs = d.pointer_summaries(removed=True)
    assert len(tombs) == len(entry.ptr_paths)
    assert all(t.removed and t.revision == d.revision for t in tombs)
    with pytest.raises(UnknownInstance):
        d.withdraw("light_lab")


def test_expire_stale_uses_entry_ttl():
    clock = FakeClock()
    d = make_directory(clock=clock)
    clock.now += fixtures.light_lab_entry().ttl - 1
    assert d.expire_stale() == []
    clock.now += 2
    gone = d.expire_stale()
    assert [e.instance for e in gone] == ["light_lab"]
    assert d.pointer_summaries(removed=True) != []


# --- DNS answering ------------------------------------------------------------------


def test_ptr_answers_cover_all_subtype_paths():
    d = make_directory()
    for path in (fixtures.SERVICE_PATH,) + fixtures.SERVICE_ALIASES:
        for owner in (path, f"{path}.{fixtures.DOMAIN}"):
            reply = d.answer(query(owner, RType.PTR))
            assert reply.header.rcode == 0
            assert reply.answers[0].rdata == DomainName.from_text(fixtures.INSTANCE_NAME)
    reply = d.answer(query(f"_nothing._udp.{fixtures.DOMAIN}", RType.PTR))
    assert reply.header.rcode == 3 and reply.answers == ()


def test_srv_reply_matches_optimized_transcript():
    d = make_directory()
    reply = d.answer(query(fixtures.INSTANCE_NAME, RType.SRV, qid=6373))
    assert reply.answers == fixtures.srv_reply_optimized().answers
    assert reply.authority == () and reply.additional == ()
    assert len(encode(reply)) == 79


def test_txt_reply_matches_joined_transcript():
    d = make_directory()
    reply = d.answer(query(fixtures.HOSTNAME, RType.TXT, qid=19187))
    assert reply.answers == fixtures.txt_reply_joined().answers
    assert len(encode(reply)) == 130
    # the same metadata is served under the instance name
    by_instance = d.answer(query(fixtures.INSTANCE_NAME, RType.TXT))
    assert by_instance.answers[0].rdata == (fixtures.JOINED_TXT,)


def test_address_answers():
    d = make_directory()
    reply = d.answer(query(fixtures.HOSTNAME, RType.AAAA))
    assert reply.answers[0].rdata == fixtures.HOST_ADDR6
    reply = d.answer(query(fixtures.INSTANCE_NAME, RType.A))
    assert reply.answers[0].rdata == fixtures.HOST_ADDR4
    # SRV is owned by the instance name, not the host name
    assert d.answer(query(fixtures.HOSTNAME, RType.SRV)).header.rcode == 3


def test_answer_ignores_responses_and_empty_queries():
    d = make_directory()
    assert d.answer(fixtures.srv_reply_optimized()) is None
    assert d.answer(DnsMessage()) is None


# --- journal and entry files ---------------------------------------------------------


def test_journal_line_format(tmp_path):
    journal = tmp_path / "dir.journal"
    Digrectory(fixtures.DOMAIN, journal_path=str(journal)).register(fixtures.light_lab_entry())
    assert journal.read_bytes() == (
        b'{"op": "register", "entry": {"instance": "light_lab", "domain": "rd.esiot.com", "ptr_paths": '
        b'["_lamp._sub._coap._udp", "_status._lamp._sub._coap._udp", "_onoff._lamp._sub._coap._udp", '
        b'"_dimmer._lamp._sub._coap._udp", "_x10._lamp._sub._coap._udp"], "hostname": "light1.rd.esiot.com", '
        b'"port": 1234, "priority": 0, "capacity": 0, "addr6": "2001:720:1710::11", "addr4": "155.54.210.163", '
        b'"ttl": 604800, "geo": {"lat": 37.998, "lon": -1.141}, "origin": "local", "meta": {"rt": "light", '
        b'"ins": 2, "lt": 86400, "model": "dimmer", "if": "EIB", "verbs": ["value", "onoff"], '
        b'"extra": {"area": "1", "zone": "2", "deviceID": "3"}}}}\n'
    )


def test_journal_replay_restores_state(tmp_path):
    path = tmp_path / "directory.journal"
    d = make_directory(journal=str(path))
    extra = fixtures.light_lab_entry()
    extra.instance = "light_two"
    extra.ptr_paths = (fixtures.SERVICE_PATH,)
    d.register(extra)
    d.withdraw("light_lab")

    reborn = Digrectory(fixtures.DOMAIN, clock=FakeClock(), journal_path=str(path))
    assert [e.instance for e in reborn.live_entries()] == ["light_two"]
    assert reborn.answer(query(fixtures.INSTANCE_NAME, RType.SRV)).header.rcode == 3


def light(instance: str) -> DirectoryEntry:
    entry = fixtures.light_lab_entry()
    entry.instance = instance
    entry.ptr_paths = (fixtures.SERVICE_PATH,)
    return entry


def journal_state(d: Digrectory) -> tuple:
    entries = [(e.instance, e.revision, e.content_key()) for e in d.live_entries()]
    tombs = [(t.instance, t.service_path, t.revision) for t in d.pointer_summaries(removed=True)]
    return entries, tombs, d.revision


def test_follower_matches_a_fresh_replay(tmp_path):
    path = tmp_path / "directory.journal"
    clock = FakeClock()
    follower = Digrectory(fixtures.DOMAIN, clock=clock, journal_path=str(path))
    writer = Digrectory(fixtures.DOMAIN, clock=FakeClock(), journal_path=str(path))
    assert writer.register(fixtures.light_lab_entry()) == "created"
    assert writer.register(light("light_two")) == "created"
    moved = fixtures.light_lab_entry()
    moved.geo = GeoPoint(38.0, -1.15)
    assert writer.register(moved) == "updated"
    writer.withdraw("light_two")
    assert writer.register(light("light_three")) == "created"

    follower.follow_journal()
    fresh = Digrectory(fixtures.DOMAIN, journal_path=str(path))
    assert journal_state(follower) == journal_state(fresh) == journal_state(writer)
    assert [e.instance for e in follower.live_entries()] == ["light_lab", "light_three"]
    assert follower.revision == 5

    # a last line still being written waits for its newline
    line = json.dumps({"op": "register", "entry": light("light_four").to_dict()})
    with path.open("a", encoding="utf-8") as fh:
        fh.write(line[:40])
    follower.follow_journal()
    assert follower.revision == 5
    with path.open("a", encoding="utf-8") as fh:
        fh.write(line[40:] + "\n")
    follower.follow_journal()
    assert follower.get("light_four").revision == 6

    # the follower's own expiry withdraws are applied once, in journal order
    clock.now += fixtures.light_lab_entry().ttl + 1
    assert len(follower.expire_stale()) == 3
    follower.follow_journal()
    assert follower.live_entries() == [] and follower.revision == 9
    fresh = Digrectory(fixtures.DOMAIN, journal_path=str(path))
    assert journal_state(follower) == journal_state(fresh)

    # a bad complete line is reported with its line number, not applied
    with path.open("a", encoding="utf-8") as fh:
        fh.write('{"op": "withdraw", "name": "ghost"}\n')
    with pytest.raises(ParseError) as err:
        follower.follow_journal()
    assert err.value.position == 10
    assert follower.revision == 9


def test_two_followers_expiring_one_entry_keep_the_journal_readable(tmp_path):
    path = tmp_path / "directory.journal"
    clock = FakeClock()
    first, second = (Digrectory(fixtures.DOMAIN, clock=clock, journal_path=str(path)) for _ in range(2))
    short = light("light_two")
    short.ttl = 100
    first.register(fixtures.light_lab_entry())
    first.register(short)
    second.follow_journal()

    clock.now += short.ttl + 1
    assert [e.instance for e in first.expire_stale()] == ["light_two"]
    # second has not read first's withdraw yet, so it journals its own
    assert [e.instance for e in second.expire_stale()] == ["light_two"]
    first.follow_journal()
    fresh = Digrectory(fixtures.DOMAIN, journal_path=str(path))
    assert journal_state(first) == journal_state(second) == journal_state(fresh)
    assert [e.instance for e in fresh.live_entries()] == ["light_lab"]
    assert fresh.revision == 3 and len(fresh.pointer_summaries(removed=True)) == 1

    # asking to withdraw what is not held is still refused, journal or not
    with pytest.raises(UnknownInstance):
        first.withdraw("light_two")
    with pytest.raises(UnknownInstance):
        Digrectory(fixtures.DOMAIN).withdraw("light_two")


@pytest.mark.parametrize("rotate", ["truncate", "rename"])
def test_follower_starts_over_on_a_rotated_journal(tmp_path, rotate):
    path = tmp_path / "directory.journal"
    follower = Digrectory(fixtures.DOMAIN, clock=FakeClock(), journal_path=str(path))
    writer = Digrectory(fixtures.DOMAIN, clock=FakeClock(), journal_path=str(path))
    writer.register(fixtures.light_lab_entry())
    writer.register(light("light_two"))
    follower.follow_journal()
    assert follower.revision == 2

    if rotate == "truncate":
        path.write_text("")
    else:
        # the new file is longer than the old offset, so only its inode tells
        fresh = tmp_path / "directory.journal.new"
        lines = [json.dumps({"op": "register", "entry": light(f"light_{i}").to_dict()}) for i in range(3)]
        fresh.write_text("\n".join(lines) + "\n")
        fresh.replace(path)
    Digrectory(fixtures.DOMAIN, clock=FakeClock(), journal_path=str(path)).register(light("light_new"))
    follower.follow_journal()
    assert follower.get("light_new").instance == "light_new"


def test_journaled_refresh_keeps_a_follower_entry_alive(tmp_path):
    path = tmp_path / "directory.journal"
    clock = FakeClock(now=0.0)
    follower = Digrectory(fixtures.DOMAIN, clock=clock, journal_path=str(path))
    entry = fixtures.light_lab_entry()
    assert follower.register(entry) == "created"
    assert follower.revision == 1

    clock.now = entry.ttl - 10
    owner = Digrectory(fixtures.DOMAIN, clock=clock, journal_path=str(path))
    assert owner.register(fixtures.light_lab_entry()) == "refreshed"
    assert len(path.read_text().splitlines()) == 2
    follower.follow_journal()
    assert follower.revision == 1  # a refresh leaves the revision alone

    clock.now = entry.ttl + 10
    assert follower.expire_stale() == []
    assert follower.get("light_lab").revision == 1


def test_answers_stay_whole_while_entries_change():
    d = Digrectory(fixtures.DOMAIN)
    for i in range(1000):
        d.register(light(f"light_{i:04d}"))
    name = f"light_0999.{fixtures.DOMAIN}"
    stop, failures, answered = threading.Event(), [], []

    def ask():
        while not stop.is_set():
            try:
                reply = d.answer(query(name, RType.SRV))
                answered.append(reply.header.rcode == 0 and len(reply.answers) == 1)
            except Exception as err:  # noqa: BLE001 - any raise is the failure under test
                failures.append(err)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    asker = threading.Thread(target=ask, daemon=True)
    asker.start()
    try:
        for i in range(1000, 4000):
            d.register(light(f"light_{i:04d}"))
    finally:
        stop.set()
        asker.join(timeout=30)
        sys.setswitchinterval(interval)
    assert not asker.is_alive()
    assert failures == []
    assert answered and all(answered)


def test_journal_parse_error_carries_line(tmp_path):
    path = tmp_path / "directory.journal"
    path.write_text('{"op": "register", "entry": {"instance": "x"}}\n')
    with pytest.raises(ParseError) as err:
        Digrectory(fixtures.DOMAIN, journal_path=str(path))
    assert err.value.position == 1
    path.write_text('\n{"op": "register", "entry": []}\n')
    with pytest.raises(ParseError) as err:
        Digrectory(fixtures.DOMAIN, journal_path=str(path))
    assert err.value.position == 2


def test_load_entry_file(tmp_path):
    good = tmp_path / "objects.json"
    good.write_text(json.dumps([fixtures.light_lab_entry().to_dict()]))
    entries = load_entry_file(str(good))
    assert entries[0].instance == "light_lab"

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps([fixtures.light_lab_entry().to_dict(), {"instance": "y"}]))
    with pytest.raises(ParseError) as err:
        load_entry_file(str(bad))
    assert err.value.position == 2

    notlist = tmp_path / "notlist.json"
    notlist.write_text(json.dumps({"instance": "x"}))
    with pytest.raises(ParseError):
        load_entry_file(str(notlist))


MISTYPED_ENTRY_FIELDS = [
    ("instance", 5), ("domain", 5), ("hostname", 5), ("ptr_paths", "_coap._udp"), ("ptr_paths", ["_coap._udp", 5]),
    ("geo", {"lat": "38", "lon": -1.1}), ("geo", {"lat": True, "lon": -1.1}), ("geo", {"lat": 38.0, "lon": None}),
    ("meta", {"rt": "light", "verbs": "onoff"}), ("meta", {"rt": "light", "model": 5}),
    ("meta", {"rt": "light", "if": 5}), ("meta", {"rt": "light", "extra": {"area": 1}}),
    # integers only as JSON integers
    ("port", "1234"), ("port", 1234.0), ("ttl", 600.5), ("priority", True), ("capacity", "0"),
    ("meta", {"rt": "light", "lt": 1.9}), ("meta", {"rt": "light", "ins": True}), ("meta", {"rt": "light", "lt": "600"}),
    # not servable over DNS (RFC 1035): a label over 63 bytes, a name over 255, a TXT string over 255
    pytest.param("instance", "i" * 64, id="instance-label"),
    pytest.param("hostname", "h" * 64 + ".rd.esiot.com", id="hostname-label"),
    pytest.param("hostname", ".".join(["h" * 60] * 5), id="hostname-name"),
    pytest.param("ptr_paths", ["_" + "p" * 63 + "._coap._udp"], id="path-label"),
    pytest.param("meta", {"rt": "light", "extra": {"note": "n" * 250}}, id="txt-string"),
    # a name whose text is over 253 bytes, although the dots that `from_text` strips leave it shorter
    pytest.param("instance", "." * 300 + "light", id="instance-text"),
    pytest.param("ptr_paths", ["." * 300 + "_coap._udp"], id="path-text"),
    # a coordinate off the globe
    pytest.param("geo", {"lat": 91, "lon": -1.1}, id="geo-lat"),
    pytest.param("geo", {"lat": 38.0, "lon": 10**400}, id="geo-lon"),
]


@pytest.mark.parametrize("field, value", MISTYPED_ENTRY_FIELDS)
def test_entry_with_a_mistyped_field_is_a_parse_error(tmp_path, field, value):
    good = fixtures.light_lab_entry().to_dict()
    bad = dict(light("light_two").to_dict(), **{field: value})
    entries = tmp_path / "objects.json"
    entries.write_text(json.dumps([good, bad]))
    with pytest.raises(ParseError) as err:
        load_entry_file(str(entries))
    assert err.value.position == 2 and isinstance(err.value.reason, str)

    journal = tmp_path / "directory.journal"
    journal.write_text("".join(json.dumps({"op": "register", "entry": e}) + "\n" for e in (good, bad)))
    with pytest.raises(ParseError) as err:
        Digrectory(fixtures.DOMAIN, journal_path=str(journal))
    assert err.value.position == 2


@pytest.mark.parametrize("field, value", [
    ("instance", "i" * 64), ("ptr_paths", ("_" + "p" * 63 + "._coap._udp",)),
    ("meta", ServiceMetadata(rt="light", extra={"note": "n" * 250})),
], ids=["instance-label", "path-label", "txt-string"])
def test_journaled_register_refuses_what_its_replay_would(tmp_path, field, value):
    journal = tmp_path / "directory.journal"
    d = Digrectory(fixtures.DOMAIN, journal_path=str(journal))
    d.register(light("good_one"))
    bad = light("bad")
    setattr(bad, field, value)
    with pytest.raises(ValueError):
        d.register(bad)
    d.register(light("good_two"))
    assert [e.instance for e in Digrectory(fixtures.DOMAIN, journal_path=str(journal)).live_entries()] == [
        "good_one", "good_two"
    ]
    # the directory still answers: a hit, a miss and a browse
    assert d.answer(query(f"good_two.{fixtures.DOMAIN}", RType.SRV)).header.rcode == 0
    assert d.answer(query(f"missing.{fixtures.DOMAIN}", RType.SRV)).header.rcode == 3
    assert len(d.answer(query(fixtures.SERVICE_PATH, RType.PTR)).answers) == 2


# --- pointer summaries and the publisher ---------------------------------------------


def test_pointer_summaries_one_per_path():
    d = make_directory()
    summaries = d.pointer_summaries()
    assert len(summaries) == 5
    assert {s.service_path for s in summaries} == set((fixtures.SERVICE_PATH,) + fixtures.SERVICE_ALIASES)
    assert all(s.rt == "light" and s.geo == GeoPoint(37.998, -1.141) for s in summaries)
    assert all(s.revision == 1 for s in summaries)


@pytest.fixture()
def lookup_service():
    core = Digcovery()
    core.register_domain(DomainRecord(fixtures.DOMAIN, "127.0.0.1", 5300))
    server = DigcoveryHttpServer(core).start()
    try:
        yield core, HttpDigcoveryClient(server.url, timeout=5.0)
    finally:
        server.stop()


def test_publisher_full_then_delta(lookup_service):
    core, client = lookup_service
    d = make_directory()
    publisher = PointerPublisher(d, client)
    assert publisher.publish() == 5
    assert publisher.publish() == 0  # nothing new
    assert len(core.execute(Term("rt", "light"))) == 5

    extra = fixtures.light_lab_entry()
    extra.instance = "light_two"
    extra.ptr_paths = (fixtures.SERVICE_PATH,)
    d.register(extra)
    assert publisher.publish() == 1
    assert len(core.execute(Wildcard("*.*"))) == 6
    assert len(core.execute(Term("instance", "light_two"))) == 1

    d.withdraw("light_two")
    assert publisher.publish() == 1
    assert len(core.execute(Wildcard("*.*"))) == 5
    assert core.execute(Term("instance", "light_two")) == []
    assert d.pointer_summaries(removed=True) == []  # pruned after the ack


def test_update_tombstones_the_pointers_it_drops(lookup_service):
    core, client = lookup_service
    d = make_directory()
    publisher = PointerPublisher(d, client)
    assert publisher.publish() == 5
    narrowed = fixtures.light_lab_entry()
    narrowed.ptr_paths = (fixtures.SERVICE_PATH,)
    assert d.register(narrowed) == "updated"
    publisher.publish()
    assert [r.service_path for r in core.execute(Term("instance", "light_lab"))] == [fixtures.SERVICE_PATH]
    assert core.discover("_x10.*") == []

    # a new spelling of the instance name replaces the old spelling's pointer
    renamed = fixtures.light_lab_entry()
    renamed.instance, renamed.ptr_paths = "Light_Lab", (fixtures.SERVICE_PATH,)
    renamed.geo = GeoPoint(38.0, -1.15)
    assert d.register(renamed) == "updated"
    publisher.publish()
    assert [r.instance for r in core.execute(Wildcard("*.*"))] == ["Light_Lab"]

    d.withdraw("light_lab")
    publisher.publish()
    assert core.execute(Wildcard("*.*")) == []


class _FailingAt:
    """A client whose nth publish fails as if the service were down."""

    def __init__(self, client: HttpDigcoveryClient, n: int) -> None:
        self.client, self.n, self.calls = client, n, 0

    def publish_pointers(self, domain, batch):
        self.calls += 1
        if self.calls == self.n:
            raise EndpointUnreachable("down")
        return self.client.publish_pointers(domain, batch)


def test_a_publish_splits_under_the_fronts_body_cap(lookup_service, monkeypatch):
    core, client = lookup_service
    monkeypatch.setattr(webapi, "MAX_BODY", 20_000)  # 200 rows of about 170 B each are over it
    d = Digrectory(fixtures.DOMAIN, clock=FakeClock())
    for i in range(40):
        entry = fixtures.light_lab_entry()
        entry.instance = f"light_{i:02}"
        d.register(entry)
    publisher = PointerPublisher(d, _FailingAt(client, 3))
    with pytest.raises(EndpointUnreachable):
        publisher.publish()
    # two batches landed; the watermark stops below the first row not sent
    landed = {(r.instance, r.service_path) for r in core.execute(Wildcard("*.*"))}
    first_unsent = next(r for r in d.pointer_summaries() if (r.instance, r.service_path) not in landed)
    assert 0 < len(landed) < 200 and publisher.watermark == first_unsent.revision - 1

    publisher.client = client
    assert publisher.publish() == 200 - len(landed)  # the rows sent again are already held
    assert publisher.watermark == d.revision and publisher.publish() == 0
    assert sorted(core.execute(Wildcard("*.*")), key=lambda r: r.key()) == sorted(
        d.pointer_summaries(), key=lambda r: r.key()
    )


def test_no_servable_entry_makes_a_row_over_the_bound():
    # every name at its DNS limit in bytes that JSON writes six characters each
    name = ".".join(["\x01" * 63] * 3 + ["\x01" * 59])  # "name.d" is 255 bytes on the wire
    fill = 255 - len(to_txt(ServiceMetadata(rt="r")))
    entry = DirectoryEntry.from_dict(dict(
        fixtures.light_lab_entry().to_dict(), instance=name, domain="d", ptr_paths=[name.replace("\x01", "\x02")],
        geo={"lat": -2.2250738585072014e-308, "lon": -1.2345678901234567e-100},
        meta={"rt": "r" + "\x01" * fill},
    ))
    d = Digrectory("d")
    d._revision = 10**20 - 2
    d.register(entry)
    (row,) = d.pointer_summaries()
    assert len(json.dumps([row.to_dict(), dict(row.to_dict(), removed=True)])) <= 2 * MAX_ROW_BYTES


def test_an_idle_publish_builds_no_row(lookup_service, monkeypatch):
    _, client = lookup_service
    d = make_directory()
    publisher = PointerPublisher(d, client)
    assert publisher.publish() == 5

    def no(*args, **kwargs):
        raise AssertionError("an idle tick built rows")

    monkeypatch.setattr(Digrectory, "_pointers", no)
    monkeypatch.setattr(Digrectory, "live_entries", no)
    assert publisher.publish() == 0


def test_publisher_keeps_state_when_unreachable(lookup_service):
    core, client = lookup_service
    d = make_directory()
    publisher = PointerPublisher(d, HttpDigcoveryClient("http://127.0.0.1:1", timeout=0.3))
    with pytest.raises(EndpointUnreachable):
        publisher.publish()
    assert publisher.watermark == 0 and len(publisher.pending()) == 5
    publisher.client = client
    assert publisher.publish() == 5
    assert len(core.execute(Term("rt", "light"))) == 5


# --- mDNS adoption -------------------------------------------------------------------


def test_entry_from_instance_records():
    records = InstanceRecords(
        instance=f"{fixtures.INSTANCE}.local",
        srv=fixtures.srv_record().rdata,
        meta=fixtures.dimmer_metadata(),
        addr6=fixtures.HOST_ADDR6,
    )
    entry = entry_from_instance_records(records, fixtures.DOMAIN, (fixtures.SERVICE_PATH,))
    assert entry.instance == "light_lab" and entry.origin == "mdns"
    assert entry.addr6 == fixtures.HOST_ADDR6 and entry.addr4 is None
    assert entry.ttl == 86400  # metadata lifetime drives the directory ttl
    d = Digrectory(fixtures.DOMAIN)
    assert d.register(entry) == "created"


def test_adopting_metadata_longer_than_one_txt_string_is_refused():
    long_meta = ServiceMetadata(rt="light", extra={"note": "n" * 250})
    records = InstanceRecords(f"{fixtures.INSTANCE}.local", fixtures.srv_record().rdata, long_meta, fixtures.HOST_ADDR6)
    with pytest.raises(ValueError):
        entry_from_instance_records(records, fixtures.DOMAIN, (fixtures.SERVICE_PATH,))


# --- EPCIS bridge --------------------------------------------------------------------


def tag_attributes(i=0):
    return {
        "rt": "pallet",
        "model": "rfid",
        "if": "core.s",
        "verbs": ["status"],
        "lot": f"L{i:03d}",
        "port": 5683,
    }


def test_metadata_from_attributes_splits_core_and_extra():
    meta = metadata_from_attributes(tag_attributes())
    assert meta.rt == "pallet" and meta.extra == {"lot": "L000"}
    assert meta.verbs == ["status"]


def test_untyped_capture_numbers_are_read_as_integers():
    d = Digrectory(fixtures.DOMAIN)
    epcis = MockEpcis()
    epcis.capture("urn:epc:id:sgtin:0614141.1.1", dict(tag_attributes(), ins="2", lt="600", port="5684"))
    assert EpcisDriver(epcis, d).sync() == 1
    (entry,) = d.live_entries()
    assert (entry.meta.ins, entry.meta.lt, entry.ttl, entry.srv.port) == (2, 600, 600, 5684)


def test_synced_tag_entry_and_journal_line_are_pinned(tmp_path):
    journal = tmp_path / "directory.journal"
    d = Digrectory(fixtures.DOMAIN, journal_path=str(journal))
    epcis = MockEpcis()
    epc = "urn:epc:id:sgtin:0614141.107346.2017"
    epcis.capture(epc, dict(tag_attributes(), lt=3600, batch=7))  # captures are untyped: batch is an int
    assert EpcisDriver(epcis, d).sync() == 1
    entry = {
        "instance": "tag_0614141_107346_2017", "domain": "rd.esiot.com", "ptr_paths": ["_epc._sub._coap._udp"],
        "hostname": "tag_0614141_107346_2017.rd.esiot.com", "port": 5683, "priority": 0, "capacity": 0,
        "addr6": "fd00:6570:6373:0:1c16:bdab:404e:415d", "addr4": None, "ttl": 3600, "geo": None, "origin": "epcis",
        "meta": {"rt": "pallet", "ins": 1, "lt": 3600, "model": "rfid", "if": "core.s", "verbs": ["status"],
                 "extra": {"lot": "L000", "batch": "7"}},
    }
    assert [e.to_dict() for e in d.live_entries()] == [entry]
    assert journal.read_bytes() == (
        b'{"op": "register", "entry": {"instance": "tag_0614141_107346_2017", "domain": "rd.esiot.com", '
        b'"ptr_paths": ["_epc._sub._coap._udp"], "hostname": "tag_0614141_107346_2017.rd.esiot.com", '
        b'"port": 5683, "priority": 0, "capacity": 0, "addr6": "fd00:6570:6373:0:1c16:bdab:404e:415d", '
        b'"addr4": null, "ttl": 3600, "geo": null, "origin": "epcis", "meta": {"rt": "pallet", "ins": 1, '
        b'"lt": 3600, "model": "rfid", "if": "core.s", "verbs": ["status"], '
        b'"extra": {"lot": "L000", "batch": "7"}}}}\n'
    )


def test_mapper_is_deterministic_and_reversible():
    mapper = EpcMapper()
    epc = "urn:epc:id:sgtin:0614141.107346.2017"
    addr = mapper.register(epc)
    assert addr == mapper.address_for(epc) == mapper.register(epc)
    assert addr[:8] == bytes.fromhex("fd00657063730000")
    assert mapper.epc_for(addr) == epc
    assert str(ipaddress.IPv6Address(addr)).startswith("fd00:6570:6373:")
    mapper.remove(epc)
    assert len(mapper) == 0
    with pytest.raises(KeyError):
        mapper.epc_for(addr)


def test_mapper_refuses_collisions():
    class Collider(EpcMapper):
        def address_for(self, epc: str) -> bytes:
            return EPC_PREFIX + b"\x00" * 8

    mapper = Collider()
    mapper.register("tag-one")
    with pytest.raises(EpcCollision):
        mapper.register("tag-two")


def test_driver_sync_and_two_path_resolution():
    epcis = MockEpcis()
    for i in range(4):
        epcis.capture(f"urn:epc:id:sgtin:0614141.107346.{i}", tag_attributes(i))
    d = Digrectory(fixtures.DOMAIN, clock=FakeClock())
    driver = EpcisDriver(epcis, d)
    assert driver.sync() == 4
    assert driver.sync() == 0  # second pass refreshes only
    assert len(d.live_entries()) == 4

    for epc in epcis.tags:
        via_api = driver.resolve(epc, via="api")
        via_dns = driver.resolve(epc, via="dns")
        assert via_api == via_dns
        assert via_api.addr6.startswith(EPC_PREFIX)

    with pytest.raises(ValueError):
        driver.resolve(list(epcis.tags)[0], via="carrier-pigeon")


def test_sync_skips_a_capture_it_cannot_register(tmp_path, caplog):
    journal = tmp_path / "directory.journal"
    d = Digrectory(fixtures.DOMAIN, clock=FakeClock(), journal_path=str(journal))
    epcis = MockEpcis()
    bad, good = "urn:epc:id:sgtin:0614141.107346.0", "urn:epc:id:sgtin:0614141.107346.1"
    epcis.capture(bad, dict(tag_attributes(0), hostname="h" * 64 + ".rd.esiot.com"))  # sorted first
    epcis.capture(good, tag_attributes(1))
    driver = EpcisDriver(epcis, d)
    with caplog.at_level(logging.WARNING, logger="digstack.digrectory"):
        assert driver.sync() == 1
    assert bad in caplog.text
    assert [e.instance for e in d.live_entries()] == ["tag_0614141_107346_1"]
    assert len(journal.read_text().splitlines()) == 1
    assert len(driver.mapper) == 1 and driver.mapper.epc_for(driver.mapper.address_for(good)) == good
    # a synced tag whose capture turns bad keeps its entry and its address; the mended tag joins
    epcis.capture(good, dict(tag_attributes(1), port="x"))
    epcis.capture(bad, tag_attributes(0))
    assert driver.sync() == 1
    assert len(d.live_entries()) == 2 and len(driver.mapper) == 2
    assert d.get("tag_0614141_107346_1").srv.port == 5683


def test_sync_skips_a_tag_whose_address_collides():
    class Collider(EpcMapper):
        def address_for(self, epc: str) -> bytes:
            return EPC_PREFIX + b"\x00" * 8

    epcis = MockEpcis()
    first, second = "urn:epc:id:sgtin:0614141.107346.0", "urn:epc:id:sgtin:0614141.107346.1"
    epcis.capture(first, tag_attributes(0))
    epcis.capture(second, tag_attributes(1))
    d = Digrectory(fixtures.DOMAIN, clock=FakeClock())
    driver = EpcisDriver(epcis, d)
    driver.mapper = Collider()
    assert driver.sync() == 1
    assert [e.instance for e in d.live_entries()] == ["tag_0614141_107346_0"]
    assert driver.mapper.epc_for(EPC_PREFIX + b"\x00" * 8) == first


def test_expired_epcis_tag_leaves_a_journal_that_replays(tmp_path):
    path = tmp_path / "directory.journal"
    clock = FakeClock()
    d = Digrectory(fixtures.DOMAIN, clock=clock, journal_path=str(path))
    epcis = MockEpcis()
    epcis.capture("urn:epc:id:sgtin:0614141.1.2", dict(tag_attributes(), lt=60))
    assert EpcisDriver(epcis, d).sync() == 1
    clock.now += 61
    assert [e.instance for e in d.expire_stale()] == ["tag_0614141_1_2"]
    reborn = Digrectory(fixtures.DOMAIN, clock=FakeClock(), journal_path=str(path))
    assert reborn.live_entries() == [] and journal_state(reborn) == journal_state(d)


def test_follower_of_an_epcis_writer_holds_what_the_writer_holds(tmp_path):
    path = tmp_path / "directory.journal"
    follower = Digrectory(fixtures.DOMAIN, clock=FakeClock(), journal_path=str(path))
    writer = Digrectory(fixtures.DOMAIN, clock=FakeClock(), journal_path=str(path))
    writer.register(fixtures.light_lab_entry())
    epcis = MockEpcis()
    for i in range(3):
        epcis.capture(f"urn:epc:id:sgtin:0614141.107346.{i}", tag_attributes(i))
    driver = EpcisDriver(epcis, writer)
    assert driver.sync() == 3
    assert driver.sync() == 0
    driver.expire_tag("urn:epc:id:sgtin:0614141.107346.0")
    follower.follow_journal()
    assert journal_state(follower) == journal_state(writer)
    assert len(follower.live_entries()) == 3 and follower.revision == 5


def test_driver_expire_tag_withdraws_everywhere():
    epcis = MockEpcis()
    epc = "urn:epc:id:sgtin:0614141.107346.0"
    epcis.capture(epc, tag_attributes())
    d = Digrectory(fixtures.DOMAIN, clock=FakeClock())
    driver = EpcisDriver(epcis, d)
    driver.sync()
    driver.expire_tag(epc)
    assert epcis.tags == {} and d.live_entries() == []
    assert len(driver.mapper) == 0
    with pytest.raises(UnknownInstance):
        driver.resolve(epc, via="api")


def test_refused_tag_expiry_changes_nothing():
    epcis = MockEpcis()
    synced, captured = "urn:epc:id:sgtin:0614141.107346.0", "urn:epc:id:sgtin:0614141.107346.1"
    epcis.capture(synced, tag_attributes(0))
    d = Digrectory(fixtures.DOMAIN, clock=FakeClock())
    driver = EpcisDriver(epcis, d)
    driver.sync()
    epcis.capture(captured, tag_attributes(1))  # captured, not yet synced
    with pytest.raises(UnknownInstance):
        driver.expire_tag(captured)
    assert sorted(epcis.tags) == [synced, captured]
    assert len(driver.mapper) == 1 and len(d.live_entries()) == 1
    assert driver.sync() == 1  # the captured tag still reaches the directory
