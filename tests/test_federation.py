"""One model of the federation: two journaled directories, their publishers
and one lookup core, driven in process through random interleavings.

After any history, each publisher's pending rows are the latest row of
each key written past its watermark.  Once every domain is published, in
batches of two rows and after publishes that were cut short, the core
holds exactly the directories' live pointers, `discover` agrees with a
scan of them, and every live instance resolves over its directory's DNS
answers.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, rule, run_state_machine_as_test

from digstack import webapi
from digstack.digcovery import Bool, Digcovery, DomainRecord, PointerSummary, match_service_path
from digstack.digrectory import (
    MAX_ROW_BYTES,
    Digrectory,
    DirectoryEntry,
    PointerPublisher,
    UnknownInstance,
    resolve_instance,
)
from digstack.dnscodec import DnsMessage, DomainName, Question, SrvData
from digstack.semantics import ServiceMetadata
from digstack.webapi import EndpointUnreachable

DOMAINS = ("rd.a.example", "rd.b.example")
NAMES = ("o0", "O0", "o1", "O1", "o2")  # two spellings of one instance make an update drop the old one
PATHS = ("_lamp._sub._coap._udp", "_gas._sub._coap._udp", "_coap._udp")
PATTERNS = ("*.*", "_lamp.*", "_gas._sub._coap._udp")
SITES = st.integers(0, len(DOMAINS) - 1)


class _Clock:
    now = 1000.0

    def __call__(self) -> float:
        return self.now


class _Wire:
    """The publishers' client: each batch crosses its JSON form into the core,
    until `cut` more batches have gone; then it fails as a lost connection."""

    def __init__(self, core: Digcovery) -> None:
        self.core = core
        self.cut: int | None = None

    def publish_pointers(self, domain: str, batch: list[PointerSummary]) -> int:
        if self.cut is not None:
            if self.cut == 0:
                raise EndpointUnreachable("cut")
            self.cut -= 1
        rows = json.loads(json.dumps([p.to_dict() for p in batch]))
        return self.core.ingest(domain, [PointerSummary.from_dict(row) for row in rows])


def _ask(directory: Digrectory):
    return lambda owner, rrtype: directory.answer(DnsMessage(questions=(Question(owner, rrtype),)))


class Federation(RuleBasedStateMachine):
    root: Path  # where each run's journals live

    def __init__(self) -> None:
        super().__init__()
        self.clock = _Clock()
        self.core = Digcovery()
        self.wire = _Wire(self.core)
        workdir = Path(tempfile.mkdtemp(dir=self.root))
        self.journals = [workdir / f"site{i}.journal" for i in range(len(DOMAINS))]
        self.directories: list[Digrectory] = []
        self.publishers: list[PointerPublisher] = []
        self.removed: list[list[PointerSummary]] = [[] for _ in DOMAINS]  # each site's removals, oldest first
        for domain, journal in zip(DOMAINS, self.journals):
            self.core.register_domain(DomainRecord(domain, "127.0.0.1", 5300))
            self.directories.append(Digrectory(domain, clock=self.clock, journal_path=str(journal)))
            self.publishers.append(PointerPublisher(self.directories[-1], self.wire))

    @rule(
        site=SITES,
        name=st.sampled_from(NAMES),
        paths=st.lists(st.sampled_from(PATHS), min_size=1, max_size=3, unique=True),
        ttl=st.sampled_from((60, 3600)),
        port=st.integers(1, 3),
    )
    def register(self, site, name, paths, ttl, port) -> None:
        domain, directory = DOMAINS[site], self.directories[site]
        try:
            stored = directory.get(name)
        except UnknownInstance:
            stored = None
        outcome = directory.register(
            DirectoryEntry(
                instance=name,
                domain=domain,
                ptr_paths=tuple(paths),
                srv=SrvData(0, 0, 5680 + port, DomainName.from_text(f"{name.lower()}-host.{domain}")),
                meta=ServiceMetadata(rt=f"rt{port}", lt=ttl),
                addr6=bytes(15) + bytes([port]),
                ttl=ttl,
            )
        )
        if outcome == "updated":
            self._removed(site, stored, directory.revision)

    @rule(site=SITES, name=st.sampled_from(NAMES))
    def withdraw(self, site, name) -> None:
        try:
            entry = self.directories[site].withdraw(name)
        except UnknownInstance:
            return
        self._removed(site, entry, self.directories[site].revision)

    @rule(seconds=st.sampled_from((30, 61, 3601)))
    def tick(self, seconds) -> None:
        self.clock.now += seconds
        for site, directory in enumerate(self.directories):
            gone = directory.expire_stale()
            for revision, entry in enumerate(gone, start=directory.revision - len(gone) + 1):
                self._removed(site, entry, revision)

    def _removed(self, site: int, entry: DirectoryEntry, revision: int) -> None:
        self.removed[site] += [
            PointerSummary(entry.instance, path, DOMAINS[site], entry.meta.rt, entry.geo, revision, True)
            for path in entry.ptr_paths
        ]

    @rule(site=SITES)
    def publish(self, site) -> None:
        self.publishers[site].publish()

    @rule(site=SITES, batches=st.integers(0, 2))
    def publish_cut(self, site, batches) -> None:
        """A publish whose connection fails after some batches."""
        self.wire.cut = batches
        try:
            self.publishers[site].publish()
        except EndpointUnreachable:
            pass
        finally:
            self.wire.cut = None

    @rule(site=SITES)
    def take_over(self, site) -> None:
        """A second process replays the site's journal and carries on from
        the first one's watermark."""
        directory = Digrectory(DOMAINS[site], clock=self.clock, journal_path=str(self.journals[site]))
        publisher = PointerPublisher(directory, self.wire)
        publisher.watermark = self.publishers[site].watermark
        self.directories[site], self.publishers[site] = directory, publisher

    @rule()
    def check(self) -> None:
        for site, publisher in enumerate(self.publishers):
            # a reference scan: the latest row of each key, from the entries
            # and the removals, past the watermark
            latest = {row.key(): row for row in self.removed[site]}
            for entry in publisher.directory.live_entries():
                for path in entry.ptr_paths:
                    row = PointerSummary(entry.instance, path, DOMAINS[site], entry.meta.rt, entry.geo, entry.revision)
                    latest[row.key()] = row  # a live row is never older than a removed one of its key
            expected = [row for row in latest.values() if row.revision > publisher.watermark]
            pending = publisher.pending()
            assert sorted(pending, key=PointerSummary.key) == sorted(expected, key=PointerSummary.key)
            assert [row.revision for row in pending] == sorted(row.revision for row in pending)
            publisher.publish()
        live = sorted((p for d in self.directories for p in d.pointer_summaries()), key=PointerSummary.key)
        assert sorted(self.core.execute(Bool()), key=PointerSummary.key) == live
        for pattern in PATTERNS:
            expected = sorted({p.domain for p in live if match_service_path(pattern, p.service_path)})
            assert [d.domain for d in self.core.discover(pattern)] == expected
        for directory in self.directories:
            for entry in directory.live_entries():
                records = resolve_instance(_ask(directory), entry.instance_name)
                assert (records.srv, records.meta, records.addr6) == (entry.srv, entry.meta, entry.addr6)


def test_the_federation_keeps_the_directories_live_state(tmp_path, monkeypatch):
    monkeypatch.setattr(webapi, "MAX_BODY", 2 * MAX_ROW_BYTES)  # so a publish is split into batches of two rows

    class Run(Federation):
        root = tmp_path

    run_state_machine_as_test(Run, settings=settings(max_examples=300, stateful_step_count=40, deadline=None))
