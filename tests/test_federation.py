"""One model of the federation: two journaled directories, their publishers
and one lookup core, driven in process through random interleavings.

After any history, once every domain is published, the core holds exactly
the directories' live pointers, `discover` agrees with a scan of them, and
every live instance resolves over its directory's DNS answers.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, rule, run_state_machine_as_test

from digstack.digcovery import Bool, Digcovery, DomainRecord, PointerSummary, match_service_path
from digstack.digrectory import (
    Digrectory,
    DirectoryEntry,
    PointerPublisher,
    UnknownInstance,
    resolve_instance,
)
from digstack.dnscodec import DnsMessage, DomainName, Question, SrvData
from digstack.semantics import ServiceMetadata

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
    """The publishers' client: each batch crosses its JSON form into the core."""

    def __init__(self, core: Digcovery) -> None:
        self.core = core

    def publish_pointers(self, domain: str, batch: list[PointerSummary]) -> int:
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
        domain = DOMAINS[site]
        self.directories[site].register(
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

    @rule(site=SITES, name=st.sampled_from(NAMES))
    def withdraw(self, site, name) -> None:
        try:
            self.directories[site].withdraw(name)
        except UnknownInstance:
            pass

    @rule(seconds=st.sampled_from((30, 61, 3601)))
    def tick(self, seconds) -> None:
        self.clock.now += seconds
        for directory in self.directories:
            directory.expire_stale()

    @rule(site=SITES)
    def publish(self, site) -> None:
        self.publishers[site].publish()

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
        for publisher in self.publishers:
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


def test_the_federation_keeps_the_directories_live_state(tmp_path):
    class Run(Federation):
        root = tmp_path

    run_state_machine_as_test(Run, settings=settings(max_examples=300, stateful_step_count=40, deadline=None))
