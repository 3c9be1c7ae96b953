"""The three workloads against the real servers, started in-process.

Every workload has the same shape (the plumbing is in harness.py):

1. build its inputs and expected answers from the seed (not timed);
2. set up several times (more for the quicker set-ups), timing each from
   a collected heap to the first served request, and keep the last set-up;
3. check each distinct request once against the benchmark's own answer;
4. run closed-loop clients for the measured window.  Clients keep each
   reply (deduplicated) and every one is checked after the window, so
   checking costs no processor time inside it;
5. publish_churn only: run an open-loop writer beside the reader, timing
   each change from when it was due to the first reply that shows it.
"""

from __future__ import annotations

import heapq
import json
import os
import shutil
import socket
import time
import urllib.parse
from collections import Counter
from dataclasses import replace
from itertools import islice
from pathlib import Path

import inputs
import oracle
from digstack import lmdns
from digstack.digcovery import Digcovery, DomainRecord, GeoPoint
from digstack.digrectory import (
    Digrectory,
    DirectoryEntry,
    EpcisDriver,
    MockEpcis,
    PointerPublisher,
    entry_from_instance_records,
)
from digstack.dnscodec import CodecError, DnsHeader, DnsMessage, DomainName, Question, RType, SrvData, decode, encode
from digstack.dnsserver import UdpDnsServer
from digstack.netsim import SimulatedLink, frames_required
from digstack.semantics import ServiceMetadata, from_txt
from digstack.webapi import DigcoveryHttpServer, HttpDigcoveryClient
from harness import HTTP_TIMEOUT, Beside, Client, Epoch, Op, Outcome, Run, http_call, open_loop_writer
from tracing import Tracer

CLIENTS = 2  # closed-loop load threads; the machine has two cores
DNS_TIMEOUT = 2.0

# Sizes at scale 1.0; the smoke test shrinks them.
SIZES = {
    "campus_domains": 20, "campus_pointers": 20000, "pool": 279,
    "site_entries": 2000,
    "churn_domains": 20, "churn_pointers": 10000, "churn_rate": 4.0,
}


def sizes(scale: float) -> dict:
    out = {}
    for key, value in SIZES.items():
        if key.endswith("rate"):
            out[key] = value
        elif key.endswith("domains"):
            out[key] = max(3, round(value * min(1.0, scale * 5)))
        else:
            out[key] = max(10, round(value * scale))
    return out


def change_rows(change: inputs.Change) -> dict:
    delta = {}
    if change.before is not None:
        for row in change.before.rows():
            delta[oracle.sort_key(row)] = None
    if change.after is not None:
        for row in change.after.rows():
            delta[oracle.sort_key(row)] = row
    return delta


class Expect:
    """Expected replies for pool requests at each writer epoch.

    Epoch e is the base corpus with the first e changes applied.  A query
    answer is the base scan with the changed keys folded in by predicate,
    so each answer costs about offset + limit + changed rows.
    """

    def __init__(self, rows: list[tuple], pool: list[inputs.PoolEntry], changes=()) -> None:
        self.scan = oracle.Scan(rows)
        self.base = {oracle.sort_key(r): r for r in rows}
        self.pool = pool
        self.deltas = [change_rows(ch) for ch in changes]
        self._states: list[dict] = [{}]
        self._bases: dict = {}
        self._memo: dict = {}

    def state(self, epoch: int) -> dict:
        while len(self._states) <= epoch:
            nxt = dict(self._states[-1])
            nxt.update(self.deltas[len(self._states) - 1])
            self._states.append(nxt)
        return self._states[epoch]

    def answer(self, rank: int, epoch: int):
        """Memoised at epoch 0 only, so the benchmark's own memory does not
        grow with how many epochs the readers happened to see."""
        if epoch:
            return self._answer(rank, epoch)
        if rank not in self._memo:
            self._memo[rank] = self._answer(rank, 0)
        return self._memo[rank]

    def _base(self, rank: int):
        """The base corpus answer: domain counts for a pattern, sorted rows for a query."""
        if rank not in self._bases:
            entry = self.pool[rank]
            if entry.pattern is not None:
                self._bases[rank] = Counter(r[inputs.DOMAIN] for r in self.base.values()
                                            if oracle.wildcard_match(entry.pattern, r[inputs.PATH]))
            else:
                self._bases[rank] = (self.scan.sorted_rows(entry.query), oracle.predicate(entry.query))
        return self._bases[rank]

    def _answer(self, rank: int, epoch: int):
        entry = self.pool[rank]
        changed = self.state(epoch)
        if entry.pattern is not None:
            counts = Counter(self._base(rank))
            for key, row in changed.items():
                old = self.base.get(key)
                if old and oracle.wildcard_match(entry.pattern, old[inputs.PATH]):
                    counts[old[inputs.DOMAIN]] -= 1
                if row and oracle.wildcard_match(entry.pattern, row[inputs.PATH]):
                    counts[row[inputs.DOMAIN]] += 1
            return sorted(d for d, c in counts.items() if c > 0)
        base, pred = self._base(rank)
        extra = sorted((r for r in changed.values() if r is not None and pred(r)), key=oracle.sort_key)
        kept = (r for r in base if oracle.sort_key(r) not in changed)
        window = islice(heapq.merge(kept, extra, key=oracle.sort_key), entry.offset, entry.offset + inputs.PAGE)
        return [oracle.hit(r) for r in window]

    def warm(self) -> Expect:
        """Compute every epoch-0 answer now, before set-up."""
        for rank in range(len(self.pool)):
            self.answer(rank, 0)
        return self

    def matches(self, rank: int, status: int, body: bytes, lo: int, hi: int) -> bool:
        """Whether a reply equals the answer at some epoch in [lo, hi]."""
        if status != 200:
            return False
        reply = json.loads(body)
        entry = self.pool[rank]
        if entry.pattern is not None:
            got = [d["domain"] for d in reply["domains"]]
        else:
            if reply.get("offset") != entry.offset:
                return False
            got = oracle.reply_hits(reply["results"])
        return any(got == self.answer(rank, e) for e in range(lo, hi + 1))


def request_for(base: str, entry: inputs.PoolEntry) -> tuple[str, bytes | None]:
    if entry.pattern is not None:
        return f"{base}/api/v1/discover?pattern={urllib.parse.quote(entry.pattern)}", None
    return f"{base}/api/v1/query", json.dumps(entry.body()).encode()


class HttpReader(Client):
    """Closed-loop reader over the campus query pool, one connection per request."""

    def __init__(self, base: str, expect: Expect, ranks, epoch: Epoch, tracer: Tracer, name: str) -> None:
        super().__init__()
        self.requests = [request_for(base, e) for e in expect.pool]
        self.expect, self.ranks, self.epoch, self.tracer, self.name = expect, ranks, epoch, tracer, name
        self.sent = 0

    def step(self) -> Op:
        rank = next(self.ranks)
        url, body = self.requests[rank]
        lo = self.epoch.completed
        self.sent += 1
        start = time.perf_counter()
        try:
            status, raw = http_call(url, body)
        except OSError as err:
            return Op(start, time.perf_counter(), None, (rank, lo, lo, repr(err)))
        end = time.perf_counter()
        self.tracer.record("client.http", start, end, len(raw), f"{self.name}:{self.sent}")
        return Op(start, end, self.keep(raw), (rank, lo, self.epoch.started, status))

    def verify(self, op: Op) -> tuple[bool, str]:
        rank, lo, hi, status = op.ctx
        ok = self.expect.matches(rank, status, op.reply, lo, hi)
        return ok, f"rank {rank} {self.expect.pool[rank]} (epochs {lo}-{hi}): status {status}"


def precheck(base: str, expect: Expect, outcome: Outcome) -> None:
    """Every distinct pool request once, against the linear scan."""
    for rank, entry in enumerate(expect.pool):
        status, raw = http_call(*request_for(base, entry))
        outcome.check(expect.matches(rank, status, raw, 0, 0), f"precheck rank {rank} {entry}: status {status}")


def visible_via_http(base: str, tracer: Tracer):
    """Whether a query for the changed instance shows the change.  Its round
    trip is a client span too: in publish_churn it shares the window."""

    def visible(change: inputs.Change) -> bool:
        body = json.dumps({"query": {"term": {"instance": change.obj.instance}}, "limit": None}).encode()
        start = time.perf_counter()
        status, raw = http_call(f"{base}/api/v1/query", body)
        tracer.record("client.http", start, time.perf_counter(), len(raw), f"writer:{change.obj.instance}")
        if status != 200:
            return False
        got = sorted(h for h in oracle.reply_hits(json.loads(raw)["results"]) if h[0] == change.obj.domain)
        want = sorted(oracle.hit(r) for r in change.after.rows()) if change.after else []
        return got == want

    return visible


def pool_digest(pool: list[inputs.PoolEntry], seed: int, clients: int, count: int = 512) -> list[str]:
    """Digest of each reader's first requests (path and body, not the
    server's port), to show two runs of one seed send the same bytes."""
    def sent(entry: inputs.PoolEntry) -> bytes:
        path, body = request_for("", entry)
        return path.encode() + (body or b"")

    wire = [sent(e) for e in pool]
    return [inputs.stream_digest(wire[k] for k in islice(inputs.request_ranks(seed, c, len(pool)), count))
            for c in range(clients)]


# --- campus_search ----------------------------------------------------------------


def _directory_entry(obj: inputs.CampusObject, number: int) -> DirectoryEntry:
    return DirectoryEntry(
        instance=obj.instance, domain=obj.domain, ptr_paths=obj.paths,
        srv=SrvData(0, 0, 5683 + number % 1000, DomainName.from_text(f"{obj.instance}.{obj.domain}")),
        meta=ServiceMetadata(rt=obj.rt, ins=1 + number % 3, lt=86400, model=f"m{number % 31}", if_="core.s",
                             verbs=["status"], extra={"zone": str(number % 17)}),
        addr6=bytes.fromhex("20010db8") + number.to_bytes(12, "big"),
        geo=GeoPoint(obj.lat, obj.lon) if obj.lat is not None else None,
    )


def campus_entries(camp: inputs.Campus) -> tuple[dict, dict[str, list[DirectoryEntry]]]:
    """Each object's number, and each domain's directory entries."""
    numbers = {(o.domain, o.instance): n for n, o in enumerate(camp.objects)}
    by_domain: dict[str, list[DirectoryEntry]] = {d: [] for d in camp.domains}
    for obj in camp.objects:
        by_domain[obj.domain].append(_directory_entry(obj, numbers[obj.domain, obj.instance]))
    return numbers, by_domain


def publish_campus(camp: inputs.Campus, by_domain: dict, client: HttpDigcoveryClient) -> dict[str, PointerPublisher]:
    """Each domain's directory registers its entries and publishes them
    to digcovery as one `POST …/pointers` batch."""
    publishers = {}
    for n, domain in enumerate(camp.domains):
        directory = Digrectory(domain)
        for entry in by_domain[domain]:
            directory.register(replace(entry))
        client.register_domain(DomainRecord(domain, "127.0.0.1", 5300 + n))
        publishers[domain] = PointerPublisher(directory, client)
        publishers[domain].publish()
    return publishers


def run_campus_search(run: Run) -> dict:
    size = run.size
    camp = inputs.campus(run.seed, size["campus_domains"], size["campus_pointers"])
    rows = camp.rows()
    pool = inputs.query_pool(run.seed, camp, size["pool"])
    expect = Expect(rows, pool).warm()
    _, by_domain = campus_entries(camp)
    run.record["inputs"] = {
        "domains": len(camp.domains), "objects": len(camp.objects), "pointers": len(rows),
        "pool": len(pool), "query_mix": inputs.pool_shares(pool),
    }

    def setup(i: int):
        http = DigcoveryHttpServer(Digcovery()).start()
        run.stop_later(http.stop)
        client = HttpDigcoveryClient(http.url, timeout=HTTP_TIMEOUT)
        publish_campus(camp, by_domain, client)
        if pool[0].query is not None:
            client.query(pool[0].query)
        else:
            client.discover(pool[0].pattern)
        return http

    http = run.timed_setups(setup, repeats=3)
    precheck(http.url, expect, run.checks)
    readers = [HttpReader(http.url, expect, inputs.request_ranks(run.seed, c, len(pool)), Epoch(), run.tracer,
                          f"r{c}") for c in range(CLIENTS)]
    run.record["request_digest"] = pool_digest(pool, run.seed, CLIENTS)
    e2e, _ = run.window(readers)
    return run.finish(e2e)


# --- site_resolve -------------------------------------------------------------------


def _meta(t: tuple) -> ServiceMetadata:
    rt, ins, lt, model, if_, verbs, extra = t
    return ServiceMetadata(rt=rt, ins=ins, lt=lt, model=model, if_=if_, verbs=list(verbs), extra=dict(extra))


def _meta_tuple(m: ServiceMetadata) -> tuple:
    return (m.rt, m.ins, m.lt, m.model, m.if_, tuple(m.verbs), tuple(m.extra.items()))


def _entry_dict(e: inputs.SiteEntry) -> dict:
    """A site entry in the journal's entry format."""
    rt, ins, lt, model, if_, verbs, extra = e.meta
    return {
        "instance": e.instance, "domain": inputs.SITE_DOMAIN, "ptr_paths": list(e.paths),
        "hostname": e.hostname, "port": e.port, "priority": 0, "capacity": 0,
        "addr6": socket.inet_ntop(socket.AF_INET6, e.addr6),
        "addr4": socket.inet_ntop(socket.AF_INET, e.addr4) if e.addr4 else None,
        "ttl": 604800, "geo": None, "origin": "local",
        "meta": {"rt": rt, "ins": ins, "lt": lt, "model": model, "if": if_, "verbs": list(verbs),
                 "extra": dict(extra)},
    }


def _journal_text(site: inputs.Site) -> str:
    lines = []
    for op, entry in site.journal:
        if op == "register":
            lines.append(json.dumps({"op": "register", "entry": _entry_dict(entry)}))
        else:
            lines.append(json.dumps({"op": "withdraw", "instance": entry.instance}))
    return "\n".join(lines) + "\n"


def _profile(e: inputs.SiteEntry) -> lmdns.SmartObjectProfile:
    return lmdns.SmartObjectProfile(
        instance=e.instance, service_path=e.paths[0], meta=_meta(e.meta), port=e.port,
        addr6=e.addr6, domain=inputs.SITE_DOMAIN, hostname=e.hostname,
    )


def dns_ask(sock: socket.socket, qid: int, name: str, qtype: str) -> bytes:
    """Send one question on a connected socket; return the reply carrying our id."""
    sock.send(encode(DnsMessage(header=DnsHeader(id=qid, rd=1),
                                questions=(Question(DomainName.from_text(name), RType[qtype]),))))
    while True:
        data = sock.recv(65535)
        if len(data) >= 4 and int.from_bytes(data[:2], "big") == qid and data[2] & 0x80:
            return data


def _dns_socket(address) -> socket.socket:
    sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    sock.connect(address)
    sock.settimeout(DNS_TIMEOUT)
    return sock


class DnsClient(Client):
    """Closed-loop resolver on one reused UDP socket."""

    def __init__(self, address, stream, ptr_expect: dict[str, set[str]], tracer: Tracer, name: str) -> None:
        super().__init__()
        self.sock = _dns_socket(address)
        self.stream, self.ptr_expect, self.tracer, self.name = stream, ptr_expect, tracer, name
        self.kinds: Counter = Counter()

    def close(self) -> None:
        self.sock.close()

    def step(self) -> Op:
        req = next(self.stream)
        self.kinds[req.qtype if req.expect is not None else "nx"] += 1
        start = time.perf_counter()
        try:
            data = dns_ask(self.sock, req.qid, req.name, req.qtype)
        except OSError:
            return Op(start, time.perf_counter(), None, req)
        end = time.perf_counter()
        self.tracer.record("client.dns", start, end, len(data), f"{self.name}:{req.qid}")
        return Op(start, end, self.keep(data), req, truncated=bool(data[2] & 0x02))

    def verdict_key(self, op: Op):
        return (op.ctx.name, op.ctx.qtype, op.reply[2:] if op.reply else None)

    def verify(self, op: Op) -> tuple[bool, str]:
        req = op.ctx
        try:
            reply = decode(op.reply)
        except CodecError as err:
            return False, f"{req.qtype} {req.name}: undecodable reply {err}"
        ok = self.check(req, reply)
        return ok, f"{req.qtype} {req.name}: rcode {reply.header.rcode}, {len(reply.answers)} answers"

    def check(self, req: inputs.DnsRequest, reply: DnsMessage) -> bool:
        rcode, answers = reply.header.rcode, reply.answers
        if req.expect is None:
            return rcode == 3 and not answers
        if req.qtype == inputs.PTR:
            want = self.ptr_expect.get(req.expect, set())
            if not want:
                return rcode == 3 and not answers
            got = [str(rr.rdata).lower() for rr in answers if rr.rrtype == RType.PTR]
            if rcode != 0 or len(got) != len(answers) or len(set(got)) != len(got):
                return False
            return set(got) <= want if reply.header.tc else set(got) == want
        entry: inputs.SiteEntry = req.expect
        if req.qtype == inputs.A and entry.addr4 is None:
            return rcode == 3 and not answers
        if rcode != 0 or len(answers) != 1:
            return False
        data = answers[0].rdata
        if req.qtype == inputs.SRV:
            return data.port == entry.port and str(data.target).lower() == entry.hostname
        if req.qtype == inputs.TXT:
            return _meta_tuple(from_txt([c.decode("utf-8") for c in data])) == entry.meta
        if req.qtype == inputs.AAAA:
            return data == entry.addr6
        return data == entry.addr4


def run_site_resolve(run: Run) -> dict:
    size = run.size
    site = inputs.site(run.seed, size["site_entries"])
    expected = site.entries
    journal = _journal_text(site)
    ptr_expect: dict[str, set[str]] = {}
    for e in expected.values():
        for path in e.paths:
            ptr_expect.setdefault(path, set()).add(e.instance_name)
    names = sorted(expected)
    probe_paths = sorted({e.paths[0] for e in site.lmdns_objects + site.known_objects})
    joins: dict = {}

    def setup(i: int):
        path = run.workdir / f"site-{i}.jsonl"
        path.write_text(journal, encoding="utf-8")
        link = SimulatedLink()
        for e in site.lmdns_objects + site.known_objects:
            lmdns.SmartObjectAgent(_profile(e), link)
        directory_end = link.attach("directory")
        epcis = MockEpcis(tags={k: dict(v) for k, v in site.epc_tags.items()})
        with run.tracer.span("digrectory.replay"):
            directory = Digrectory(inputs.SITE_DOMAIN, journal_path=str(path))
        known = {e.instance_name.lower() for e in directory.live_entries()}
        joined = 0
        for svc in probe_paths:
            for found in lmdns.probe(directory_end, svc):
                records = lmdns.registration_handshake(known, found, directory_end)
                if records is not None:
                    directory.register(entry_from_instance_records(records, inputs.SITE_DOMAIN, [svc]))
                    known.add(found.instance)
                    joined += 1
        EpcisDriver(epcis, directory).sync()
        server = UdpDnsServer(directory.answer).start()
        run.stop_later(server.stop)
        with _dns_socket(server.address) as sock:
            dns_ask(sock, 1, expected[names[0]].instance_name, inputs.SRV)
        joins.update(joined=joined, messages=len(link.log),
                     frames=sum(frames_required(len(d.payload)) for d in link.log),
                     live=len(directory.live_entries()))
        return directory, server

    directory, server = run.timed_setups(setup, repeats=7)
    run.checks.check(joins["live"] == len(expected), f"directory holds {joins['live']} entries, not {len(expected)}")
    run.extra["messages_per_join"] = joins["messages"] / max(1, joins["joined"])
    run.extra["frames_per_join"] = joins["frames"] / max(1, joins["joined"])
    run.record["inputs"] = {
        "entries": len(expected), "journal_ops": site.journal_ops, "lmdns_objects": len(site.lmdns_objects),
        "lmdns_known": len(site.known_objects), "epc_tags": len(site.epc_tags), "paths": len(site.paths),
        "largest_path": max(len(v) for v in ptr_expect.values()), "joins": joins,
    }
    checker = DnsClient(server.address, iter(inputs.site_sample(site)), ptr_expect, run.tracer, "check")
    try:
        sample = [checker.step() for _ in inputs.site_sample(site)]
    finally:
        checker.close()
    checker.verify_all(sample)
    run.checks.absorb(checker.outcome)
    clients = [DnsClient(server.address, inputs.dns_requests(run.seed, c, site, names), ptr_expect,
                         run.tracer, f"d{c}") for c in range(CLIENTS)]
    run.record["request_digest"] = [
        inputs.stream_digest(f"{r.qid}:{r.name}:{r.qtype}".encode()
                             for r in islice(inputs.dns_requests(run.seed, c, site, names), 512))
        for c in range(CLIENTS)
    ]
    try:
        e2e, _ = run.window(clients)
    finally:
        for c in clients:
            c.close()
    mix = sum((c.kinds for c in clients), Counter())
    run.record["inputs"]["query_mix"] = {k: round(v / max(1, sum(mix.values())), 4) for k, v in sorted(mix.items())}

    return run.finish(e2e)


# --- publish_churn ------------------------------------------------------------------


def run_publish_churn(run: Run) -> dict:
    size = run.size
    camp = inputs.campus(run.seed, size["churn_domains"], size["churn_pointers"])
    rows = camp.rows()
    pool = inputs.query_pool(run.seed, camp, size["pool"])
    changes = inputs.churn(run.seed, camp, int(run.seconds * size["churn_rate"]) + 4)
    expect = Expect(rows, pool, changes).warm()
    numbers, by_domain = campus_entries(camp)
    change_entries = {
        id(ch): _directory_entry(ch.after, numbers.get((ch.obj.domain, ch.obj.instance), 50000 + tick))
        for tick, ch in enumerate(changes) if ch.after is not None
    }
    run.record["inputs"] = {
        "domains": len(camp.domains), "objects": len(camp.objects), "pointers": len(rows), "pool": len(pool),
        "query_mix": inputs.pool_shares(pool), "write_rate_per_s": size["churn_rate"],
        "write_mix": dict(Counter(ch.op for ch in changes)),
    }

    def setup(i: int):
        http = DigcoveryHttpServer(Digcovery()).start()
        run.stop_later(http.stop)
        client = HttpDigcoveryClient(http.url, timeout=HTTP_TIMEOUT)
        publishers = publish_campus(camp, by_domain, client)
        client.query(pool[0].query or {"wildcard": "*.*"})
        return http, publishers

    http, publishers = run.timed_setups(setup, repeats=5)
    precheck(http.url, expect, run.checks)
    epoch = Epoch()
    reader = HttpReader(http.url, expect, inputs.request_ranks(run.seed, 0, len(pool)), epoch, run.tracer, "r0")
    run.record["request_digest"] = pool_digest(pool, run.seed, 1) + [
        inputs.stream_digest(json.dumps([ch.op, ch.obj.domain, ch.obj.instance]).encode() for ch in changes)
    ]

    def apply(change: inputs.Change) -> None:
        publisher = publishers[change.obj.domain]
        if change.after is None:
            publisher.directory.withdraw(change.before.instance)
        else:
            publisher.directory.register(replace(change_entries[id(change)]))
        publisher.publish()

    write_checks = Outcome()
    writer = Beside(lambda stop_at: open_loop_writer(
        changes[epoch.started:], size["churn_rate"], apply, visible_via_http(http.url, run.tracer), stop_at,
        epoch, write_checks, run.tracer))
    e2e, log = run.window([reader], writer)
    run.outcome.absorb(write_checks)
    return run.finish(e2e, log)


WORKLOADS = {
    "campus_search": run_campus_search,
    "site_resolve": run_site_resolve,
    "publish_churn": run_publish_churn,
}


def run(workload: str, seed: int, seconds: float, trace: bool, scale: float, root: Path) -> tuple[dict, Run]:
    """Run one workload; returns its metrics and the run with its record and checks."""
    workdir = root / ".bench_build" / "perfbench" / f"{workload}-{seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    r = Run(workload, seed, seconds, trace, scale, sizes(scale), root, workdir)
    if trace:
        r.tracer.install()
        r.tracer.enabled = True
    try:
        metrics = WORKLOADS[workload](r)
    finally:
        r.stop_all()
        r.tracer.uninstall()
        for f in workdir.glob("site-*.jsonl"):
            f.unlink()
        if not any(workdir.iterdir()):
            shutil.rmtree(workdir)
    return metrics, r
