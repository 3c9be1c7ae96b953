"""Spans around the program's public entry points, kept in memory.

`Tracer.install` replaces each entry point with a timing wrapper, from
this file only; nothing inside the program changes.  Servers capture
bound methods when they are built, so the wrappers go in before set-up
and are switched on and off through `enabled` rather than removed.

A span is (id, name, start, end, parent id, request id, thread, phase,
detail).  Client round trips carry a request id; spans on server threads
cannot, and are attributed afterwards by time interval (`attribute`).
`per_layer` turns the spans into the per-layer metrics.
"""

from __future__ import annotations

import gzip
import itertools
import json
import statistics
import threading
import time
from bisect import bisect_right
from collections import defaultdict
from contextlib import contextmanager

from digstack import digcovery, digrectory, dnsserver, lmdns, webapi
from digstack.digcovery import node_kind
from digstack.dnscodec import RType

SPAN_FIELDS = ("id", "name", "start", "end", "parent", "request", "thread", "phase", "detail")

# The phase whose write-path spans (register, pending, publish, ingest)
# feed the per-layer metrics: publish_churn's writer runs in the window
# and its per-delta costs target fresh_*; elsewhere the set-up loads
# target setup_s.
WRITE_PHASE = {"publish_churn": "window"}


def _answer_class(args, kwargs, reply):
    if reply is None:
        return None
    if reply.header.rcode == 3:
        return "nxdomain"
    return RType(args[1].questions[0].rrtype).name.lower()


def _cached_detail(args, kwargs, result):
    hits, stats = result
    return (node_kind(args[1]), len(hits), stats.hits, stats.misses)


# (owner, attribute, span name, detail function)
ENTRY_POINTS = (
    (digcovery.Digcovery, "ingest", "digcovery.ingest", lambda a, k, r: len(a[2])),
    (digcovery.Digcovery, "execute", "digcovery.execute", None),
    (digcovery.Digcovery, "execute_cached", "digcovery.execute_cached", _cached_detail),
    (digcovery.Digcovery, "discover", "digcovery.discover", None),
    (digcovery.Digcovery, "register_domain", "digcovery.register_domain", None),
    (webapi, "parse_query", "digcovery.parse_query", None),
    (webapi.HttpDigcoveryClient, "register_domain", "webapi.client.register_domain", None),
    (webapi.HttpDigcoveryClient, "publish_pointers", "webapi.client.publish_pointers", None),
    (webapi.HttpDigcoveryClient, "query", "webapi.client.query", None),
    (webapi.HttpDigcoveryClient, "discover", "webapi.client.discover", None),
    (webapi.HttpDigcoveryClient, "domains", "webapi.client.domains", None),
    (digrectory.Digrectory, "answer", "digrectory.answer", _answer_class),
    (digrectory.Digrectory, "register", "digrectory.register", None),
    (digrectory.Digrectory, "withdraw", "digrectory.withdraw", None),
    (digrectory.PointerPublisher, "pending", "digrectory.pending", None),
    (digrectory.PointerPublisher, "publish", "digrectory.publish", None),
    (digrectory.EpcisDriver, "sync", "digrectory.epcis_sync", None),
    (digrectory, "to_txt", "semantics.to_txt", None),
    (lmdns, "probe", "lmdns.probe", None),
    (lmdns, "registration_handshake", "lmdns.handshake", None),
    (dnsserver, "decode", "dnscodec.decode", None),
    (dnsserver, "encode", "dnscodec.encode", lambda a, k, r: len(r)),
)


class Tracer:
    def __init__(self) -> None:
        self.enabled = False
        self.phase = "setup"
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._saved: list[tuple] = []

    # -- recording --

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def record(self, name: str, start: float, end: float, detail=None, request=None) -> None:
        """A span measured by the caller (client round trips, set-up steps)."""
        if not self.enabled:
            return
        stack = self._stack()
        self.spans.append((next(self._ids), name, start, end, stack[-1] if stack else None,
                           request, threading.get_ident(), self.phase, detail))

    @contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code."""
        if not self.enabled:
            yield
            return
        stack = self._stack()
        sid, parent = next(self._ids), (stack[-1] if stack else None)
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((sid, name, start, end, parent, None, threading.get_ident(), self.phase, None))

    def _wrap(self, fn, name, detail_fn):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            sid = next(tracer._ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = time.perf_counter()
            detail = "error"
            try:
                result = fn(*args, **kwargs)
                detail = None
                if detail_fn is not None:
                    try:
                        detail = detail_fn(args, kwargs, result)
                    except Exception as err:  # a detail must never change what the program returns
                        detail = f"detail failed: {err!r}"
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append((sid, name, start, end, parent, None, threading.get_ident(), tracer.phase,
                                     detail))

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for owner, attr, name, detail_fn in ENTRY_POINTS:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, detail_fn))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
        self.enabled = False

    # -- output --

    def attribute(self) -> list[dict]:
        """Spans as dicts; server spans get the client request whose round
        trip contains them (the earliest such request when several do)."""
        clients = sorted((s for s in self.spans if s[1].startswith("client.")), key=lambda s: s[2])
        starts = [s[2] for s in clients]
        out = []
        for span in self.spans:
            row = dict(zip(SPAN_FIELDS, span))
            if row["request"] is None and not row["name"].startswith("client."):
                hi = bisect_right(starts, row["start"])
                for c in clients[max(0, hi - 64):hi]:
                    if c[3] >= row["end"]:
                        row["request"], row["attributed"] = c[5], "interval"
                        break
            out.append(row)
        return out

    def write(self, path) -> None:
        """Every span as one JSON line, gzip-compressed."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            for row in self.attribute():
                fh.write(json.dumps(row, default=str) + "\n")


def self_times(spans: list[tuple]) -> dict[str, dict]:
    """Per span name: count, total and self milliseconds (children removed)."""
    child_time: dict[int, float] = defaultdict(float)
    for s in spans:
        if s[4] is not None:
            child_time[s[4]] += s[3] - s[2]
    out: dict[str, dict] = {}
    for s in spans:
        row = out.setdefault(s[1], {"count": 0, "total_ms": 0.0, "self_ms": 0.0})
        row["count"] += 1
        row["total_ms"] += (s[3] - s[2]) * 1e3
        row["self_ms"] += (s[3] - s[2] - child_time.get(s[0], 0.0)) * 1e3
    return {k: {"count": v["count"], "total_ms": round(v["total_ms"], 3), "self_ms": round(v["self_ms"], 3)}
            for k, v in sorted(out.items())}


def _mean(values, scale: float = 1.0) -> float:
    values = list(values)
    return statistics.fmean(values) * scale if values else 0.0


def per_layer(spans: list[tuple], extra: dict, write_phase: str) -> dict[str, float]:
    """Per-layer metrics from the spans of one traced run.

    Per-operation figures use the traced window only; set-up layers
    (replay, EPCIS sync, joins) use the set-up phase, and write-path
    layers (register, pending, publish, ingest) use `write_phase`.
    `extra` carries what spans do not: reference codec timings, process
    CPU, writer lateness, join counts and the overhead.
    """
    phases: dict[str, dict[str, list[tuple]]] = defaultdict(lambda: defaultdict(list))
    for s in spans:
        phases[s[7]][s[1]].append(s)
    win, setup, write = phases["window"], phases["setup"], phases[write_phase]

    def dur_us(rows):
        return _mean((s[3] - s[2] for s in rows), 1e6)

    def dur_ms(rows):
        return _mean((s[3] - s[2] for s in rows), 1e3)

    http_ops, dns_ops = win["client.http"], win["client.dns"]
    dns_core = sum(s[3] - s[2] for n in ("dnscodec.decode", "digrectory.answer", "dnscodec.encode")
                   for s in win[n] if s[4] is None)
    web_core = sum(s[3] - s[2] for n in ("digcovery.parse_query", "digcovery.execute_cached", "digcovery.discover")
                   for s in win[n] if s[4] is None)
    ops = len(http_ops) + len(dns_ops)
    cached = win["digcovery.execute_cached"]
    lookups = sum(s[8][2] + s[8][3] for s in cached if isinstance(s[8], tuple))
    hits = sum(s[8][2] for s in cached if isinstance(s[8], tuple))
    answers = defaultdict(list)
    for s in win["digrectory.answer"]:
        answers[s[8]].append(s)

    m = {
        "dnscodec.decode_us": dur_us(win["dnscodec.decode"]),
        "dnscodec.encode_us": dur_us(win["dnscodec.encode"]),
        "dnscodec.reply_bytes": _mean(s[8] for s in win["dnscodec.encode"] if isinstance(s[8], int)),
        "dnsserver.self_us": (_mean(s[3] - s[2] for s in dns_ops) - dns_core / len(dns_ops)) * 1e6 if dns_ops else 0.0,
        "dnsserver.truncated_replies": extra.get("truncated", 0),
        "dnsserver.replies": len(dns_ops),
    }
    for kind in ("srv", "txt", "aaaa", "a", "ptr", "nxdomain"):
        m[f"digrectory.answer_us.{kind}"] = dur_us(answers[kind])
    m.update({
        "digrectory.replay_ms": dur_ms(setup["digrectory.replay"]),
        "digrectory.epcis_sync_ms": dur_ms(setup["digrectory.epcis_sync"]),
        "digrectory.register_us": dur_us(write["digrectory.register"]),
        "digrectory.pending_ms": dur_ms(write["digrectory.pending"]),
        "digrectory.publish_ms": dur_ms(write["digrectory.publish"]),
        "semantics.to_txt_us": dur_us(win["semantics.to_txt"]),
        "semantics.to_txt_calls_per_op": len(win["semantics.to_txt"]) / ops if ops else 0.0,
        "lmdns.probe_ms": dur_ms(setup["lmdns.probe"]),
        "lmdns.handshake_ms": dur_ms(setup["lmdns.handshake"]),
        "lmdns.messages_per_join": extra.get("messages_per_join", 0.0),
        "netsim.frames_per_join": extra.get("frames_per_join", 0.0),
        "digcovery.parse_query_us": dur_us(win["digcovery.parse_query"]),
    })
    kinds = defaultdict(list)
    for s in cached:
        if isinstance(s[8], tuple):
            kinds[s[8][0]].append(s)
    for kind in ("term", "prefix", "range", "geo_range", "wildcard", "bool", "filtered"):
        m[f"digcovery.execute_cached_us.{kind}"] = dur_us(kinds[kind])
    m.update({
        "digcovery.discover_us": dur_us(win["digcovery.discover"]),
        "digcovery.cache_hit_ratio": hits / lookups if lookups else 0.0,
        "digcovery.cache_lookups": lookups,
        "digcovery.results_per_query": _mean(s[8][1] for s in cached if isinstance(s[8], tuple)),
        "digcovery.ingest_ms": dur_ms(write["digcovery.ingest"]),
        "digcovery.ingest_pointers": _mean(s[8] for s in write["digcovery.ingest"] if isinstance(s[8], int)),
        "webapi.client_rtt_us": dur_us(http_ops),
        "webapi.self_us": (_mean(s[3] - s[2] for s in http_ops) - web_core / len(http_ops)) * 1e6 if http_ops else 0.0,
        "webapi.response_bytes": _mean(s[8] for s in http_ops),
    })
    for key in ("dnscodec.ref_encode_us", "dnscodec.ref_decode_us", "dnscodec.ref_measure_us",
                "harness.cpu_ms_per_op", "harness.writer_late_ms", "harness.trace_overhead_pct"):
        m[key] = extra.get(key, 0.0)
    return m
