"""Measuring and checking plumbing shared by the workloads.

Closed-loop clients keep their replies and are verified after the
window; an open-loop writer times each change from when it was due;
`Run` owns the set-up repeats, the measured window (split into an
untraced and a traced half when tracing), the paper checks and the
assembly of metrics and record.
"""

from __future__ import annotations

import gc
import resource
import statistics
import threading
import time
import urllib.error
import urllib.request
from dataclasses import dataclass, field
from pathlib import Path

import paper
from digstack.netsim import frames_required
from tracing import WRITE_PHASE, Tracer, per_layer, self_times

HTTP_TIMEOUT = 10.0
SLICES = 9  # the window is cut into this many equal slices of time
GROUPS = 5  # the writer's changes are cut into this many consecutive groups
VISIBLE_DEADLINE = 3.0  # a change not visible by then is a failure


# --- measuring and checking -------------------------------------------------------


@dataclass
class Op:
    """One client operation; `reply` is None when no reply arrived."""

    start: float
    end: float
    reply: bytes | None
    ctx: object
    truncated: bool = False  # a DNS reply with TC set
    ok: bool = False


@dataclass
class Outcome:
    """Checked operations of one run, with the first few failures."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(what)
        return ok

    def absorb(self, other: Outcome) -> None:
        """Add another outcome's counts and first failures to this one."""
        self.attempted += other.attempted
        self.failed += other.failed
        self.problems.extend(other.problems[: max(0, 20 - len(self.problems))])


def percentile(values: list[float], q: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def window_metrics(ops: list[Op], started: float, seconds: float) -> dict:
    """Throughput and median latency are medians over `SLICES` equal slices
    of the window, so a few seconds of interference from outside the
    process move them less; p99 and the means use every operation."""
    done = [op for op in ops if op.ok]
    latencies = sorted((op.end - op.start) * 1e3 for op in ops)
    p99 = percentile(latencies, 99)
    width = seconds / SLICES
    slices: list[list[Op]] = [[] for _ in range(SLICES)]
    for op in ops:
        slices[min(SLICES - 1, max(0, int((op.end - started) / width)))].append(op)
    rates = [_throughput(part) for part in slices]
    medians = [percentile(sorted((op.end - op.start) * 1e3 for op in part), 50) for part in slices if part]
    return {
        "ops_per_s": statistics.median(rates),
        "p50_ms": statistics.median(medians),
        "p99_ms": p99,
        "reply_bytes_per_op": statistics.fmean(len(op.reply) for op in done) if done else 0.0,
        "frames_per_reply": statistics.fmean(frames_required(len(op.reply)) for op in done) if done else 0.0,
        "samples": len(latencies),
        "beyond_p99": sum(1 for v in latencies if v > p99),
        "truncated": sum(1 for op in done if op.truncated),
        "slices": {"ops_per_s": [round(r, 2) for r in rates], "p50_ms": [round(m, 3) for m in medians]},
    }


def _throughput(ops: list[Op]) -> float:
    """Checked-correct completions per second between the first and last
    completion in `ops`."""
    ends = sorted(op.end for op in ops if op.ok)
    return (len(ends) - 1) / (ends[-1] - ends[0]) if len(ends) > 1 and ends[-1] > ends[0] else 0.0


class Client:
    """A closed-loop client: `step` sends one request and keeps the reply,
    `verify` judges a kept reply later.  Equal replies share one bytes
    object and one verdict, so memory and checking cost stay small."""

    def __init__(self) -> None:
        self.outcome = Outcome()
        self._replies: dict[bytes, bytes] = {}
        self._verdicts: dict = {}

    def keep(self, reply: bytes) -> bytes:
        return self._replies.setdefault(reply, reply)

    def verify_all(self, ops: list[Op]) -> None:
        for op in ops:
            key = (op.reply, self.verdict_key(op))
            if key not in self._verdicts:
                self._verdicts[key] = self.verify(op) if op.reply is not None else (False, f"no reply: {op.ctx}")
            ok, what = self._verdicts[key]
            op.ok = self.outcome.check(ok, what)

    def verdict_key(self, op: Op):
        return op.ctx

    def verify(self, op: Op) -> tuple[bool, str]:
        raise NotImplementedError


def closed_loop(clients: list[Client], seconds: float) -> tuple[list[list[Op]], float]:
    """Each client thread sends its next request only after the last reply."""
    results: list[list[Op]] = [[] for _ in clients]
    gate = threading.Barrier(len(clients) + 1)
    started = [0.0]

    def loop(i: int) -> None:
        gate.wait()
        deadline = started[0] + seconds
        while time.perf_counter() < deadline:
            results[i].append(clients[i].step())

    threads = [threading.Thread(target=loop, args=(i,), daemon=True) for i in range(len(clients))]
    for t in threads:
        t.start()
    started[0] = time.perf_counter()
    gate.wait()
    for t in threads:
        t.join()
    return results, started[0]


class Beside:
    """Runs `fn(stop_at)` on its own thread for one part of the window."""

    def __init__(self, fn) -> None:
        self.fn = fn

    def start(self, seconds: float) -> None:
        stop_at = time.perf_counter() + seconds
        self.result = self.error = None

        def body() -> None:
            try:
                self.result = self.fn(stop_at)
            except BaseException as err:  # re-raised on the caller's thread by join
                self.error = err

        self.thread = threading.Thread(target=body, daemon=True)
        self.thread.start()

    def join(self):
        self.thread.join()
        if self.error is not None:
            raise self.error
        return self.result


@dataclass
class Epoch:
    """Writer progress, read by readers to bound which state a reply shows."""

    started: int = 0
    completed: int = 0


@dataclass
class WriterLog:
    """Per change: freshness (ms from due to visible) and lateness (ms)."""

    fresh: list[float] = field(default_factory=list)
    late: list[float] = field(default_factory=list)

    def summary(self) -> dict:
        """Freshness percentiles are medians over `GROUPS` consecutive groups
        of changes, as the window's are over slices of time, so that a few
        slow seconds on the host move them less."""
        n = len(self.fresh)
        groups = [sorted(self.fresh[i * n // GROUPS:(i + 1) * n // GROUPS]) for i in range(GROUPS)]
        groups = [g for g in groups if g]
        return {
            "fresh_p50_ms": statistics.median(percentile(g, 50) for g in groups) if groups else 0.0,
            "fresh_p90_ms": statistics.median(percentile(g, 90) for g in groups) if groups else 0.0,
            "fresh_samples": n,
            "writer_late_ms": statistics.fmean(self.late) if self.late else 0.0,
            "writer_late_max_ms": max(self.late) if self.late else 0.0,
            "writer_ticks": len(self.late),
        }


def open_loop_writer(changes, rate: float, apply, visible, stop_at: float, epoch: Epoch, outcome: Outcome,
                     tracer: Tracer) -> WriterLog:
    """One change per 1/rate seconds; freshness runs from when it was due."""
    log = WriterLog()
    fresh, late = log.fresh, log.late
    origin = time.perf_counter()
    for i, change in enumerate(changes):
        due = origin + i / rate
        if due >= stop_at:
            break
        pause = due - time.perf_counter()
        if pause > 0:
            time.sleep(pause)
        late.append((time.perf_counter() - due) * 1e3)
        epoch.started += 1
        try:
            apply(change)
            ok = True
        except Exception as err:  # a failed publish is a measured failure, not a crash
            ok = outcome.check(False, f"{change.op} {change.obj.instance}: {err!r}")
        epoch.completed += 1
        if not ok:
            continue
        while True:
            try:
                seen = visible(change)
            except OSError:
                seen = False
            now = time.perf_counter()
            if seen:
                fresh.append((now - due) * 1e3)
                outcome.check(True, "")
                break
            if now > due + VISIBLE_DEADLINE:
                outcome.check(False, f"{change.op} {change.obj.instance} not visible in {VISIBLE_DEADLINE} s")
                break
            time.sleep(0.002)
    tracer.record("harness.writer", origin, time.perf_counter())
    return log


def http_call(url: str, data: bytes | None, timeout: float = HTTP_TIMEOUT) -> tuple[int, bytes]:
    """One request on a fresh connection, as the program's own client makes it."""
    req = urllib.request.Request(url, data=data, method="POST" if data is not None else "GET",
                                 headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(req, timeout=timeout) as resp:
            return resp.status, resp.read()
    except urllib.error.HTTPError as err:
        return err.code, err.read()


# --- the run ------------------------------------------------------------------------


class Run:
    """One benchmark run: shared plumbing for the three workloads."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool, scale: float, size: dict,
                 root: Path, workdir: Path) -> None:
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.size = size
        self.root, self.workdir = root, workdir
        self.tracer = Tracer()
        self.checks = Outcome()  # answers fixed in advance: paper, set-up, every distinct request before load
        self.outcome = Outcome()  # operations under load: window replies and writer changes
        self.record: dict = {"workload": workload, "seed": seed, "seconds": seconds, "scale": scale, "trace": trace}
        self.extra: dict = {}
        self._stops: list = []
        self._mark = time.perf_counter()

    def phase(self, name: str) -> None:
        """Note the wall time since the previous phase ended."""
        now = time.perf_counter()
        self.record.setdefault("phases_s", {})[name] = round(now - self._mark, 3)
        self._mark = now

    def stop_later(self, fn) -> None:
        self._stops.append(fn)

    def stop_all(self) -> None:
        while self._stops:
            self._stops.pop()()

    def timed_setups(self, setup, repeats: int):
        """Run `setup` `repeats` times; report the median, keep the last.

        The benchmark's own inputs and expected answers are built by now;
        freezing them keeps them out of the program's garbage collections.
        """
        self.phase("inputs")
        gc.collect()
        gc.freeze()
        times, kept = [], None
        for i in range(repeats):
            if kept is not None:
                self.stop_all()
                kept = None
            gc.collect()
            start = time.perf_counter()
            kept = setup(i)
            times.append(time.perf_counter() - start)
        self.phase("setups")
        self.record["setup_runs_s"] = [round(t, 4) for t in times]
        self.setup_s = statistics.median(times)
        return kept

    def window(self, clients: list[Client], beside: Beside | None = None) -> tuple[dict, object]:
        """The measured window, with `beside` running next to the clients.

        A traced run splits it into an untraced half and a traced half;
        the difference between their medians is the tracing overhead.
        Returns the (last half's) window metrics and `beside`'s result.
        """
        self.phase("precheck")
        halves = [False, True] if self.trace else [False]
        seconds = self.seconds / len(halves)
        for traced in halves:
            if self.trace:
                self.tracer.enabled, self.tracer.phase = traced, "window"
            if beside is not None:
                beside.start(seconds)
            cpu = time.process_time()
            per_client, started = closed_loop(clients, seconds)
            cpu = time.process_time() - cpu
            side = beside.join() if beside is not None else None
            for client, client_ops in zip(clients, per_client):
                client.verify_all(client_ops)
            ops = [op for client_ops in per_client for op in client_ops]
            metrics = window_metrics(ops, started, seconds)
            self.phase("window_traced" if traced else "window")
            if self.trace:
                self.record["traced_half" if traced else "untraced_half"] = metrics
        for c in clients:
            self.outcome.absorb(c.outcome)
        self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if self.trace:
            plain = self.record["untraced_half"]
            self.extra["harness.cpu_ms_per_op"] = cpu * 1e3 / max(1, len(ops))
            self.extra["harness.trace_overhead_pct"] = (
                (metrics["p50_ms"] - plain["p50_ms"]) / plain["p50_ms"] * 100 if plain["p50_ms"] else 0.0)
            self.extra["truncated"] = metrics["truncated"]
        return metrics, side

    @property
    def correct(self) -> bool:
        return self.checks.failed == 0 and self.outcome.failed == 0

    def totals(self) -> tuple[int, int]:
        """Attempted and failed checks of every kind."""
        parts = (self.checks, self.outcome)
        return sum(p.attempted for p in parts), sum(p.failed for p in parts)

    def finish(self, e2e: dict, writes: WriterLog | None = None) -> dict:
        """Paper checks, result assembly and the record of the run.  A
        writer's freshness (publish_churn) goes to the record."""
        counts, problems = paper.check()
        self.record["paper"] = counts
        for problem in problems:
            self.checks.check(False, f"paper: {problem}")
        self.tracer.enabled = False
        if self.trace:
            self.extra.update(paper.reference_timings())
        metrics = {
            "setup_s": self.setup_s,
            "ops_per_s": e2e["ops_per_s"],
            "p50_ms": e2e["p50_ms"],
            "p99_ms": e2e["p99_ms"],
            "reply_bytes_per_op": e2e["reply_bytes_per_op"],
            "frames_per_reply": e2e["frames_per_reply"],
            "peak_rss_mb": self.peak_rss_mb,
        }
        self.record["window"] = {k: e2e[k] for k in ("samples", "beyond_p99", "truncated", "slices")}
        if writes is not None:
            self.record["writer"] = writes.summary()
            self.extra["harness.writer_late_ms"] = self.record["writer"]["writer_late_ms"]
        self.record["checks"] = {"attempted": self.checks.attempted, "failed": self.checks.failed}
        self.record["error_rate"] = {
            "value": self.outcome.failed / max(1, self.outcome.attempted),
            "failed": self.outcome.failed,
            "attempted": self.outcome.attempted,
        }
        self.record["problems"] = self.checks.problems + self.outcome.problems
        if self.trace:
            spans = self.tracer.spans
            self.record["layers"] = self_times(spans)
            self.record["spans"] = len(spans)
            self.record["end_to_end_traced"] = metrics
            metrics = per_layer(spans, self.extra, WRITE_PHASE.get(self.workload, "setup"))
            path = self.workdir / f"trace-{self.workload}-{self.seed}.jsonl.gz"
            self.tracer.write(path)
            self.record["trace_file"] = str(path.relative_to(self.root))
        self.phase("finish")
        return metrics
