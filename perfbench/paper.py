"""The paper's own measures (claims c01-c03), checked in every run.

c01: the stock SRV reply needs 3 worst-case frames, the reduced one 1.
c02: the three-record TXT reply needs 3 frames, the joined one 2.
c03: a probe costs 2 messages; resolving an unknown instance costs
exactly 6 more (SRV, TXT and AAAA exchanges), a known one none.
Byte counts are held to the same tolerance the acceptance tests use.
"""

from __future__ import annotations

import time

from digstack import fixtures
from digstack.dnscodec import RType, decode, encode, measure
from digstack.lmdns import SmartObjectAgent, probe, registration_handshake
from digstack.netsim import FrameBudget, SimulatedLink, frames_required

WORST_CASE = FrameBudget(overhead=41)

# name -> (paper bytes, tolerance, paper frames)
REFERENCE = {
    "srv_optimized": (79, 6, 1),
    "srv_original": (188, 12, 3),
    "txt_joined": (130, 10, 2),
    "txt_multi": (221, 12, 3),
}


def reference_replies() -> dict:
    return {
        "srv_optimized": fixtures.srv_reply_optimized(),
        "srv_original": fixtures.srv_reply_original(),
        "txt_joined": fixtures.txt_reply_joined(),
        "txt_multi": fixtures.txt_reply_multi(),
    }


def check() -> tuple[dict, list[str]]:
    """Run the c01-c03 checks; returns the counts and any mismatches."""
    counts: dict = {}
    problems: list[str] = []
    for name, msg in reference_replies().items():
        paper_bytes, tolerance, paper_frames = REFERENCE[name]
        nbytes = len(encode(msg))
        frames = frames_required(nbytes, WORST_CASE)
        counts[name] = {"bytes": nbytes, "paper_bytes": paper_bytes, "frames": frames, "paper_frames": paper_frames}
        if abs(nbytes - paper_bytes) > tolerance:
            problems.append(f"{name}: {nbytes} B, paper {paper_bytes} +- {tolerance}")
        if frames != paper_frames:
            problems.append(f"{name}: {frames} frames, paper {paper_frames}")

    link = SimulatedLink()
    profile = fixtures.light_lab_profile()
    SmartObjectAgent(profile, link)
    client = link.attach("client")
    found = probe(client, profile.service_path)
    probe_messages = len(link.log)
    registration_handshake([str(profile.instance_name)], found[0], client)
    known_messages = len(link.log) - probe_messages
    records = registration_handshake([], found[0], client)
    unknown_log = link.log[probe_messages + known_messages:]
    asked = [decode(d.payload).questions[0].rrtype for d in unknown_log if not decode(d.payload).header.qr]
    counts["handshake"] = {
        "probe_messages": probe_messages,
        "known_messages": known_messages,
        "unknown_messages": len(unknown_log),
        "paper": [2, 0, 6],
    }
    if (probe_messages, known_messages, len(unknown_log)) != (2, 0, 6):
        problems.append(f"handshake messages {probe_messages}/{known_messages}/{len(unknown_log)}, paper 2/0/6")
    if asked != [RType.SRV, RType.TXT, RType.AAAA]:
        problems.append(f"handshake asked {[RType(q).name for q in asked]}")
    if records is None or records.meta != fixtures.dimmer_metadata() or records.addr6 != fixtures.HOST_ADDR6:
        problems.append("handshake resolved the wrong records")
    return counts, problems


def reference_timings(repeats: int = 5, loops: int = 200) -> dict[str, float]:
    """Microseconds per call on the four reference replies (median of repeats)."""
    messages = list(reference_replies().values())
    wires = [encode(m) for m in messages]
    calls = {
        "dnscodec.ref_encode_us": lambda: [encode(m) for m in messages],
        "dnscodec.ref_decode_us": lambda: [decode(w) for w in wires],
        "dnscodec.ref_measure_us": lambda: [measure(m) for m in messages],
    }
    out = {}
    for name, call in calls.items():
        samples = []
        for _ in range(repeats):
            start = time.perf_counter()
            for _ in range(loops):
                call()
            samples.append((time.perf_counter() - start) / (loops * len(messages)) * 1e6)
        samples.sort()
        out[name] = samples[len(samples) // 2]
    return out
