"""Frame accounting and the simulated link."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from digstack import fixtures
from digstack.dnscodec import encode
from digstack.netsim import (
    FRAME_SIZE,
    MULTICAST,
    FrameBudget,
    SimulatedLink,
    frames_required,
    simulate_exchange,
)


def test_budget_defaults():
    budget = FrameBudget()
    assert FRAME_SIZE == 127
    assert budget.overhead == 41
    assert budget.payload_per_frame == 86


def test_budget_validation():
    with pytest.raises(ValueError):
        FrameBudget(overhead=127)
    with pytest.raises(ValueError):
        FrameBudget(overhead=-1)
    assert FrameBudget(overhead=26).payload_per_frame == 101


def test_frames_required_boundaries():
    budget = FrameBudget()  # 86 payload bytes per frame
    assert frames_required(0, budget) == 0
    assert frames_required(1, budget) == 1
    assert frames_required(86, budget) == 1
    assert frames_required(87, budget) == 2
    with pytest.raises(ValueError):
        frames_required(-1, budget)


def test_reference_pair_is_one_vs_three_frames():
    worst_case = FrameBudget(overhead=41)
    original, optimized = simulate_exchange(
        [fixtures.srv_reply_original(), fixtures.srv_reply_optimized()], worst_case
    )
    assert optimized.frames == 1
    assert original.frames == 3
    assert 91 <= original.nbytes - optimized.nbytes <= 127


def test_txt_pair_savings():
    original, optimized = simulate_exchange([fixtures.txt_reply_multi(), fixtures.txt_reply_joined()])
    assert original.nbytes - optimized.nbytes == 91
    assert original.frames == 3
    assert optimized.frames == 2


def test_simulate_exchange_accepts_messages_and_bytes():
    costs = simulate_exchange([fixtures.srv_reply_optimized(), b"x" * 100])
    assert [m.nbytes for m in costs] == [79, 100]
    assert [m.frames for m in costs] == [1, 2]
    assert sum(m.frames for m in costs) == 3


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 10**6), st.integers(0, 10**6), st.integers(26, 41))
def test_frames_required_is_monotonic(a, b, overhead):
    budget = FrameBudget(overhead=overhead)
    small, large = sorted((a, b))
    assert frames_required(small, budget) <= frames_required(large, budget)
    # ceil semantics: never more than one frame per payload chunk started
    assert frames_required(large, budget) == -(-large // budget.payload_per_frame)


def test_link_delivers_unicast_and_multicast():
    link = SimulatedLink()
    a = link.attach("a")
    b = link.attach("b")
    c = link.attach("c")
    a.send("b", b"hello")
    assert b.poll() == [(b"hello", "a")]
    assert c.poll() == []
    a.send(MULTICAST, b"everyone")
    assert b.poll() == [(b"everyone", "a")]
    assert c.poll() == [(b"everyone", "a")]
    assert a.poll() == []  # sender does not hear its own multicast


def test_link_log_and_clock_are_deterministic():
    link = SimulatedLink()
    a = link.attach("a")
    link.attach("b", responder=lambda payload, src: link.send("b", src, payload.upper()))
    a.send("b", b"ping")
    assert [d.payload for d in link.log] == [b"ping", b"PING"]
    assert [d.clock for d in link.log] == [1, 2]
    assert a.poll() == [(b"PING", "b")]


def test_link_report_counts_encoded_traffic():
    link = SimulatedLink()
    a = link.attach("a")
    link.attach("b")
    a.send("b", encode(fixtures.srv_reply_optimized()))
    costs = simulate_exchange([d.payload for d in link.log])
    assert sum(m.nbytes for m in costs) == 79
    assert sum(m.frames for m in costs) == 1
