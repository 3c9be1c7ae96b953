"""Constrained-link accounting and a deterministic in-process transport.

Low-rate wireless meshes move 127-byte frames; headers, addressing and
security eat 26 to 41 of those bytes before any application payload.
`FrameBudget` captures that split, `frames_required` turns message
sizes into frame counts, and `SimulatedLink` provides a logical-clock
datagram network the discovery agents can run on without sockets.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence

from .dnscodec import DnsMessage, measure

FRAME_SIZE = 127
MIN_OVERHEAD = 26
MAX_OVERHEAD = 41

# All link addresses are opaque strings; this one fans out to everybody.
MULTICAST = "ff02::all-nodes"


@dataclass(frozen=True)
class FrameBudget:
    """Per-frame overhead of the radio link's 127-byte frames.

    The default overhead is the worst case (41 bytes), which leaves 86
    payload bytes per frame.
    """

    overhead: int = MAX_OVERHEAD

    def __post_init__(self) -> None:
        if not 0 <= self.overhead < FRAME_SIZE:
            raise ValueError("overhead must leave room for payload")

    @property
    def payload_per_frame(self) -> int:
        return FRAME_SIZE - self.overhead


def frames_required(nbytes: int, budget: FrameBudget = FrameBudget()) -> int:
    """Frames needed to move `nbytes` of payload; zero bytes ride for free."""
    if nbytes < 0:
        raise ValueError("negative byte count")
    return math.ceil(nbytes / budget.payload_per_frame)


class MessageCost(NamedTuple):
    nbytes: int
    frames: int


def simulate_exchange(messages: Sequence[DnsMessage | bytes], budget: FrameBudget = FrameBudget()) -> list[MessageCost]:
    """Each message's cost against the frame budget, in order.

    Messages may be pre-encoded bytes or codec messages, which are
    measured in their compressed form.
    """
    sizes = [len(msg) if isinstance(msg, (bytes, bytearray)) else measure(msg) for msg in messages]
    return [MessageCost(nbytes, frames_required(nbytes, budget)) for nbytes in sizes]


# --- simulated transport --------------------------------------------------------


@dataclass(frozen=True)
class Datagram:
    clock: int
    src: str
    dst: str
    payload: bytes


class LinkEndpoint:
    """One attachment point on a simulated link."""

    def __init__(self, link: SimulatedLink, address: str) -> None:
        self.link = link
        self.address = address
        self.inbox: deque[tuple[bytes, str]] = deque()
        self.multicast_address = MULTICAST

    def send(self, dst: str, payload: bytes) -> None:
        self.link.send(self.address, dst, payload)

    def poll(self, timeout: float | None = None) -> list[tuple[bytes, str]]:
        """Drain everything already delivered.  The timeout is a real-socket
        concern; a simulated link has no waiting to do."""
        drained = list(self.inbox)
        self.inbox.clear()
        return drained


class SimulatedLink:
    """Single-threaded datagram network with a logical clock.

    Delivery is synchronous and in attachment order, so every run is
    deterministic.  An endpoint attached with a responder is handed each
    datagram at once; any other keeps it in its inbox until `poll`.  Each
    datagram is logged, which is what the message economy checks count.
    """

    def __init__(self) -> None:
        self.clock = 0
        self.log: list[Datagram] = []
        self._endpoints: dict[str, LinkEndpoint] = {}
        self._responders: dict[str, Callable[[bytes, str], None]] = {}

    def attach(self, address: str, responder: Callable[[bytes, str], None] | None = None) -> LinkEndpoint:
        if address in self._endpoints:
            raise ValueError(f"address {address!r} already attached")
        endpoint = LinkEndpoint(self, address)
        self._endpoints[address] = endpoint
        if responder is not None:
            self._responders[address] = responder
        return endpoint

    def send(self, src: str, dst: str, payload: bytes) -> None:
        self.clock += 1
        self.log.append(Datagram(self.clock, src, dst, payload))
        if dst == MULTICAST:
            targets = [a for a in self._endpoints if a != src]
        else:
            targets = [dst] if dst in self._endpoints else []
        for address in targets:
            responder = self._responders.get(address)
            if responder is not None:
                responder(payload, src)
            else:
                self._endpoints[address].inbox.append((payload, src))

