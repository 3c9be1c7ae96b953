"""The one server shell for every daemon socket, and the UDP DNS server
that the directory, the lookup frontend and smart objects run on it."""

from __future__ import annotations

import logging
import math
import selectors
import socket
import threading
import time
from typing import Callable, Optional

from .dnscodec import CodecError, DnsMessage, decode, encode, response_for, truncate

UDP_PAYLOAD_LIMIT = 512
SERVFAIL = 2
MAX_DATAGRAM = 65535

log = logging.getLogger(__name__)


def family_for(host: str) -> socket.AddressFamily:
    """IPv6 for a host that holds a colon (an IPv6 literal), IPv4 otherwise,
    so the wildcard "" and "localhost" stay on IPv4."""
    return socket.AF_INET6 if ":" in host else socket.AF_INET


def join_hostport(host: str, port: int) -> str:
    """`host:port`, with an IPv6 host in brackets."""
    return f"[{host}]:{port}" if ":" in host else f"{host}:{port}"


class ServerShell:
    """One bound socket served by one thread that waits on a selector.

    Every socket the server serves is registered on `_selector` with its
    handler, a callable that takes the ready events; the bound socket's
    handler is `_ready`.  A handler that raises goes to `_failed`, which
    logs it, and the loop goes on.  A subclass with deadlines books each
    through `_due` or `_book`, and the loop calls `_sweep` when the
    earliest is due; a server without any waits for its sockets alone.
    `stop` wakes the loop through a socket pair, waits for it to end and
    closes every socket.  The address family follows the host.
    """

    kind = socket.SOCK_DGRAM
    backlog = 0  # connections the kernel queues before they are accepted, for a stream socket

    def __init__(self, address: tuple[str, int]) -> None:
        self.socket = socket.socket(family_for(address[0]), self.kind)
        try:
            self.socket.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            self.socket.bind(address)
            if self.kind == socket.SOCK_STREAM:
                self.socket.listen(self.backlog)
        except BaseException:
            self.socket.close()
            raise
        self.address: tuple[str, int] = self.socket.getsockname()[:2]
        self._selector = selectors.DefaultSelector()
        self._wake, self._waker = socket.socketpair()
        self._selector.register(self._wake, selectors.EVENT_READ, None)
        self._selector.register(self.socket, selectors.EVENT_READ, self._ready)
        self._thread: threading.Thread | None = None
        self._stopping = False
        self._closed = False
        self._sweep_at = math.inf  # the earliest deadline booked since the last sweep

    def start(self):
        name = f"{type(self).__name__} {join_hostport(*self.address)}"
        self._thread = threading.Thread(target=self._loop, name=name, daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stopping = True
        thread, self._thread = self._thread, None
        if thread is not None:
            self._waker.send(b"\0")
            thread.join()
        if self._closed:
            return
        self._closed = True
        for key in list(self._selector.get_map().values()):
            key.fileobj.close()
        self._selector.close()
        self.socket.close()  # also when a subclass took it off the selector
        self._waker.close()

    def _loop(self) -> None:
        select, monotonic = self._selector.select, time.monotonic
        while not self._stopping:
            timeout = None if self._sweep_at == math.inf else max(self._sweep_at - monotonic(), 0.0)
            for key, events in select(timeout):
                if key.data is not None:  # None: the wake-up
                    self._call(key.data, key.fileobj, events)
            if self._sweep_at <= monotonic():
                self._sweep_at = math.inf  # the sweep books what is left
                self._sweep(monotonic())

    def _call(self, handler: Callable, fileobj, *args) -> None:
        try:
            handler(*args)
        except Exception as err:
            self._failed(fileobj, err)

    def _due(self, seconds: float) -> float:
        """A deadline `seconds` from now, booked for the sweep."""
        return self._book(time.monotonic() + seconds)

    def _book(self, at: float) -> float:
        """Have the loop sweep no later than `at`."""
        if at < self._sweep_at:
            self._sweep_at = at
        return at

    def _ready(self, events: int) -> None:
        raise NotImplementedError

    def _sweep(self, now: float) -> None:
        """Act on every deadline at or before `now`, and `_book` the others."""

    def _failed(self, fileobj, err: Exception) -> None:
        log.error("serving %s failed", join_hostport(*self.address), exc_info=err)

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()


class UdpDnsServer(ServerShell):
    """Decode, hand to the answer function, encode, reply.

    Undecodable datagrams and None answers are dropped silently, as a
    resolver would.  An answer function that raises gets SERVFAIL sent
    back.  Replies beyond the classic UDP payload limit are cut to the
    whole records that fit, with the truncation bit set so the caller
    knows to narrow the query.
    """

    def __init__(
        self,
        answer: Callable[[DnsMessage], Optional[DnsMessage]],
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self._answer = answer
        super().__init__((host, port))

    def _ready(self, events: int) -> None:
        """Answer one datagram; a send that fails is logged like any other
        failure, and only that datagram goes unanswered."""
        data, client = self.socket.recvfrom(MAX_DATAGRAM)
        wire = self._reply(data)
        if wire is not None:
            self.socket.sendto(wire, client)

    def _reply(self, data: bytes) -> bytes | None:
        try:
            query = decode(data)
        except CodecError:
            return None
        try:
            reply = self._answer(query)
            if reply is None:
                return None
            wire = encode(reply)
        except Exception:
            log.exception("answer to query %d failed", query.header.id)
            wire = encode(response_for(query, (), rcode=SERVFAIL))
        return truncate(wire, UDP_PAYLOAD_LIMIT)
