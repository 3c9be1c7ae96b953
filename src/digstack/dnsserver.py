"""The one server shell for every daemon socket, and the UDP DNS server
that the directory, the lookup frontend and smart objects run on it."""

from __future__ import annotations

import logging
import select
import socket
import socketserver
import threading
from typing import Callable, Optional

from .dnscodec import CodecError, DnsMessage, decode, encode, response_for, truncate

UDP_PAYLOAD_LIMIT = 512
SERVFAIL = 2
POLL_INTERVAL = 0.2  # seconds between checks for stop()

log = logging.getLogger(__name__)


def family_for(host: str) -> socket.AddressFamily:
    """IPv6 for a host that holds a colon (an IPv6 literal), IPv4 otherwise,
    so the wildcard "" and "localhost" stay on IPv4."""
    return socket.AF_INET6 if ":" in host else socket.AF_INET


def join_hostport(host: str, port: int) -> str:
    """`host:port`, with an IPv6 host in brackets."""
    return f"[{host}]:{port}" if ":" in host else f"{host}:{port}"


class ServerShell:
    """Start, stop and the context manager for a `socketserver` server.

    `start` runs `workers` threads.  Each takes a request off the socket
    itself and serves it, so no thread is started per request or
    connection; a request that raises is logged and its worker goes on.
    `stop` wakes the workers and waits for them.  The address family
    follows the host.
    """

    allow_reuse_address = True
    workers = 1

    def __init__(self, address: tuple[str, int], handler) -> None:
        self.address_family = family_for(address[0])
        super().__init__(address, handler)
        self._threads: list[threading.Thread] = []
        self._lock = threading.Lock()
        self._stopping = False
        self._open: set[socket.socket] = set()  # connections being served

    @property
    def address(self) -> tuple[str, int]:
        return self.server_address[:2]

    def start(self):
        # a worker that loses the race for a request to another worker
        # must not block in accept or recvfrom, where stop() cannot reach it
        self.socket.setblocking(self.workers == 1)
        self._threads = [threading.Thread(target=self._work, daemon=True) for _ in range(self.workers)]
        for thread in self._threads:
            thread.start()
        return self

    def stop(self) -> None:
        with self._lock:
            self._stopping = True
            # a worker may wait on a kept connection for the client's next
            # request; the end of its input wakes it
            for conn in self._open:
                try:
                    conn.shutdown(socket.SHUT_RD)
                except OSError:
                    pass
        for thread in self._threads:
            thread.join()
        self.server_close()

    def _work(self) -> None:
        poller = select.poll()
        poller.register(self.socket, select.POLLIN)
        while not self._stopping:
            if not poller.poll(POLL_INTERVAL * 1000):  # so an idle worker sees stop()
                continue
            try:
                request, client_address = self.get_request()
            except OSError:  # another worker took it, or the client left first
                continue
            self._serve(request, client_address)

    def _serve(self, request, client_address) -> None:
        conn = request if isinstance(request, socket.socket) else None  # a datagram has none
        if conn is not None:
            with self._lock:
                if self._stopping:
                    self.shutdown_request(conn)
                    return
                self._open.add(conn)
        try:
            self.finish_request(request, client_address)
        except Exception:
            self.handle_error(request, client_address)
        finally:
            if conn is not None:
                with self._lock:
                    self._open.discard(conn)
            self.shutdown_request(request)

    def handle_error(self, request, client_address) -> None:
        log.exception("request from %s failed", client_address)

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()


class UdpDnsServer(ServerShell, socketserver.UDPServer):
    """Decode, hand to the answer function, encode, reply.

    Undecodable datagrams and None answers are dropped silently, as a
    resolver would.  An answer function that raises gets SERVFAIL sent
    back.  Replies beyond the classic UDP payload limit are cut to the
    whole records that fit, with the truncation bit set so the caller
    knows to narrow the query.
    """

    max_packet_size = 65535

    def __init__(
        self,
        answer: Callable[[DnsMessage], Optional[DnsMessage]],
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self._answer = answer
        super().__init__((host, port), None)

    def finish_request(self, request, client_address) -> None:
        """Answer one datagram in place of a handler class; a send that
        fails goes to `handle_error` like any other failure."""
        data, sock = request
        wire = self._reply(data)
        if wire is not None:
            sock.sendto(wire, client_address)

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
