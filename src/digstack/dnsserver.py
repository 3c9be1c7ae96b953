"""Threaded UDP DNS server shell shared by the directory, the lookup
frontend and smart objects on real sockets."""

from __future__ import annotations

import logging
import socket
import threading
from typing import Callable, Optional

from .dnscodec import CodecError, DnsMessage, decode, encode, response_for, truncate

UDP_PAYLOAD_LIMIT = 512
SERVFAIL = 2

log = logging.getLogger(__name__)


class UdpDnsServer:
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
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        try:
            self._sock.bind((host, port))
        except OSError:
            self._sock.close()
            raise
        self._sock.settimeout(0.2)
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None

    @property
    def address(self) -> tuple[str, int]:
        return self._sock.getsockname()[:2]

    def start(self) -> UdpDnsServer:
        self._thread = threading.Thread(target=self._loop, daemon=True)
        self._thread.start()
        return self

    def _loop(self) -> None:
        while not self._stop.is_set():
            try:
                data, peer = self._sock.recvfrom(65535)
            except socket.timeout:
                continue
            except OSError:
                break  # the socket was closed by stop()
            wire = self._reply(data)
            if wire is None:
                continue
            try:
                self._sock.sendto(wire, peer)
            except OSError:
                log.warning("reply to %s not sent", peer, exc_info=True)

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

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=2.0)
        self._sock.close()

    def __enter__(self) -> UdpDnsServer:
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()
