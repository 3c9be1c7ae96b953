"""HTTP JSON API and DNS frontend for the lookup core, plus the client side.

Routes:

    POST /api/v1/domains                      register a directory's domain
    POST /api/v1/domains/{domain}/pointers    ingest a pointer batch
    POST /api/v1/query                        run a query tree
    GET  /api/v1/discover?pattern=...         pattern discovery

Query responses are paginated here (default limit 100); the core itself
returns everything unless told otherwise.
"""

from __future__ import annotations

import contextlib
import errno
import json
import logging
import math
import re
import selectors
import socket
import time
import urllib.error
import urllib.parse
import urllib.request
from email.utils import formatdate
from http import HTTPStatus
from typing import Optional

from .digcovery import (
    Digcovery,
    DomainRecord,
    DuplicateDomain,
    MalformedPattern,
    MalformedQuery,
    PointerSummary,
    UnknownDomain,
    parse_query,
)
from .dnscodec import DnsMessage, DomainName, ResourceRecord, RType, response_for
from .dnsserver import ServerShell, join_hostport

DEFAULT_PAGE_LIMIT = 100
# A declared body over this gets 413.  The largest pointer batch that the
# program's own publisher sends for the benchmark's campus corpus is 178 KB
# (one directory's 1000 pointers), so 16 MiB takes a directory of about
# 90,000 pointers in one batch.
MAX_BODY = 16 * 2**20
MAX_LINE = 65536  # bytes in the request line or one header line, as in `http.server`
MAX_HEADERS = 100  # header lines, as in `http.server`
IDLE_TIMEOUT = 5.0  # seconds a kept connection may wait for its next request
# Seconds from a request's first byte by which its request line, headers and
# body must all have arrived, else 408: a client that sends a byte now and
# then holds its connection no longer than this.  A 16 MiB body in that time
# is 1.7 MB/s; the program's publisher sends well under 1 MB a batch.
REQUEST_TIMEOUT = 10.0
SEND_TIMEOUT = 10.0  # seconds a reply may wait for a client that does not read it, then the close
LINGER = 2.0  # seconds a refused request's connection is read and dropped before it closes
MAX_CONNECTIONS = 512  # open connections; one more gets a JSON 503 and a close
ACCEPT_PAUSE = 0.5  # seconds the front stops accepting after the process ran out of file descriptors

_VERSION = re.compile(r"HTTP/([0-9])\.([0-9])")
_TOKEN = re.compile(r"[-!#$%&'*+.^_`|~0-9A-Za-z]+")  # a header name
_REASONS = {s.value: s.phrase for s in HTTPStatus}
_WS = " \t\n\r\x0b\x0c"  # what `bytes.rstrip()` strips
_RECV = 65536  # bytes asked of one receive
_CONTINUE = b"HTTP/1.1 100 Continue\r\n\r\n"
_NO_DESCRIPTORS = {errno.EMFILE, errno.ENFILE, errno.ENOBUFS, errno.ENOMEM}
# what follows a reply sent whole: read on; read the rest of this request
# (after 100 Continue); close; close after a linger
_KEEP, _GO_ON, _CLOSE, _LINGER = range(4)

log = logging.getLogger(__name__)


class EndpointUnreachable(Exception):
    """The other side is down, refusing, or timing out."""


class ApiError(Exception):
    """Non-2xx reply from the HTTP API: raised by the client that got it,
    and by the front's request reader for a request it will not serve."""

    def __init__(self, status: int, error: str, detail: str = "") -> None:
        super().__init__(f"{status} {error}: {detail}" if detail else f"{status} {error}")
        self.status = status
        self.error = error
        self.detail = detail


def _parse_head(text: str) -> tuple[str, str, bool, int, bool, int] | None:
    """A request head read a line at a time from the start of `text`, the
    buffered bytes as latin-1 (RFC 9112's message syntax, no more than the
    routes need): the method, the target, whether the client keeps the
    connection, the body length, whether the client waits for 100 Continue,
    and where the head ends.  None when `text` ends before the head does.
    Raises ApiError for a request not served, at the first line that shows
    it, as a reader taking one line at a time would."""
    end = text.find("\n", 0, MAX_LINE)
    if end < 0:
        if len(text) > MAX_LINE:
            raise ApiError(414, "request-line-too-long", f"over {MAX_LINE} bytes")
        return None
    line = text[:end]
    words = line.split()
    version = _VERSION.fullmatch(words[2]) if len(words) == 3 else None
    if version is None:
        raise ApiError(400, "bad-request", f"bad request line {line.rstrip(_WS)!r}")
    method, target = words[:2]
    major, minor = version.groups()
    if major != "1":
        raise ApiError(505, "version-not-supported", words[2])
    keep, length, expect = minor != "0", None, False
    start = end + 1
    for _ in range(MAX_HEADERS + 1):
        end = text.find("\n", start, start + MAX_LINE)
        if end < 0:
            if len(text) - start > MAX_LINE:
                raise ApiError(431, "headers-too-large", f"a header line over {MAX_LINE} bytes")
            return None
        line, start = text[start:end], end + 1
        if line in ("", "\r"):
            return method, target, keep, length or 0, bool(length) and expect, start
        name, colon, value = line.partition(":")
        if not colon or not _TOKEN.fullmatch(name):
            raise ApiError(400, "bad-request", f"bad header line {line.rstrip(_WS)!r}")
        name, value = name.lower(), value.strip()
        if name == "content-length":
            if length is not None or not (value.isascii() and value.isdigit()):
                raise ApiError(400, "bad-request", f"bad Content-Length {value}")
            # a number longer than the cap's is over it; int() is not asked to read it
            if len(value) > len(str(MAX_BODY)) or int(value) > MAX_BODY:
                raise ApiError(413, "body-too-large", f"Content-Length over {MAX_BODY}")
            length = int(value)
        elif name == "transfer-encoding":
            raise ApiError(411, "length-required", "send the body with a Content-Length, not Transfer-Encoding")
        elif name == "connection":
            tokens = {t.strip().lower() for t in value.split(",")}
            keep = "close" not in tokens and (keep or "keep-alive" in tokens)
        elif name == "expect":
            expect = value.lower() == "100-continue" and minor != "0"
    raise ApiError(431, "headers-too-large", f"more than {MAX_HEADERS} header lines")


class _Connection:
    """One client connection on the server's loop: its input, the part of a
    reply the client has still to take, and the one deadline that the sweep
    holds it to.  The selector calls `read`, `write` or `drain`, whichever
    the connection is waiting for."""

    __slots__ = ("server", "sock", "peer", "buf", "scanned", "check_at", "head", "out", "then", "deadline")

    def __init__(self, server: DigcoveryHttpServer, sock: socket.socket, peer: tuple) -> None:
        self.server, self.sock, self.peer = server, sock, peer
        self.buf = bytearray()
        self.scanned = 0  # bytes of `buf` searched for the end of the head
        self.check_at = MAX_LINE + 1  # buffered bytes at which an unfinished head is parsed
        self.head: tuple | None = None  # the parsed head of the request being read
        self.out: memoryview | None = None  # what the client has still to take of a reply
        self.then = _GO_ON  # what follows once `out` is sent
        self.deadline = server._due(IDLE_TIMEOUT)

    @property
    def name(self) -> str:
        return join_hostport(*self.peer[:2])

    def read(self, events: int) -> None:
        data = self.sock.recv(_RECV)
        if not data:
            self._end_of_input()
            return
        if not self.buf:  # a request's first byte
            self.deadline = self.server._due(REQUEST_TIMEOUT)
        self.buf += data
        self._serve()

    def _serve(self) -> None:
        """Answer the whole requests in the buffer in turn, until one has not
        all arrived or a reply waits for the socket."""
        while self.buf:
            try:
                request = self._request()
            except ApiError as err:  # where this request ends is unknown: close
                self._refuse(err)
                return
            if request is None:
                return
            method, target, body, keep = request
            try:
                reply = self.server._route(method, target, body)
            except Exception as err:
                log.exception("%s %s failed", method, target)
                reply = _error(500, "internal-error", type(err).__name__)
            if not self._send(self.server._response(*reply, keep=keep), _KEEP if keep else _CLOSE):
                return

    def _request(self) -> tuple[str, str, bytes, bool] | None:
        """The next request in the buffer once all of it has arrived: its
        method, target, body and whether the client keeps the connection
        after it.  Raises ApiError for a request not served."""
        if self.head is None:
            self.head = self._head(final=False)
            if self.head is None or (self.head[4] and not self._send(_CONTINUE, _GO_ON)):
                return None
        method, target, keep, length, _, end = self.head
        if len(self.buf) < end + length:
            return None
        body = bytes(self.buf[end:end + length])
        del self.buf[:end + length]
        self.head, self.scanned, self.check_at = None, 0, MAX_LINE + 1
        return method, target, body, keep

    def _head(self, final: bool) -> tuple | None:
        """The head, parsed once its blank line is in the buffer.  An
        unfinished head is parsed only to find a refusal in it: at the end of
        the client's input (`final`), once the buffer holds more than a
        line's cap, so that a request line over it is refused at once, and
        again each time the buffer has doubled, so that the header caps hold
        without a parse per receive."""
        buf = self.buf
        crlf = buf.find(b"\n\r\n", self.scanned)
        lf = buf.find(b"\n\n", self.scanned, crlf + 1 if crlf >= 0 else len(buf))
        if lf >= 0 or crlf >= 0:
            end = lf + 2 if lf >= 0 else crlf + 3
            return _parse_head(buf[:end].decode("latin-1"))
        self.scanned = max(len(buf) - 2, 0)
        if final or len(buf) >= self.check_at:
            self.check_at = 2 * len(buf)
            return _parse_head(buf.decode("latin-1"))
        return None

    def _end_of_input(self) -> None:
        """The client closed its side: a refusal in what it sent is still
        answered; a request cut short is dropped with the connection."""
        if self.buf and self.head is None:
            try:
                self._head(final=True)
            except ApiError as err:
                self._refuse(err)
                return
        self.close()

    def _refuse(self, err: ApiError) -> None:
        """Answer a request that is not served, then close: at once after a
        408, whose client has had its time; after `drain` otherwise."""
        self.buf.clear()
        reply = self.server._response(*_error(err.status, err.error, err.detail), keep=False)
        self._send(reply, _CLOSE if err.status == 408 else _LINGER)

    def _send(self, data: bytes, then: int) -> bool:
        """Send `data` in one send, and what is left once the socket takes
        more.  True when all of it went and the connection reads on."""
        try:
            sent = self.sock.send(data)
        except BlockingIOError:
            sent = 0
        if sent < len(data):
            self.out, self.then = memoryview(data)[sent:], then
            self.deadline = self.server._due(SEND_TIMEOUT)
            self.server._selector.modify(self.sock, selectors.EVENT_WRITE, self.write)
            return False
        return self._sent(then)

    def write(self, events: int) -> None:
        sent = self.sock.send(self.out)
        self.out = self.out[sent:]
        if not self.out:
            self.out = None
            self.server._selector.modify(self.sock, selectors.EVENT_READ, self.read)
            if self._sent(self.then):
                self._serve()

    def _sent(self, then: int) -> bool:
        """Go on after a reply has gone out whole; True when the connection
        reads on."""
        if then == _KEEP:  # the next request may be buffered already
            self.deadline = self.server._due(REQUEST_TIMEOUT if self.buf else IDLE_TIMEOUT)
        elif then == _LINGER:
            self.sock.shutdown(socket.SHUT_WR)
            self.deadline = self.server._due(LINGER)
            self.server._selector.modify(self.sock, selectors.EVENT_READ, self.drain)
        elif then == _CLOSE:
            self.close()
        return then in (_KEEP, _GO_ON)

    def drain(self, events: int) -> None:
        """Drop what a refused client still sends, until it closes or the
        sweep ends the linger: a close with input unread resets the
        connection, and a client still sending its body would lose the
        reply (RFC 9112 section 9.6)."""
        try:
            if self.sock.recv(_RECV):
                return
        except OSError:  # the client reset
            pass
        self.close()

    def expire(self) -> None:
        """The deadline has passed: of the reply's send, of the request, of
        the linger, or of the wait for a next request."""
        if self.out is not None:
            log.info("client %s did not take its reply within %s s", self.name, SEND_TIMEOUT)
            self.close()
        elif self.buf:
            self._refuse(ApiError(408, "request-timeout", f"a request must arrive within {REQUEST_TIMEOUT} s"))
        else:
            self.close()

    def close(self) -> None:
        self.server._drop(self)


class DigcoveryHttpServer(ServerShell):
    """HTTP front for one Digcovery core.  Connections are non-blocking and
    share the shell's one thread, on which each route runs inline; an idle
    or slow client holds a connection slot, never the thread."""

    kind = socket.SOCK_STREAM
    backlog = 64  # connections the kernel holds until the loop takes them

    def __init__(self, core: Digcovery, host: str = "127.0.0.1", port: int = 0) -> None:
        self.core = core
        super().__init__((host, port))
        self.socket.setblocking(False)
        self._conns: dict[socket.socket, _Connection] = {}
        self._accept_at = math.inf  # when accepts resume after the file descriptors ran out
        self._date_at, self._date = -1, ""

    @property
    def url(self) -> str:
        return "http://" + join_hostport(*self.address)

    def _ready(self, events: int) -> None:
        """Take one connection; one past `MAX_CONNECTIONS` is turned away."""
        try:
            sock, peer = self.socket.accept()
        except OSError as err:  # most often a client that left before it was taken
            if err.errno in _NO_DESCRIPTORS:  # the socket stays readable: pause, do not spin
                log.warning("cannot accept a connection (%s); accepting again in %s s", err, ACCEPT_PAUSE)
                self._selector.unregister(self.socket)
                self._accept_at = self._due(ACCEPT_PAUSE)
            return
        sock.setblocking(False)
        # a reply larger than a segment ends in a short one; with Nagle on, it
        # waits for the client's delayed ACK of the others, about 40 ms
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        if len(self._conns) >= MAX_CONNECTIONS:
            self._turn_away(sock, peer)
            return
        conn = _Connection(self, sock, peer)
        self._conns[sock] = conn
        self._selector.register(sock, selectors.EVENT_READ, conn.read)

    def _turn_away(self, sock: socket.socket, peer: tuple) -> None:
        """A JSON 503 and a close.  What the client sent already is read
        first, so that the close does not reset the connection before the
        client reads the reply."""
        log.info("turned %s away: %d connections open", join_hostport(*peer[:2]), len(self._conns))
        reply = self._response(*_error(503, "too-many-connections", f"{MAX_CONNECTIONS} open"), keep=False)
        with sock, contextlib.suppress(OSError):
            with contextlib.suppress(BlockingIOError):
                sock.recv(_RECV)
            sock.send(reply)

    def _sweep(self, now: float) -> None:
        for conn in list(self._conns.values()):
            if conn.deadline <= now:
                self._call(conn.expire, conn.sock)
            else:
                self._book(conn.deadline)
        if self._accept_at <= now:
            self._accept_at = math.inf
            self._selector.register(self.socket, selectors.EVENT_READ, self._ready)
        self._book(self._accept_at)

    def _failed(self, fileobj, err: Exception) -> None:
        conn = self._conns.get(fileobj)
        if conn is None:
            super()._failed(fileobj, err)
            return
        if isinstance(err, ConnectionError):
            log.info("client %s left: %s", conn.name, err)
        else:
            log.error("serving client %s failed", conn.name, exc_info=err)
        conn.close()

    def _drop(self, conn: _Connection) -> None:
        del self._conns[conn.sock]
        self._selector.unregister(conn.sock)
        conn.sock.close()

    def _response(self, status: int, body: bytes, keep: bool) -> bytes:
        """Status line, headers and body, for one send."""
        now = int(time.time())
        if now != self._date_at:  # the Date header changes once a second
            self._date_at, self._date = now, formatdate(now, usegmt=True)
        close = "" if keep else "Connection: close\r\n"
        head = (
            f"HTTP/1.1 {status} {_REASONS.get(status, '')}\r\nServer: digcovery/0.1\r\n"
            f"Date: {self._date}\r\nContent-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n{close}\r\n"
        )
        return head.encode("latin-1") + body

    def _route(self, method: str, target: str, raw: bytes) -> tuple[int, bytes]:
        if method == "GET":
            return self._get(target)
        if method == "POST":
            return self._post(target, raw)
        return _error(501, "no-such-method", method)

    def _post(self, target: str, raw: bytes) -> tuple[int, bytes]:
        path = urllib.parse.urlparse(target).path
        parts = [p for p in path.split("/") if p]
        try:
            body = json.loads(raw) if raw else None
            if parts == ["api", "v1", "domains"]:
                return self._register_domain(body)
            if len(parts) == 5 and parts[:3] == ["api", "v1", "domains"] and parts[4] == "pointers":
                return self._ingest(parts[3], body)
            if parts == ["api", "v1", "query"]:
                return self._query(body)
            return _error(404, "no-such-route", path)
        except DuplicateDomain as err:
            return _error(409, "duplicate-domain", str(err))
        except UnknownDomain as err:
            return _error(404, "unknown-domain", str(err))
        except (MalformedQuery, MalformedPattern, RecursionError) as err:
            return _error(400, "malformed-query", str(err))
        except (KeyError, TypeError, ValueError) as err:
            return _error(400, "bad-request", str(err))

    def _get(self, target: str) -> tuple[int, bytes]:
        parsed = urllib.parse.urlparse(target)
        parts = [p for p in parsed.path.split("/") if p]
        if parts == ["api", "v1", "discover"]:
            params = urllib.parse.parse_qs(parsed.query)
            pattern = params.get("pattern", [""])[0]
            try:
                domains = self.core.discover(pattern)
            except MalformedPattern as err:
                return _error(400, "malformed-pattern", str(err))
            return _json(200, {"domains": [d.to_dict() for d in domains]})
        if parts == ["api", "v1", "domains"]:
            return _json(200, {"domains": [d.to_dict() for d in self.core.domains()]})
        return _error(404, "no-such-route", parsed.path)

    def _register_domain(self, body) -> tuple[int, bytes]:
        record = DomainRecord.from_dict(body)
        self.core.register_domain(record)
        return _json(201, {"registered": record.domain})

    def _ingest(self, domain: str, body) -> tuple[int, bytes]:
        if not isinstance(body, list):
            raise MalformedQuery("pointer batch must be a JSON array")
        summaries = [PointerSummary.from_dict(item) for item in body]
        accepted = self.core.ingest(domain, summaries)
        return _json(200, {"accepted": accepted})

    def _query(self, body) -> tuple[int, bytes]:
        offset, limit = 0, DEFAULT_PAGE_LIMIT
        if isinstance(body, dict):
            body = dict(body)
            offset, limit = body.pop("offset", 0), body.pop("limit", DEFAULT_PAGE_LIMIT)
        if type(offset) is not int or not (limit is None or type(limit) is int):
            raise TypeError(f"offset and limit must be JSON integers ({offset!r}, {limit!r})")
        if offset < 0 or (limit is not None and limit < 0):
            raise ValueError(f"negative offset or limit ({offset}, {limit})")
        query = parse_query(body)
        rows, stats = self.core.execute_cached(query, offset=offset, limit=limit)
        # json.dumps of {"results": [...], "offset": ..., ...}, byte for byte,
        # with each row's part rendered once per row, not once per reply
        rest = json.dumps({"offset": offset, "limit": limit, "cache": {"hits": stats.hits, "misses": stats.misses}})
        body = '{"results": [' + ", ".join(map(_result_json, rows)) + "], " + rest[1:]
        return 200, body.encode()


def _json(status: int, payload: dict | list) -> tuple[int, bytes]:
    return status, json.dumps(payload).encode()


def _error(status: int, error: str, detail: str = "") -> tuple[int, bytes]:
    return _json(status, {"error": error, "detail": detail})


def _result(row: PointerSummary) -> dict:
    """One query result on the wire: the row's routing keys, in reply order."""
    return {
        "domain": row.domain,
        "instance": row.instance,
        "service_path": row.service_path,
        "geo": row.geo.to_dict() if row.geo else None,
    }


def _result_json(row: PointerSummary) -> str:
    """`json.dumps(_result(row))`, kept on the row after its first render;
    rows are immutable and shared by successive snapshots."""
    text = row.result_json
    if text is None:
        text = json.dumps(_result(row))
        object.__setattr__(row, "result_json", text)
    return text


def dns_front_answer(core: Digcovery, query: DnsMessage) -> Optional[DnsMessage]:
    """Answer a PTR pattern question with one PTR per matching domain.

    The question name is read as a service-path pattern; each answer
    points at a domain whose directory has a live match.  Anything else
    gets NXDOMAIN, responses get silence.
    """
    if query.header.qr or not query.questions:
        return None
    question = query.questions[0]
    if question.rrtype != RType.PTR:
        return response_for(query, [], rcode=3)
    pattern = ".".join(label.decode("ascii", "replace") for label in question.name.labels)
    try:
        domains = core.discover(pattern)
    except MalformedPattern:
        domains = []
    if not domains:
        return response_for(query, [], rcode=3)
    answers = [
        ResourceRecord(question.name, RType.PTR, 300, DomainName.from_text(d.domain))
        for d in domains
    ]
    return response_for(query, answers)


class HttpDigcoveryClient:
    """urllib-based client for the HTTP API; raises EndpointUnreachable
    when the service cannot be reached at all."""

    def __init__(self, base_url: str, timeout: float = 5.0) -> None:
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout

    def _request(self, method: str, path: str, payload=None) -> dict:
        url = self.base_url + path
        data = None if payload is None else json.dumps(payload).encode()
        req = urllib.request.Request(
            url, data=data, method=method, headers={"Content-Type": "application/json"}
        )
        try:
            with urllib.request.urlopen(req, timeout=self.timeout) as resp:
                return json.loads(resp.read() or b"{}")
        except urllib.error.HTTPError as err:
            raw = err.read()
            try:
                payload = json.loads(raw)
            except json.JSONDecodeError:
                payload = {}
            raise ApiError(
                err.code,
                payload.get("error", "http-error"),
                payload.get("detail", raw.decode(errors="replace")),
            ) from None
        except (urllib.error.URLError, OSError, TimeoutError) as err:
            raise EndpointUnreachable(f"{url}: {err}") from None

    def register_domain(self, record: DomainRecord) -> dict:
        return self._request("POST", "/api/v1/domains", record.to_dict())

    def publish_pointers(self, domain: str, summaries: list[PointerSummary]) -> int:
        reply = self._request(
            "POST",
            f"/api/v1/domains/{urllib.parse.quote(domain)}/pointers",
            [s.to_dict() for s in summaries],
        )
        return int(reply["accepted"])

    def query(self, query_obj, *, offset: int = 0, limit: int | None = DEFAULT_PAGE_LIMIT) -> dict:
        body = {"query": query_obj, "offset": offset, "limit": limit}
        return self._request("POST", "/api/v1/query", body)

    def discover(self, pattern: str) -> list[dict]:
        reply = self._request(
            "GET", "/api/v1/discover?pattern=" + urllib.parse.quote(pattern)
        )
        return reply["domains"]

    def domains(self) -> list[dict]:
        return self._request("GET", "/api/v1/domains")["domains"]
