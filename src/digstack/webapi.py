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

import json
import logging
import re
import socket
import socketserver
import time
import urllib.error
import urllib.parse
import urllib.request
from email.utils import formatdate
from http import HTTPStatus
from http.server import HTTPServer
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
IDLE_TIMEOUT = 5.0  # seconds a connection may wait for its next request; it holds a worker
# Seconds from a request's first byte by which its request line, headers and
# body must all have arrived, else 408: a client that sends a byte now and
# then holds a worker no longer than this.  A 16 MiB body in that time is
# 1.7 MB/s; the program's publisher sends well under 1 MB a batch.
REQUEST_TIMEOUT = 10.0
LINGER = 2.0  # seconds a refused request's connection is read and dropped before it closes

_VERSION = re.compile(r"HTTP/([0-9])\.([0-9])")
_TOKEN = re.compile(r"[-!#$%&'*+.^_`|~0-9A-Za-z]+")  # a header name
_REASONS = {s.value: s.phrase for s in HTTPStatus}

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


class _Reader:
    """A connection's input, buffered, read under one deadline per request.

    A socket timeout bounds each receive, not a request: `readline` over a
    socket file receives again after every byte a client drips.  Here the
    wait for a request's first byte is the socket's own timeout, the idle
    one (TimeoutError), and every later receive of that request waits only
    until its deadline; the handler restores the idle timeout to reply."""

    def __init__(self, conn: socket.socket) -> None:
        self.conn = conn
        self.buf = bytearray()
        self.pos = 0  # bytes of `buf` already read
        self.deadline: float | None = None

    def next_request(self) -> None:
        """Start a request's deadline at its first byte, which may already be here."""
        self.deadline = time.monotonic() + REQUEST_TIMEOUT if self.pos < len(self.buf) else None

    def _fill(self) -> bool:
        """Receive more; False when the client has closed."""
        if self.deadline is None:
            data = self.conn.recv(65536)
            self.deadline = time.monotonic() + REQUEST_TIMEOUT
        else:
            try:
                self.conn.settimeout(max(self.deadline - time.monotonic(), 1e-6))
                data = self.conn.recv(65536)
            except TimeoutError:
                raise ApiError(408, "request-timeout", f"a request must arrive within {REQUEST_TIMEOUT} s") from None
        del self.buf[:self.pos]
        self.pos = 0
        self.buf += data
        return bool(data)

    def readline(self, limit: int) -> bytes:
        """A line with its newline, the first `limit` bytes of a longer one,
        or what came before the client closed."""
        scanned = 0  # bytes past `pos` searched already
        while (end := self.buf.find(b"\n", self.pos + scanned, self.pos + limit) + 1) == 0:
            scanned = len(self.buf) - self.pos
            if scanned >= limit or not self._fill():
                break
        return self._take(end - self.pos if end else limit)

    def read(self, size: int) -> bytes:
        """`size` bytes, or fewer when the client closed first."""
        while len(self.buf) - self.pos < size and self._fill():
            pass
        return self._take(size)

    def _take(self, size: int) -> bytes:
        data = bytes(self.buf[self.pos:self.pos + size])
        self.pos += len(data)
        return data


class _Handler(socketserver.StreamRequestHandler):
    """One connection: read a request (RFC 9112's message syntax, no more
    than the routes need), answer it in one write, and go on while the
    client keeps the connection."""

    timeout = IDLE_TIMEOUT
    # a reply larger than a segment ends in a short one; with Nagle on, it
    # waits for the client's delayed ACK of the others, about 40 ms
    disable_nagle_algorithm = True
    rbufsize = 0  # no buffer: requests are read through a _Reader, which keeps their deadline

    @property
    def core(self) -> Digcovery:
        return self.server.core  # type: ignore[attr-defined]

    def setup(self) -> None:
        super().setup()
        self.reader = _Reader(self.connection)

    def handle(self) -> None:
        try:
            self._converse()
        except (BrokenPipeError, ConnectionResetError) as err:
            log.info("client %s left: %s", join_hostport(*self.client_address[:2]), err)

    def _converse(self) -> None:
        keep = True
        while keep:
            try:
                request = self._read_request()
            except ApiError as err:  # where this request ends is unknown: close
                self._write(*_error(err.status, err.error, err.detail), keep=False)
                if err.status != 408:  # a client past its deadline has had its time
                    self._linger()
                return
            except TimeoutError:  # no byte came for IDLE_TIMEOUT seconds
                return
            if request is None:
                return
            method, target, body, keep = request
            try:
                reply = self._route(method, target, body)
            except Exception as err:
                log.exception("%s %s failed", method, target)
                reply = _error(500, "internal-error", type(err).__name__)
            self._write(*reply, keep=keep)

    def _read_request(self) -> tuple[str, str, bytes, bool] | None:
        """The next request's method, target, body and whether the client
        keeps the connection after it; None when the client closed or cut
        its request short.  Raises ApiError for a request not served."""
        self.reader.next_request()
        line = self.reader.readline(MAX_LINE + 1)
        if len(line) > MAX_LINE:
            raise ApiError(414, "request-line-too-long", f"over {MAX_LINE} bytes")
        if not line.endswith(b"\n"):
            return None
        words = line.decode("latin-1").split()
        version = _VERSION.fullmatch(words[2]) if len(words) == 3 else None
        if version is None:
            raise ApiError(400, "bad-request", f"bad request line {line.rstrip().decode('latin-1')!r}")
        method, target = words[:2]
        major, minor = version.groups()
        if major != "1":
            raise ApiError(505, "version-not-supported", words[2])
        keep, length, expect = minor != "0", None, False
        for _ in range(MAX_HEADERS + 1):
            line = self.reader.readline(MAX_LINE + 1)
            if len(line) > MAX_LINE:
                raise ApiError(431, "headers-too-large", f"a header line over {MAX_LINE} bytes")
            if not line.endswith(b"\n"):
                return None
            if line in (b"\r\n", b"\n"):
                break
            name, colon, value = line.decode("latin-1").partition(":")
            if not colon or not _TOKEN.fullmatch(name):
                raise ApiError(400, "bad-request", f"bad header line {line.rstrip().decode('latin-1')!r}")
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
        else:
            raise ApiError(431, "headers-too-large", f"more than {MAX_HEADERS} header lines")
        if length and expect:
            self.wfile.write(b"HTTP/1.1 100 Continue\r\n\r\n")
        body = self.reader.read(length) if length else b""
        if length and len(body) < length:
            return None
        return method, target, body, keep

    def _linger(self) -> None:
        """Drop what the client still sends, until it closes or LINGER
        seconds pass: a close with input unread resets the connection, and
        a client still sending its body would lose the reply (RFC 9112
        section 9.6)."""
        self.connection.shutdown(socket.SHUT_WR)
        deadline = time.monotonic() + LINGER
        try:
            while (left := deadline - time.monotonic()) > 0:
                self.connection.settimeout(left)
                if not self.connection.recv(65536):
                    return
        except OSError:  # the time ran out, or the client reset
            pass

    def _write(self, status: int, body: bytes, keep: bool) -> None:
        """Status line, headers and body in one write."""
        close = "" if keep else "Connection: close\r\n"
        head = (
            f"HTTP/1.1 {status} {_REASONS.get(status, '')}\r\nServer: digcovery/0.1\r\n"
            f"Date: {formatdate(usegmt=True)}\r\nContent-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n{close}\r\n"
        )
        if self.connection.gettimeout() != self.timeout:  # what was left of the request's deadline
            self.connection.settimeout(self.timeout)
        self.wfile.write(head.encode("latin-1") + body)

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


class DigcoveryHttpServer(ServerShell, HTTPServer):
    """HTTP front for one Digcovery core, served by a fixed set of workers."""

    workers = 4
    request_queue_size = 64  # connections wait here while every worker is busy

    def __init__(self, core: Digcovery, host: str = "127.0.0.1", port: int = 0) -> None:
        self.core = core
        super().__init__((host, port), _Handler)

    @property
    def url(self) -> str:
        return "http://" + join_hostport(*self.address)


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
