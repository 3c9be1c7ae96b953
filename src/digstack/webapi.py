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
import urllib.error
import urllib.parse
import urllib.request
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
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


class EndpointUnreachable(Exception):
    """The other side is down, refusing, or timing out."""


class ApiError(Exception):
    """Non-2xx reply from the HTTP API."""

    def __init__(self, status: int, error: str, detail: str = "") -> None:
        super().__init__(f"{status} {error}: {detail}" if detail else f"{status} {error}")
        self.status = status
        self.error = error
        self.detail = detail


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server_version = "digcovery/0.1"
    # headers and body leave in separate writes (the stdlib's error replies
    # too); with Nagle on, a kept connection's body waits for the client's
    # delayed ACK, about 40 ms
    disable_nagle_algorithm = True

    def log_message(self, fmt, *args):  # quiet by default
        pass

    @property
    def core(self) -> Digcovery:
        return self.server.core  # type: ignore[attr-defined]

    def _send(self, status: int, payload: dict | list) -> None:
        self._send_body(status, json.dumps(payload).encode())

    def _send_body(self, status: int, body: bytes) -> None:
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _fail(self, status: int, error: str, detail: str = "") -> None:
        self._send(status, {"error": error, "detail": detail})

    def _body(self):
        length = int(self.headers.get("Content-Length") or 0)
        if length < 0:
            self.close_connection = True  # where this request ends is unknown
            raise ValueError(f"bad Content-Length {length}")
        raw = self.rfile.read(length)
        return json.loads(raw) if raw else None

    def do_POST(self) -> None:
        path = urllib.parse.urlparse(self.path).path
        parts = [p for p in path.split("/") if p]
        try:
            body = self._body()
            if parts == ["api", "v1", "domains"]:
                self._register_domain(body)
            elif len(parts) == 5 and parts[:3] == ["api", "v1", "domains"] and parts[4] == "pointers":
                self._ingest(parts[3], body)
            elif parts == ["api", "v1", "query"]:
                self._query(body)
            else:
                self._fail(404, "no-such-route", path)
        except DuplicateDomain as err:
            self._fail(409, "duplicate-domain", str(err))
        except UnknownDomain as err:
            self._fail(404, "unknown-domain", str(err))
        except (MalformedQuery, MalformedPattern, RecursionError) as err:
            self._fail(400, "malformed-query", str(err))
        except (KeyError, TypeError, ValueError) as err:
            self._fail(400, "bad-request", str(err))

    def do_GET(self) -> None:
        parsed = urllib.parse.urlparse(self.path)
        parts = [p for p in parsed.path.split("/") if p]
        if parts == ["api", "v1", "discover"]:
            params = urllib.parse.parse_qs(parsed.query)
            pattern = params.get("pattern", [""])[0]
            try:
                domains = self.core.discover(pattern)
            except MalformedPattern as err:
                self._fail(400, "malformed-pattern", str(err))
                return
            self._send(200, {"domains": [d.to_dict() for d in domains]})
        elif parts == ["api", "v1", "domains"]:
            self._send(200, {"domains": [d.to_dict() for d in self.core.domains()]})
        else:
            self._fail(404, "no-such-route", parsed.path)

    def _register_domain(self, body) -> None:
        record = DomainRecord.from_dict(body)
        self.core.register_domain(record)
        self._send(201, {"registered": record.domain})

    def _ingest(self, domain: str, body) -> None:
        if not isinstance(body, list):
            raise MalformedQuery("pointer batch must be a JSON array")
        summaries = [PointerSummary.from_dict(item) for item in body]
        accepted = self.core.ingest(domain, summaries)
        self._send(200, {"accepted": accepted})

    def _query(self, body) -> None:
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
        self._send_body(200, body.encode())


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


class DigcoveryHttpServer(ServerShell, ThreadingHTTPServer):
    """Threaded HTTP front for one Digcovery core."""

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
