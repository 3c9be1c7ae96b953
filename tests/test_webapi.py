"""The HTTP front: its request reader, caps and JSON error replies, its
one serving thread (idle, dripping, unread and surplus connections hold
nothing of it), and a recorded contract of status and body for a fixed
request corpus."""

from __future__ import annotations

import errno
import hashlib
import json
import logging
import socket
import struct
import threading
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from digstack import webapi
from digstack.digcovery import Digcovery, DomainRecord, PointerSummary
from digstack.webapi import DigcoveryHttpServer, HttpDigcoveryClient
import samples

DOMAIN = samples.campus_summaries()[0].domain


def campus_core() -> Digcovery:
    """The lookup core over the five-pointer campus fixture."""
    core = Digcovery()
    core.register_domain(DomainRecord(DOMAIN, "127.0.0.1", 5300))
    core.ingest(DOMAIN, samples.campus_summaries())
    return core


def request(method: str, target: str, body: bytes | None = None, headers: tuple[str, ...] = (),
            version: str = "HTTP/1.1") -> bytes:
    lines = [f"{method} {target} {version}", "Host: digcovery", *headers]
    if body is not None:
        lines.append(f"Content-Length: {len(body)}")
    return ("\r\n".join(lines) + "\r\n\r\n").encode() + (body or b"")


def post(target: str, payload, *headers: str) -> bytes:
    return request("POST", target, json.dumps(payload).encode(), headers)


def get(target: str, *headers: str) -> bytes:
    return request("GET", target, None, headers)


def read_reply(data: bytes) -> tuple[int | None, bytes | None]:
    """The first final reply in what a connection received: its status and
    body, or (None, None) when there is none."""
    while data.startswith(b"HTTP/"):
        head, sep, rest = data.partition(b"\r\n\r\n")
        if not sep:
            break
        lines = head.split(b"\r\n")
        status = int(lines[0].split()[1])
        if 100 <= status < 200:  # an interim reply, such as 100 Continue
            data = rest
            continue
        length = next(int(v) for k, _, v in (l.partition(b":") for l in lines[1:]) if k.lower() == b"content-length")
        return status, rest[:length]
    return None, None


def exchange(address, wire: bytes, timeout: float = 5.0) -> tuple[bytes, bool]:
    """Send `wire`, half-close, and read until the server closes.  Returns
    what arrived and whether the close came within `timeout` seconds."""
    deadline = time.monotonic() + timeout
    received = b""
    with socket.create_connection(address, timeout=timeout) as sock:
        try:
            sock.sendall(wire)
            sock.shutdown(socket.SHUT_WR)
        except OSError:  # the server refused and closed before taking it all
            pass
        try:
            while True:
                sock.settimeout(max(deadline - time.monotonic(), 0.001))
                chunk = sock.recv(65536)
                if not chunk:
                    return received, True
                received += chunk
        except ConnectionResetError:
            return received, True
        except TimeoutError:
            return received, False


# --- the contract: status and body per request, against the recorded front ----------

NESTED = {"bool": {"must": [{"term": {"rt": "light"}}]}}
for _ in range(40):
    NESTED = {"bool": {"must": [NESTED]}}
DEEP = ('{"bool": {"must": [' * 900 + '{"term": {"rt": "light"}}' + "]}}" * 900).encode()
QUERY = "/api/v1/query"
POINTERS = f"/api/v1/domains/{DOMAIN}/pointers"
BOX = samples.campus_box_query()
LIGHT = samples.campus_summaries()[0].to_dict()

# (name, the bytes sent on one connection); run in this order on one server
CORPUS: list[tuple[str, bytes]] = [
    ("domains", get("/api/v1/domains")),
    ("register", post("/api/v1/domains", DomainRecord("rd.other.org", "::1", 5301, 8080, "lab").to_dict())),
    ("register twice", post("/api/v1/domains", DomainRecord("rd.other.org", "::1", 5301).to_dict())),
    ("register mistyped port", post("/api/v1/domains", {"domain": "x.org", "host": "h", "dns_port": "53"})),
    ("register not an object", post("/api/v1/domains", [1])),
    ("register no body", request("POST", "/api/v1/domains", b"")),
    ("domains again", get("/api/v1/domains?verbose=1")),
    ("ingest", post(POINTERS, [dict(LIGHT, revision=2), dict(LIGHT, instance="spare", revision=1)])),
    ("ingest stale", post(POINTERS, [LIGHT])),
    ("ingest unknown domain", post("/api/v1/domains/rd.unknown.example/pointers", [LIGHT])),
    ("ingest not an array", post(POINTERS, LIGHT)),
    ("ingest item not an object", post(POINTERS, [LIGHT, "x"])),
    ("ingest mistyped revision", post(POINTERS, [dict(LIGHT, revision="3")])),
    ("ingest foreign domain", post(POINTERS, [dict(LIGHT, domain="rd.other.org")])),
    ("query box", post(QUERY, {"query": BOX})),
    ("query box again", post(QUERY, {"query": BOX})),
    ("query bare", post(QUERY, {"bool": {}})),
    ("query page", post(QUERY, {"query": {"bool": {}}, "offset": 1, "limit": 2})),
    ("query no limit", post(QUERY, {"query": {"bool": {}}, "limit": None})),
    ("query past the end", post(QUERY, {"query": {"bool": {}}, "offset": 1000})),
    ("query term", post(QUERY, {"term": {"rt": "light"}})),
    ("query prefix", post(QUERY, {"prefix": {"instance": "light"}})),
    ("query range", post(QUERY, {"range": {"instance": {"from": "g", "to": "m"}}})),
    ("query geo_range", post(QUERY, {"geo_range": {"latitude": {"from": 37.99, "to": 38.0},
                                                   "longitude": {"from": -1.2, "to": -1.1}}})),
    ("query wildcard", post(QUERY, {"wildcard": "_lamp.*"})),
    ("query filtered", post(QUERY, {"filtered": {"query": {"wildcard": "*.*"}, "filter": {"term": {"rt": "video"}}}})),
    ("query nested", post(QUERY, {"query": NESTED, "limit": 1})),
    ("query too deep", request("POST", QUERY, DEEP)),
    ("query negative offset", post(QUERY, {"query": {"bool": {}}, "offset": -2})),
    ("query negative limit", post(QUERY, {"query": {"bool": {}}, "limit": -1})),
    ("query bool offset", post(QUERY, {"query": {"bool": {}}, "offset": True})),
    ("query float limit", post(QUERY, {"query": {"bool": {}}, "limit": 1.9})),
    ("query string offset", post(QUERY, {"query": {"bool": {}}, "offset": "2"})),
    ("query unknown kind", post(QUERY, {"fuzzy": {"rt": "x"}})),
    ("query bad bound", post(QUERY, {"range": {"latitude": {"from": "x", "to": "y"}}})),
    ("query not json", request("POST", QUERY, b"{nope")),
    ("query not utf-8", request("POST", QUERY, b'{"term": {"rt": "\xff"}}')),
    ("query no body", request("POST", QUERY, b"")),
    ("query infinite bound", request("POST", QUERY, b'{"geo_range": {"latitude": {"from": -1e400, "to": 1e400}, '
                                                    b'"longitude": {"from": -1e400, "to": 1e400}}}')),
    ("post no route", post("/api/v1/nowhere", {})),
    ("discover", get("/api/v1/discover?pattern=_lamp.*")),
    ("discover encoded", get("/api/v1/discover?pattern=_lamp.%2A")),
    ("discover none", get("/api/v1/discover?pattern=_nothing._here")),
    ("discover bad pattern", get("/api/v1/discover?pattern=bad..pattern")),
    ("discover no pattern", get("/api/v1/discover")),
    ("get no route", get("/nowhere")),
    ("absolute target", get("http://digcovery/api/v1/domains")),
    ("http/1.0", request("GET", "/api/v1/domains", version="HTTP/1.0")),
    ("connection close", get("/api/v1/domains", "Connection: close")),
    ("expect continue", post(QUERY, {"term": {"rt": "video"}}, "Expect: 100-continue")),
    ("get with a body", request("GET", "/api/v1/domains", b"ignored")),
    ("negative length", request("POST", QUERY, headers=("Content-Length: -1",))),
    ("non-numeric length", request("POST", QUERY, headers=("Content-Length: abc",))),
    ("repeated length", request("POST", QUERY, b"{}", headers=("Content-Length: 2",))),
    ("huge length", request("POST", QUERY, headers=("Content-Length: 99999999999999",))),
    ("chunked", request("POST", QUERY, headers=("Transfer-Encoding: chunked",)) + b"2\r\n{}\r\n0\r\n\r\n"),
    ("bad request line", b"GARBAGE\r\n\r\n"),
    ("http/0.9", b"GET /api/v1/domains\r\n"),
    ("http/2.0", request("GET", "/api/v1/domains", version="HTTP/2.0")),
    ("unknown method", request("PUT", "/api/v1/domains", b"{}")),
    ("too many headers", get("/api/v1/domains", *(f"X-{i}: {i}" for i in range(101)))),
    ("header line too long", get("/api/v1/domains", "X-Long: " + "a" * 70_000)),
    ("request line too long", get("/api/v1/discover?pattern=" + "a" * 70_000)),
    ("route fails", get("/api/v1/discover?pattern=_boom.*")),
    # last: at the recorded front this pointer was taken, and every later
    # reply that listed it carried Infinity and NaN
    ("ingest infinite geo", request("POST", POINTERS, b'[{"instance": "inf", "service_path": "_lamp._sub._coap._udp", '
                                                      b'"domain": "rd.esiot.com", "rt": "light", "revision": 1, '
                                                      b'"geo": {"lat": 1e400, "lon": NaN}}]')),
    ("query after it", post(QUERY, {"bool": {}})),
]

# Status and body SHA-256 of each reply at the front before the fixed
# workers (a thread-per-connection `ThreadingHTTPServer` whose stdlib
# `parse_request` read the headers); (None, None): no reply at all.
RECORDED: dict[str, tuple[int | None, str | None]] = {
    'domains': (200, '8f9bfcbb8342403cf647b337b6a5c2f819e60db5db64f883c2b5554391d01eeb'),
    'register': (201, '9155bb7111c82a2c4f13bd375154e804921453af7a709cb989900ad2486e019e'),
    'register twice': (409, '9c17e1e58b4847f453a66f04739819c9e68209a13bbedaf364190440f1b15092'),
    'register mistyped port': (400, '5a2a7fc73cb9457b02e9837f833c661b57c8516e34955c3dd7335972981d4eb5'),
    'register not an object': (400, 'e9f169affaa099c4eeb316fafe91bf4f0f77da7bb6dbe4b8dde13c49cde90d05'),
    'register no body': (400, '24956d0673a78a003c58808d7443b4c1ffd619e64b7771a8229b454395852629'),
    'domains again': (200, '6f215b64ead3179f388061e1ce9f4b2ced6f7288f3e6d4a14a364dd3257ae487'),
    'ingest': (200, '41c26cf0c8fb442281151320c2f090f800d5b4a307d7b322030e87079a9536f2'),
    'ingest stale': (200, 'f62d8e1e26c7cb28282641c3cfbe360a14c4527c5d12c78657777355019d3b1c'),
    'ingest unknown domain': (404, '24a4b007fbaa7ce594ccd521073810e5a86809f94eabb958126f83ab757c9dca'),
    'ingest not an array': (400, '805d542e373402e16b6ac128b5457263e74b683e34167fbf0b6f8a663576f208'),
    'ingest item not an object': (400, '81488bed4ef69130d12a6d6ce77153d897eaa4f204d3ae1c7bad66c7fbe889a0'),
    'ingest mistyped revision': (400, '757da95a7acd1dad725bffef116158f80073ff535f7b36a41e69a7cd0b0443cc'),
    'ingest foreign domain': (400, '839c980b9f7ee4dbd8b8f1ab17b2b765d4f10aa31ab3a721ee1a66f9a560533a'),
    'query box': (200, 'b1d89ba8dac5a2862093ed1cf3ae13bc8ba72db733934b6f5ae3ac61fa6c2170'),
    'query box again': (200, 'b1d89ba8dac5a2862093ed1cf3ae13bc8ba72db733934b6f5ae3ac61fa6c2170'),
    'query bare': (200, 'e657c2c20914f38c93705c2733b7555e239d82863d9069db60eaf23f2d261f9e'),
    'query page': (200, 'db748fa1d34e42c5fa34f7bf1385abf7f5557f4d63ece34d6a7c979545e7e7a7'),
    'query no limit': (200, 'c86f7f8764474976417f5e048e448e0ed18a001f2286739048d159455ecc3cae'),
    'query past the end': (200, 'bcdb9ca6641210e236cfe4bab3032f3c64024417b23ef3109c0290a89db87a57'),
    'query term': (200, 'da04e80d6bc099b96edb7e5086cc022884c4ac2734dcef0d89c03def522cd059'),
    'query prefix': (200, '205c67eeb7c5b972d0ee3c0607566eaa7046d9ddf2ec8dce4b5abb50eb1a5f27'),
    'query range': (200, '17d3604e82fc8e7e1b8506fcd491362ecba229953911c18322d8a90fe8de779b'),
    'query geo_range': (200, '5744bf14e48835d5e83379b33c84fec352973011d3f48ff77a279eb125462b8e'),
    'query wildcard': (200, 'f8b9e05ef998d9d5ef21d7da02b74c7e717e4809517cf112520b8e94b766a938'),
    'query filtered': (200, 'a083b792c4fd65e1672fc8969fa0d45570001e79c2d88261a024962a5abef7a9'),
    'query nested': (200, 'ea29081f13f0ee6f6f3c2970f143d39a1119f267f0c99184087404a21a5f9d95'),
    'query too deep': (400, '061a07b531d0caf87f186688608f13a9657a9d187b3f7698fff7bb474741ab42'),
    'query negative offset': (400, 'd89b4f93632ac7a330abffa9cbeb8cc07337b204b7fba165c161e6480974a582'),
    'query negative limit': (400, '69e64d97524e64b814c0734478758b478814ca6b7de88890d585693304e931d5'),
    'query bool offset': (400, 'bff8b177ba914169db599fadcc0f561dcc50c0dfb34a3593534d937cd391bc3a'),
    'query float limit': (400, 'b0cbf79922084bf4e71efd5de24aa455fca4cc5800aadb0940b555c8b73febd4'),
    'query string offset': (400, '2653fb58b9b2bdb5eb5f01820549fe31726af79f0dda5a926160f97c1e75990d'),
    'query unknown kind': (400, 'b793bb72352d74f455e22bdcb36a1d90060591690857dd04677812c711e55738'),
    'query bad bound': (400, 'a59bef534ed07a86b7137bcd06ac8238ea6518135b8057da5e69bb0c6b65ee8f'),
    'query not json': (400, '6b7e1968b5643b0288d41e80942219ed2e62abdc485fd520e90647bbad6df35b'),
    'query not utf-8': (400, 'd46993a33c2a750406fa98c9d76637a7a0a784eadc610fa0c98aeffcd50f0afc'),
    'query no body': (400, '2b963d03acb8a4802a7c126c81e764523988789bbb8e38a71a5aa42c67f4bfb4'),
    'query infinite bound': (200, '548fe1a711461f6536ef316fbb63e120b436719de08a59965e5684ed9cb9c07d'),
    'post no route': (404, '2131585092c85692bc0aa84f6f2371bb9e0deb9434aa2e1fd5a84b2b0b35e5e7'),
    'discover': (200, '8f9bfcbb8342403cf647b337b6a5c2f819e60db5db64f883c2b5554391d01eeb'),
    'discover encoded': (200, '8f9bfcbb8342403cf647b337b6a5c2f819e60db5db64f883c2b5554391d01eeb'),
    'discover none': (200, 'cf7ef5d32699646fa3c346c38bbf0b8ff8fe89710a149b6da996d2e8aa91ab53'),
    'discover bad pattern': (400, '47d80c2eaed6d3c15f3bdcf83b5a6a91f64bb652c0dbf34542eff14a5c01a34d'),
    'discover no pattern': (400, 'c30657be9cac50ce2571984d934596986b5f5a61ed3379c462bb0bd16a86fa08'),
    'get no route': (404, 'badabcdaafc36ac2c0c4e1393b89e5221e77246c3ddc29b952c9bedc740ef61f'),
    'absolute target': (200, '6f215b64ead3179f388061e1ce9f4b2ced6f7288f3e6d4a14a364dd3257ae487'),
    'http/1.0': (200, '6f215b64ead3179f388061e1ce9f4b2ced6f7288f3e6d4a14a364dd3257ae487'),
    'connection close': (200, '6f215b64ead3179f388061e1ce9f4b2ced6f7288f3e6d4a14a364dd3257ae487'),
    'expect continue': (200, 'c0b83576b4084b862080c0ddaaadc4f44d7381dbae93e30115acdf4b3e71aad4'),
    'get with a body': (200, '6f215b64ead3179f388061e1ce9f4b2ced6f7288f3e6d4a14a364dd3257ae487'),
    'negative length': (400, '6c5db7287bbb4ca1f371510d1e5ae43b6f3041e2e42b2cb5dfa73c100a8e87b4'),
    'non-numeric length': (400, '6264afa1b0b47eb24a3579872c9f31a49c1891f7f0b3e088b53e0e040f85a96a'),
    'repeated length': (400, '2b963d03acb8a4802a7c126c81e764523988789bbb8e38a71a5aa42c67f4bfb4'),
    'huge length': (None, None),
    'chunked': (400, '2b963d03acb8a4802a7c126c81e764523988789bbb8e38a71a5aa42c67f4bfb4'),
    'bad request line': (None, None),
    'http/0.9': (None, None),
    'http/2.0': (None, None),
    'unknown method': (501, 'cc3a398cfc3cbe43b7bf575476f02e954c63a810505b72f9b1181d681e6bdfe6'),
    'too many headers': (431, '5a424ac59ce313cccfa4fd96c8c4297a49382dff7beb79384239ca409686fe00'),
    'header line too long': (431, 'a7948b25215bb53873b63215899907d08abbe44cb0b405d0bbe9b45aa9d0113f'),
    'request line too long': (414, '06d2ac9c026021335167cf9173f1a6efbc006798e46bd6449cde82bc79c3cb97'),
    'route fails': (None, None),
    'ingest infinite geo': (200, '8307ba1714ea6be83125a5ff8d2d5a2328816374993c1cc43c4cd67b74370fef'),
    'query after it': (200, '90c007e1b38d7cebe347a65c045992d179f743c8ef4f4929ba1a5352567e1623'),
}

# The replies meant to change, each with its status and error slug now.
CHANGED: dict[str, tuple[int, str]] = {
    # the stdlib's HTML error pages, now the front's JSON errors; the first
    # two came as a bare HTML body without a status line
    "bad request line": (400, "bad-request"),
    "http/2.0": (505, "version-not-supported"),
    "unknown method": (501, "no-such-method"),
    "too many headers": (431, "headers-too-large"),
    "header line too long": (431, "headers-too-large"),
    "request line too long": (414, "request-line-too-long"),
    # refused by the request reader: no chunked bodies, one decimal length
    "chunked": (411, "length-required"),
    "non-numeric length": (400, "bad-request"),  # was int()'s message
    "repeated length": (400, "bad-request"),  # was read with the first one
    "http/0.9": (400, "bad-request"),  # was answered with a bare body, no status line
    # was no reply: a MemoryError reading the body
    "huge length": (413, "body-too-large"),
    # was no reply: the exception escaped the route
    "route fails": (500, "internal-error"),
    # non-finite coordinates are refused
    "query infinite bound": (400, "malformed-query"),
    "ingest infinite geo": (400, "bad-request"),
    "query after it": (200, ""),  # now without the refused row
}


def run_corpus(address) -> dict[str, tuple[int | None, bytes | None]]:
    return {name: read_reply(exchange(address, wire)[0]) for name, wire in CORPUS}


def failing_core() -> Digcovery:
    """The campus core, whose discovery fails for one pattern."""
    core = campus_core()
    discover = core.discover

    def failing(pattern: str):
        if pattern == "_boom.*":
            raise RuntimeError("discovery failed")
        return discover(pattern)

    core.discover = failing
    return core


def test_replies_match_the_recorded_front_except_the_listed_changes():
    with DigcoveryHttpServer(failing_core()) as server:
        replies = run_corpus(server.address)
    assert set(RECORDED) == set(replies) and set(CHANGED) <= set(replies)
    for name, (status, body) in replies.items():
        if name in CHANGED:
            want_status, slug = CHANGED[name]
            assert status == want_status, name
            payload = json.loads(body)
            if slug:
                assert set(payload) == {"error", "detail"} and payload["error"] == slug, name
            assert (status, hashlib.sha256(body).hexdigest()) != RECORDED[name], name
        else:
            assert (status, body and hashlib.sha256(body).hexdigest()) == RECORDED[name], name
    assert [r["instance"] for r in json.loads(replies["query after it"][1])["results"]] == [
        "gate_cam", "light_hall", "light_lab", "roof_wind", "spare", "thermo_lab"]


# --- caps and the JSON 500 ------------------------------------------------------------


@pytest.fixture()
def front():
    with DigcoveryHttpServer(campus_core()) as server:
        yield server


@pytest.mark.parametrize("declared", ["99999999999999", str(webapi.MAX_BODY + 1), "9" * 5000],
                         ids=["huge", "one-over", "5000-digits"])
def test_a_body_over_the_cap_gets_413_before_it_is_read(front, declared):
    # the body is never sent: the reply must not wait for it
    with socket.create_connection(front.address, timeout=3) as sock:
        sock.sendall(request("POST", QUERY, headers=(f"Content-Length: {declared}",)))
        with sock.makefile("rb") as replies:
            status, body = read_reply(replies.read())
    assert status == 413 and json.loads(body)["error"] == "body-too-large"
    assert HttpDigcoveryClient(front.url).query({"bool": {}})["results"]


def test_the_programs_client_reads_the_413_while_it_still_sends_its_body(front, monkeypatch):
    # the body outgrows the socket buffers, so the client is still sending
    # when the reply is written; a close with its input unread would reset
    # the connection before the client reads the reply
    monkeypatch.setattr(webapi, "MAX_BODY", 1000)
    batch = [dict(LIGHT, instance=f"o{i}") for i in range(30_000)]
    with pytest.raises(webapi.ApiError) as err:
        HttpDigcoveryClient(front.url)._request("POST", POINTERS, batch)
    assert err.value.status == 413 and err.value.error == "body-too-large"


def test_a_route_that_raises_gets_a_json_500_and_is_logged(caplog):
    with caplog.at_level(logging.ERROR, logger="digstack.webapi"), DigcoveryHttpServer(failing_core()) as server:
        status, body = read_reply(exchange(server.address, get("/api/v1/discover?pattern=_boom.*"))[0])
        assert status == 500 and json.loads(body) == {"error": "internal-error", "detail": "RuntimeError"}
        assert [d["domain"] for d in HttpDigcoveryClient(server.url).discover("_lamp.*")] == [DOMAIN]
    assert [r.exc_info[1].args for r in caplog.records if r.exc_info] == [("discovery failed",)]


# --- any bytes get an answer or a close, and the front stays up ----------------------

_LINE_ENDS = st.sampled_from([b"\r\n", b"\n", b"\r", b""])
_REQUEST_LINES = st.builds(
    lambda method, target, version: b" ".join(w for w in (method, target, version) if w is not None),
    st.sampled_from([b"GET", b"POST", b"PUT", b"get", b"", b"\x00\xff"]),
    st.sampled_from([b"/api/v1/query", b"/api/v1/discover?pattern=_lamp.*", b"/api/v1/domains", POINTERS.encode(),
                     b"*", b"/%zz", None]),
    st.sampled_from([b"HTTP/1.1", b"HTTP/1.0", b"HTTP/2.0", b"HTTP/1", b"http/1.1", b"HTTP/1.1 x", None]),
)
_HEADERS = st.tuples(
    st.sampled_from([b"Content-Length", b"content-length", b"Transfer-Encoding", b"Connection", b"Expect",
                     b"Host", b" Folded", b"Bad Name", b""]),
    st.sampled_from([b":", b": ", b" :", b""]),
    st.one_of(st.sampled_from([b"0", b"2", b"17", b"-1", b"99999999999999", b"chunked", b"close", b"keep-alive",
                               b"100-continue", b"1e3", b" 7 "]), st.binary(max_size=12)),
)
_BODIES = st.one_of(st.binary(max_size=40), st.sampled_from([b"{}", b'{"bool": {}}', b'{"term": {"rt": "light"}}',
                                                             b"[]", b'{"query": {"bool": {}}, "limit": 2}']))
_REQUESTS = st.builds(
    lambda line, headers, end, body: line + end + b"".join(n + c + v + end for n, c, v in headers) + end + body,
    _REQUEST_LINES, st.lists(_HEADERS, max_size=5), _LINE_ENDS, _BODIES,
)
_WIRES = st.one_of(
    st.binary(max_size=200),
    _REQUESTS,
    st.lists(_REQUESTS, min_size=2, max_size=3).map(b"".join),  # pipelined
    st.tuples(_REQUESTS, st.integers(0, 200)).map(lambda t: t[0][: t[1]]),  # cut short
)


def test_any_bytes_get_a_reply_or_a_close_and_the_front_keeps_answering():
    started = time.monotonic()
    with DigcoveryHttpServer(campus_core()) as server:
        client = HttpDigcoveryClient(server.url, timeout=5)

        @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
        @given(_WIRES)
        def replies_then_closes(wire):
            _, closed = exchange(server.address, wire, timeout=2.0)
            assert closed, wire
            assert len(client.query({"bool": {}})["results"]) == 5

        replies_then_closes()
    assert time.monotonic() - started < 60.0


# --- one thread: idle, slow and surplus connections --------------------------------


def recv_replies(sock: socket.socket, count: int = 1) -> list[tuple[int, bytes]]:
    """The next `count` replies' status and body, read off a kept connection."""
    replies = []
    with sock.makefile("rb") as stream:
        for _ in range(count):
            status, length = int(stream.readline().split()[1]), 0
            while (line := stream.readline()) not in (b"\r\n", b""):
                name, _, value = line.partition(b":")
                if name.lower() == b"content-length":
                    length = int(value)
            replies.append((status, stream.read(length)))
    return replies


def test_idle_connections_are_dropped_at_the_idle_timeout(monkeypatch):
    monkeypatch.setattr(webapi, "IDLE_TIMEOUT", 0.3)
    with DigcoveryHttpServer(campus_core()) as server:
        idle = [socket.create_connection(server.address, timeout=5) for _ in range(4)]
        try:
            time.sleep(0.05)  # the front has taken each idle connection
            started = time.monotonic()
            status, _ = read_reply(exchange(server.address, get("/api/v1/domains"))[0])
            waited = time.monotonic() - started
            assert status == 200 and waited < 0.3 + 2.0
            assert [sock.recv(1) for sock in idle] == [b""] * len(idle)  # the server closed each
            assert time.monotonic() - started < 0.3 + 2.0
        finally:
            for sock in idle:
                sock.close()


def test_idle_kept_connections_leave_a_new_client_answered_at_once():
    with DigcoveryHttpServer(campus_core()) as server:
        kept = [socket.create_connection(server.address, timeout=5) for _ in range(64)]
        try:
            for sock in kept:
                sock.sendall(get("/api/v1/domains"))
            assert [recv_replies(sock)[0][0] for sock in kept] == [200] * len(kept)
            started = time.monotonic()
            assert len(HttpDigcoveryClient(server.url, timeout=5).query({"bool": {}})["results"]) == 5
            assert time.monotonic() - started < 1.0
            for sock in kept:  # still open: nothing to read, and no close
                sock.setblocking(False)
                with pytest.raises(BlockingIOError):
                    sock.recv(1)
        finally:
            for sock in kept:
                sock.close()


def _received(sock: socket.socket) -> bytes:
    """What a connection received before the server closed or reset it."""
    data = b""
    try:
        while chunk := sock.recv(65536):
            data += chunk
    except OSError:
        pass
    return data


def test_a_request_must_arrive_within_one_deadline(monkeypatch):
    monkeypatch.setattr(webapi, "IDLE_TIMEOUT", 0.5)
    monkeypatch.setattr(webapi, "REQUEST_TIMEOUT", 1.0)
    # each client sends a little every 0.3 s, well within the idle timeout:
    # two send a header line at a time, two drip one line a byte at a time
    drips = [b"X-Drip: 1\r\n"] * 15, [b"X-Drip: 1\r\n"] * 15, [bytes([b]) for b in b"X-Drip: " + b"1" * 13]
    drips += drips[2:]
    with DigcoveryHttpServer(campus_core()) as server:
        socks = [socket.create_connection(server.address, timeout=5) for _ in drips]

        def drip(sock, chunks):
            try:
                sock.sendall(b"GET /api/v1/domains HTTP/1.1\r\n")
                for chunk in chunks:
                    time.sleep(0.3)
                    sock.sendall(chunk)
            except OSError:  # the server closed the connection
                pass

        threads = [threading.Thread(target=drip, args=pair) for pair in zip(socks, drips)]
        try:
            for thread in threads:
                thread.start()
            time.sleep(0.1)  # each dripping client has sent its request line
            started = time.monotonic()
            status, _ = read_reply(exchange(server.address, get("/api/v1/domains"))[0])
            waited = time.monotonic() - started
            assert status == 200 and waited < 1.0 + 1.0
            for sock in socks:
                status, body = read_reply(_received(sock))
                assert status == 408 and json.loads(body)["error"] == "request-timeout"
        finally:
            for thread in threads:
                thread.join()
            for sock in socks:
                sock.close()


def test_a_client_that_never_reads_its_replies_is_closed_at_the_send_deadline(monkeypatch, caplog):
    monkeypatch.setattr(webapi, "SEND_TIMEOUT", 0.5)
    core = campus_core()
    core.ingest(DOMAIN, [PointerSummary.from_dict(dict(LIGHT, instance=f"o{i}")) for i in range(5000)])
    page = post(QUERY, {"query": {"bool": {}}, "limit": None})  # about 630 KB a reply
    with caplog.at_level(logging.INFO, logger="digstack"), DigcoveryHttpServer(core) as server:
        with socket.socket(family=socket.AF_INET) as stuck:
            stuck.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
            stuck.settimeout(5)
            stuck.connect(server.address)
            stuck.sendall(page * 12)  # far more reply than the socket buffers hold
            started = time.monotonic()
            client = HttpDigcoveryClient(server.url, timeout=5)
            assert len(client.query({"term": {"rt": "light"}}, limit=1)["results"]) == 1
            assert time.monotonic() - started < 0.5
            while not any("did not take its reply" in r.getMessage() for r in caplog.records):
                assert time.monotonic() - started < 0.5 + 1.0
                time.sleep(0.02)
            assert _received(stuck).count(b"HTTP/1.1 200 ") < 12  # closed before the rest
    assert [r for r in caplog.records if r.exc_info] == []


def test_pipelined_requests_are_answered_in_order_when_replies_wait_for_the_socket():
    core = campus_core()
    core.ingest(DOMAIN, [PointerSummary.from_dict(dict(LIGHT, instance=f"o{i}")) for i in range(5000)])
    big, small = post(QUERY, {"query": {"bool": {}}, "limit": None}), get("/api/v1/domains")
    with DigcoveryHttpServer(core) as server, socket.socket(family=socket.AF_INET) as sock:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        sock.settimeout(5)
        sock.connect(server.address)
        sock.sendall((big + small) * 8)  # about 5 MB of replies, more than the socket buffers hold
        time.sleep(0.2)  # the front has filled the socket and waits for it
        replies = recv_replies(sock, 16)
    assert [status for status, _ in replies] == [200] * 16
    assert [len(json.loads(body)["results"]) for _, body in replies[0::2]] == [5005] * 8
    assert [len(json.loads(body)["domains"]) for _, body in replies[1::2]] == [1] * 8


def test_a_request_line_over_the_cap_is_refused_before_the_client_stops_sending():
    with DigcoveryHttpServer(campus_core()) as server, socket.create_connection(server.address, timeout=3) as sock:
        sock.sendall(b"GET /api/v1/discover?pattern=" + b"a" * webapi.MAX_LINE)  # no newline, no close
        status, body = read_reply(sock.recv(65536))
    assert status == 414 and json.loads(body)["error"] == "request-line-too-long"


def test_a_connection_past_the_cap_gets_503_while_a_kept_one_is_answered(monkeypatch):
    monkeypatch.setattr(webapi, "MAX_CONNECTIONS", 2)
    with DigcoveryHttpServer(campus_core()) as server:
        kept = [socket.create_connection(server.address, timeout=5) for _ in range(2)]
        try:
            for sock in kept:  # a reply on each: the front holds both
                sock.sendall(get("/api/v1/domains"))
                assert recv_replies(sock)[0][0] == 200
            with socket.create_connection(server.address, timeout=5) as extra:
                status, body = read_reply(_received(extra))
            assert status == 503 and json.loads(body)["error"] == "too-many-connections"
            kept[0].sendall(get("/api/v1/domains"))
            assert recv_replies(kept[0])[0][0] == 200
        finally:
            for sock in kept:
                sock.close()


def test_running_out_of_file_descriptors_pauses_accepting_and_the_front_goes_on(monkeypatch, caplog):
    monkeypatch.setattr(webapi, "ACCEPT_PAUSE", 0.2)
    accept, failures = socket.socket.accept, []

    def accept_failing_twice(sock):
        if len(failures) < 2:
            failures.append(time.monotonic())
            raise OSError(errno.EMFILE, "Too many open files")
        return accept(sock)

    monkeypatch.setattr(socket.socket, "accept", accept_failing_twice)
    with caplog.at_level(logging.WARNING, logger="digstack"), DigcoveryHttpServer(campus_core()) as server:
        assert len(HttpDigcoveryClient(server.url, timeout=5).query({"bool": {}})["results"]) == 5
    assert len(failures) == 2 and failures[1] - failures[0] >= 0.2  # paused, not spinning
    assert len([r for r in caplog.records if "cannot accept" in r.getMessage()]) == 2
    assert [r for r in caplog.records if r.exc_info] == []


def test_a_client_gone_before_its_reply_is_one_log_line(caplog):
    with caplog.at_level(logging.INFO, logger="digstack"), DigcoveryHttpServer(campus_core()) as server:
        for _ in range(10):
            sock = socket.create_connection(server.address, timeout=5)
            sock.sendall(post("/api/v1/query", {"bool": {}}))
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
            sock.close()  # a reset, not a close
        assert len(HttpDigcoveryClient(server.url).query({"bool": {}})["results"]) == 5
    assert [r for r in caplog.records if r.exc_info] == []
    assert any("left" in r.getMessage() for r in caplog.records)


def test_stop_returns_soon_while_a_client_keeps_its_connection():
    server = DigcoveryHttpServer(campus_core()).start()
    try:
        kept = socket.create_connection(server.address, timeout=5)
        kept.sendall(get("/api/v1/domains"))
        reply = kept.recv(65536)
        assert reply.startswith(b"HTTP/1.1 200 ")
    finally:
        started = time.monotonic()
        server.stop()
        took = time.monotonic() - started
    try:
        assert took < 1.0
        kept.settimeout(2.0)
        while kept.recv(65536):  # the rest of the reply, then the server's close
            pass
    finally:
        kept.close()


def test_the_thread_count_does_not_grow_with_requests():
    before = set(threading.enumerate())
    server = DigcoveryHttpServer(campus_core()).start()
    try:
        assert len(set(threading.enumerate()) - before) == 1  # the server's one thread
        client = HttpDigcoveryClient(server.url, timeout=5)
        base = threading.active_count()
        for _ in range(50):
            assert len(client.query({"bool": {}})["results"]) == 5
        assert threading.active_count() <= base
        # clients that keep their connections open are served on the same thread
        kept = [socket.create_connection(server.address, timeout=5) for _ in range(8)]
        try:
            for sock in kept:
                sock.sendall(get("/api/v1/domains"))
            assert [recv_replies(sock)[0][0] for sock in kept] == [200] * len(kept)
            assert threading.active_count() <= base
        finally:
            for sock in kept:
                sock.close()
    finally:
        started = time.monotonic()
        server.stop()
        assert time.monotonic() - started < 0.5
    assert set(threading.enumerate()) <= before
