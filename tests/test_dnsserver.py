"""The server shell and the UDP DNS server on it: truncation, SERVFAIL,
staying up, stopping, and IPv6."""

from __future__ import annotations

import logging
import socket
import threading

from digstack import dnsserver, fixtures
from digstack.digcovery import Digcovery, DomainRecord
from digstack.digrectory import Digrectory
from digstack.dnscodec import DnsHeader, DnsMessage, DomainName, Question, RType, decode, encode
from digstack.dnsserver import UdpDnsServer
from digstack.webapi import DigcoveryHttpServer, HttpDigcoveryClient


def ask(sock: socket.socket, address, name: str, rrtype: RType, qid: int) -> tuple[bytes, DnsMessage]:
    query = DnsMessage(header=DnsHeader(id=qid), questions=(Question(DomainName.from_text(name), rrtype),))
    sock.sendto(encode(query), address)
    wire = sock.recvfrom(65535)[0]
    return wire, decode(wire)


def client(family: socket.AddressFamily = socket.AF_INET) -> socket.socket:
    sock = socket.socket(family, socket.SOCK_DGRAM)
    sock.settimeout(5.0)
    return sock


def test_large_ptr_answer_is_cut_and_the_server_stays_up():
    directory = Digrectory(fixtures.DOMAIN)
    for i in range(4000):
        entry = fixtures.light_lab_entry()
        entry.instance = f"light_{i:04d}"
        entry.ptr_paths = (fixtures.SERVICE_PATH,)
        directory.register(entry)
    with UdpDnsServer(directory.answer) as server, client() as sock:
        wire, reply = ask(sock, server.address, fixtures.SERVICE_PATH, RType.PTR, qid=1)
        assert len(wire) <= dnsserver.UDP_PAYLOAD_LIMIT and reply.header.tc == 1
        assert 0 < len(reply.answers) < 4000
        _, reply = ask(sock, server.address, f"light_3999.{fixtures.DOMAIN}", RType.SRV, qid=2)
        assert reply.header.rcode == 0 and reply.answers[0].rdata.port == 1234


def test_a_raising_answer_gets_servfail_and_the_next_query_an_answer():
    directory = Digrectory(fixtures.DOMAIN)
    directory.register(fixtures.light_lab_entry())

    def answer(query: DnsMessage):
        if query.questions[0].rrtype == RType.TXT:
            raise RuntimeError("answer function failed")
        return directory.answer(query)

    with UdpDnsServer(answer) as server, client() as sock:
        _, reply = ask(sock, server.address, fixtures.INSTANCE_NAME, RType.TXT, qid=5)
        assert reply.header.id == 5 and reply.header.qr == 1 and reply.header.rcode == 2
        assert reply.answers == ()
        _, reply = ask(sock, server.address, fixtures.INSTANCE_NAME, RType.SRV, qid=6)
        assert reply.header.id == 6 and reply.header.rcode == 0 and len(reply.answers) == 1


def test_a_failed_send_skips_that_datagram_only(monkeypatch):
    directory = Digrectory(fixtures.DOMAIN)
    directory.register(fixtures.light_lab_entry())
    # Without the cut every reply goes out whole; pad the TXT one past what
    # a datagram can carry, so its sendto fails with EMSGSIZE.
    monkeypatch.setattr(dnsserver, "truncate", lambda wire, limit: wire)

    def answer(query: DnsMessage):
        if query.questions[0].rrtype == RType.TXT:
            return DnsMessage(header=DnsHeader(id=query.header.id, qr=1), answers=(fixtures.srv_record(),) * 3000)
        return directory.answer(query)

    before = set(threading.enumerate())
    server = UdpDnsServer(answer).start()
    try:
        assert len(set(threading.enumerate()) - before) == 1  # the server's one thread
        with client() as sock:
            query = DnsMessage(header=DnsHeader(id=7), questions=(Question(DomainName.from_text("x"), RType.TXT),))
            sock.sendto(encode(query), server.address)
            _, reply = ask(sock, server.address, fixtures.INSTANCE_NAME, RType.SRV, qid=8)
            assert reply.header.id == 8 and reply.header.rcode == 0
    finally:
        server.stop()
    assert set(threading.enumerate()) <= before  # the server's thread has ended


def test_a_handler_exception_is_logged_and_the_next_query_answered(monkeypatch, caplog):
    directory = Digrectory(fixtures.DOMAIN)
    directory.register(fixtures.light_lab_entry())
    cut = dnsserver.truncate
    failures = []

    def truncate_failing_once(wire, limit):
        if not failures:
            failures.append(wire)
            raise RuntimeError("cut failed")
        return cut(wire, limit)

    monkeypatch.setattr(dnsserver, "truncate", truncate_failing_once)
    with caplog.at_level(logging.ERROR, logger="digstack.dnsserver"):
        with UdpDnsServer(directory.answer) as server, client() as sock:
            query = DnsMessage(header=DnsHeader(id=9), questions=(Question(DomainName.from_text("x"), RType.SRV),))
            sock.sendto(encode(query), server.address)  # its reply is lost to the failure
            _, reply = ask(sock, server.address, fixtures.INSTANCE_NAME, RType.SRV, qid=10)
            assert reply.header.id == 10 and reply.header.rcode == 0 and len(reply.answers) == 1
    assert len(failures) == 1
    assert [r.exc_info[1].args for r in caplog.records if r.exc_info] == [("cut failed",)]


def test_a_server_never_started_stops_at_once():
    server = DigcoveryHttpServer(Digcovery())
    stopper = threading.Thread(target=server.stop, daemon=True)
    stopper.start()
    stopper.join(timeout=1.0)
    assert not stopper.is_alive()


def test_an_ipv6_host_listens_on_ipv6():
    directory = Digrectory(fixtures.DOMAIN)
    directory.register(fixtures.light_lab_entry())
    with UdpDnsServer(directory.answer, host="::1") as dns, client(socket.AF_INET6) as sock:
        assert dns.address[0] == "::1"
        _, reply = ask(sock, dns.address, fixtures.INSTANCE_NAME, RType.SRV, qid=11)
        assert reply.header.rcode == 0 and reply.answers[0].rdata.port == 1234
    with DigcoveryHttpServer(Digcovery(), host="::1") as http:
        assert http.url == f"http://[::1]:{http.address[1]}"
        HttpDigcoveryClient(http.url).register_domain(DomainRecord(fixtures.DOMAIN, "::1", 5300))
        assert [d["host"] for d in HttpDigcoveryClient(http.url).domains()] == ["::1"]
