"""The UDP DNS server shell: truncation, SERVFAIL, and staying up."""

from __future__ import annotations

import socket

from digstack import dnsserver, fixtures
from digstack.digrectory import Digrectory
from digstack.dnscodec import DnsHeader, DnsMessage, DomainName, Question, RType, decode, encode
from digstack.dnsserver import UdpDnsServer


def ask(sock: socket.socket, address, name: str, rrtype: RType, qid: int) -> tuple[bytes, DnsMessage]:
    query = DnsMessage(header=DnsHeader(id=qid), questions=(Question(DomainName.from_text(name), rrtype),))
    sock.sendto(encode(query), address)
    wire = sock.recvfrom(65535)[0]
    return wire, decode(wire)


def client() -> socket.socket:
    sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
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

    server = UdpDnsServer(answer).start()
    try:
        with client() as sock:
            query = DnsMessage(header=DnsHeader(id=7), questions=(Question(DomainName.from_text("x"), RType.TXT),))
            sock.sendto(encode(query), server.address)
            _, reply = ask(sock, server.address, fixtures.INSTANCE_NAME, RType.SRV, qid=8)
            assert reply.header.id == 8 and reply.header.rcode == 0
    finally:
        server.stop()
    assert not server._thread.is_alive()
