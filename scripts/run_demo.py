#!/usr/bin/env python3
"""End-to-end loopback demo: two local directories publish into the global
lookup service, a client discovers domains by service pattern, then resolves
one instance down to host, port, address, and metadata over plain DNS.

Everything runs in this process on 127.0.0.1; no hardware or network needed.

    python scripts/run_demo.py
"""
from __future__ import annotations

import ipaddress

from digstack import fixtures, netsim
from digstack.digcovery import Digcovery, DomainRecord, GeoPoint
from digstack.digrectory import DirectoryEntry, Digrectory, PointerPublisher, resolve_instance
from digstack.dnscodec import DomainName, RType, SrvData
from digstack.dnsserver import UdpDnsServer
from digstack.lmdns import UdpTransport, ask
from digstack.semantics import ServiceMetadata
from digstack.webapi import DigcoveryHttpServer, HttpDigcoveryClient, dns_front_answer


def greenhouse_entries(domain: str) -> list[DirectoryEntry]:
    """A second campus: one thermostat and one CO2 sensor."""
    thermo = DirectoryEntry(
        instance="thermo_house",
        domain=domain,
        ptr_paths=("_thermo._sub._coap._udp", "_coap._udp"),
        srv=SrvData(0, 0, 5683, DomainName.from_text(f"node1.{domain}")),
        meta=ServiceMetadata(rt="temperature", model="t300", if_="core.s", verbs=["status"]),
        addr6=ipaddress.IPv6Address("2001:db8:77::10").packed,
        geo=GeoPoint(38.004, -1.168),
    )
    co2 = DirectoryEntry(
        instance="co2_house",
        domain=domain,
        ptr_paths=("_gas._sub._coap._udp", "_coap._udp"),
        srv=SrvData(0, 0, 5684, DomainName.from_text(f"node2.{domain}")),
        meta=ServiceMetadata(rt="co2", model="g90", if_="core.s", verbs=["status"]),
        addr6=ipaddress.IPv6Address("2001:db8:77::11").packed,
        geo=GeoPoint(38.0041, -1.1682),
    )
    return [thermo, co2]


def main() -> None:
    # --- global tier: lookup service with an HTTP API and a DNS front ------
    core = Digcovery()
    api = DigcoveryHttpServer(core, "127.0.0.1", 0)
    api.start()
    front = UdpDnsServer(lambda msg: dns_front_answer(core, msg), "127.0.0.1", 0)
    front.start()
    print(f"lookup service   http {api.url}   dns udp {front.address[0]}:{front.address[1]}")

    # --- local tier: two directories, each behind its own DNS endpoint -----
    lab = Digrectory("rd.esiot.com")
    lab.register(fixtures.light_lab_entry())
    house = Digrectory("rd.greenhouse.example")
    for entry in greenhouse_entries("rd.greenhouse.example"):
        house.register(entry)

    servers: list[UdpDnsServer] = []
    client = HttpDigcoveryClient(api.url)
    transport = UdpTransport(("127.0.0.1", 0))
    try:
        for directory in (lab, house):
            server = UdpDnsServer(directory.answer, "127.0.0.1", 0)
            server.start()
            servers.append(server)
            client.register_domain(
                DomainRecord(directory.domain, server.address[0], server.address[1])
            )
            shipped = PointerPublisher(directory, client).publish()
            print(
                f"directory        {directory.domain:<24} dns udp "
                f"{server.address[0]}:{server.address[1]}   published {shipped} pointers"
            )

        # --- discovery: pattern over HTTP, then the same over plain DNS ----
        print()
        for pattern in ("*.*", "_lamp.*", "_gas.*"):
            domains = [hit["domain"] for hit in client.discover(pattern)]
            print(f"discover {pattern:<12} -> {', '.join(domains) or '(nothing)'}")
        reply = ask(transport, front.address, "_lamp.*", RType.PTR, 2.0)
        ptr_domains = sorted(str(rr.rdata) for rr in reply.answers)
        print(f"dns ptr  _lamp.*      -> {', '.join(ptr_domains)}")

        # --- structured query: everything readable in one domain -----------
        hits = client.query({"term": {"domain": "rd.greenhouse.example"}})
        names = sorted({hit["instance"] for hit in hits["results"]})
        print(f"query    by domain    -> {', '.join(names)}")

        # --- resolution: walk one instance down to the wire -----------------
        print()
        hit = client.query({"wildcard": "_lamp.*"})["results"][0]
        endpoint = next(d for d in client.discover("_lamp.*") if d["domain"] == hit["domain"])
        addr = (endpoint["host"], endpoint["dns_port"])
        name = f"{hit['instance']}.{hit['domain']}"
        records = resolve_instance(lambda owner, rrtype: ask(transport, addr, owner, rrtype, 2.0), name)
        srv, meta = records.srv, records.meta
        print(f"resolve {name}")
        print(f"  host {srv.target} port {srv.port} addr {ipaddress.IPv6Address(records.addr6)}")
        print(f"  rt={meta.rt} model={meta.model} if={meta.if_} verbs={','.join(meta.verbs)}")

        # --- what the optimized replies cost on a 127-byte radio link ------
        print()
        print(f"frame budget: {netsim.FRAME_SIZE}-byte frames, {netsim.FrameBudget().overhead}-byte overhead")
        for label, original, optimized in fixtures.frame_comparison_pairs():
            orig, opt = netsim.simulate_exchange([original, optimized])
            print(
                f"  {label:<10} {orig.frames} frame(s) -> {opt.frames},"
                f" {orig.nbytes - opt.nbytes} bytes saved"
            )
    finally:
        transport.close()
        for server in servers:
            server.stop()
        front.stop()
        api.stop()


if __name__ == "__main__":
    main()
