"""The digstack command: directory and lookup daemons, plus client verbs.

Exit codes: 0 on success, 1 for transport, configuration, or parse
trouble, 2 when the thing asked for does not exist.
"""

from __future__ import annotations

import argparse
import ipaddress
import json
import os
import signal
import sys
import threading
from pathlib import Path

from . import fixtures, netsim
from .digcovery import Digcovery, DomainRecord, MalformedPattern, MalformedQuery, parse_query
from .digrectory import (
    DirectoryError,
    Digrectory,
    ParseError,
    PointerPublisher,
    load_entry_file,
)
from .dnscodec import RType
from .dnsserver import UdpDnsServer
from .lmdns import UdpTransport, ask
from .semantics import SemanticsError, expand_txt, to_txt
from .webapi import (
    ApiError,
    DigcoveryHttpServer,
    EndpointUnreachable,
    HttpDigcoveryClient,
    dns_front_answer,
)

DEFAULT_DIGCOVERY_URL = "http://127.0.0.1:8460"

OK, TROUBLE, NOT_FOUND = 0, 1, 2


def _emit(args, payload: dict, plain: str) -> None:
    print(json.dumps(payload) if args.json else plain)
    sys.stdout.flush()


def _fail(message: str) -> int:
    print(f"digstack: {message}", file=sys.stderr)
    return TROUBLE


class BadAddress(ValueError):
    """A host:port argument whose port is not an integer in 0-65535."""


def _hostport(text: str, default_port: int) -> tuple[str, int]:
    host, sep, port = text.rpartition(":")
    if not sep:
        return text, default_port
    if not (port.isascii() and port.isdigit() and int(port) <= 65535):
        raise BadAddress(f"bad port in {text!r}: expected an integer in 0-65535")
    return host, int(port)


def _client(args) -> HttpDigcoveryClient:
    return HttpDigcoveryClient(args.digcovery, timeout=args.timeout)


def _stop_event() -> threading.Event:
    """An event that SIGINT or SIGTERM sets."""
    stop = threading.Event()
    for sig in (signal.SIGINT, signal.SIGTERM):
        signal.signal(sig, lambda *_: stop.set())
    return stop


# --- daemons ---------------------------------------------------------------------


def cmd_digrectory(args) -> int:
    host, port = _hostport(args.listen, 5300)
    try:
        directory = Digrectory(args.domain, journal_path=args.journal)
    except ParseError as err:
        return _fail(f"journal: {err}")
    try:
        server = UdpDnsServer(directory.answer, host=host, port=port).start()
    except OSError as err:
        return _fail(f"listen {args.listen}: {err}")
    bound_host, bound_port = server.address

    publisher = None
    if args.publish:
        client = _client(args)
        try:
            client.register_domain(
                DomainRecord(args.domain, bound_host, bound_port, owner="digrectory")
            )
        except ApiError as err:
            if err.status != 409:
                server.stop()
                return _fail(str(err))
        except EndpointUnreachable as err:
            server.stop()
            return _fail(str(err))
        publisher = PointerPublisher(directory, client)

    _emit(
        args,
        {
            "ready": True,
            "role": "digrectory",
            "domain": args.domain,
            "dns": f"{bound_host}:{bound_port}",
            "entries": len(directory.live_entries()),
        },
        f"digrectory ready domain={args.domain} dns={bound_host}:{bound_port}",
    )

    stop = _stop_event()
    try:
        while not stop.is_set():
            stop.wait(args.publish_interval)
            directory.follow_journal()
            directory.expire_stale()
            if publisher is not None:
                try:
                    publisher.publish()
                except (EndpointUnreachable, ApiError) as err:
                    # keep serving; the next tick retries
                    print(f"digstack: publish: {err}", file=sys.stderr)
    except ParseError as err:
        return _fail(f"journal: {err}")
    finally:
        server.stop()
    return OK


def cmd_digcovery(args) -> int:
    http_host, http_port = _hostport(args.listen, 8460)
    dns_host, dns_port = _hostport(args.dns_listen, 5453)
    core = Digcovery()
    if args.config:
        try:
            config = json.loads(Path(args.config).read_text(encoding="utf-8"))
            if not isinstance(config, dict):
                return _fail(f"config: expected a JSON object, got {type(config).__name__}")
            for item in config.get("domains", ()):
                core.register_domain(DomainRecord.from_dict(item))
        except (OSError, ValueError, KeyError, TypeError) as err:
            return _fail(f"config: {err}")
    try:
        http = DigcoveryHttpServer(core, host=http_host, port=http_port).start()
    except OSError as err:
        return _fail(f"listen {args.listen}: {err}")
    try:
        dns = UdpDnsServer(lambda q: dns_front_answer(core, q), host=dns_host, port=dns_port).start()
    except OSError as err:
        http.stop()
        return _fail(f"dns-listen {args.dns_listen}: {err}")

    _emit(
        args,
        {
            "ready": True,
            "role": "digcovery",
            "http": http.url,
            "dns": "%s:%d" % dns.address,
        },
        f"digcovery ready http={http.url} dns=%s:%d" % dns.address,
    )
    try:
        _stop_event().wait()
    finally:
        dns.stop()
        http.stop()
    return OK


# --- client verbs -----------------------------------------------------------------


def cmd_register(args) -> int:
    try:
        entries = load_entry_file(args.file)
    except OSError as err:
        return _fail(str(err))
    except ParseError as err:
        return _fail(f"{args.file}: {err}")
    if not entries:
        return _fail(f"{args.file}: no entries")
    domain = args.domain or entries[0].domain
    try:
        directory = Digrectory(domain, journal_path=args.journal)
    except ParseError as err:
        return _fail(f"journal: {err}")
    outcomes = []
    try:
        for entry in entries:
            outcomes.append({"instance": entry.instance, "outcome": directory.register(entry)})
    except (DirectoryError, ValueError, OSError) as err:
        return _fail(str(err))
    _emit(
        args,
        {"domain": domain, "entries": outcomes},
        "\n".join(f"{o['outcome']} {o['instance']}" for o in outcomes),
    )
    return OK


def cmd_discover(args) -> int:
    client = _client(args)
    try:
        if args.query:
            try:
                body = json.loads(Path(args.query).read_text(encoding="utf-8"))
            except (OSError, json.JSONDecodeError) as err:
                return _fail(f"query file: {err}")
            try:
                parse_query(body)  # validate before shipping
            except (MalformedQuery, MalformedPattern) as err:
                return _fail(str(err))
            reply = client.query(body.get("query", body), offset=args.offset, limit=args.limit)
            hits = reply["results"]
            _emit(
                args,
                reply,
                "\n".join(f"{h['instance']}.{h['domain']} {h['service_path']}" for h in hits)
                or "(no results)",
            )
            return OK if hits else NOT_FOUND
        domains = client.discover(args.pattern)
        _emit(
            args,
            {"pattern": args.pattern, "domains": domains},
            "\n".join(f"{d['domain']} dns={d['host']}:{d['dns_port']}" for d in domains)
            or "(no matching domains)",
        )
        return OK if domains else NOT_FOUND
    except ApiError as err:
        _fail(str(err))
        return NOT_FOUND if err.status == 404 else TROUBLE
    except EndpointUnreachable as err:
        return _fail(str(err))


def cmd_resolve(args) -> int:
    if args.dns:
        host, port = _hostport(args.dns, 5300)
    else:
        try:
            rows = _client(args).domains()
        except (ApiError, EndpointUnreachable) as err:
            return _fail(str(err))
        match = [r for r in rows if r["domain"].lower() == args.domain.lower()]
        if not match:
            print(f"digstack: domain {args.domain} not registered", file=sys.stderr)
            return NOT_FOUND
        host, port = match[0]["host"], match[0]["dns_port"]

    name = f"{args.instance}.{args.domain}"
    transport = UdpTransport()
    try:
        srv_reply = ask(transport, (host, port), name, RType.SRV, args.timeout)
        if srv_reply is None:
            return _fail(f"no answer from {host}:{port}")
        if srv_reply.header.rcode != 0 or not srv_reply.answers:
            print(f"digstack: {name} not found", file=sys.stderr)
            return NOT_FOUND
        srv = srv_reply.answers[0].rdata
        target = str(srv.target)

        txt_reply = ask(transport, (host, port), name, RType.TXT, args.timeout)
        txt = ()
        if txt_reply and txt_reply.answers:
            txt = tuple(chunk.decode("utf-8", "replace") for chunk in txt_reply.answers[0].rdata)

        addrs = []
        for rrtype in (RType.AAAA, RType.A):
            reply = ask(transport, (host, port), target, rrtype, args.timeout)
            if reply and reply.answers:
                packed = reply.answers[0].rdata
                addrs.append(
                    str(ipaddress.IPv6Address(packed) if rrtype == RType.AAAA else ipaddress.IPv4Address(packed))
                )
    except OSError:
        return _fail(f"no answer from {host}:{port}")
    finally:
        transport.close()

    _emit(
        args,
        {
            "instance": name,
            "host": target,
            "port": srv.port,
            "addrs": addrs,
            "txt": list(txt),
        },
        f"{name} -> {target}:{srv.port} [{', '.join(addrs)}]\ntxt: {'; '.join(txt)}",
    )
    return OK


def cmd_compare_frames(args) -> int:
    budget = netsim.FrameBudget(overhead=args.overhead)
    band = range(netsim.MIN_OVERHEAD, netsim.MAX_OVERHEAD + 1, 5)
    rows = []
    for label, original, optimized in fixtures.frame_comparison_pairs():
        orig, opt = netsim.simulate_exchange([original, optimized], budget).messages
        rows.append(
            {
                "pair": label,
                "original_bytes": orig.nbytes,
                "optimized_bytes": opt.nbytes,
                "frames_original": orig.frames,
                "frames_optimized": opt.frames,
                "bytes_saved": orig.nbytes - opt.nbytes,
                "band": [
                    {
                        "overhead": oh,
                        "original": netsim.frames_required(orig.nbytes, netsim.FrameBudget(overhead=oh)),
                        "optimized": netsim.frames_required(opt.nbytes, netsim.FrameBudget(overhead=oh)),
                    }
                    for oh in band
                ],
            }
        )
    if args.json:
        print(json.dumps({"overhead": args.overhead, "pairs": rows}))
        return OK
    width = max(len(r["pair"]) for r in rows)
    print(f"{'pair':<{width}}  {'original':>10}  {'optimized':>10}  {'frames':>8}  {'saved':>6}")
    for r in rows:
        print(
            f"{r['pair']:<{width}}  "
            f"{r['original_bytes']:>9}B  {r['optimized_bytes']:>9}B  "
            f"{r['frames_original']:>3} -> {r['frames_optimized']}  {r['bytes_saved']:>5}B"
        )
    print(f"\nframes per form across the {band[0]}-{band[-1]} byte overhead band")
    print(f"{'pair':<{width}}  {'form':<9}" + "".join(f"  oh {oh:>2}" for oh in band))
    for r in rows:
        for form in ("original", "optimized"):
            print(f"{r['pair']:<{width}}  {form:<9}" + "".join(f"  {b[form]:>5}" for b in r["band"]))
    return OK


def cmd_expand_txt(args) -> int:
    try:
        meta = expand_txt(args.data)
    except (SemanticsError, ValueError) as err:
        return _fail(str(err))
    _emit(args, meta.to_dict(), to_txt(meta))
    return OK


# --- wiring -----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="digstack",
        description="Two-tier discovery for smart objects: local directories, global lookup.",
    )
    parser.add_argument("--json", action="store_true", help="machine-readable output")
    parser.add_argument(
        "--digcovery",
        default=os.environ.get("DIGCOVERY_URL", DEFAULT_DIGCOVERY_URL),
        help="lookup service base URL (env DIGCOVERY_URL)",
    )
    parser.add_argument("--timeout", type=float, default=5.0, help="network timeout in seconds")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("digrectory", help="run a local directory daemon")
    p.add_argument("--domain", required=True)
    p.add_argument("--listen", default="127.0.0.1:5300", help="DNS host:port (port 0 picks one)")
    p.add_argument("--journal", default=None, help="JSONL journal to replay, then follow every interval")
    p.add_argument("--publish", action="store_true", help="register with and publish to the lookup service")
    p.add_argument("--publish-interval", type=float, default=5.0)
    p.set_defaults(func=cmd_digrectory)

    p = sub.add_parser("digcovery", help="run the global lookup daemon")
    p.add_argument("--listen", default="127.0.0.1:8460", help="HTTP host:port")
    p.add_argument("--dns-listen", default="127.0.0.1:5453", help="DNS front host:port")
    p.add_argument("--config", default=None, help="JSON file with preregistered domains")
    p.set_defaults(func=cmd_digcovery)

    p = sub.add_parser("register", help="register smart objects from a JSON file")
    p.add_argument("file")
    p.add_argument("--domain", default=None, help="directory domain (defaults to the entries')")
    p.add_argument("--journal", default=None, help="directory journal to append to (omit to only validate)")
    p.set_defaults(func=cmd_register)

    p = sub.add_parser("discover", help="find domains by pattern, or run a query file")
    p.add_argument("pattern", nargs="?", default="*.*")
    p.add_argument("--query", default=None, help="JSON query file (overrides the pattern)")
    p.add_argument("--offset", type=int, default=0)
    p.add_argument("--limit", type=int, default=100)
    p.set_defaults(func=cmd_discover)

    p = sub.add_parser("resolve", help="resolve one instance through its directory")
    p.add_argument("instance")
    p.add_argument("domain")
    p.add_argument("--dns", default=None, help="ask this DNS host:port directly")
    p.set_defaults(func=cmd_resolve)

    p = sub.add_parser("compare-frames", help="frame cost of original vs optimized replies")
    p.add_argument("--overhead", type=int, default=netsim.MAX_OVERHEAD)
    p.set_defaults(func=cmd_compare_frames)

    p = sub.add_parser("expand-txt", help="expand a compacted TXT string")
    p.add_argument("data")
    p.set_defaults(func=cmd_expand_txt)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BadAddress as err:
        return _fail(str(err))
    except KeyboardInterrupt:
        return OK


if __name__ == "__main__":
    sys.exit(main())
