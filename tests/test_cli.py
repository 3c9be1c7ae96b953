"""CLI verbs in-process plus daemon round trips over real sockets."""

from __future__ import annotations

import json
import os
import queue
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from digstack import fixtures
from digstack.cli import main
from digstack.digcovery import Digcovery, DomainRecord
from digstack.digrectory import Digrectory
from digstack.dnsserver import UdpDnsServer
from digstack.webapi import DigcoveryHttpServer
import samples


def run_cli(capsys, argv: list[str]) -> tuple[int, str]:
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def entry_file(tmp_path, entries=None) -> str:
    path = tmp_path / "objects.json"
    rows = entries if entries is not None else [fixtures.light_lab_entry().to_dict()]
    path.write_text(json.dumps(rows))
    return str(path)


# --- local verbs --------------------------------------------------------------------


def test_compare_frames_reference_numbers(capsys):
    code, out = run_cli(capsys, ["--json", "compare-frames"])
    assert code == 0
    report = json.loads(out)
    by_pair = {r["pair"]: r for r in report["pairs"]}
    srv = by_pair["srv-lookup"]
    assert (srv["original_bytes"], srv["optimized_bytes"]) == (181, 79)
    assert (srv["frames_original"], srv["frames_optimized"]) == (3, 1)
    txt = by_pair["txt-metadata"]
    assert (txt["original_bytes"], txt["optimized_bytes"]) == (221, 130)
    assert (txt["frames_original"], txt["frames_optimized"]) == (3, 2)
    assert txt["bytes_saved"] == 91
    # frames per form across the 26-41 byte overhead band
    band = [(b["overhead"], b["original"], b["optimized"]) for b in srv["band"]]
    assert band == [(26, 2, 1), (31, 2, 1), (36, 2, 1), (41, 3, 1)]
    band = [(b["overhead"], b["original"], b["optimized"]) for b in txt["band"]]
    assert band == [(26, 3, 2), (31, 3, 2), (36, 3, 2), (41, 3, 2)]


def test_compare_frames_text_table(capsys):
    code, out = run_cli(capsys, ["compare-frames"])
    assert code == 0
    assert "srv-lookup" in out and "3 -> 1" in out
    rows = {tuple(line.split()[:2]): line.split()[2:] for line in out.splitlines()[-4:]}
    assert rows[("srv-lookup", "original")] == ["2", "2", "2", "3"]
    assert rows[("txt-metadata", "optimized")] == ["2", "2", "2", "2"]


def test_expand_txt_round(capsys):
    code, out = run_cli(
        capsys, ["expand-txt", "r=light;i=2;l=86400;m=dimmer;f=EIB;area=1;zone=2;deviceID=3|value;onoff"]
    )
    assert code == 0
    assert out.strip() == fixtures.JOINED_TXT.decode()
    code, _ = run_cli(capsys, ["expand-txt", "i=2;l=60"])
    assert code == 1


def test_expand_txt_json_format(capsys):
    code, out = run_cli(
        capsys, ["--json", "expand-txt", "r=light;i=2;l=86400;m=dimmer;f=EIB;area=1;zone=2;deviceID=3|value;onoff"]
    )
    assert code == 0
    assert out == (
        '{"rt": "light", "ins": 2, "lt": 86400, "model": "dimmer", "if": "EIB", "verbs": ["value", "onoff"], '
        '"extra": {"area": "1", "zone": "2", "deviceID": "3"}}\n'
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["resolve", "a", "b", "--dns", "127.0.0.1:abc"],
        ["resolve", "a", "b", "--dns", "127.0.0.1:99999"],
        ["resolve", "a", "b", "--dns", "127.0.0.1:-1"],
        ["digrectory", "--domain", "x", "--listen", "127.0.0.1:70000"],
        ["digcovery", "--listen", "127.0.0.1:", "--dns-listen", "127.0.0.1:0"],
        ["digcovery", "--listen", "127.0.0.1:0", "--dns-listen", "127.0.0.1:65536"],
    ],
)
def test_bad_port_exits_one_with_a_message(argv, capsys):
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("digstack: bad port in ")


@pytest.mark.parametrize(
    "argv",
    [
        ["resolve", "a", "b", "--dns", "::1:5300"],
        ["resolve", "a", "b", "--dns", "[::1"],
        ["digrectory", "--domain", "x", "--listen", "::1"],
        ["digcovery", "--listen", "127.0.0.1:0", "--dns-listen", "[::1]5453"],
    ],
)
def test_bad_ipv6_address_exits_one_with_a_message(argv, capsys):
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("digstack: bad address ")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["digrectory", "--domain", "x", "--listen", "192.0.2.1:0"], "digstack: listen 192.0.2.1:0: "),
        (["digcovery", "--listen", "192.0.2.1:0", "--dns-listen", "127.0.0.1:0"], "digstack: listen 192.0.2.1:0: "),
        (["digcovery", "--listen", "127.0.0.1:0", "--dns-listen", "192.0.2.1:0"], "digstack: dns-listen 192.0.2.1:0: "),
    ],
)
def test_unbindable_listen_address_exits_one(argv, message, capsys):
    # 192.0.2.1 (TEST-NET-1) is not an address of this host, so bind fails
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(message)


def test_config_that_is_not_an_object_exits_one(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text("[]")
    assert main(["digcovery", "--config", str(config), "--listen", "127.0.0.1:0"]) == 1
    assert capsys.readouterr().err == "digstack: config: expected a JSON object, got list\n"


def test_register_without_publish(tmp_path, capsys):
    journal = tmp_path / "dir.journal"
    code, out = run_cli(
        capsys, ["register", entry_file(tmp_path), "--journal", str(journal)]
    )
    assert code == 0 and "created light_lab" in out
    # same content again: the journal replays, the entry just refreshes
    code, out = run_cli(
        capsys, ["register", entry_file(tmp_path), "--journal", str(journal)]
    )
    assert code == 0 and "refreshed light_lab" in out


def test_register_bad_file_exits_one(tmp_path, capsys):
    path = tmp_path / "objects.json"
    path.write_text(json.dumps([{"instance": "x"}]))
    assert main(["register", str(path)]) == 1
    path.write_text("not json")
    assert main(["register", str(path)]) == 1
    path.write_text("[1]")
    assert main(["register", str(path)]) == 1
    assert main(["register", str(tmp_path / "missing.json")]) == 1


@pytest.mark.parametrize(
    "field, value",
    [("instance", 5), ("domain", 5), ("hostname", 5), ("ptr_paths", "_coap._udp"),
     ("geo", {"lat": "38", "lon": -1.1}), ("geo", {"lat": False, "lon": -1.1}),
     ("meta", {"rt": "light", "verbs": "onoff"}), pytest.param("instance", "i" * 64, id="instance-label"),
     pytest.param("hostname", "h" * 64 + ".rd.esiot.com", id="hostname-label"),
     pytest.param("meta", {"rt": "light", "extra": {"note": "n" * 250}}, id="txt-string"),
     ("port", "1234"), pytest.param("geo", {"lat": 38.0, "lon": float("nan")}, id="geo-nan")],
)
def test_register_entry_with_a_mistyped_field_exits_one(tmp_path, capsys, field, value):
    path = entry_file(tmp_path, [dict(fixtures.light_lab_entry().to_dict(), **{field: value})])
    journal = tmp_path / "dir.journal"
    assert main(["register", path, "--journal", str(journal)]) == 1
    assert capsys.readouterr().err.startswith(f"digstack: {path}: entry 1: ")
    assert not journal.exists() or journal.read_text() == ""  # nothing was journaled


def test_unservable_journal_line_stops_the_directory_with_its_line(tmp_path, capsys):
    journal = tmp_path / "dir.journal"
    bad = dict(fixtures.light_lab_entry().to_dict(), hostname="h" * 64 + ".rd.esiot.com")
    journal.write_text(json.dumps({"op": "register", "entry": bad}) + "\n")
    argv = ["digrectory", "--domain", fixtures.DOMAIN, "--journal", str(journal), "--listen", "127.0.0.1:0"]
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("digstack: journal: entry 1: label of 64 bytes")


def test_config_with_a_non_integer_port_exits_one(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"domains": [{"domain": "d", "host": "127.0.0.1", "dns_port": True}]}))
    # the config is read before any socket is bound, so an unbindable
    # address is never reached
    assert main(["digcovery", "--config", str(config), "--listen", "192.0.2.1:0"]) == 1
    assert capsys.readouterr().err.startswith("digstack: config: dns_port and http_port")


def test_register_domain_mismatch_exits_one(tmp_path, capsys):
    code, _ = run_cli(
        capsys,
        ["register", entry_file(tmp_path), "--domain", "rd.other.org"],
    )
    assert code == 1


# --- against an in-process lookup service ---------------------------------------------


@pytest.fixture()
def stack(tmp_path):
    """Lookup service plus one populated directory, all on loopback."""
    core = Digcovery()
    http = DigcoveryHttpServer(core).start()
    directory = Digrectory(fixtures.DOMAIN)
    directory.register(fixtures.light_lab_entry())
    dns = UdpDnsServer(directory.answer).start()
    core.register_domain(
        DomainRecord(fixtures.DOMAIN, dns.address[0], dns.address[1], owner="test")
    )
    core.ingest(fixtures.DOMAIN, directory.pointer_summaries())
    try:
        yield http.url, dns.address
    finally:
        dns.stop()
        http.stop()


def test_discover_pattern_and_exit_codes(stack, capsys):
    url, _ = stack
    code, out = run_cli(capsys, ["--json", "--digcovery", url, "discover", "_lamp.*"])
    assert code == 0
    assert json.loads(out)["domains"][0]["domain"] == fixtures.DOMAIN
    code, _ = run_cli(capsys, ["--digcovery", url, "discover", "_nothing._here"])
    assert code == 2
    code, _ = run_cli(capsys, ["--digcovery", url, "discover", "bad..pattern"])
    assert code == 1


def test_discover_query_file(stack, tmp_path, capsys):
    url, _ = stack
    qfile = tmp_path / "query.json"
    qfile.write_text(json.dumps({"query": samples.campus_box_query()}))
    code, out = run_cli(capsys, ["--json", "--digcovery", url, "discover", "--query", str(qfile)])
    assert code == 0
    hits = json.loads(out)["results"]
    # one hit per advertised service path, all for the geo-tagged light
    assert {h["instance"] for h in hits} == {"light_lab"}
    assert len(hits) == 5

    qfile.write_text(json.dumps({"term": {"rt": "uranium"}}))
    code, _ = run_cli(capsys, ["--digcovery", url, "discover", "--query", str(qfile)])
    assert code == 2

    qfile.write_text(json.dumps({"fuzzy": {}}))
    code, _ = run_cli(capsys, ["--digcovery", url, "discover", "--query", str(qfile)])
    assert code == 1


def test_resolve_via_lookup_and_direct(stack, capsys):
    url, dns_addr = stack
    code, out = run_cli(
        capsys, ["--json", "--digcovery", url, "resolve", "light_lab", fixtures.DOMAIN]
    )
    assert code == 0
    row = json.loads(out)
    assert row["host"] == fixtures.HOSTNAME and row["port"] == 1234
    assert "2001:720:1710::11" in row["addrs"] and "155.54.210.163" in row["addrs"]
    assert row["txt"] == [fixtures.JOINED_TXT.decode()]

    direct = f"{dns_addr[0]}:{dns_addr[1]}"
    code, out = run_cli(
        capsys, ["--json", "resolve", "light_lab", fixtures.DOMAIN, "--dns", direct]
    )
    assert code == 0 and json.loads(out)["port"] == 1234

    code, _ = run_cli(capsys, ["--digcovery", url, "resolve", "ghost", fixtures.DOMAIN])
    assert code == 2
    code, _ = run_cli(capsys, ["--digcovery", url, "resolve", "x", "unregistered.example"])
    assert code == 2


def test_unreachable_lookup_service_exits_one(capsys):
    code, _ = run_cli(
        capsys,
        ["--digcovery", "http://127.0.0.1:1", "--timeout", "0.3", "discover", "*.*"],
    )
    assert code == 1


# --- daemon subprocesses --------------------------------------------------------------


def spawn(argv: list[str]):
    proc = subprocess.Popen(
        [sys.executable, "-m", "digstack.cli", "--json", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env={**os.environ, "PYTHONUNBUFFERED": "1"},
    )
    lines: queue.Queue = queue.Queue()
    threading.Thread(target=lambda: lines.put(proc.stdout.readline()), daemon=True).start()
    try:
        ready = json.loads(lines.get(timeout=15))
    except (queue.Empty, json.JSONDecodeError):
        proc.terminate()
        _, err = proc.communicate(timeout=10)  # and close the pipes, so no other test sees them unclosed
        raise AssertionError(f"daemon not ready: {err}")
    assert ready.get("ready") is True
    return proc, ready


def stop(proc) -> None:
    proc.send_signal(signal.SIGTERM)
    try:
        proc.wait(timeout=10)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait(timeout=10)
    proc.stdout.close()
    proc.stderr.close()


def run_verb(*argv: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "digstack.cli", "--json", *argv],
        capture_output=True,
        text=True,
        timeout=30,
    )


def until_ok(*argv: str, seconds: float = 15.0) -> subprocess.CompletedProcess:
    """Run a client verb until it exits 0 or the deadline passes."""
    deadline = time.monotonic() + seconds
    result = run_verb(*argv)
    while result.returncode != 0 and time.monotonic() < deadline:
        time.sleep(0.2)
        result = run_verb(*argv)
    return result


def test_daemons_end_to_end(tmp_path):
    """The README order: lookup daemon, directory daemon, then register."""
    lookup, ready = spawn(["digcovery", "--listen", "127.0.0.1:0", "--dns-listen", "127.0.0.1:0"])
    try:
        url = ready["http"]
        journal = tmp_path / "daemon.journal"
        seed = fixtures.light_lab_entry()
        seed.instance = "thermo_seed"
        seed.ptr_paths = ("_thermo._sub._coap._udp",)
        Digrectory(fixtures.DOMAIN, journal_path=str(journal)).register(seed)

        directory_proc, _ = spawn(
            [
                "--digcovery",
                url,
                "digrectory",
                "--domain",
                fixtures.DOMAIN,
                "--listen",
                "127.0.0.1:0",
                "--journal",
                str(journal),
                "--publish",
                "--publish-interval",
                "0.2",
            ]
        )
        try:
            # the entry replayed at start-up is published and resolvable
            found = until_ok("--digcovery", url, "discover", "_thermo.*")
            assert found.returncode == 0, found.stderr
            resolved = run_verb("--digcovery", url, "resolve", "thermo_seed", fixtures.DOMAIN)
            assert resolved.returncode == 0, resolved.stderr

            # register only appends; the running daemon picks the entry up
            registered = run_verb("register", entry_file(tmp_path), "--journal", str(journal))
            assert registered.returncode == 0, registered.stderr
            report = json.loads(registered.stdout)
            assert report["entries"] == [{"instance": "light_lab", "outcome": "created"}]

            found = until_ok("--digcovery", url, "discover", "_lamp.*")
            assert found.returncode == 0, found.stderr
            assert json.loads(found.stdout)["domains"][0]["domain"] == fixtures.DOMAIN
            resolved = run_verb("--digcovery", url, "resolve", "light_lab", fixtures.DOMAIN)
            assert resolved.returncode == 0, resolved.stderr
            assert json.loads(resolved.stdout)["port"] == 1234
        finally:
            stop(directory_proc)
    finally:
        stop(lookup)


def test_daemons_end_to_end_over_ipv6(tmp_path):
    lookup, ready = spawn(["digcovery", "--listen", "[::1]:0", "--dns-listen", "[::1]:0"])
    try:
        url = ready["http"]
        assert url.startswith("http://[::1]:") and ready["dns"].startswith("[::1]:")
        journal = tmp_path / "daemon.journal"
        directory_proc, directory_ready = spawn(
            ["--digcovery", url, "digrectory", "--domain", fixtures.DOMAIN, "--listen", "[::1]:0",
             "--journal", str(journal), "--publish", "--publish-interval", "0.2"]
        )
        try:
            registered = run_verb("register", entry_file(tmp_path), "--journal", str(journal))
            assert registered.returncode == 0, registered.stderr
            found = until_ok("--digcovery", url, "discover", "_lamp.*")
            assert found.returncode == 0, found.stderr
            (domain,) = json.loads(found.stdout)["domains"]
            assert domain["host"] == "::1"  # a bare address, as a client asks it
            resolved = run_verb("--digcovery", url, "resolve", "light_lab", fixtures.DOMAIN)
            assert resolved.returncode == 0, resolved.stderr
            assert json.loads(resolved.stdout)["port"] == 1234
            direct = run_verb("resolve", "light_lab", fixtures.DOMAIN, "--dns", directory_ready["dns"])
            assert direct.returncode == 0, direct.stderr
        finally:
            stop(directory_proc)
    finally:
        stop(lookup)


def test_bare_dns_listen_host_takes_the_option_default_port():
    lookup, ready = spawn(["digcovery", "--listen", "127.0.0.1:0", "--dns-listen", "127.0.0.1"])
    stop(lookup)
    assert ready["dns"] == "127.0.0.1:5453"


def test_daemon_exits_one_on_a_bad_journal_line(tmp_path):
    journal = tmp_path / "daemon.journal"
    journal.write_text("")
    proc, _ = spawn(
        [
            "digrectory",
            "--domain",
            fixtures.DOMAIN,
            "--listen",
            "127.0.0.1:0",
            "--journal",
            str(journal),
            "--publish-interval",
            "0.1",
        ]
    )
    try:
        with journal.open("a") as fh:
            fh.write('{"op": "register", "entry": {"instance": "x"}}\n')
        assert proc.wait(timeout=15) == 1
        err = proc.stderr.read()
        assert "entry 1" in err and "Traceback" not in err
    finally:
        stop(proc)


def test_failed_publish_is_reported_and_the_daemon_keeps_serving(tmp_path):
    journal = tmp_path / "daemon.journal"
    journal.write_text("")
    lookup, ready = spawn(["digcovery", "--listen", "127.0.0.1:0", "--dns-listen", "127.0.0.1:0"])
    try:
        directory_proc, _ = spawn(
            [
                "--digcovery",
                ready["http"],
                "digrectory",
                "--domain",
                fixtures.DOMAIN,
                "--listen",
                "127.0.0.1:0",
                "--journal",
                str(journal),
                "--publish",
                "--publish-interval",
                "0.1",
            ]
        )
    finally:
        stop(lookup)
    lines: queue.Queue = queue.Queue()

    def read_stderr() -> None:
        for line in directory_proc.stderr:
            lines.put(line)

    reader = threading.Thread(target=read_stderr, daemon=True)
    reader.start()
    try:
        # the lookup service is gone, so publishing this entry fails every tick
        registered = run_verb("register", entry_file(tmp_path), "--journal", str(journal))
        assert registered.returncode == 0, registered.stderr
        for _ in range(2):
            assert lines.get(timeout=15).startswith("digstack: publish: ")
        assert directory_proc.poll() is None
    finally:
        directory_proc.terminate()
        directory_proc.wait(timeout=10)
        reader.join(timeout=10)
        stop(directory_proc)


def test_demo_script_runs():
    root = Path(__file__).resolve().parents[1]
    result = subprocess.run(
        [sys.executable, str(root / "scripts" / "run_demo.py")],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": str(root / "src")},
    )
    assert result.returncode == 0, result.stderr
