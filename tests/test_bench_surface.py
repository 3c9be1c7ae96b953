"""The program surface that the benchmark in perfbench/ imports and patches.

The benchmark's own smoke test is not part of this suite, so a deletion
that breaks its imports or its tracer would otherwise go unnoticed here.
"""

from __future__ import annotations

from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture()
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    # importing these fails on any program name they import that is gone
    import paper  # noqa: F401
    import tracing
    import workloads  # noqa: F401

    return tracing


def test_every_traced_entry_point_exists(tracing):
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _name, _detail in tracing.ENTRY_POINTS
        if not hasattr(owner, attr)
    ]
    assert missing == []


def test_tracer_install_patches_and_restores_each_entry_point(tracing):
    originals = [getattr(owner, attr) for owner, attr, _name, _detail in tracing.ENTRY_POINTS]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        patched = [getattr(owner, attr) for owner, attr, _name, _detail in tracing.ENTRY_POINTS]
    finally:
        tracer.uninstall()
    assert [p.__wrapped__ for p in patched] == originals
    assert [getattr(owner, attr) for owner, attr, _name, _detail in tracing.ENTRY_POINTS] == originals


def test_paper_checks_report_no_problems(tracing):
    # c01-c03 as the benchmark checks them in every run; one problem
    # marks every benchmark run incorrect.
    import paper  # on the path that the fixture set

    _counts, problems = paper.check()
    assert problems == []


def test_http_replies_go_through_the_traced_core_methods(tracing):
    # the per-layer metrics read the core's spans; a reply path that went
    # around `execute_cached` or `discover` would make them read 0
    import samples
    from digstack.digcovery import Digcovery, DomainRecord
    from digstack.webapi import DigcoveryHttpServer, HttpDigcoveryClient

    tracer = tracing.Tracer()
    tracer.install()
    try:
        with DigcoveryHttpServer(Digcovery()) as server:
            client = HttpDigcoveryClient(server.url)
            client.register_domain(DomainRecord("rd.esiot.com", "127.0.0.1", 5300))
            client.publish_pointers("rd.esiot.com", samples.campus_summaries())
            tracer.enabled = True
            assert len(client.query({"bool": {}})["results"]) == 5
            assert [d["domain"] for d in client.discover("_lamp.*")] == ["rd.esiot.com"]
            tracer.enabled = False
    finally:
        tracer.uninstall()
    names = {span[1] for span in tracer.spans}
    assert {"digcovery.parse_query", "digcovery.execute_cached", "digcovery.discover"} <= names
