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
