"""Tests of the benchmark itself (not collected by the library's test run).

Run from the root of a checkout:

    python3 -m pytest -q benchmarks/selftest.py
"""

from __future__ import annotations

import inspect
import sys
import tempfile
from collections import Counter
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import workloads  # noqa: E402
from tracer import LAYERS, PACKAGE, Tracer  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_digest(workload):
    assert workloads.digest(workloads.generate(workload, 7)) == workloads.digest(
        workloads.generate(workload, 7)
    )


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_other_seed_same_classes_and_proportions(workload):
    a = workloads.generate(workload, 7)
    b = workloads.generate(workload, 8)
    assert workloads.digest(a) != workloads.digest(b)
    assert [s["kind"] for s in a] != [s["kind"] for s in b]  # shuffled differently
    assert Counter(s["kind"] for s in a) == Counter(s["kind"] for s in b)
    cycle, cycles = workloads.CYCLES[workload]
    assert Counter(s["kind"] for s in a) == {kind: n * cycles for kind, n in cycle}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_defect_probes_are_seeded_and_untimed(workload):
    a = workloads.generate_probes(workload, 7)
    b = workloads.generate_probes(workload, 7)
    c = workloads.generate_probes(workload, 8)
    assert workloads.digest(a) == workloads.digest(b)
    fixed = len(workloads.REPRODUCERS[workload])
    assert a[:fixed] == c[:fixed] == workloads.REPRODUCERS[workload]
    seeded = Counter(s["kind"] for s in a[fixed:])
    assert seeded == Counter(s["kind"] for s in c[fixed:]) == dict(workloads.PROBES[workload])
    if seeded:
        assert a[fixed:] != c[fixed:]
    timed = {kind for kind, _ in workloads.CYCLES[workload][0]}
    assert not timed & {s["kind"] for s in a}


def _library_attrs():
    """Every module-level and class-level attribute of the traced modules."""
    import importlib

    out = {}
    for modname in [PACKAGE] + [f"{PACKAGE}.{layer}" for layer in LAYERS]:
        mod = importlib.import_module(modname)
        for name, obj in vars(mod).items():
            out[(modname, name)] = obj
            if inspect.isclass(obj) and obj.__module__ == modname:
                for attr, val in vars(obj).items():
                    out[(modname, name, attr)] = val
    return out


def test_traced_jobs_restore_every_wrapped_callable():
    import concavekit.bbl
    import concavekit.means

    before = _library_attrs()
    tracer = Tracer()
    with tempfile.TemporaryDirectory() as workdir:
        jobs = []
        for workload in workloads.WORKLOADS:
            first = {}
            for spec in workloads.generate(workload, 3):
                first.setdefault(spec["kind"], spec)
            small = [s for s in first.values() if not s["kind"].endswith("_large")]
            jobs += workloads.prepare(workload, small, workdir)
        tracer.install()
        try:
            assert concavekit.bbl.mean_p is not before[("concavekit.means", "mean_p")]
            assert concavekit.bbl.mean_p is concavekit.means.mean_p
            for job in jobs:
                frame = tracer.begin_job(job.index)
                job.call()
                tracer.end_job(frame)
        finally:
            tracer.uninstall()
    assert tracer.patched_sites()
    assert tracer.restored()
    after = _library_attrs()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []

    metrics = {name: value for name, (value, _unit) in tracer.metrics().items()}
    for name in ("means.mean_p.calls", "bbl.calls", "convolve.calls", "concavity.pairs", "optimize.calls", "cli.calls"):
        assert metrics[name] > 0, name
    total = sum(tracer.layer_self(layer) for layer in tracer.layer_names)
    wall = tracer.stats[0].incl_s  # the harness job spans
    assert total == pytest.approx(wall, rel=1e-9)
