#!/usr/bin/env python3
"""Run one concavekit benchmark workload and print its metrics.

Usage, from the root of a checkout:

    python3 benchmarks/run.py --workload bbl_sweep --seed 1 --seconds 45 --trace 0

Workloads: ``bbl_sweep``, ``spacetime_check``, ``cli_mix`` (see
``workloads.py`` for what each one exercises and why).  ``BENCHMARK.json``
lists only ``bbl_sweep`` and ``cli_mix``: on a shared 2-vCPU host the
median job latency of ``spacetime_check`` spread by more than a quarter
between runs, so it cannot carry a regression bound; it still runs by name.  One client in one
process runs the seeded job list as a closed loop: the next job starts when
the previous one has finished, until ``--seconds`` have passed.  Every answer
is checked against the job's known truth.

With ``--trace 0`` the end-to-end metrics are printed: set-up time, job
latency (median and 90th percentile), jobs per second, the share of jobs
answered correctly, and peak RSS; on ``spacetime_check`` a summary line also
gives the share of error bars that miss.  Set-up
is measured three times (this process and two fresh ones) and the median is
reported.  With ``--trace 1`` the library is wrapped by the outside-in tracer
(``tracer.py``) and the per-layer metrics are printed instead; the traced
jobs are then replayed untraced to measure the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``failed`` counts the
timed jobs that raised an error or whose answer disagreed with their truth;
at the baseline it is 0.  The library has known defects (for example
coordinate ascent stalling on a ball constraint); the jobs that show them
are not timed but run as known-defect probes after the timed loop of every
untimed run, and a ``defects:`` line reports how many of them still fail.
``correct`` is false when the benchmark could not check the run: a set-up
probe generated a different job list, or the tracer did not restore the
library.  The library is imported from ``src/`` of the checkout
that holds this file; without it the benchmark exits with code 2.
"""

from __future__ import annotations

import os

THREAD_CAP = "1"
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = THREAD_CAP

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SETUP_PROBES = 2
PROBE_TIMEOUT_S = 60

class SetupError(RuntimeError):
    """The library or the benchmark inputs could not be set up."""


def import_library():
    """Import concavekit from this checkout's src/, and nowhere else."""
    pkg = SRC / "concavekit" / "__init__.py"
    if not pkg.is_file():
        raise SetupError(f"no concavekit sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import concavekit

    if Path(concavekit.__file__).resolve() != pkg.resolve():
        raise SetupError(f"imported concavekit from {concavekit.__file__}, not from {SRC}")
    return concavekit


def set_up(workload: str, seed: int, workdir: str):
    """Import, generate, prepare and warm up one job per class.

    Returns (seconds, specs, digest, jobs).  The clock starts before the
    library import, so lazy imports paid by the first job of a class (such
    as scipy.stats.qmc for the optimizer's start points) land here.
    """
    t0 = time.perf_counter()
    import_library()
    import workloads

    specs = workloads.generate(workload, seed)
    jobs = workloads.prepare(workload, specs, workdir)
    seen = set()
    for job in jobs:
        if job.kind not in seen:
            seen.add(job.kind)
            run_job(job, Outcomes())
    return time.perf_counter() - t0, specs, workloads.digest(specs), jobs


def probe_setup(workload: str, seed: int) -> tuple[float, str]:
    """Set-up time and job digest measured in a fresh interpreter."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--seed", str(seed), "--setup-only"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=str(ROOT))
    if proc.returncode != 0:
        raise SetupError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    return float(out["setup_s"]), out["digest"]


class Outcomes:
    """Latency, correctness and side counts of the jobs of one loop."""

    def __init__(self):
        self.latencies: list[float] = []
        self.kinds: list[str] = []
        self.failed_by_kind: dict[str, int] = {}
        self.errors: list[str] = []
        self.extra: dict[str, int] = {}
        self.jobs: list = []
        self.wall = 0.0

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def failed(self) -> int:
        return sum(self.failed_by_kind.values())

    def record(self, job, latency, ok, extra, error):
        self.jobs.append(job)
        self.latencies.append(latency)
        self.kinds.append(job.kind)
        if error is not None:
            self.errors.append(f"{job.kind}#{job.index}: {type(error).__name__}: {error}")
            ok = False
        if not ok:
            self.failed_by_kind[job.kind] = self.failed_by_kind.get(job.kind, 0) + 1
        for key, val in extra.items():
            self.extra[key] = self.extra.get(key, 0) + val


def run_job(job, out: Outcomes, tracer=None):
    frame = tracer.begin_job(job.index) if tracer is not None else None
    t0 = time.perf_counter()
    try:
        result = job.call()
        error = None
    except Exception as exc:  # a job that raises is a failed job, not a crash
        result, error = None, exc
    latency = time.perf_counter() - t0
    if frame is not None:
        tracer.end_job(frame)
    ok, extra = False, {}
    if error is None:
        try:
            ok, extra = job.check(result)
        except Exception as exc:  # an answer the check cannot read is wrong
            print(f"check of {job.kind}#{job.index} failed: {type(exc).__name__}: {exc}", file=sys.stderr)
    out.record(job, latency, ok, extra, error)


def closed_loop(jobs, seconds: float, tracer=None) -> Outcomes:
    out = Outcomes()
    t0 = time.perf_counter()
    deadline = t0 + seconds
    i = 0
    while time.perf_counter() < deadline:
        run_job(jobs[i % len(jobs)], out, tracer)
        i += 1
    out.wall = time.perf_counter() - t0
    return out


def replay(jobs) -> Outcomes:
    out = Outcomes()
    t0 = time.perf_counter()
    for job in jobs:
        run_job(job, out)
    out.wall = time.perf_counter() - t0
    return out


def run_defect_probes(workload: str, seed: int, workdir: str) -> dict:
    """Run the known-defect probes once, untimed; {class: [jobs, failed]}."""
    import workloads

    specs = workloads.generate_probes(workload, seed)
    out = replay(workloads.prepare(workload, specs, workdir, prefix="probe"))
    rows: dict[str, list[int]] = {}
    for kind in out.kinds:
        rows.setdefault(kind, [0, out.failed_by_kind.get(kind, 0)])[0] += 1
    for line in out.errors:
        print("known defect: " + line, file=sys.stderr)
    return rows


def percentile(values, q: float) -> float:
    """Linear-interpolation percentile, q in [0, 100]."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def src_line_count() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted((SRC / "concavekit").glob("*.py")))


def run_record(workload: str, seed: int, seconds: int, trace: int, digest: str, n_jobs: int) -> dict:
    import numpy as np
    import scipy

    import concavekit

    fi = np.finfo(np.longdouble)
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "job_digest": digest,
        "jobs_generated": n_jobs,
        "machine": {
            "platform": platform.platform(),
            "machine": platform.machine(),
            "cpu": cpu,
            "cpu_count": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        },
        "versions": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "concavekit": concavekit.__version__,
        },
        "longdouble": {
            "dtype": str(fi.dtype),
            "precision": int(fi.precision),
            "nmant": int(fi.nmant),
            "eps": str(fi.eps),
            "max": str(fi.max),
        },
        "thread_caps": {k: os.environ.get(k) for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "src_lines": src_line_count(),
    }


def by_kind(out: Outcomes) -> dict:
    groups: dict[str, list[float]] = {}
    for kind, lat in zip(out.kinds, out.latencies):
        groups.setdefault(kind, []).append(lat)
    return {
        k: {"n": len(v), "median_s": statistics.median(v), "failed": out.failed_by_kind.get(k, 0)}
        for k, v in sorted(groups.items(), key=lambda kv: statistics.median(kv[1]))
    }


def end_to_end(out: Outcomes, setup_samples: list[float]) -> dict:
    """{name: (value, unit)} of the end-to-end metrics of an untraced loop."""
    return {
        "setup_s": (statistics.median(setup_samples), "s"),
        "job_p50_s": (statistics.median(out.latencies), "s"),
        "job_p90_s": (percentile(out.latencies, 90), "s"),
        "jobs_per_s": (out.attempted / out.wall, "1/s"),
        "ok_frac": ((out.attempted - out.failed) / out.attempted, "frac"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(tracer, traced: Outcomes, untraced: Outcomes) -> dict:
    """{name: (value, unit)} of the per-layer metrics of a traced loop."""
    metrics = tracer.metrics()
    metrics["cli.report_bytes"] = (traced.extra.get("report_bytes", 0), "bytes")
    traced_wall = sum(traced.latencies)
    metrics["trace.wall_s"] = (traced_wall, "s")
    metrics["trace.overhead_frac"] = (traced_wall / sum(untraced.latencies) - 1.0, "frac")
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=45.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help="measure set-up in this process and exit")
    args = ap.parse_args(argv)

    sys.path.insert(0, str(BENCH_DIR))
    WORK.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    try:
        setup_main, specs, digest, jobs = set_up(args.workload, args.seed, workdir)
        if args.setup_only:
            print(json.dumps({"setup_s": setup_main, "digest": digest}))
            return 0
        record = run_record(args.workload, args.seed, int(args.seconds), args.trace, digest, len(specs))
        print("record: " + json.dumps(record, sort_keys=True))
        correct = True

        if args.trace == 0:
            setup_samples = [setup_main]
            for _ in range(SETUP_PROBES):
                seconds, probe_digest = probe_setup(args.workload, args.seed)
                setup_samples.append(seconds)
                correct &= probe_digest == digest
            out = closed_loop(jobs, args.seconds)
            metrics = end_to_end(out, setup_samples)
            defects = run_defect_probes(args.workload, args.seed, workdir)
            print("defects: " + json.dumps(defects, sort_keys=True))
            print(f"setup samples (s): {', '.join(f'{s:.4f}' for s in setup_samples)}")
            missed, checked = out.extra.get("errbar_missed", 0), out.extra.get("errbar_checked", 0)
            print(
                f"failed_frac {out.failed}/{out.attempted} jobs; errbar_miss_frac {missed}/{checked} "
                f"values ({out.extra.get('refused', 0)} refused)"
            )
        else:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
            try:
                out = closed_loop(jobs, args.seconds, tracer)
            finally:
                tracer.uninstall()
            correct &= tracer.restored()
            untraced = replay(out.jobs)
            metrics = per_layer(tracer, out, untraced)
            tracer.dump(WORK / f"trace-{args.workload}.npz")
            wall = metrics["trace.wall_s"][0]
            shares = {layer: tracer.layer_self(layer) / wall for layer in tracer.layer_names}
            print("self-time shares: " + ", ".join(f"{k} {v:.3f}" for k, v in shares.items()))

        for line in out.errors[:20]:
            print("error: " + line, file=sys.stderr)
        for kind, row in by_kind(out).items():
            print(f"class {kind:22s} n={row['n']:5d} median {row['median_s']:.4f}s failed {row['failed']}")
        for name, (value, unit) in metrics.items():
            print(f"{name:36s} {value:.6g} {unit}")
        result = {
            "correct": bool(correct),
            "attempted": out.attempted,
            "failed": out.failed,
            "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
        }
        print(json.dumps(result))
        return 0
    except (SetupError, subprocess.TimeoutExpired, ValueError, ImportError) as exc:
        print(f"benchmark set-up failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
