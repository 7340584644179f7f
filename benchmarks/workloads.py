"""Seeded job lists for the concavekit benchmark, with each job's known truth.

A job is one thing a user of concavekit asks for: a BBL report, a concavity
verdict, a maximum, a CLI call.  :func:`generate` turns a workload name and a
seed into a list of plain job specs (JSON data, no library objects), so the
list has a digest that proves two commits ran identical inputs.
:func:`prepare` builds the library inputs for each spec (fields, bodies,
descriptor files) and the truth its answer is checked against, outside any
timing.

Each workload is a fixed cycle of job classes.  Every cycle is shuffled by
the seed, so a run cut off mid-cycle keeps the class proportions.  Class
shares are chosen so that the median and the 90th percentile of job latency
each fall inside one latency band, not on the boundary between two classes:
in ``bbl_sweep`` the large grids are 4% of the jobs, so the 90th percentile
stays among the ordinary instances while the large ones still set peak RSS
and a large share of the run time.  In ``spacetime_check`` the 2-d
convolution and polytope-tent checks are 60% of the jobs, so both
percentiles fall among them; with the 1-d convolution checks at 35% of the
jobs, the 90th percentile sat on the edge of the heavy group and spread
twice as much between runs.

Why these workloads:

- ``bbl_sweep``: ``verify_bbl`` on 1-d and 2-d instances.  ``means.mean_p``
  does most of the work, on arrays of up to a million elements with one
  exponent; the large-grid minority (over 6x the grid pairs) adds a
  working-set axis.
- ``spacetime_check``: randomized concavity checkers on quadrature-backed
  convolution fields, polytope tents, closed-form fields and a known
  violation, plus an error-bar sweep against the closed-form oracles.
  ``convolve``, ``geometry.contains_many`` and ``fields`` do the work.
  Not listed in ``BENCHMARK.json``: its latencies spread too far between
  runs on a shared host to carry a regression bound (see ``run.py``).
- ``cli_mix``: in-process ``concavekit.cli.main`` calls over descriptor
  files, mostly ``maximize`` (the Regiomontanus viewing angle on vertical
  segments and boxes, and space-time kernels):
  Python loops in ``optimize`` with single-point calls into ``geometry``,
  plus argument parsing and report writing.

Every timed job is answered correctly at the baseline, so ``failed`` counts
regressions only.  Job classes on which the library is known to fail (the
``regiomontanus`` subcommand, whose fixed 1e-8 tolerance stalls on the flat
top of its objective and whose coordinate ascent stalls on curved and
slanted boundaries; ``maximize`` over a quadrature-backed convolution, whose
uniqueness certificate ignores the quadrature noise; ``verify_bbl`` below
lambda 0.2) are known-defect probes instead: see :data:`PROBES`.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
from contextlib import redirect_stderr, redirect_stdout

import numpy as np

# library functions are looked up on these modules at call time, so that
# the tracer's wrappers see every call
from concavekit import bbl, cli, concavity, convolve, fields, geometry

INF = math.inf
RESOLUTION_ERRORS = tuple(
    e for e in (getattr(m, "ResolutionError", None) for m in (convolve, bbl)) if isinstance(e, type)
)

# (class, jobs per cycle) and the number of cycles generated per run
CYCLES = {
    "bbl_sweep": (
        [("bbl_1d", 24), ("bbl_2d", 24), ("bbl_1d_large", 1), ("bbl_2d_large", 1)],
        10,
    ),
    "spacetime_check": (
        [
            ("errbar", 6),
            ("closed_gw", 2),
            ("closed_heat", 2),
            ("lift_violation", 2),
            ("conv_1d", 4),
            ("conv_ball", 4),
            ("conv_triangle", 4),
            ("tent_polytope", 16),
        ],
        8,
    ),
    "cli_mix": (
        [
            ("cli_means", 1),
            ("cli_check", 1),
            ("cli_convolve", 1),
            ("cli_bbl", 1),
            ("max_oracle_p_vertical", 12),
            ("max_oracle_p", 11),
            ("max_spacetime_field", 12),
        ],
        30,
    ),
}
WORKLOADS = tuple(CYCLES)

# Position tolerance of the timed maximize jobs.  The regiomontanus
# subcommand always asks for 1e-8 and stalls on the flat top of the
# objective (see REPRODUCERS); at 1e-6 the flat top is far inside the
# tolerance, so the timed jobs measure the optimizer, not that defect.
MAX_TOLERANCE = 1e-6
REGIOMONTANUS_TOLERANCE = 1e-8  # optimize.MaxProblem's default

# Known-defect probes: job classes on which the library gives wrong answers
# or raises at this point in its history.  They are not part of the timed
# loop, whose every job must succeed, but each untimed run executes them
# after the loop and reports how many still fail.  (class, count) per
# workload, generated from the seed like the timed jobs, plus fixed
# instances that reproduce a sporadic defect every time.
PROBES = {
    "bbl_sweep": [("bbl_2d_small_lambda", 4)],
    "spacetime_check": [],
    "cli_mix": [
        ("regio_vertical", 6),
        ("regio_box", 3),
        ("regio_ball", 3),
        ("regio_polytope", 3),
        ("max_convolution", 3),
    ],
}
REPRODUCERS = {
    # verify_bbl: the half-resolution tolerance is too small for a tent on a
    # ball at small lambda, so a true instance is reported as a violation
    "bbl_sweep": [
        {
            "kind": "bbl_2d_small_lambda",
            "ell": 0.0,
            "lam": 0.11933948403194848,
            "f0": {"data": "tent", "body": {"kind": "ball", "center": [0.3996687655122173, -0.48868029122336765], "radius": 0.5891236807527985}},
            "f1": {"data": "tent", "body": {"kind": "box", "lo": [-0.9923518984845519, -0.9591066899467648], "hi": [0.02638782859104971, 0.0851605082551572]}},
            "grid": 400,
        },
        {
            "kind": "bbl_2d_small_lambda",
            "ell": 0.0,
            "lam": 0.10108906967188887,
            "f0": {"data": "tent", "body": {"kind": "ball", "center": [-0.48479219547392916, 0.3991985265547662], "radius": 0.8573272495667409}},
            "f1": {"data": "gauss_indicator", "body": {"kind": "ball", "center": [0.3715724833930416, 0.17466246443383682], "radius": 0.739839606936355}, "t": 1.4191583396162226},
            "grid": 400,
        },
    ],
    "spacetime_check": [],
    # regiomontanus at its fixed 1e-8 tolerance: near the maximum the
    # objective is flat in double precision over a wider range than 1e-8,
    # coordinate ascent accepts equal-valued steps there and never settles,
    # so no start converges (ConvergenceError)
    "cli_mix": [
        {"kind": "regio_vertical", "a": 0.3088280047659744, "b": 2.4154792830563085, "t_lo": 0.5330839743942315, "t_hi": 2.531193036355274, "seed": 466491402},
        {"kind": "regio_box", "a": 1.2546373518552858, "b": 1.8274952326482248, "lo": [-0.9682472641667168, 0.4039021147057089], "hi": [0.14000515649353318, 3.424074655024391], "seed": 863712969},
        # maximize over a quadrature-backed convolution: the starts stop on
        # the quadrature noise plateau 1.3e-3 apart, above the uniqueness
        # certificate's 1e3 x tolerance, so a unique maximum exits with 1
        {
            "kind": "max_convolution",
            "kernel": "gw",
            "psi": [-0.21940862425155494, 0.8396586233815069],
            "t": [0.7979286577088069, 2.317916098775904],
            "multistart": 3,
            "tolerance": MAX_TOLERANCE,
            "seed": 1734200760,
        },
    ],
}

BBL_GRID = 400
# verify_bbl's tolerance is too small below lambda 0.2 for some tent data
# (see REPRODUCERS); the smaller lambdas are probed, not timed
BBL_LAMBDA = (0.2, 0.8)
BBL_LAMBDA_SMALL = (0.1, 0.2)
BBL_GRID_LARGE = {1: 1024, 2: 1100}  # over 6x the grid pairs of BBL_GRID
ERRBAR_POINTS = 40


# ---------------------------------------------------------------------------
# Generation: seed -> plain job specs
# ---------------------------------------------------------------------------

# Job parameters are points of a randomly shifted Kronecker sequence (one
# per job class), not independent draws: every prefix of a class covers each
# parameter range evenly, so the jobs a run reaches have the same mix of cheap
# and costly instances under every seed, while the seed still changes every
# input.  The multipliers are sqrt(p) mod 1 for primes p picked so that each
# coordinate's prefixes, and each pair of coordinates, stay well spread.
_PRIMES = (113, 89, 449, 163, 137, 73, 173, 593, 17, 179, 191, 353, 229, 2, 389, 467, 19, 547, 109, 587)
_DIMS = len(_PRIMES)


def _lds_points(rng, n: int, d: int = _DIMS) -> np.ndarray:
    """n points in [0, 1)^d of the Kronecker sequence, shifted by a seeded offset."""
    alpha = np.sqrt(np.array(_PRIMES[:d], dtype=float)) % 1.0
    return (rng.uniform(size=d) + np.outer(np.arange(1, n + 1), alpha)) % 1.0


class _U:
    """Consumes the coordinates of one job's point, one parameter each."""

    def __init__(self, row):
        self.row = row
        self.k = 0

    def unit(self) -> float:
        v = float(self.row[self.k])
        self.k += 1
        return v

    def lerp(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.unit()

    def pick(self, options):
        return options[min(int(self.unit() * len(options)), len(options) - 1)]


def _seed(rng) -> int:
    return int(rng.integers(0, 2**31 - 1))


DATA = ("indicator", "tent", "gauss_indicator")


def _ells(n: int):
    return (-1.0 / (2 * n), 0.0, 1.0, "inf")


def _bbl_field(u: _U, n: int) -> dict:
    data = u.pick(DATA)
    if n == 1:
        lo = u.lerp(-2.0, 0.5)
        body = {"kind": "interval", "a": lo, "b": lo + u.lerp(0.5, 2.0)}
    elif u.unit() < 0.5:
        lo = [u.lerp(-1.0, 0.0), u.lerp(-1.0, 0.0)]
        body = {"kind": "box", "lo": lo, "hi": [lo[0] + u.lerp(0.5, 1.5), lo[1] + u.lerp(0.5, 1.5)]}
    else:
        body = {"kind": "ball", "center": [u.lerp(-0.5, 0.5), u.lerp(-0.5, 0.5)], "radius": u.lerp(0.4, 0.9)}
    spec = {"data": data, "body": body}
    if data == "gauss_indicator":
        spec["t"] = u.lerp(0.5, 2.0)
    return spec


def _gen_bbl(u: _U, rng, kind: str) -> dict:
    n = 1 if kind.startswith("bbl_1d") else 2
    return {
        "ell": u.pick(_ells(n)),
        "lam": u.lerp(*(BBL_LAMBDA_SMALL if kind.endswith("_small_lambda") else BBL_LAMBDA)),
        "f0": _bbl_field(u, n),
        "f1": _bbl_field(u, n),
        "grid": BBL_GRID_LARGE[n] if kind.endswith("_large") else BBL_GRID,
    }


def _polygon(u: _U, center, rx, ry, sides) -> list:
    """Convex polygon, CCW: vertices on an ellipse, one per angular sector."""
    k = u.pick(sides)
    rot = u.lerp(0.0, 2 * math.pi)
    ang = [rot + 2 * math.pi * (j + 0.25 + 0.5 * u.unit()) / k for j in range(k)]
    return [[center[0] + rx * math.cos(a), center[1] + ry * math.sin(a)] for a in ang]


def _gen_spacetime(u: _U, rng, kind: str) -> dict:
    if kind == "errbar":
        return {"kernel": u.pick(("heat", "poisson")), "a": u.lerp(-1.25, -0.75), "b": u.lerp(0.75, 1.25)}
    if kind == "lift_violation":
        return {
            "bumps": [int(u.lerp(2, 12)), int(u.lerp(26, 35))],
            "p": u.pick((1.0, 0.0, -1.0)),
            "samples": 2000,
            "seed": _seed(rng),
        }
    if kind == "tent_polytope":
        center = (u.lerp(-0.5, 0.5), u.lerp(-0.5, 0.5))
        verts = _polygon(u, center, u.lerp(0.7, 1.5), u.lerp(0.7, 1.5), (3, 4, 5, 6))
        return {"vertices": verts, "samples": 100, "seed": _seed(rng)}
    if kind in ("closed_gw", "closed_heat"):
        spec = {"L": u.lerp(1.5, 2.5), "t_lo": u.lerp(0.3, 0.8), "t_hi": u.lerp(2.5, 5.0), "samples": 4000}
        if kind == "closed_heat":
            spec.update(a=u.lerp(-1.25, -0.75), b=u.lerp(0.75, 1.25))
        return {**spec, "seed": _seed(rng)}
    spec = {"kernel": u.pick(("heat", "poisson")), "t_lo": u.lerp(0.3, 0.6), "t_hi": u.lerp(2.0, 3.5)}
    if kind == "conv_1d":
        a = u.lerp(-1.2, -0.3)
        spec.update(a=a, b=a + u.lerp(0.8, 2.0), samples=200)
    elif kind == "conv_ball":
        spec.update(center=[u.lerp(-0.3, 0.3), u.lerp(-0.3, 0.3)], radius=u.lerp(0.6, 1.0), samples=40)
    elif kind == "conv_triangle":
        spec.update(vertices=_polygon(u, (0.0, 0.0), u.lerp(0.8, 1.2), u.lerp(0.8, 1.2), (3,)), samples=40)
    else:
        raise ValueError(kind)
    return {**spec, "seed": _seed(rng)}


def _upper_region(u: _U) -> tuple[float, float]:
    """Centre of a constraint set well inside the upper half-plane."""
    return u.lerp(-1.0, 3.0), u.lerp(1.5, 3.0)


def _gen_cli(u: _U, rng, kind: str) -> dict:
    if kind == "cli_means":
        p = u.pick((0.0, "finite", "inf", "-inf"))
        finite = u.lerp(-3.0, 3.0)
        return {"p": finite if p == "finite" else p, "a": u.lerp(0.1, 5.0), "b": u.lerp(0.1, 5.0), "lam": u.lerp(0.05, 0.95)}
    if kind == "cli_convolve":
        return {
            "kernel": u.pick(("gw", "poisson")),
            "a": u.lerp(-1.5, -0.5),
            "b": u.lerp(0.5, 1.5),
            "x": [u.lerp(-2.5, -1.5), u.lerp(1.5, 2.5), 5],
            "t": [u.lerp(0.3, 0.8), u.lerp(1.5, 3.0), 3],
        }
    if kind == "cli_check":
        if u.unit() < 0.5:
            return {
                "variant": "heat_kernel_almost_strict",
                "L": u.lerp(1.5, 2.5),
                "t_lo": u.lerp(0.3, 0.8),
                "t_hi": u.lerp(2.5, 5.0),
                "samples": 2000,
                "seed": _seed(rng),
            }
        a = u.lerp(-1.5, -0.5)
        return {"variant": "indicator_strict", "a": a, "b": a + u.lerp(1.0, 2.5), "samples": 500, "seed": _seed(rng)}
    if kind == "cli_bbl":
        a0, a1 = u.lerp(-2.0, 0.0), u.lerp(-1.0, 1.0)
        return {
            "ell": u.pick(_ells(1)),
            "lam": u.lerp(0.1, 0.9),
            "f0": [a0, a0 + u.lerp(0.5, 2.0)],
            "f1": [a1, a1 + u.lerp(0.5, 2.0)],
            "grid": 128,
        }
    if kind == "max_spacetime_field":
        x_lo = u.lerp(-2.0, 1.0)
        return {
            "field": u.pick(("gauss_weierstrass", "poisson_kernel")),
            "x": [x_lo, x_lo + u.lerp(1.0, 3.0)],
            "t": [u.lerp(0.3, 1.0), u.lerp(2.0, 4.0)],
            "multistart": 6,
            "tolerance": MAX_TOLERANCE,
            "seed": _seed(rng),
        }
    if kind == "max_convolution":
        lo = u.lerp(-1.0, 0.0)
        return {
            "kernel": u.pick(("gw", "poisson")),
            "psi": [lo, lo + u.lerp(1.0, 2.0)],
            "t": [u.lerp(0.5, 1.0), u.lerp(2.0, 3.0)],
            "multistart": 3,
            "tolerance": MAX_TOLERANCE,
            "seed": _seed(rng),
        }
    a = u.lerp(0.3, 2.0)
    b = a + u.lerp(0.5, 4.0)
    spec = {"a": a, "b": b}
    if kind in ("regio_vertical", "max_oracle_p_vertical"):
        r = math.sqrt(a * b)
        spec.update(t_lo=r * u.lerp(0.1, 0.9), t_hi=r * u.lerp(1.2, 3.0))
        if kind == "max_oracle_p_vertical":
            spec["tolerance"] = MAX_TOLERANCE
    elif kind in ("regio_box", "max_oracle_p"):
        cx, ct = _upper_region(u)
        wx, wt = u.lerp(0.5, 2.0), u.lerp(0.3, ct - 0.2)
        spec.update(lo=[cx - wx, ct - wt], hi=[cx + wx, ct + u.lerp(0.3, 1.5)])
        if kind == "max_oracle_p":
            spec.update(multistart=6, tolerance=MAX_TOLERANCE)
    elif kind == "regio_ball":
        cx, ct = _upper_region(u)
        spec.update(center=[cx, ct], radius=u.lerp(0.5, min(1.2, ct - 0.2)))
    elif kind == "regio_polytope":
        cx, ct = _upper_region(u)
        rx, ry = u.lerp(0.5, 1.5), u.lerp(0.3, min(1.2, ct - 0.2))
        spec["vertices"] = _polygon(u, (cx, ct), rx, ry, (3, 4, 5, 6))
    else:
        raise ValueError(kind)
    return {**spec, "seed": _seed(rng)}


_GENERATORS = {"bbl_sweep": _gen_bbl, "spacetime_check": _gen_spacetime, "cli_mix": _gen_cli}


def generate(workload: str, seed: int) -> list[dict]:
    """The seeded job list of a workload: plain specs, one dict per job."""
    if workload not in CYCLES:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    cycle, cycles = CYCLES[workload]
    rng = np.random.default_rng([WORKLOADS.index(workload), int(seed)])
    points = {kind: _lds_points(rng, count * cycles) for kind, count in cycle}
    made = {kind: 0 for kind, _ in cycle}
    order = [kind for kind, count in cycle for _ in range(count)]
    jobs = []
    for _ in range(cycles):
        for j in rng.permutation(len(order)):
            kind = order[int(j)]
            u = _U(points[kind][made[kind]])
            made[kind] += 1
            jobs.append({"kind": kind, **_GENERATORS[workload](u, rng, kind)})
    if workload == "spacetime_check":
        # error-bar points: one low-discrepancy sequence in (x, log10 t),
        # dealt to the errbar jobs in order
        sweep = [s for s in jobs if s["kind"] == "errbar"]
        xt = _lds_points(rng, len(sweep) * ERRBAR_POINTS, 2)
        for k, spec in enumerate(sweep):
            block = xt[k * ERRBAR_POINTS : (k + 1) * ERRBAR_POINTS]
            spec["x"] = (-1.5 + 3.0 * block[:, 0]).tolist()
            spec["t"] = (10.0 ** (-5.0 + 6.0 * block[:, 1])).tolist()
    return jobs


def generate_probes(workload: str, seed: int) -> list[dict]:
    """The known-defect probes of a workload: fixed reproducers, then seeded jobs."""
    if workload not in PROBES:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rng = np.random.default_rng([WORKLOADS.index(workload), int(seed), 1])
    jobs = [dict(spec) for spec in REPRODUCERS[workload]]
    for kind, count in PROBES[workload]:
        for row in _lds_points(rng, count):
            jobs.append({"kind": kind, **_GENERATORS[workload](_U(row), rng, kind)})
    return jobs


def digest(specs: list[dict]) -> str:
    """SHA-256 of the canonical JSON of a job list."""
    text = json.dumps(specs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# Truth: closed forms and dense scans, independent of the library
# ---------------------------------------------------------------------------


def angle_P(a, b, x, t):
    """Poisson convolution of the indicator of [a, b] (normalized viewing angle)."""
    return (np.arctan((b - x) / t) - np.arctan((a - x) / t)) / math.pi


def heat_W(a, b, x, t):
    """Heat convolution of the indicator of [a, b]."""
    s = 2.0 * np.sqrt(t)
    erf = np.vectorize(math.erf)
    return 0.5 * (erf((b - x) / s) - erf((a - x) / s))


def gauss_kernel(x, t):
    return (4 * math.pi * t) ** -0.5 * np.exp(-(x * x) / (4 * t))


def poisson_kernel(x, t):
    return t / (x * x + t * t) / math.pi


def power_mean(p, a, b, lam) -> float:
    if p == INF:
        return max(a, b)
    if p == -INF:
        return min(a, b)
    if p == 0:
        return a ** (1 - lam) * b**lam
    return ((1 - lam) * a**p + lam * b**p) ** (1 / p)


def _in_box(lo, hi):
    return lambda X, T: (X >= lo[0]) & (X <= hi[0]) & (T >= lo[1]) & (T <= hi[1])


def _in_ball(c, r):
    return lambda X, T: (X - c[0]) ** 2 + (T - c[1]) ** 2 <= r * r


def _in_polygon(verts):
    v = np.asarray(verts)
    w = np.roll(v, -1, axis=0)

    def member(X, T):
        ok = np.ones(np.shape(X), dtype=bool)
        for (x0, t0), (x1, t1) in zip(v, w):  # CCW: interior on the left
            ok &= (x1 - x0) * (T - t0) - (t1 - t0) * (X - x0) >= 0
        return ok

    return member, v.min(axis=0), v.max(axis=0)


def scan_max(objective, member, lo, hi, n=161, rounds=3):
    """Grid maximum of objective(X, T) over member points of the box [lo, hi].

    A coarse grid is refined three times around its best feasible point;
    the result is feasible and its value undershoots the true maximum only
    by the final grid resolution.
    """
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    c_lo, c_hi = lo, hi
    best, best_v = None, -INF
    for _ in range(rounds + 1):
        X, T = np.meshgrid(
            np.linspace(c_lo[0], c_hi[0], n), np.linspace(c_lo[1], c_hi[1], n), indexing="ij"
        )
        ok = member(X, T)
        V = np.where(ok, objective(X, T), -INF)
        k = int(np.argmax(V))
        if V.flat[k] > best_v:
            best, best_v = np.array([X.flat[k], T.flat[k]]), float(V.flat[k])
        h = (c_hi - c_lo) / (n - 1)
        c_lo = np.maximum(lo, best - 4 * h)
        c_hi = np.minimum(hi, best + 4 * h)
        n = 41
    return best, best_v


# ---------------------------------------------------------------------------
# Preparation: specs -> library inputs, callables and truth checks
# ---------------------------------------------------------------------------


class Job:
    """One prepared job: ``call()`` is timed, ``check(result)`` is not."""

    __slots__ = ("index", "kind", "call", "check")

    def __init__(self, index, kind, call, check):
        self.index = index
        self.kind = kind
        self.call = call
        self.check = check


def _body(spec):
    if spec["kind"] == "interval":
        return geometry.Interval(spec["a"], spec["b"])
    if spec["kind"] == "box":
        return geometry.Box(np.array(spec["lo"]), np.array(spec["hi"]))
    if spec["kind"] == "ball":
        return geometry.Ball(np.array(spec["center"]), spec["radius"])
    return geometry.Polytope(np.array(spec["vertices"]))


def _data_field(spec):
    body = _body(spec["body"])
    if spec["data"] == "indicator":
        return fields.IndicatorField(body)
    if spec["data"] == "tent":
        return fields.TentField(body)
    return fields.ProductField([fields.GaussWeierstrassSlice(body.dim, spec["t"]), fields.IndicatorField(body)])


def _kernel(name: str, n: int):
    return fields.GaussWeierstrassKernel(n) if name in ("heat", "gw") else fields.PoissonKernel(n)


def _verdict(expected):
    def check(report):
        return report.verdict == expected, {}

    return check


def _prepare_bbl(spec):
    inst = bbl.BBLInstance(
        _data_field(spec["f0"]),
        _data_field(spec["f1"]),
        INF if spec["ell"] == "inf" else spec["ell"],
        spec["lam"],
        spec["grid"],
    )

    def call():
        return bbl.verify_bbl(inst)

    def check(rep):
        finite = all(math.isfinite(v) for v in (rep.lhs, rep.rhs, rep.tolerance))
        return bool(rep.ok and finite and rep.rhs > 0), {}

    return call, check


def _st_box(body, spec):
    return geometry.SpaceTimeBox(body, spec["t_lo"], spec["t_hi"])


def _prepare_spacetime(spec):
    kind = spec["kind"]
    if kind == "errbar":
        body = geometry.Interval(spec["a"], spec["b"])
        field = convolve.ConvolutionField(
            _kernel(spec["kernel"], 1), fields.IndicatorField(body), convolve.QuadratureSpec.default_for(body)
        )
        X = np.array(spec["x"])
        T = np.array(spec["t"])
        exact = (heat_W if spec["kernel"] == "heat" else angle_P)(spec["a"], spec["b"], X, T)
        errors = RESOLUTION_ERRORS

        def call():
            try:
                v, e = field.eval_with_error(X, T)
                return np.asarray(v), np.asarray(e), np.zeros(len(X), dtype=bool)
            except errors:
                # find the refused points one by one
                v, e = np.zeros(len(X)), np.zeros(len(X))
                refused = np.zeros(len(X), dtype=bool)
                for k in range(len(X)):
                    try:
                        v[k], e[k] = field.eval_with_error(X[k], T[k])
                    except errors:
                        refused[k] = True
                return v, e, refused

        def check(res):
            v, e, refused = res
            answered = ~refused
            finite = bool(np.isfinite(v[answered]).all() and (v[answered] >= 0).all())
            miss = int((np.abs(v - exact)[answered] > e[answered]).sum())
            return finite, {"errbar_checked": int(answered.sum()), "errbar_missed": miss, "refused": int(refused.sum())}

        return call, check

    if kind in ("closed_gw", "closed_heat"):
        dom = _st_box(geometry.Interval(-spec["L"], spec["L"]), spec)
        cfg = concavity.CheckConfig(samples=spec["samples"], seed=spec["seed"], domain=dom)
        if kind == "closed_gw":
            field, p, mode = fields.GaussWeierstrassKernel(1), -1.0, "almost_strict"
        else:
            field, p, mode = convolve.HeatIndicatorField(spec["a"], spec["b"]), -INF, "strict"
        return (lambda: concavity.check_parabolic_p_concavity(field, 0.5, p, cfg, mode=mode)), _verdict("pass")

    if kind == "lift_violation":
        bump = np.zeros(41)
        i0, j0 = spec["bumps"]
        bump[i0 : i0 + 5] = 1.0
        bump[j0 : j0 + 5] = 1.0
        p = spec["p"]
        field = fields.lift(fields.GridField(bump, [-2.0], [2.0]), p if p != 0 else 1.0, 1.0)
        dom = geometry.SpaceTimeBox(geometry.Interval(-1.5, 1.5), math.log(1.5), math.log(6.0))
        cfg = concavity.CheckConfig(samples=spec["samples"], seed=spec["seed"], domain=dom)
        return (lambda: concavity.check_parabolic_p_concavity(field, 1.0, p, cfg)), _verdict("violation")

    if kind == "tent_polytope":
        field = fields.TentField(geometry.Polytope(np.array(spec["vertices"])))
        cfg = concavity.CheckConfig(samples=spec["samples"], seed=spec["seed"])
        return (lambda: concavity.check_p_concavity(field, 1.0, cfg)), _verdict("pass")

    # quadrature-backed convolutions: (1/2 or 1)-parabolically quasi-concave
    if kind == "conv_1d":
        body, space = geometry.Interval(spec["a"], spec["b"]), geometry.Interval(-2.0, 2.0)
        n = 1
    else:
        body = (
            geometry.Ball(np.array(spec["center"]), spec["radius"])
            if kind == "conv_ball"
            else geometry.Polytope(np.array(spec["vertices"]))
        )
        space = geometry.Box(np.array([-1.5, -1.5]), np.array([1.5, 1.5]))
        n = 2
    field = convolve.ConvolutionField(_kernel(spec["kernel"], n), fields.IndicatorField(body), convolve.QuadratureSpec.default_for(body))
    alpha = 0.5 if spec["kernel"] == "heat" else 1.0
    cfg = concavity.CheckConfig(samples=spec["samples"], seed=spec["seed"], domain=_st_box(space, spec))
    return (lambda: concavity.check_parabolic_p_concavity(field, alpha, -INF, cfg)), _verdict("pass")


class _Cli:
    """Descriptor files and argument vectors for in-process CLI jobs."""

    def __init__(self, workdir: str):
        self.workdir = workdir

    def write(self, name: str, data: dict) -> str:
        path = os.path.join(self.workdir, name)
        with open(path, "w") as fh:
            json.dump(data, fh)
        return path

    def job(self, argv, out, judge):
        def call():
            stdout, stderr = io.StringIO(), io.StringIO()
            with redirect_stdout(stdout), redirect_stderr(stderr):
                rc = cli.main(argv)
            return rc, stdout.getvalue()

        def check(res):
            rc, text = res
            report = None
            size = len(text.encode())
            if out is not None and os.path.exists(out):
                size += os.path.getsize(out)
                with open(out) as fh:
                    report = fh.read()
                os.remove(out)
            ok = judge(rc, text, report)
            return bool(ok), {"report_bytes": size}

        return call, check


def _near(z, target, tol) -> bool:
    return float(np.linalg.norm(np.asarray(z, dtype=float) - np.asarray(target))) <= tol


def _slope(objective, z) -> float:
    """Gradient norm of objective(x, t) at z, by central differences."""
    h = 1e-6 * (1.0 + np.abs(z))
    dx = (objective(z[0] + h[0], z[1]) - objective(z[0] - h[0], z[1])) / (2 * h[0])
    dt = (objective(z[0], z[1] + h[1]) - objective(z[0], z[1] - h[1])) / (2 * h[1])
    return float(math.hypot(float(dx), float(dt)))


def _max_judge(objective, best, best_v, diam, pos_tol, value_tol=1e-6, place_tol=0.01):
    """Exit 0, a value no worse than the scan's, an argmax next to the scan's.

    The exact objective is evaluated at the reported argmax.  The solver
    stops within its position tolerance ``pos_tol``, which on a boundary
    maximum costs up to slope x pos_tol in value; a value further below the
    scan's feasible best than that (times 10), and than ``value_tol``
    (relative), is a missed maximum.  ``place_tol`` (relative to the
    diameter) catches a wrong basin.
    """

    def judge(rc, text, report):
        if rc != 0:
            return False
        z = np.asarray(json.loads(report)["argmax"], dtype=float)
        value = float(objective(z[0], z[1]))
        allowed = max(value_tol * max(1.0, abs(best_v)), 10 * pos_tol * _slope(objective, z))
        return value >= best_v - allowed and _near(z, best, place_tol * diam)

    return judge


def _prepare_cli(files: _Cli, spec, tag: str):
    kind = spec["kind"]
    out = os.path.join(files.workdir, f"{tag}-out.json")
    if kind == "cli_means":
        p = spec["p"]
        pe = float(p) if not isinstance(p, str) else (INF if p == "inf" else -INF)
        exact = power_mean(pe, spec["a"], spec["b"], spec["lam"])
        argv = ["means", f"--p={p}", f"--a={spec['a']!r}", f"--b={spec['b']!r}", f"--lambda={spec['lam']!r}"]
        return files.job(argv, None, lambda rc, text, rep: rc == 0 and abs(float(text) - exact) <= 1e-12 * exact)

    if kind == "cli_convolve":
        a, b = spec["a"], spec["b"]
        body = files.write(f"{tag}-body.json", {"kind": "interval", "a": a, "b": b})
        xs, ts = spec["x"], spec["t"]
        argv = [
            "convolve",
            f"--kernel={spec['kernel']}",
            f"--body={body}",
            f"--xgrid={xs[0]!r}:{xs[1]!r}:{xs[2]}",
            f"--tgrid={ts[0]!r}:{ts[1]!r}:{ts[2]}",
            f"--out={out}",
        ]
        oracle = heat_W if spec["kernel"] == "gw" else angle_P

        def judge(rc, text, rep):
            rows = [r for r in rep.splitlines()[2:] if r]
            if rc != 0 or len(rows) != xs[2] * ts[2]:
                return False
            vals = np.array([[float(c) for c in r.split(",")] for r in rows])
            exact = oracle(a, b, vals[:, 0], vals[:, 1])
            return bool((np.abs(vals[:, 2] - exact) <= np.maximum(vals[:, 3], 1e-6)).all())

        return files.job(argv, out, judge)

    if kind == "cli_check":
        if spec["variant"] == "heat_kernel_almost_strict":
            field = files.write(f"{tag}-field.json", {"kind": "gauss_weierstrass", "n": 1})
            dom = files.write(
                f"{tag}-dom.json",
                {"body": {"kind": "interval", "a": -spec["L"], "b": spec["L"]}, "t_lo": spec["t_lo"], "t_hi": spec["t_hi"]},
            )
            argv = ["check", "parabolic", f"--field={field}", "--alpha=0.5", "--p=-1", "--mode=almost-strict", f"--domain={dom}"]
            expect_rc, expect_verdict = 0, "pass"
        else:
            field = files.write(
                f"{tag}-field.json",
                {"kind": "indicator", "body": {"kind": "interval", "a": spec["a"], "b": spec["b"]}},
            )
            argv = ["check", "concavity", f"--field={field}", "--p=inf", "--mode=strict"]
            expect_rc, expect_verdict = 1, "equality_off_spec"
        argv += [f"--samples={spec['samples']}", f"--seed={spec['seed']}", f"--out={out}"]
        return files.job(
            argv, out, lambda rc, text, rep: rc == expect_rc and json.loads(rep)["verdict"] == expect_verdict
        )

    if kind == "cli_bbl":
        (a0, b0), (a1, b1) = spec["f0"], spec["f1"]
        inst = files.write(
            f"{tag}-instance.json",
            {
                "f0": {"kind": "indicator", "body": {"kind": "interval", "a": a0, "b": b0}},
                "f1": {"kind": "indicator", "body": {"kind": "interval", "a": a1, "b": b1}},
                "ell": spec["ell"],
                "lambda": spec["lam"],
                "grid_points": spec["grid"],
            },
        )

        def judge(rc, text, rep):
            if rc != 0:
                return False
            r = json.loads(rep)
            return abs(r["mass0"] - (b0 - a0)) <= 1e-9 * (b0 - a0) and abs(r["mass1"] - (b1 - a1)) <= 1e-9 * (b1 - a1)

        return files.job(["bbl", f"--instance={inst}", f"--out={out}"], out, judge)

    a, b = spec.get("a"), spec.get("b")
    if kind == "regio_vertical":
        r = math.sqrt(a * b)
        con = files.write(f"{tag}-con.json", {"kind": "box", "lo": [0.0, spec["t_lo"]], "hi": [0.0, spec["t_hi"]]})

        def judge(rc, text, rep):
            if rc != 0:
                return False
            z = json.loads(rep)["argmax"]
            return z[0] == 0.0 and abs(z[1] - r) <= 1e-6 * max(1.0, r)

        argv = ["regiomontanus", f"--a={a!r}", f"--b={b!r}", f"--constraint={con}", f"--seed={spec['seed']}", f"--out={out}"]
        return files.job(argv, out, judge)

    if kind == "max_oracle_p_vertical":
        r, tol = math.sqrt(a * b), spec["tolerance"]
        prob = files.write(
            f"{tag}-problem.json",
            {
                "objective": {"kind": "oracle_p", "a": a, "b": b},
                "feasible": {"kind": "box", "lo": [0.0, spec["t_lo"]], "hi": [0.0, spec["t_hi"]]},
                "tolerance": tol,
                "seed": spec["seed"],
            },
        )

        def judge(rc, text, rep):
            # ascent stops once a cycle moves less than tol, so the argmax
            # is within a few tol of sqrt(ab)
            if rc != 0:
                return False
            z = json.loads(rep)["argmax"]
            return z[0] == 0.0 and abs(z[1] - r) <= 10 * tol * max(1.0, r)

        return files.job(["maximize", f"--problem={prob}", f"--out={out}"], out, judge)

    if kind in ("regio_box", "regio_ball", "regio_polytope", "max_oracle_p"):
        if kind == "regio_ball":
            desc = {"kind": "ball", "center": spec["center"], "radius": spec["radius"]}
            c, rad = np.array(spec["center"]), spec["radius"]
            member, lo, hi = _in_ball(c, rad), c - rad, c + rad
        elif kind == "regio_polytope":
            desc = {"kind": "polytope", "vertices": spec["vertices"]}
            member, lo, hi = _in_polygon(spec["vertices"])
        else:
            desc = {"kind": "box", "lo": spec["lo"], "hi": spec["hi"]}
            lo, hi = np.array(spec["lo"]), np.array(spec["hi"])
            member = _in_box(lo, hi)

        def objective(x, t):
            return angle_P(a, b, x, t)

        best, best_v = scan_max(objective, member, lo, hi)
        pos_tol = spec.get("tolerance", REGIOMONTANUS_TOLERANCE)
        judge = _max_judge(objective, best, best_v, float(np.linalg.norm(np.asarray(hi) - lo)), pos_tol)
        if kind == "max_oracle_p":
            prob = files.write(
                f"{tag}-problem.json",
                {
                    "objective": {"kind": "oracle_p", "a": a, "b": b},
                    "feasible": desc,
                    "multistart": spec["multistart"],
                    "tolerance": spec["tolerance"],
                    "seed": spec["seed"],
                },
            )
            return files.job(["maximize", f"--problem={prob}", f"--out={out}"], out, judge)
        con = files.write(f"{tag}-con.json", desc)
        argv = ["regiomontanus", f"--a={a!r}", f"--b={b!r}", f"--constraint={con}", f"--seed={spec['seed']}", f"--out={out}"]
        return files.job(argv, out, judge)

    (x_lo, x_hi), (t_lo, t_hi) = spec.get("x", spec.get("psi")), spec["t"]
    if kind == "max_spacetime_field":
        feasible = {"kind": "spacetime_box", "body": {"kind": "interval", "a": x_lo, "b": x_hi}, "t_lo": t_lo, "t_hi": t_hi}
        objective = gauss_kernel if spec["field"] == "gauss_weierstrass" else poisson_kernel
        best, best_v = scan_max(objective, _in_box((x_lo, t_lo), (x_hi, t_hi)), (x_lo, t_lo), (x_hi, t_hi))
        judge = _max_judge(objective, best, best_v, math.hypot(x_hi - x_lo, t_hi - t_lo), spec["tolerance"])
        obj = {"kind": "spacetime_field", "field": {"kind": spec["field"], "n": 1}}
    else:  # max_convolution: the symmetric data peak at the interval centre, earliest time
        pa, pb = spec["psi"]
        feasible = {"kind": "spacetime_box", "body": {"kind": "interval", "a": -2.0, "b": 2.0}, "t_lo": t_lo, "t_hi": t_hi}
        oracle = heat_W if spec["kernel"] == "gw" else angle_P
        target = np.array([0.5 * (pa + pb), t_lo])

        def objective(x, t):
            return oracle(pa, pb, x, t)

        # the optimizer stops refining inside the quadrature noise, so the
        # value allowance is the noise scale of the default grid, not 1e-6
        diam = math.hypot(4.0, t_hi - t_lo)
        judge = _max_judge(objective, target, float(objective(*target)), diam, spec["tolerance"], 1e-4, 0.05)
        obj = {
            "kind": "convolution",
            "kernel": spec["kernel"],
            "psi": {"kind": "indicator", "body": {"kind": "interval", "a": pa, "b": pb}},
        }
    prob = files.write(
        f"{tag}-problem.json",
        {
            "objective": obj,
            "feasible": feasible,
            "multistart": spec["multistart"],
            "tolerance": spec["tolerance"],
            "seed": spec["seed"],
        },
    )
    return files.job(["maximize", f"--problem={prob}", f"--out={out}"], out, judge)


def prepare(workload: str, specs: list[dict], workdir: str, prefix: str = "job") -> list[Job]:
    """Library inputs, descriptor files and truth for every job spec.

    ``prefix`` names the descriptor files, so that two prepared lists can
    share a work directory.
    """
    files = _Cli(workdir)
    jobs = []
    for index, spec in enumerate(specs):
        if workload == "bbl_sweep":
            call, check = _prepare_bbl(spec)
        elif workload == "spacetime_check":
            call, check = _prepare_spacetime(spec)
        else:
            call, check = _prepare_cli(files, spec, f"{prefix}{index}")
        jobs.append(Job(index, spec["kind"], call, check))
    return jobs
