"""Bit pins of ``maximize`` over every feasible kind and objective dispatch.

Each case is a seeded problem built by :func:`cases`; ``tests/golden/
maximize_bits.json`` maps its name to ``float.hex`` of argmax, value and
spread, plus the evaluation count, ``starts_converged`` and ``unique``.  The
problems span a tuple segment, an ``Interval``, a 2-d ``Box``, space-time
boxes over an ``Interval`` and over a ``Box``, a ``Ball``, a ``Polytope``
and a parabolic region, with ``oracle_p``, both kernels, a plain callable
and a callable with error bars as objectives.  Coordinates reach 1e6, so
that a segment's end can round past the bound and the end bisection runs.

A change meant to keep ``maximize``'s results must leave every entry as it
is.  After an intended change of results, regenerate the file with
``PYTHONPATH=src python tests/test_maximize_bits.py`` and review the diff.
"""

import functools
import json
from pathlib import Path

import numpy as np
import pytest

from concavekit.convolve import PoissonIndicatorField
from concavekit.fields import GaussWeierstrassKernel, PoissonKernel
from concavekit.geometry import Ball, Box, HatRegion, Interval, Polytope, SpaceTimeBox
from concavekit.optimize import MaxProblem, maximize, regiomontanus

GOLDEN = Path(__file__).resolve().parent / "golden" / "maximize_bits.json"
SCALES = (1.0, 1e3, 1e6)
PER_KIND = 25


def _quadratic(c, scale, error=None):
    """A concave quadratic peaked at c; with an error bar if ``error`` is given."""
    c = np.asarray(c, dtype=float)

    def f(z):
        v = -float((((z - c) / scale) ** 2).sum())
        return v if error is None else (v, error * (1.0 + abs(v)))

    return f


def _objective(name, rng, x_scale, t_scale, dim):
    """The objective called ``name``; the callables peak near the feasible set."""
    if name == "oracle_p":
        a = t_scale * rng.uniform(0.1, 1.0)
        return PoissonIndicatorField(a, a + t_scale * rng.uniform(0.2, 2.0))
    if name == "gw":
        return GaussWeierstrassKernel(dim - 1)
    if name == "poisson":
        return PoissonKernel(dim - 1)
    centre = np.append(x_scale * rng.uniform(-1.5, 1.5, dim - 1), t_scale * rng.uniform(0.0, 3.0))
    return _quadratic(centre, t_scale, None if name == "callable" else float(rng.choice([0.0, 1e-13, 1e-9])))


def _spacetime_box(rng, x_scale, t_scale, n):
    lo = x_scale * rng.uniform(-1.5, 1.0, n)
    hi = lo + x_scale * rng.uniform(0.2, 2.0, n)
    t_lo = t_scale * rng.uniform(0.05, 0.5)
    return lo, hi, t_lo, t_lo + t_scale * rng.uniform(0.3, 3.0)


def _feasible(kind, rng, x_scale, t_scale):
    if kind == "segment":
        lo, hi, t_lo, t_hi = _spacetime_box(rng, x_scale, t_scale, 1)
        if rng.random() < 0.5:  # vertical: x fixed
            return (np.array([lo[0], t_lo]), np.array([lo[0], t_hi]))
        return (np.array([lo[0], t_lo]), np.array([hi[0], t_lo]))
    if kind in ("box", "stbox_interval", "stbox_box"):
        n = 2 if kind == "stbox_box" else 1
        lo, hi, t_lo, t_hi = _spacetime_box(rng, x_scale, t_scale, n)
        if kind == "box":
            return Box(np.append(lo, t_lo), np.append(hi, t_hi))
        return SpaceTimeBox(Interval(lo[0], hi[0]) if n == 1 else Box(lo, hi), t_lo, t_hi)
    if kind == "ball":
        centre = [x_scale * rng.uniform(-1.0, 1.0), t_scale * rng.uniform(1.0, 2.0)]
        return Ball(centre, centre[1] * rng.uniform(0.2, 0.8))
    if kind == "polytope":
        pts = np.column_stack(
            [x_scale * rng.uniform(-1.5, 1.5, 5), t_scale * rng.uniform(0.1, 3.0, 5)]
        )
        return Polytope(pts)
    # parabolic: x / f(t) in [a, b]
    a = rng.uniform(-1.5, 0.5)
    t_lo = t_scale * rng.uniform(0.05, 0.5)
    alpha = 0.5 if x_scale != t_scale else 1.0
    return HatRegion(Interval(a, a + rng.uniform(0.3, 2.0)), alpha, (t_lo, t_lo + t_scale * rng.uniform(0.3, 3.0)))


# feasible kind: (coordinates, objectives)
KINDS = {
    "segment": (2, ("oracle_p", "gw", "poisson", "callable", "callable_err")),
    "interval": (1, ("regiomontanus", "callable", "callable_err")),
    "box": (2, ("oracle_p", "gw", "poisson", "callable", "callable_err")),
    "stbox_interval": (2, ("oracle_p", "gw", "poisson", "callable", "callable_err")),
    "stbox_box": (3, ("gw", "poisson", "callable", "callable_err")),
    "ball": (2, ("oracle_p", "poisson", "callable", "callable_err")),
    "polytope": (2, ("oracle_p", "poisson", "callable", "callable_err")),
    "parabolic": (2, ("oracle_p", "gw", "poisson", "callable")),
}


def cases():
    """Name -> the spec that :func:`solve` turns into a seeded problem."""
    out = {}
    for k_index, (kind, (dim, objectives)) in enumerate(KINDS.items()):
        for i in range(PER_KIND):
            name = objectives[i % len(objectives)]
            scale = SCALES[i // len(objectives) % len(SCALES)]
            out[f"{kind}/{name}/{i:02d}"] = (k_index, i, kind, dim, name, scale)
    return out


def solve(spec):
    k_index, i, kind, dim, name, scale = spec
    rng = np.random.default_rng([k_index, i])
    # the heat kernel's peak in t sits at x^2 / 2n, so its space scales as sqrt(t)
    x_scale = scale**0.5 if name == "gw" else scale
    opts = {"seed": int(rng.integers(1000)), "multistart": int(rng.integers(1, 9))}
    opts["tolerance"] = float(rng.choice([1e-8, 1e-6])) * max(1.0, scale / 1e3)
    if kind == "interval":
        if name == "regiomontanus":
            a = scale * rng.uniform(0.1, 1.0)
            t_lo = scale * rng.uniform(0.05, 1.0)
            return regiomontanus(a, a + scale * rng.uniform(0.2, 2.0), Interval(t_lo, t_lo + scale * rng.uniform(0.3, 3.0)), **opts)
        lo = scale * rng.uniform(-1.5, 1.0)
        feasible = Interval(lo, lo + scale * rng.uniform(0.2, 2.0))
        objective = _quadratic([scale * rng.uniform(-1.5, 1.5)], scale, None if name == "callable" else 1e-13)
    else:
        feasible = _feasible(kind, rng, x_scale, scale)
        objective = _objective(name, rng, x_scale, scale, dim)
    return maximize(MaxProblem(objective=objective, feasible=feasible, **opts))


def bits(r):
    return [
        [float(c).hex() for c in r.argmax],
        float(r.value).hex(),
        float(r.max_pairwise_spread).hex(),
        r.evaluations,
        r.starts_converged,
        r.unique,
    ]


CASES = cases()


@functools.cache
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_names_match_the_cases():
    assert sorted(golden()) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_bits(name):
    assert bits(solve(CASES[name])) == golden()[name]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({name: bits(solve(spec)) for name, spec in CASES.items()}, indent=1, sort_keys=True) + "\n")
