"""Bit pins of ``verify_bbl`` and ``sup_convolution`` over seeded instances.

Each case is an instance built by :func:`instance` from a seed drawn here:
1-d intervals and 2-d boxes, balls and polygons as supports; indicator,
tent, Gaussian-times-indicator and ``custom_grid`` data; exponents from
-1/n through +/-1e-13 and 400 to +/-inf; lambda in [0.02, 0.98] and 16 to
400 grid points.  ``tests/golden/bbl_bits.json`` maps a ``verify_bbl`` case
to ``float.hex`` of lhs, rhs, margin, tolerance, mass0 and mass1 plus the
verdict, and a ``sup_convolution`` case to ``float.hex`` of the value at one
point.  A call that raises records its error class and message instead.

A change meant to keep the reports must leave every entry as it is.  After
an intended change of results, regenerate the file with
``PYTHONPATH=src python tests/test_bbl_bits.py`` and review the diff.
"""

import functools
import json
import math
from pathlib import Path

import numpy as np
import pytest

from concavekit.bbl import BBLInstance, sup_convolution, verify_bbl
from concavekit.convolve import ResolutionError
from concavekit.fields import GaussWeierstrassSlice, GridField, IndicatorField, ProductField, TentField
from concavekit.geometry import Ball, Box, Interval, Polytope

GOLDEN = Path(__file__).resolve().parent / "golden" / "bbl_bits.json"
ELLS = ("-1/n", -0.3, 0.0, 1e-13, -1e-13, 0.5, 1.0, 40.0, 400.0, math.inf, -math.inf)
DATA = ("indicator", "tent", "gauss", "custom_grid")
BODIES = {1: ("interval",), 2: ("box", "ball", "polygon")}
REPORTS = 200
POINTS = 24


def _body(kind, rng):
    if kind == "interval":
        lo = rng.uniform(-2.0, 1.0)
        return Interval(lo, lo + rng.uniform(0.3, 2.5))
    if kind == "box":
        lo = rng.uniform(-1.5, 0.5, 2)
        return Box(lo, lo + rng.uniform(0.3, 2.0, 2))
    if kind == "ball":
        return Ball(rng.uniform(-1.0, 1.0, 2), rng.uniform(0.3, 1.2))
    # a convex polygon: points on an ellipse, one per angular sector
    k = int(rng.integers(3, 8))
    angle = 2 * np.pi * (np.arange(k) + rng.uniform(0.1, 0.9, k)) / k
    radii = rng.uniform(0.3, 1.2, 2)
    return Polytope(rng.uniform(-1.0, 1.0, 2) + radii * np.column_stack([np.cos(angle), np.sin(angle)]))


def _field(data, body_kind, dim, rng):
    if data == "custom_grid":
        # multilinear data on a box, zero on about a fifth of its nodes
        lo = rng.uniform(-1.5, 0.5, dim)
        shape = tuple(rng.integers(2, 7, dim))
        values = rng.uniform(0.0, 2.0, shape) * (rng.random(shape) > 0.2)
        values.flat[int(rng.integers(values.size))] = 1.0
        return GridField(values, lo, lo + rng.uniform(0.3, 2.0, dim))
    body = _body(body_kind, rng)
    if data == "indicator":
        return IndicatorField(body, height=float(rng.uniform(0.2, 3.0)))
    if data == "tent":
        return TentField(body, height=float(rng.uniform(0.2, 3.0)))
    return ProductField([GaussWeierstrassSlice(dim, float(rng.uniform(0.2, 2.0))), IndicatorField(body)])


def instance(i):
    """The seeded instance of case i: the data and ell cycle, the rest is drawn."""
    rng = np.random.default_rng([25, i])
    dim, k = 1 + i % 2, i // 2
    ell = ELLS[k % len(ELLS)]
    ell = -1.0 / dim if ell == "-1/n" else ell
    bodies = BODIES[dim]
    fields = [
        _field(DATA[k % 4], bodies[k % len(bodies)], dim, rng),
        _field(DATA[k // 4 % 4], bodies[k // len(bodies) % len(bodies)], dim, rng),
    ]
    lam = float(rng.uniform(0.02, 0.98))
    grid = int(rng.integers(16, 401))
    return BBLInstance(*fields, ell, lam, grid)


def _point(inst, rng):
    """A point of the support combination's box, widened by a tenth per side."""
    lo0, hi0 = inst.f0.support.bounding_box()
    lo1, hi1 = inst.f1.support.bounding_box()
    lo = (1 - inst.lam) * lo0 + inst.lam * lo1
    hi = (1 - inst.lam) * hi0 + inst.lam * hi1
    pad = 0.1 * (hi - lo)
    return rng.uniform(lo - pad, hi + pad)


def _hex(values):
    return [float(v).hex() for v in values]


def _outcome(call):
    try:
        return call()
    except (ValueError, ResolutionError) as exc:
        return ["error", type(exc).__name__, str(exc)]


def report_bits(i):
    def call():
        r = verify_bbl(instance(i))
        return [*_hex((r.lhs, r.rhs, r.margin, r.tolerance, r.mass0, r.mass1)), r.ok]

    return _outcome(call)


def point_bits(j):
    def call():
        # instances of both dimensions, spread over the report cases
        inst = instance(j * (REPORTS // POINTS) + j % 2)
        y = _point(inst, np.random.default_rng([26, j]))
        return [_hex(y), float(sup_convolution(inst, y)).hex()]

    return _outcome(call)


CASES = {f"report/{i:03d}": functools.partial(report_bits, i) for i in range(REPORTS)}
CASES.update({f"point/{j:02d}": functools.partial(point_bits, j) for j in range(POINTS)})


@functools.cache
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_names_match_the_cases():
    assert sorted(golden()) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_bits(name):
    assert CASES[name]() == golden()[name]


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps({name: bits() for name, bits in CASES.items()}, indent=1, sort_keys=True) + "\n")
