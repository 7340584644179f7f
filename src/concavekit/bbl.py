"""Desk-scale discretized verification of the Borell-Brascamp-Lieb inequality.

An instance is a pair of nonnegative, compactly supported fields f0, f1, an
exponent ell >= -1/n, and a mixing weight lam in (0, 1): a descriptor of kind
``bbl_instance``, whose ``"kind"`` a JSON file may leave out.  The sup-convolution

    S(y) = sup { M_ell(f0(y0), f1(y1); lam) : (1-lam) y0 + lam y1 = y }

is evaluated by maximizing over a midpoint grid of f0's support (the
essential sup of the continuous instance families used here equals the sup),
and the inequality

    integral S(y) dy  >=  M_{ell/(1+n ell)}(mass f0, mass f1; lam)

is checked up to a first-order grid tolerance.  The grid sup can only
undershoot the true sup, so the left side carries an O(h) downward bias;
the tolerance is calibrated from the same computation at half resolution
(which doubles that bias), plus the matching mass-quadrature bias on the
right side.

Which pairs are evaluated.  A row y pairs with a node y0 of f0's grid
through the partner y1 = (y - (1-lam) y0) / lam.  Only nodes whose partner
can lie in f1's support bounding box [lo1, hi1] are enumerated, the box
widened per axis by 1e-9 (1 + |lo1| + |hi1| + (|lo0| + |hi0|) / lam), with
[lo0, hi0] f0's box.  On a tensor grid these nodes form one index range per
axis, found by binary search.  When f0's positive nodes form one run on
each grid line (the last index running), as they do for a field positive
on a convex set, the last axis's range is cut to that run; otherwise the
pairs of the other nodes stay.  f1 is evaluated and validated on every
pair enumerated.  This relies on the contract of
``ScalarField.support``: a field vanishes outside its support's bounding box
widened by 1e-9 (1 + |lo| + |hi|), which covers the membership tolerance;
the slack above adds the rounding of the partners.  f1 values outside the
widened box are never computed, so they are never checked either, and a
field that is positive there loses those values without an error.

Rows are processed in blocks of at most ``_PAIR_BUDGET`` (2**14) pairs, a
single row larger than that being its own block, so memory does not grow
with the grid.

Each grid row's maximizing pair is found with a float64 key that increases
with M_ell (log M_ell for finite ell, max/min at ell = +/-inf), the first
such pair in flat-grid order as ``argmax`` would pick it; a pair with a zero
value gets the key -inf, so it never wins, and a row whose pairs all have
one gets 0.  ``mean_p`` then runs once per row, on the winning pair.  f0's
part of the key (its value at ell = +/-inf, (1-lam) log f0 in the geometric
case, ell log f0 otherwise) is computed once per positive grid node and
gathered per pair, and f0's value is read only at each row's winner.  So
every reported value comes from ``mean_p`` in extended precision, and a
near-tie the key misorders costs a few ulps of the sup.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .convolve import ResolutionError
from .fields import ScalarField
from .geometry import Descriptor, Key, NotRepresentableError, Record, integer, midpoint_axes
from .geometry import midpoint_grid, minkowski_combine, number
from .means import _P_GEOMETRIC, as_exponent, bbl_exponent, mean_p

__all__ = ["BBLInstance", "BBLReport", "sup_convolution", "verify_bbl"]

# Pair-sized arrays of a 2**14-pair block stay near malloc's mmap threshold
# (128 KB), so blocks reuse heap memory instead of faulting in fresh pages:
# on 150 bbl_sweep jobs (2-vCPU x86-64) blocks of 2**17 pairs took 26x the
# page faults and 25% more CPU time
_PAIR_BUDGET = 1 << 14

# relative widening of f1's support box before pairs are pruned
_PRUNE_SLACK = 1e-9


@dataclass(frozen=True)
class BBLInstance(
    Descriptor,
    kind="bbl_instance",
    keys={"f0": ScalarField, "f1": ScalarField, "ell": as_exponent,
          "lambda": Key(number, attr="lam"), "grid_points": Key(integer, 512)},
):
    """One discretized inequality instance.

    ``grid_points`` counts total grid points per support: it is the number
    of cells per axis in 1-d and is split as evenly as possible across axes
    in higher dimension, so runtime scales the same way at every dimension.
    """

    f0: ScalarField
    f1: ScalarField
    ell: float
    lam: float
    grid_points: int = 512

    def __post_init__(self):
        if self.f0.support is None or self.f1.support is None:
            raise ValueError("instance fields must have compact support")
        if self.f0.dim != self.f1.dim:
            raise ValueError("instance fields must share the dimension")
        if not 0 < self.lam < 1:
            raise ValueError("lam must lie in (0, 1)")
        if self.ell < -1.0 / self.dim and not math.isinf(self.ell):
            raise ValueError("requires ell >= -1/n")
        if not 8 <= self.grid_points <= sys.float_info.max:
            raise ValueError("needs at least 8 grid points, and a count in the float range")

    @property
    def dim(self) -> int:
        return self.f0.dim

    @property
    def points_per_axis(self) -> int:
        return max(8, int(round(self.grid_points ** (1.0 / self.dim))))


@dataclass(frozen=True)
class BBLReport(Record):
    lhs: float
    rhs: float
    margin: float
    tolerance: float
    mass0: float
    mass1: float
    marginal_exponent: float
    grid_points: int

    @property
    def ok(self) -> bool:
        return self.margin >= -self.tolerance


def _node_key(ell: float, a: np.ndarray, lam: float) -> np.ndarray:
    """f0's part of the ranking key at grid values a > 0: a itself at ell =
    +/-inf, (1-lam) log a in the geometric case, ell log a otherwise."""
    if math.isinf(ell):
        return a
    la = np.log(a)
    return (1 - lam) * la if abs(ell) < _P_GEOMETRIC else ell * la


def _log_mean_key(ell: float, x, b, lam: float) -> np.ndarray:
    """Float64 key increasing in M_ell(a, b; lam) for a, b > 0 (broadcast together).

    ``x`` is ``_node_key(ell, a, lam)``, which the grid computes once per node.
    For finite ell the key is log M_ell = (hi + log1p(w expm1(-|x - y|))) / ell
    with x = ell log a, y = ell log b, hi = max(x, y), w the weight of the
    smaller term: raw powers s**ell underflow and tie at large |ell|, and a
    log-sum-exp of log(1-lam) + x, log(lam) + y loses eps/|ell| of resolution
    at small |ell|.  The key is computed in place on a b-shaped array.
    """
    if math.isinf(ell):
        return (np.maximum if ell > 0 else np.minimum)(x, b)
    y = np.log(b)
    if abs(ell) < _P_GEOMETRIC:
        y *= lam
        y += x
        return y
    y *= ell
    # a gather, about 3x faster than np.where with scalar operands
    w = np.array([1 - lam, lam]).take(x >= y)
    d = x - y
    np.abs(d, out=d)
    np.negative(d, out=d)
    np.expm1(d, out=d)
    d *= w
    np.log1p(d, out=d)
    np.maximum(x, y, out=y)
    y += d
    y /= ell
    return y


class _Grid(NamedTuple):
    """A field on the midpoint grid of its support's bounding box."""

    axes: list  # per-axis cell midpoints
    pts: np.ndarray  # their tensor grid, last axis fastest
    values: np.ndarray
    cell: float

    @property
    def mass(self) -> float:
        return float(self.values.sum() * self.cell)


def _field_grid(f: ScalarField, ppa: int) -> _Grid:
    lo, hi = f.support.bounding_box()
    pts, cell = midpoint_grid(lo, hi, ppa)
    return _Grid(midpoint_axes(lo, hi, ppa), pts, f(pts), cell)


def _partner_ranges(inst: BBLInstance, Y: np.ndarray, axes0: list):
    """Per row of Y and per axis, the range [first, end) of f0's grid indices
    whose partner can lie in f1's widened support box."""
    lam = inst.lam
    lo0, hi0 = inst.f0.support.bounding_box()
    lo1, hi1 = inst.f1.support.bounding_box()
    # covers the membership tolerance, and the rounding of the partners and
    # of the inverted bounds below, whose scale is that of y / lam
    slack = _PRUNE_SLACK * (1 + abs(lo1) + abs(hi1) + (abs(lo0) + abs(hi0)) / lam)
    first = np.empty(Y.shape, dtype=np.intp)
    end = np.empty(Y.shape, dtype=np.intp)
    for i, axis in enumerate(axes0):
        # the partner (y - (1-lam) y0) / lam decreases in y0
        first[:, i] = np.searchsorted(axis, (Y[:, i] - lam * (hi1[i] + slack[i])) / (1 - lam))
        end[:, i] = np.searchsorted(
            axis, (Y[:, i] - lam * (lo1[i] - slack[i])) / (1 - lam), side="right"
        )
    return first, np.maximum(end, first)


def _positive_runs(pos0: np.ndarray, ppa: int):
    """Per line of f0's grid (the last index running), the range [lo, hi) of
    its positive nodes, or None if some line's positive nodes have a gap."""
    pos = pos0.reshape(-1, ppa)
    lo = pos.argmax(axis=1)
    hi = ppa - pos[:, ::-1].argmax(axis=1)
    none = ~pos[np.arange(len(pos)), lo]
    lo[none] = hi[none] = 0
    return (lo, hi) if (pos.sum(axis=1) == hi - lo).all() else None


def _pair_nodes(first: np.ndarray, end: np.ndarray, ppa: int, runs):
    """(flat grid node of every pair, pairs per row) for the index boxes
    [first, end) per row, the last axis cut to ``runs`` unless it is None.

    Rows ascend, and each row's nodes come in flat-grid order: a segment per
    (row, leading indices) holds a contiguous run of the flat index.
    """
    seg = np.arange(len(first))  # the row of each segment
    node = np.zeros(len(first), dtype=np.intp)
    last = first.shape[1] - 1
    for i in range(last + 1):
        lo, hi = first[seg, i], end[seg, i]
        if i == last and runs is not None:
            lo = np.maximum(lo, runs[0].take(node))
            hi = np.maximum(np.minimum(hi, runs[1].take(node)), lo)
        count = hi - lo
        # the runs [start, start + count) of each segment, concatenated
        start = node * ppa + lo - (np.cumsum(count) - count)
        node = np.arange(count.sum()) + np.repeat(start, count)
        if i < last:
            seg = np.repeat(seg, count)
    return node, np.bincount(seg, weights=count, minlength=len(first)).astype(np.intp)


def _row_blocks(pairs_per_row: np.ndarray):
    """Consecutive row ranges of at most _PAIR_BUDGET pairs, or single rows."""
    cum = np.cumsum(pairs_per_row)
    r0 = 0
    while r0 < len(cum):
        base = cum[r0 - 1] if r0 else 0
        r1 = max(r0 + 1, int(np.searchsorted(cum, base + _PAIR_BUDGET, side="right")))
        yield r0, r1
        r0 = r1


def _sup_grid(inst: BBLInstance, Y: np.ndarray, grid0: _Grid) -> np.ndarray:
    """Grid sup-convolution at the rows of Y: ``mean_p`` on each row's top-ranked pair.

    ``grid0`` is f0 on its midpoint grid.  Rows without a pair where both
    values are positive get 0.
    """
    lam = inst.lam
    ppa = len(grid0.axes[0])
    first, end = _partner_ranges(inst, Y, grid0.axes)
    pos0 = grid0.values > 0
    runs = _positive_runs(pos0, ppa)
    key0 = np.zeros(len(pos0))
    key0[pos0] = _node_key(inst.ell, grid0.values[pos0], lam)
    # a coordinate per row, so the partners come out column-major and the
    # fields' broadcasts run down whole columns
    Yt = Y.T.copy()
    w0t = (1 - lam) * grid0.pts.T
    top0 = np.zeros(len(Y))
    top1 = np.zeros(len(Y))
    for r0, r1 in _row_blocks(np.prod(end - first, axis=1)):
        node, count = _pair_nodes(first[r0:r1], end[r0:r1], ppa, runs)
        hit = np.flatnonzero(count)
        if len(hit) == 0:
            continue
        # y1 determined by the decomposition y = (1-lam) y0 + lam y1
        y1 = Yt[:, r0:r1].repeat(count, axis=1)
        y1 -= w0t.take(node, axis=1)
        y1 /= lam
        v1 = inst.f1(y1.T)
        # one pass each, and NaN fails both
        if not (v1.min() >= 0 and v1.max() < math.inf):
            raise ValueError("mean operands must be nonnegative reals")
        with np.errstate(divide="ignore", invalid="ignore"):
            key = _log_mean_key(inst.ell, key0.take(node), v1, lam)
        zero = v1 == 0
        if runs is None:
            zero |= ~pos0.take(node)
        np.copyto(key, -math.inf, where=zero)
        # each row's first pair of largest key, as argmax would pick it
        count = count[hit]
        starts = np.cumsum(count) - count
        top = np.maximum.reduceat(key, starts)
        best = np.flatnonzero(key == np.repeat(top, count))
        best = best[np.searchsorted(best, starts)]
        won = top > -math.inf
        hit, best = hit[won], best[won]
        top0[r0 + hit] = grid0.values.take(node[best])
        top1[r0 + hit] = v1[best]
    return mean_p(inst.ell, top0, top1, lam)


def sup_convolution(inst: BBLInstance, y) -> float:
    """Grid sup of M_ell(f0(y0), f1(y1); lam) over decompositions of y.

    Zero outside the Minkowski combination of the supports.  Raises
    :class:`ResolutionError` if the combination body certifies that a
    positive value exists at y but the grid cannot find one.
    """
    y = np.atleast_1d(np.asarray(y, dtype=float))
    grid0 = _field_grid(inst.f0, inst.points_per_axis)
    out = float(_sup_grid(inst, y[None, :], grid0)[0])
    if out == 0.0:
        try:
            comb = minkowski_combine(1 - inst.lam, inst.f0.support, inst.lam, inst.f1.support)
        except NotRepresentableError:
            return out
        interior = comb.contains(y, tol=-1e-9 * comb.diameter())
        if interior and _is_indicator_like(inst):
            raise ResolutionError(
                "grid too coarse: the support combination guarantees a positive "
                f"sup at {y.tolist()} but the grid found none"
            )
    return out


def _is_indicator_like(inst: BBLInstance) -> bool:
    # positivity on the whole support holds for indicators, where the
    # Minkowski combination argument is exact
    z0 = inst.f0.support.interior_point()
    z1 = inst.f1.support.interior_point()
    return inst.f0(z0) > 0 and inst.f1(z1) > 0


def _lhs_and_masses(inst: BBLInstance, ppa: int):
    lo0, hi0 = inst.f0.support.bounding_box()
    lo1, hi1 = inst.f1.support.bounding_box()
    lam = inst.lam
    Y, cell = midpoint_grid((1 - lam) * lo0 + lam * lo1, (1 - lam) * hi0 + lam * hi1, ppa)
    grid0 = _field_grid(inst.f0, ppa)
    lhs = float(_sup_grid(inst, Y, grid0).sum() * cell)
    return lhs, grid0.mass, _field_grid(inst.f1, ppa).mass


def verify_bbl(inst: BBLInstance) -> BBLReport:
    """Check integral-of-sup against the mean of the masses.

    The tolerance is 2x the observed full-vs-half resolution differences of
    both sides plus a relative floor, a first-order model of the one-sided
    grid bias.  A negative margin beyond it falsifies the discretization,
    not the inequality.
    """
    ppa = inst.points_per_axis
    lhs, m0, m1 = _lhs_and_masses(inst, ppa)
    lhs_c, m0_c, m1_c = _lhs_and_masses(inst, max(8, ppa // 2))
    if m0 <= 0 or m1 <= 0:
        raise ValueError("both masses must be positive")
    exp = bbl_exponent(inst.ell, inst.dim)
    rhs, rhs_c = mean_p(exp, [m0, m0_c], [m1, m1_c], inst.lam).tolist()
    tol = 2.0 * (abs(lhs - lhs_c) + abs(rhs - rhs_c)) + 1e-9 * max(lhs, rhs)
    return BBLReport(
        lhs=lhs,
        rhs=rhs,
        margin=lhs - rhs,
        tolerance=tol,
        mass0=m0,
        mass1=m1,
        marginal_exponent=exp,
        grid_points=inst.grid_points,
    )
