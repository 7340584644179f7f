"""Desk-scale discretized verification of the Borell-Brascamp-Lieb inequality.

An instance is a pair of nonnegative, compactly supported fields f0, f1, an
exponent ell >= -1/n as ``bbl_exponent`` reads it, and a mixing weight lam in
(0, 1): a descriptor of kind ``bbl_instance``, whose ``"kind"`` a JSON file
may leave out.  The sup-convolution

    S(y) = sup { M_ell(f0(y0), f1(y1); lam) : (1-lam) y0 + lam y1 = y }

is maximized over a midpoint grid of f0's support (the essential sup of the
continuous instance families used here equals the sup), and the inequality

    integral S(y) dy  >=  M_{ell/(1+n ell)}(mass f0, mass f1; lam)

is checked up to a first-order grid tolerance.  The grid sup can only
undershoot, so the left side carries an O(h) downward bias; the tolerance is
calibrated from the same computation at half resolution (which doubles that
bias), plus the matching mass-quadrature bias on the right side.

One pass.  ``verify_bbl`` stacks each grid (the rows y, f0's and f1's) at
both resolutions, evaluates each field once on its stacked grids, refusing
a negative or NaN value, and enumerates the pairs of both resolutions' rows
together, each row with f0's grid of its own resolution, in blocks of at
most ``_PAIR_BUDGET`` (2**14) pairs or one larger row, so memory does not
grow with the grid.

Which pairs are evaluated.  A row y pairs with a node y0 of f0's grid
through the partner y1 = (y - (1-lam) y0) / lam.  Only nodes whose partner
can lie in f1's support bounding box [lo1, hi1] are enumerated, the box
widened per axis by 1e-9 (1 + |lo1| + |hi1| + (|lo0| + |hi0|) / lam), with
[lo0, hi0] f0's box: one index range per axis, found by binary search, the
last one cut to the span of f0's positive nodes on its grid line.  f1 is
evaluated and validated on every pair enumerated.  This relies on the
contract of ``ScalarField.support``: a field vanishes outside its support's
bounding box widened by 1e-9 (1 + |lo| + |hi|), which covers the membership
tolerance; the slack above adds the rounding of the partners.  f1 values
outside the widened box are never computed or checked, so a field positive
there loses those values without an error.

Each row's maximizing pair is found with a float64 key that increases with
M_ell (log M_ell for finite ell, max at ell = +inf), the first such
pair in flat-grid order as ``argmax`` would pick it.  f0's part of the key
is computed once per positive node.  A pair with a zero value gets the key
-inf and never wins; a row whose pairs all have one gets 0.  ``mean_p`` runs
once, in extended precision, on every row's winning pair, so a near-tie the
key misorders costs a few ulps of the sup.
"""

from __future__ import annotations

import itertools
import math
import sys
from dataclasses import dataclass

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
        bbl_exponent(self.ell, self.dim)
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
    +inf, (1-lam) log a in the geometric case, ell log a otherwise."""
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
        return np.maximum(x, b)
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


def _values(f: ScalarField, P: np.ndarray) -> np.ndarray:
    """f at the rows of P, refused unless every value is a nonnegative real."""
    v = f(P)
    # one pass each, and NaN fails both
    if not (v.min() >= 0 and v.max() < math.inf):
        raise ValueError("mean operands must be nonnegative reals")
    return v


def _slices(sizes) -> list:
    """Consecutive slices of the given sizes."""
    return [slice(end - n, end) for n, end in zip(sizes, itertools.accumulate(sizes))]


def _grids(lo, hi, ppas):
    """The midpoint grids of [lo, hi] at ``ppas`` points per axis, stacked, and
    the midpoint rule on them: stacked values -> one integral per grid."""
    grids = [midpoint_grid(lo, hi, k) for k in ppas]
    parts = _slices([len(pts) for pts, _ in grids])

    def integrals(v):
        return [float(v[part].sum() * cell) for part, (_, cell) in zip(parts, grids)]

    return np.concatenate([pts for pts, _ in grids]), integrals


def _partner_ranges(inst: BBLInstance, Y: np.ndarray, rows, ppas):
    """Per row of Y and per axis, the range [first, end) of f0's grid indices
    whose partner can lie in f1's widened support box.  The first ``rows[0]``
    rows pair with f0's grid of ``ppas[0]`` points per axis, and so on."""
    lam = inst.lam
    lo0, hi0 = inst.f0.support.bounding_box()
    lo1, hi1 = inst.f1.support.bounding_box()
    # covers the membership tolerance, and the rounding of the partners and
    # of the inverted bounds below, whose scale is that of y / lam
    slack = _PRUNE_SLACK * (1 + abs(lo1) + abs(hi1) + (abs(lo0) + abs(hi0)) / lam)
    # the partner (y - (1-lam) y0) / lam decreases in y0
    y0_lo = (Y - lam * (hi1 + slack)) / (1 - lam)
    y0_hi = (Y - lam * (lo1 - slack)) / (1 - lam)
    first, end = np.empty((2, *Y.shape), dtype=np.intp)
    for r, ppa in zip(_slices(rows), ppas):
        for i, axis in enumerate(midpoint_axes(lo0, hi0, ppa)):
            first[r, i] = axis.searchsorted(y0_lo[r, i])
            end[r, i] = axis.searchsorted(y0_hi[r, i], side="right")
    return first, np.maximum(end, first)


def _positive_runs(pos0: np.ndarray, ppas, dim: int):
    """Per node of f0's stacked grids, the span [lo, hi) of the positive
    nodes on its grid line (the last index running), and whether some
    line has a zero node inside its span."""
    (lo, hi), gap = np.empty((2, len(pos0)), dtype=np.intp), False
    for part, ppa in zip(_slices(np.power(ppas, dim)), ppas):
        pos = pos0[part].reshape(-1, ppa)
        first = pos.argmax(axis=1)
        end = (ppa - pos[:, ::-1].argmax(axis=1)) * pos.any(axis=1)
        gap = gap or (pos.sum(axis=1) < end - first).any()
        lo[part], hi[part] = first.repeat(ppa), end.repeat(ppa)
    return lo, hi, gap


def _pair_nodes(first, end, ppa, node_off, runs):
    """(stacked grid node of every pair, pairs per row) for the index boxes
    [first, end) per row, the last axis cut to its line's span in ``runs``.

    ``ppa`` and ``node_off`` give per row the points per axis of its f0 grid
    and that grid's first node in the stack.  Rows ascend, and each row's
    nodes come in flat-grid order: a segment per (row, leading indices)
    holds a contiguous run of the flat index.
    """
    seg = np.arange(len(first))  # the row of each segment
    node = np.zeros(len(first), dtype=np.intp)
    last = first.shape[1] - 1
    for i in range(last + 1):
        lo, hi = first[seg, i], end[seg, i]
        start = node * ppa.take(seg)
        if i == last:
            start += node_off.take(seg)  # the grid line's first node
            lo = np.maximum(lo, runs[0].take(start))
            hi = np.maximum(np.minimum(hi, runs[1].take(start)), lo)
        count = hi - lo
        # the runs [start, start + count) of each segment, concatenated
        start += lo - (np.cumsum(count) - count)
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


def _sup_grid(inst: BBLInstance, Y: np.ndarray, rows, ppas, P0: np.ndarray, v0: np.ndarray):
    """Grid sup-convolution at the rows of Y: ``mean_p`` on each row's top-ranked pair.

    The first ``rows[0]`` rows pair with f0's midpoint grid of ``ppas[0]``
    points per axis, the next ``rows[1]`` with that of ``ppas[1]``, and so
    on.  ``P0`` stacks those grids in that order, and ``v0`` holds f0's
    values there.  Rows without a pair where both values are positive get 0.
    """
    lam = inst.lam
    nodes = np.power(ppas, inst.dim)
    ppa, node_off = np.repeat(ppas, rows), np.repeat(np.cumsum(nodes) - nodes, rows)
    first, end = _partner_ranges(inst, Y, rows, ppas)
    pos0 = v0 > 0
    *runs, gap = _positive_runs(pos0, ppas, inst.dim)
    key0 = np.zeros(len(pos0))
    key0[pos0] = _node_key(inst.ell, v0[pos0], lam)
    # a coordinate per row, so the partners come out column-major and the
    # fields' broadcasts run down whole columns
    Yt = Y.T.copy()
    w0t = (1 - lam) * P0.T
    top0, top1 = np.zeros(len(Y)), np.zeros(len(Y))
    for r0, r1 in _row_blocks(np.prod(end - first, axis=1)):
        node, count = _pair_nodes(first[r0:r1], end[r0:r1], ppa[r0:r1], node_off[r0:r1], runs)
        hit = np.flatnonzero(count)
        if len(hit) == 0:
            continue
        # y1 determined by the decomposition y = (1-lam) y0 + lam y1
        y1 = Yt[:, r0:r1].repeat(count, axis=1)
        y1 -= w0t.take(node, axis=1)
        y1 /= lam
        v1 = _values(inst.f1, y1.T)
        with np.errstate(divide="ignore", invalid="ignore"):
            key = _log_mean_key(inst.ell, key0.take(node), v1, lam)
        zero = v1 == 0
        if gap:
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
        top0[r0 + hit] = v0.take(node[best])
        top1[r0 + hit] = v1[best]
    return mean_p(inst.ell, top0, top1, lam)


def sup_convolution(inst: BBLInstance, y) -> float:
    """Grid sup of M_ell(f0(y0), f1(y1); lam) over decompositions of y.

    Zero outside the Minkowski combination of the supports.  Raises
    :class:`ResolutionError` if the combination body certifies that a
    positive value exists at y but the grid cannot find one.
    """
    y = np.atleast_1d(np.asarray(y, dtype=float))
    ppa = inst.points_per_axis
    P0, _ = midpoint_grid(*inst.f0.support.bounding_box(), ppa)
    out = float(_sup_grid(inst, y[None, :], [1], [ppa], P0, _values(inst.f0, P0))[0])
    if out == 0.0:
        try:
            comb = minkowski_combine(1 - inst.lam, inst.f0.support, inst.lam, inst.f1.support)
        except NotRepresentableError:
            return out
        interior = comb.contains(y, tol=-1e-9 * comb.diameter())
        # positivity on the whole support holds for indicators, where the
        # Minkowski combination argument is exact
        if interior and all(f(f.support.interior_point()) > 0 for f in (inst.f0, inst.f1)):
            raise ResolutionError(
                "grid too coarse: the support combination guarantees a positive "
                f"sup at {y.tolist()} but the grid found none"
            )
    return out


def verify_bbl(inst: BBLInstance) -> BBLReport:
    """Check integral-of-sup against the mean of the masses.

    The tolerance is 2x the observed full-vs-half resolution differences of
    both sides plus a relative floor, a first-order model of the one-sided
    grid bias.  A negative margin beyond it falsifies the discretization,
    not the inequality.
    """
    exp = bbl_exponent(inst.ell, inst.dim)
    lam, ppa = inst.lam, inst.points_per_axis
    ppas = [ppa, max(8, ppa // 2)]
    (lo0, hi0), (lo1, hi1) = inst.f0.support.bounding_box(), inst.f1.support.bounding_box()
    Y, lhs_of = _grids((1 - lam) * lo0 + lam * lo1, (1 - lam) * hi0 + lam * hi1, ppas)
    P0, mass0_of = _grids(lo0, hi0, ppas)
    P1, mass1_of = _grids(lo1, hi1, ppas)
    v0 = _values(inst.f0, P0)
    (m0, m0_c), (m1, m1_c) = mass0_of(v0), mass1_of(_values(inst.f1, P1))
    if m0 <= 0 or m1 <= 0:
        raise ValueError("both masses must be positive")
    lhs, lhs_c = lhs_of(_sup_grid(inst, Y, np.power(ppas, inst.dim), ppas, P0, v0))
    rhs, rhs_c = mean_p(exp, [m0, m0_c], [m1, m1_c], lam).tolist()
    tol = 2.0 * (abs(lhs - lhs_c) + abs(rhs - rhs_c)) + 1e-9 * max(lhs, rhs)
    return BBLReport(lhs, rhs, lhs - rhs, tol, m0, m1, exp, inst.grid_points)
