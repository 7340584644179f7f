"""Desk-scale discretized verification of the Borell-Brascamp-Lieb inequality.

An instance is a pair of nonnegative, compactly supported fields f0, f1, an
exponent ell >= -1/n, and a mixing weight lam in (0, 1).  The sup-convolution

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

Each grid row's maximizing pair is found with a float64 key that increases
with M_ell (log M_ell for finite ell, max/min at ell = +/-inf); ``mean_p``
then runs once per row, on that pair.  So every reported value comes from
``mean_p`` in extended precision, and a near-tie the key misorders costs a
few ulps of the sup.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .convolve import ResolutionError
from .fields import ScalarField
from .geometry import NotRepresentableError, midpoint_grid, minkowski_combine
from .means import _P_GEOMETRIC, bbl_exponent, mean_p

__all__ = ["BBLInstance", "BBLReport", "sup_convolution", "verify_bbl", "instance_from_json"]


@dataclass(frozen=True)
class BBLInstance:
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
        if self.grid_points < 8:
            raise ValueError("needs at least 8 grid points")

    @property
    def dim(self) -> int:
        return self.f0.dim

    @property
    def points_per_axis(self) -> int:
        return max(8, int(round(self.grid_points ** (1.0 / self.dim))))


@dataclass(frozen=True)
class BBLReport:
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

    def to_json(self) -> dict:
        return asdict(self)


def _log_mean_key(ell: float, a, b, lam: float) -> np.ndarray:
    """Float64 key increasing in M_ell(a, b; lam) for a > 0; -inf where b == 0.

    For finite ell it is log M_ell = (hi + log1p(w expm1(-|x - y|))) / ell with
    x = ell log a, y = ell log b, hi = max(x, y), w the weight of the smaller
    term: raw powers s**ell underflow and tie at large |ell|, and a log-sum-exp
    of log(1-lam) + x, log(lam) + y loses eps/|ell| of resolution at small |ell|.
    ``a`` broadcasts against ``b``; the key is computed only where b > 0, in
    place on those pairs.
    """
    live = b > 0

    def gather(v):
        return np.broadcast_to(v, b.shape)[live]

    y = b[live]
    if math.isinf(ell):
        (np.maximum if ell > 0 else np.minimum)(gather(a), y, out=y)
    else:
        with np.errstate(divide="ignore"):
            la = np.log(a)
        np.log(y, out=y)
        if abs(ell) < _P_GEOMETRIC:
            y *= lam
            y += gather((1 - lam) * la)
        else:
            x = gather(ell * la)
            y *= ell
            w = np.where(x >= y, lam, 1 - lam)
            d = x - y
            np.abs(d, out=d)
            np.negative(d, out=d)
            np.expm1(d, out=d)
            d *= w
            np.log1p(d, out=d)
            np.maximum(x, y, out=y)
            y += d
            y /= ell
    key = np.full(b.shape, -np.inf)
    key[live] = y
    return key


def _sup_grid(inst: BBLInstance, Y: np.ndarray, ppa: int) -> np.ndarray:
    """Grid sup-convolution at the rows of Y: ``mean_p`` on each row's top-ranked pair."""
    y0, _ = midpoint_grid(*inst.f0.support.bounding_box(), ppa)
    v0 = inst.f0(y0)
    pos = v0 > 0
    y0, v0 = y0[pos], v0[pos]
    if len(y0) == 0:
        return np.zeros(len(Y))
    # y1 determined by the decomposition y = (1-lam) y0 + lam y1
    y1 = (Y[:, None, :] - (1 - inst.lam) * y0[None, :, :]) / inst.lam
    v1 = inst.f1(y1.reshape(-1, inst.dim)).reshape(len(Y), len(y0))
    if not (np.isfinite(v1).all() and (v1 >= 0).all()):
        raise ValueError("mean operands must be nonnegative reals")
    best = _log_mean_key(inst.ell, v0, v1, inst.lam).argmax(axis=1)
    return mean_p(inst.ell, v0[best], v1[np.arange(len(Y)), best], inst.lam)


def sup_convolution(inst: BBLInstance, y) -> float:
    """Grid sup of M_ell(f0(y0), f1(y1); lam) over decompositions of y.

    Zero outside the Minkowski combination of the supports.  Raises
    :class:`ResolutionError` if the combination body certifies that a
    positive value exists at y but the grid cannot find one.
    """
    y = np.atleast_1d(np.asarray(y, dtype=float))
    out = float(_sup_grid(inst, y[None, :], inst.points_per_axis)[0])
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
    lhs = float(_sup_grid(inst, Y, ppa).sum() * cell)

    def mass(f):
        pts, c = midpoint_grid(*f.support.bounding_box(), ppa)
        return float(f(pts).sum() * c)

    return lhs, mass(inst.f0), mass(inst.f1)


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
    rhs = mean_p(exp, m0, m1, inst.lam)
    rhs_c = mean_p(exp, m0_c, m1_c, inst.lam)
    tol = 2.0 * (abs(lhs - lhs_c) + abs(rhs - rhs_c)) + 1e-9 * max(lhs, rhs)
    return BBLReport(
        lhs=lhs,
        rhs=float(rhs),
        margin=lhs - float(rhs),
        tolerance=tol,
        mass0=m0,
        mass1=m1,
        marginal_exponent=exp,
        grid_points=inst.grid_points,
    )


def instance_from_json(data: dict) -> BBLInstance:
    """Build an instance from {"f0": field, "f1": field, "ell": ..., "lambda": ...}."""
    from .fields import field_from_json
    from .means import as_exponent

    return BBLInstance(
        f0=field_from_json(data["f0"]),
        f1=field_from_json(data["f1"]),
        ell=as_exponent(data["ell"]),
        lam=float(data["lambda"]),
        grid_points=int(data.get("grid_points", 512)),
    )
