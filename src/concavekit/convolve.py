"""Space convolution Gamma(x, t) = integral of phi(x - y, t) psi(y) dy.

The engine integrates over the compact support of psi with one scheme, a
midpoint tensor grid (membership-masked for non-box supports), in n <= 3
dimensions; n >= 4 is refused until a validated rule exists.  Error estimates
combine a Richardson comparison at half resolution with a boundary-layer term
for masked supports; box-like supports align exactly with the grid and carry
no masking error.

The nodes (masked grids with psi's values) are built once per quadrature plan
and psi; a batch of points (x, t) is evaluated through them in row blocks of
bounded size.  ``ConvolutionField._eval`` is the one path: it returns the
values with their error estimates as the bound of the fields' one hook, and
``convolve_at`` and the ``convolve`` subcommand reach it through ``eval_with_error``.

For interval indicators in one dimension the heat and Poisson convolutions
have closed forms (erf and arctan antiderivatives).  These serve as oracles
for the quadrature path and as exact, noise-free space-time fields for the
concavity checks.

Grid sums go through numpy's pairwise reduction along each row, so results
are bit-stable for a fixed grid and do not depend on the batch a point is
in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fields import (
    GaussWeierstrassKernel,
    PoissonKernel,
    ScalarField,
    SpaceTimeField,
)
from .geometry import Box, ConvexBody, Key, Polytope, Record, midpoint_grid, number

__all__ = [
    "QuadratureSpec",
    "ConvolutionResult",
    "ResolutionError",
    "convolve_at",
    "gauss_weierstrass_integral",
    "poisson_integral",
    "oracle_W_interval",
    "oracle_P_interval",
    "ConvolutionField",
    "HeatIndicatorField",
    "PoissonIndicatorField",
    "KERNELS",
]

# the kernels by their descriptor and command-line names
KERNELS = {"gw": GaussWeierstrassKernel, "poisson": PoissonKernel}


class ResolutionError(RuntimeError):
    """A quadrature or sup-convolution grid is too coarse for the answer asked of it."""


# default midpoints per axis by dimension n: 256**1, 96**2 and 32**3 nodes
_POINTS_PER_AXIS = {1: 256, 2: 96, 3: 32}


@dataclass(frozen=True)
class QuadratureSpec:
    """Integration plan over a compact support body: a midpoint tensor grid.

    ``points_per_axis`` (at least 8) defaults to 256 in 1-d, 96 in 2-d and
    32 in 3-d.  A support of dimension 4 or more is refused (ValueError):
    no rule with validated error bars exists there.
    """

    support: ConvexBody
    points_per_axis: int = 0
    error_budget: float | None = None

    def __post_init__(self):
        if self.support.dim not in _POINTS_PER_AXIS:
            raise ValueError(f"quadrature supports dimensions 1 to 3, not {self.support.dim}")
        ppa = self.points_per_axis or _POINTS_PER_AXIS[self.support.dim]
        if ppa < 8:
            raise ValueError("tensor grids need at least 8 points per axis")
        object.__setattr__(self, "points_per_axis", ppa)

    @classmethod
    def default_for(cls, support: ConvexBody, **kw) -> "QuadratureSpec":
        return cls(support=support, **kw)


@dataclass(frozen=True)
class ConvolutionResult(Record):
    value: float
    est_error: float

    def __post_init__(self):
        if self.value < 0 or self.est_error < 0:
            raise ValueError("convolution values and error estimates are nonnegative")


# Terms of one (points x nodes) block, sized like bbl._PAIR_BUDGET, so memory
# does not grow with the batch; a row of more nodes is a block of its own
_NODE_BUDGET = 1 << 14


def _terms(phi: SpaceTimeField, X, T, Y, w) -> np.ndarray:
    """phi(x_i - y_j, t_i) w_j for the rows (x_i, t_i) and the nodes y_j, shape (rows, nodes)."""
    D = (X[:, None, :] - Y).reshape(len(X) * len(Y), X.shape[1])
    return phi._eval(D, np.repeat(T, len(Y)))[0].reshape(len(X), len(Y)) * w


class _Nodes:
    """The midpoint-grid nodes of one QuadratureSpec and data psi, built once.

    ``levels`` holds (nodes, psi at the nodes, cell volume) triples: the
    masked midpoints at full and half resolution, and for supports that do
    not align with the grid the quarter-resolution nodes whose peak term
    times ``boundary`` bounds the masking error.
    """

    def __init__(self, psi: ScalarField, quad: QuadratureSpec):
        support, self.quad = quad.support, quad
        lo, hi = support.bounding_box()
        if psi.support is not None:
            slo, shi = psi.support.bounding_box()
            if not (np.allclose(slo, lo) and np.allclose(shi, hi)):
                raise ValueError("psi support does not match the quadrature support")
        ppa = quad.points_per_axis
        aligned = isinstance(support, Box) or (isinstance(support, Polytope) and len(lo) == 1)
        h = float(np.max((hi - lo) / ppa))
        self.boundary = 0.0 if aligned else support.surface_area() * h
        self.levels = []
        for n in [ppa, max(8, ppa // 2)] + [max(8, ppa // 4)] * (not aligned):
            pts, cell = midpoint_grid(lo, hi, n)
            Y = pts[support.contains_many(pts)]
            self.levels.append((Y, psi(Y), cell))
        self.block_rows = max(1, _NODE_BUDGET // max(1, len(self.levels[0][0])))

    def evaluate(self, phi: SpaceTimeField, X, T):
        """(values, est_errors) at the normalized rows of X and times T, in blocks of rows.

        Refuses a non-finite point (ValueError) and an exceeded error budget (ResolutionError).
        """
        if not np.isfinite(X).all():
            raise ValueError("convolution points must be finite")
        values, errors = np.empty(len(X)), np.empty(len(X))
        weight = self.levels[0][2]
        for i in range(0, len(X), self.block_rows):
            s = slice(i, i + self.block_rows)
            terms = [_terms(phi, X[s], T[s], Y, w) for Y, w, _ in self.levels]
            values[s] = terms[0].sum(axis=1) * weight
            errors[s] = np.abs(values[s] - terms[1].sum(axis=1) * self.levels[1][2])
            if len(terms) > 2:
                errors[s] += self.boundary * terms[2].max(axis=1, initial=0.0)
        budget = self.quad.error_budget
        if budget is not None and (errors > budget).any():
            est = errors[np.argmax(errors > budget)]
            raise ResolutionError(f"estimated error {est:.3e} exceeds the budget {budget:.3e}")
        return np.maximum(0.0, values), errors


def convolve_at(
    phi: SpaceTimeField, psi: ScalarField, x, t: float, quad: QuadratureSpec
) -> ConvolutionResult:
    """Evaluate Gamma(x, t) = integral over quad.support of phi(x-y, t) psi(y) dy.

    The support of psi must agree with ``quad.support`` (dimension 1 to 3).
    est_error is the Richardson difference of the midpoint grid against half
    resolution plus a boundary-cell bound for masked (non-box) supports.
    Raises :class:`ResolutionError` when an error budget is configured and
    exceeded.
    """
    (value,), (est,) = ConvolutionField(phi, psi, quad).eval_with_error(np.reshape(x, (1, -1)), [t])
    return ConvolutionResult(value=float(value), est_error=float(est))


def gauss_weierstrass_integral(
    g: ScalarField, x, t: float, quad: QuadratureSpec
) -> ConvolutionResult:
    """Heat-kernel convolution of compactly supported data g."""
    return convolve_at(GaussWeierstrassKernel(g.dim), g, x, t, quad)


def poisson_integral(g: ScalarField, x, t: float, quad: QuadratureSpec) -> ConvolutionResult:
    """Half-space Poisson convolution of compactly supported data g."""
    return convolve_at(PoissonKernel(g.dim), g, x, t, quad)


def _heat_interval(a: float, b: float, x, t):
    from scipy.special import erf  # on first use: scipy costs 0.3 s to import

    s = 2.0 * np.sqrt(t)
    return 0.5 * (erf((b - x) / s) - erf((a - x) / s))


def _poisson_interval(a: float, b: float, x, t):
    return (np.arctan((b - x) / t) - np.arctan((a - x) / t)) / math.pi


def _oracle(kernel, a: float, b: float, x, t):
    if not a < b:
        raise ValueError("requires a < b")
    x = np.asarray(x, dtype=float)
    t = np.asarray(t, dtype=float)
    if (t <= 0).any():
        raise ValueError("time must be positive")
    out = kernel(a, b, x, t)
    return float(out) if out.ndim == 0 else out


def oracle_W_interval(a: float, b: float, x, t):
    """Closed form of the heat convolution of the indicator of [a, b] (n = 1).

    Equals (erf((b-x)/2 sqrt(t)) - erf((a-x)/2 sqrt(t))) / 2; tends to the
    indicator as t -> 0+ and to 0 far from the interval.
    """
    return _oracle(_heat_interval, a, b, x, t)


def oracle_P_interval(a: float, b: float, x, t):
    """Closed form of the Poisson convolution of the indicator of [a, b] (n = 1).

    Equals (arctan((b-x)/t) - arctan((a-x)/t)) / pi: the viewing angle of
    the segment [a, b] from the point (x, t), normalized by pi.
    """
    return _oracle(_poisson_interval, a, b, x, t)


class ConvolutionField(
    SpaceTimeField, kind="convolution", keys={"kernel": Key(str, "gw"), "psi": ScalarField}
):
    """Gamma(x, t) as a space-time field backed by quadrature.

    ``_eval`` returns the quadrature error estimates as the values' bound, so
    ``eval_with_error`` and every field built on this one carry them and the
    concavity checkers keep strictness claims above the noise floor.
    Its descriptor integrates with the default quadrature for psi's support.
    A psi whose support does not match the quadrature's is refused at construction.
    """

    def __init__(self, phi: SpaceTimeField, psi: ScalarField, quad: QuadratureSpec):
        self.phi = phi
        self.psi = psi
        self.quad = quad
        self.dim = phi.dim
        self.t_lo = phi.t_lo
        self.t_hi = phi.t_hi
        self._nodes = _Nodes(psi, quad)

    def _eval(self, P, T):
        return self._nodes.evaluate(self.phi, P, T)

    @classmethod
    def _build(cls, kernel, psi):
        if kernel not in KERNELS:
            raise ValueError(f"unknown convolution kernel: {kernel!r}")
        if psi.support is None:
            raise ValueError("convolution data needs a compact support")
        return cls(KERNELS[kernel](psi.dim), psi, QuadratureSpec.default_for(psi.support))

    def to_json(self):
        raise ValueError("a convolution field's quadrature has no descriptor")


class _IntervalOracle(SpaceTimeField):
    """Exact kernel convolution of an interval indicator (n = 1) by the closed form ``_form``."""

    def __init__(self, a: float, b: float):
        if not a < b:
            raise ValueError("requires a < b")
        self.a, self.b = float(a), float(b)
        self.dim = 1
        self.claimed_exponent = -math.inf
        self.claimed_mode = "strict"

    def _eval(self, P, T):
        # the times were checked by _args; a < b by the constructor
        return self._form(self.a, self.b, P[:, 0], T), 0.0


class HeatIndicatorField(_IntervalOracle, kind="oracle_w", keys={"a": number, "b": number}):
    """Exact heat convolution of an interval indicator (n = 1, closed form)."""

    claimed_alpha = 0.5
    _form = staticmethod(_heat_interval)


class PoissonIndicatorField(_IntervalOracle, kind="oracle_p", keys={"a": number, "b": number}):
    """Exact Poisson convolution of an interval indicator (n = 1, closed form)."""

    claimed_alpha = 1.0
    _form = staticmethod(_poisson_interval)
