"""Space convolution Gamma(x, t) = integral of phi(x - y, t) psi(y) dy.

The engine integrates over the compact support of psi with a midpoint tensor
grid (membership-masked for non-box supports) or Monte Carlo beyond two
dimensions.  Error estimates combine a Richardson comparison at half
resolution with a boundary-layer term for masked supports; box-like supports
align exactly with the grid and carry no masking error.

For interval indicators in one dimension the heat and Poisson convolutions
have closed forms (erf and arctan antiderivatives).  These serve as oracles
for the quadrature path and as exact, noise-free space-time fields for the
concavity checks.

Grid sums go through numpy's pairwise reduction, so results are bit-stable
for a fixed grid; Monte Carlo draws from a seeded Philox stream.
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
from .geometry import Ball, Box, ConvexBody, Key, Polytope, midpoint_grid, number
from .sampling import make_rng

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


@dataclass(frozen=True)
class QuadratureSpec:
    """Integration plan over a compact support body.

    ``scheme`` is "tensor_grid" (midpoint rule, >= 8 points per axis) or
    "monte_carlo".  The default resolution is 256 points per axis in 1-d and
    96 in 2-d; Monte Carlo is the default beyond 2-d.
    """

    support: ConvexBody
    scheme: str = "tensor_grid"
    points_per_axis: int = 0
    mc_samples: int = 200_000
    mc_seed: int = 0
    error_budget: float | None = None

    def __post_init__(self):
        if self.scheme not in ("tensor_grid", "monte_carlo"):
            raise ValueError(f"unknown quadrature scheme: {self.scheme!r}")
        if self.scheme == "tensor_grid":
            ppa = self.points_per_axis or (256 if self.support.dim == 1 else 96)
            if ppa < 8:
                raise ValueError("tensor grids need at least 8 points per axis")
            object.__setattr__(self, "points_per_axis", ppa)

    @classmethod
    def default_for(cls, support: ConvexBody, **kw) -> "QuadratureSpec":
        scheme = "tensor_grid" if support.dim <= 2 else "monte_carlo"
        return cls(support=support, scheme=scheme, **kw)


@dataclass(frozen=True)
class ConvolutionResult:
    value: float
    est_error: float

    def __post_init__(self):
        if self.value < 0 or self.est_error < 0:
            raise ValueError("convolution values and error estimates are nonnegative")

    def to_json(self) -> dict:
        return {"value": self.value, "est_error": self.est_error}


def _boundary_measure(support: ConvexBody) -> float:
    """Surface measure of the support boundary (0 where the grid aligns with it)."""
    if isinstance(support, Box) or (isinstance(support, Polytope) and support.dim == 1):
        return 0.0
    if isinstance(support, (Ball, Polytope)):
        return support.surface_area()
    lo, hi = support.bounding_box()
    return 2.0 * float(np.sum(hi - lo))  # crude fallback


def _tensor_value(integrand, support: ConvexBody, ppa: int) -> float:
    pts, cell = midpoint_grid(*support.bounding_box(), ppa)
    mask = support.contains_many(pts)
    if not mask.any():
        return 0.0
    return float(integrand(pts[mask]).sum() * cell)


def convolve_at(
    phi: SpaceTimeField, psi: ScalarField, x, t: float, quad: QuadratureSpec
) -> ConvolutionResult:
    """Evaluate Gamma(x, t) = integral over quad.support of phi(x-y, t) psi(y) dy.

    The support of psi must agree with ``quad.support``.  Tensor grids report
    est_error as the Richardson difference against half resolution plus a
    boundary-cell bound for masked (non-box) supports; Monte Carlo reports
    the standard error of the mean.  Raises :class:`ResolutionError` when an
    error budget is configured and exceeded.
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    support = quad.support
    if psi.support is not None:
        slo, shi = psi.support.bounding_box()
        qlo, qhi = support.bounding_box()
        if not (np.allclose(slo, qlo) and np.allclose(shi, qhi)):
            raise ValueError("psi support does not match the quadrature support")

    def integrand(Y):
        return phi(x[None, :] - Y, t) * psi(Y)

    if quad.scheme == "tensor_grid":
        ppa = quad.points_per_axis
        value = _tensor_value(integrand, support, ppa)
        coarse = _tensor_value(integrand, support, max(8, ppa // 2))
        est = abs(value - coarse)
        surface = _boundary_measure(support)
        if surface > 0.0:
            lo, hi = support.bounding_box()
            h = float(np.max((hi - lo) / ppa))
            pts, _ = midpoint_grid(lo, hi, max(8, ppa // 4))
            mask = support.contains_many(pts)
            peak = float(integrand(pts[mask]).max()) if mask.any() else 0.0
            est += surface * h * peak
    else:
        rng = make_rng(quad.mc_seed)
        lo, hi = support.bounding_box()
        vol = float(np.prod(hi - lo))
        pts = rng.uniform(lo, hi, size=(quad.mc_samples, support.dim))
        vals = np.where(support.contains_many(pts), integrand(pts), 0.0)
        value = vol * float(vals.mean())
        est = vol * float(vals.std()) / math.sqrt(quad.mc_samples)

    if quad.error_budget is not None and est > quad.error_budget:
        raise ResolutionError(
            f"estimated error {est:.3e} exceeds the budget {quad.error_budget:.3e}"
        )
    return ConvolutionResult(value=max(0.0, value), est_error=est)


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

    ``eval_with_error`` propagates the quadrature error estimate so the
    concavity checkers can keep strictness claims above the noise floor.
    Its descriptor integrates with the default quadrature for psi's support.
    """

    def __init__(self, phi: SpaceTimeField, psi: ScalarField, quad: QuadratureSpec):
        self.phi = phi
        self.psi = psi
        self.quad = quad
        self.dim = phi.dim
        self.t_lo = phi.t_lo
        self.t_hi = phi.t_hi

    def _eval_err(self, P, T):
        vals = np.empty(len(P))
        errs = np.empty(len(P))
        for i in range(len(P)):
            r = convolve_at(self.phi, self.psi, P[i], float(T[i]), self.quad)
            vals[i] = r.value
            errs[i] = r.est_error
        return vals, errs

    def _eval(self, P, T):
        return self._eval_err(P, T)[0]

    @classmethod
    def _build(cls, kernel, psi):
        if kernel not in KERNELS:
            raise ValueError(f"unknown convolution kernel: {kernel!r}")
        if psi.support is None:
            raise ValueError("convolution data needs a compact support")
        return cls(KERNELS[kernel](psi.dim), psi, QuadratureSpec.default_for(psi.support))

    def to_json(self):
        raise ValueError("a convolution field's quadrature has no descriptor")


class HeatIndicatorField(SpaceTimeField, kind="oracle_w", keys={"a": number, "b": number}):
    """Exact heat convolution of an interval indicator (n = 1, closed form)."""

    def __init__(self, a: float, b: float):
        if not a < b:
            raise ValueError("requires a < b")
        self.a, self.b = float(a), float(b)
        self.dim = 1
        self.claimed_alpha = 0.5
        self.claimed_exponent = -math.inf
        self.claimed_mode = "strict"

    def _eval(self, P, T):
        # the times were checked by _args; a < b by the constructor
        return _heat_interval(self.a, self.b, P[:, 0], T)


class PoissonIndicatorField(SpaceTimeField, kind="oracle_p", keys={"a": number, "b": number}):
    """Exact Poisson convolution of an interval indicator (n = 1, closed form)."""

    def __init__(self, a: float, b: float):
        if not a < b:
            raise ValueError("requires a < b")
        self.a, self.b = float(a), float(b)
        self.dim = 1
        self.claimed_alpha = 1.0
        self.claimed_exponent = -math.inf
        self.claimed_mode = "strict"

    def _eval(self, P, T):
        # the times were checked by _args; a < b by the constructor
        return _poisson_interval(self.a, self.b, P[:, 0], T)
