"""Evaluable nonnegative function descriptors on R^n and R^n x (0, inf).

Scalar fields are total functions on R^n (zero outside a declared compact
support where one exists); space-time fields are total on R^n x I.  Both
kinds evaluate pointwise or on batches of points, are immutable after
construction, and carry advisory concavity metadata (exponent, strictness)
that the ``concavity`` module can verify but never trusts.

The field families include the heat and half-space Poisson kernels, two
closed-form radial kernel templates covering both, the time-lift that turns
a p-concave spatial profile into a parabolically p-concave space-time field,
and the conjugation connecting the log-time and linear-time pictures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import geometry
from .geometry import ConvexBody, body_from_json, body_to_json

__all__ = [
    "sigma_sphere",
    "ScalarField",
    "IndicatorField",
    "TentField",
    "ConstantField",
    "GaussWeierstrassSlice",
    "PoissonSlice",
    "RadialProfile",
    "RadialField",
    "radialize",
    "ProductField",
    "GridField",
    "PullbackField",
    "SpaceTimeField",
    "FixedTimeSlice",
    "GaussWeierstrassKernel",
    "PoissonKernel",
    "KappaExpKernel",
    "KappaPowerKernel",
    "LiftedField",
    "lift",
    "conjugate0",
    "conjugate0_inverse",
    "ShiftedDifferenceField",
    "shifted",
    "field_from_json",
    "field_to_json",
]


def sigma_sphere(n: int) -> float:
    """Surface measure of the unit n-sphere S^n in R^{n+1}."""
    return 2.0 * math.pi ** ((n + 1) / 2) / math.gamma((n + 1) / 2)


def _pts(x, dim: int):
    """Normalize point input to shape (m, dim); report whether it was single."""
    a = np.asarray(x, dtype=float)
    if a.ndim == 0:
        if dim != 1:
            raise ValueError(f"scalar point given for dim {dim}")
        return a.reshape(1, 1), True
    if a.ndim == 1:
        if len(a) == dim:
            return a.reshape(1, dim), True
        if dim == 1:
            return a.reshape(-1, 1), False
        raise ValueError(f"point of length {len(a)} does not match dim {dim}")
    if a.ndim == 2 and a.shape[1] == dim:
        return a, False
    raise ValueError(f"points must have shape (m, {dim})")


class ScalarField:
    """Nonnegative function on R^n with optional compact support.

    ``support``, when set, is a convex body, and the field vanishes outside
    its bounding box [lo, hi] widened per axis by 1e-9 (1 + |lo| + |hi|).
    ``bbl`` relies on this contract: it never evaluates a field there, so a
    positive value outside that slack is dropped without an error.  Fields
    that vanish outside their support up to ``geometry._MEMBERSHIP_TOL``
    keep it.  Possible exceptions are a ``PullbackField`` with |scale| < 1,
    whose band is that tolerance over |scale|, and a small body with a sharp
    polytope vertex of angle a, whose band there is the tolerance over
    sin(a/2).
    """

    dim: int
    support: ConvexBody | None = None
    claimed_exponent: float | None = None
    claimed_strict: bool = False

    def _eval(self, P: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _eval_err(self, P: np.ndarray):
        """Values and their evaluation-noise bounds (0 for closed forms)."""
        v = self._eval(P)
        return v, np.zeros_like(v)

    def __call__(self, x):
        P, single = _pts(x, self.dim)
        v = self._eval(P)
        return float(v[0]) if single else v

    def eval_with_error(self, x):
        """Value plus an evaluation-noise bound."""
        P, single = _pts(x, self.dim)
        v, e = self._eval_err(P)
        return (float(v[0]), float(e[0])) if single else (v, e)


class IndicatorField(ScalarField):
    """height * indicator of a convex body."""

    def __init__(self, body: ConvexBody, height: float = 1.0):
        if height < 0:
            raise ValueError("indicator height must be nonnegative")
        self.body = body
        self.height = float(height)
        self.dim = body.dim
        self.support = body
        self.claimed_exponent = math.inf
        self.claimed_strict = False

    def _eval(self, P):
        return self.height * self.body.contains_many(P).astype(float)


class TentField(ScalarField):
    """Affine cap height * max(0, 1 - gauge(x - center)) over a body.

    The gauge is the Minkowski functional of the body about its interior
    anchor point, so the field is concave (1-concave), peaks at the anchor,
    and vanishes on the boundary.
    """

    def __init__(self, body: ConvexBody, height: float = 1.0, center=None):
        if height <= 0:
            raise ValueError("tent height must be positive")
        self.body = body
        self.height = float(height)
        self.center = (
            body.interior_point() if center is None else np.asarray(center, dtype=float)
        )
        if self.center.shape != (body.dim,):
            raise ValueError(f"tent anchor must have shape ({body.dim},)")
        if not body.is_interior(self.center):
            raise ValueError("tent anchor must be interior to the body")
        self.dim = body.dim
        self.support = body
        self.claimed_exponent = 1.0
        self.claimed_strict = False

    def _eval(self, P):
        return self.height * np.maximum(0.0, 1.0 - self.body.gauge(P, self.center))


class ConstantField(ScalarField):
    def __init__(self, value: float, dim: int = 1):
        if value < 0:
            raise ValueError("field values must be nonnegative")
        self.value = float(value)
        self.dim = dim

    def _eval(self, P):
        return np.full(len(P), self.value)


class GaussWeierstrassSlice(ScalarField):
    """Heat kernel (4 pi t)^{-n/2} exp(-|x|^2 / 4t) at a fixed time."""

    def __init__(self, n: int, t: float):
        if t <= 0:
            raise ValueError("time must be positive")
        self.dim = n
        self.t = float(t)
        self.claimed_exponent = 0.0
        self.claimed_strict = True

    def _eval(self, P):
        r2 = geometry.rowwise(np.add, P * P)
        return (4 * math.pi * self.t) ** (-self.dim / 2) * np.exp(-r2 / (4 * self.t))


class PoissonSlice(ScalarField):
    """Half-space Poisson kernel (2t/sigma_n)(|x|^2+t^2)^{-(n+1)/2} at fixed t."""

    def __init__(self, n: int, t: float):
        if t <= 0:
            raise ValueError("time must be positive")
        self.dim = n
        self.t = float(t)
        self._norm = 2.0 * t / sigma_sphere(n)
        self.claimed_exponent = -1.0 / (n + 1)
        self.claimed_strict = True

    def _eval(self, P):
        r2 = geometry.rowwise(np.add, P * P)
        return self._norm * (r2 + self.t**2) ** (-(self.dim + 1) / 2)


@dataclass(frozen=True)
class RadialProfile:
    """Nonnegative profile k on [0, inf); optionally flagged strictly decreasing.

    The flag is verified on a sample grid at construction time.
    """

    fn: object
    strictly_decreasing: bool = False
    r_check: float = 10.0

    def __post_init__(self):
        if self.strictly_decreasing:
            r = np.linspace(0.0, self.r_check, 64)
            v = self(r)
            if not (np.diff(v) < 0).all():
                raise ValueError("profile is not strictly decreasing on the check grid")

    def __call__(self, r):
        v = np.asarray(self.fn(np.asarray(r, dtype=float)), dtype=float)
        if (v < 0).any():
            raise ValueError("radial profile must be nonnegative")
        return v


class RadialField(ScalarField):
    """k(|x|) for a radial profile k."""

    def __init__(self, profile: RadialProfile, n: int):
        self.profile = profile
        self.dim = n
        if profile.strictly_decreasing:
            self.claimed_exponent = -math.inf
            self.claimed_strict = True

    def _eval(self, P):
        return self.profile(geometry.row_norm(P))


def radialize(profile: RadialProfile, n: int = 1) -> RadialField:
    """Spatial field x -> k(|x|); strictly quasi-concave when k strictly decreases."""
    return RadialField(profile, n)


class ProductField(ScalarField):
    def __init__(self, factors):
        factors = list(factors)
        if not factors:
            raise ValueError("product of no fields")
        dims = {f.dim for f in factors}
        if len(dims) != 1:
            raise ValueError("product factors must share the dimension")
        self.factors = factors
        self.dim = factors[0].dim
        sup = [f.support for f in factors if f.support is not None]
        self.support = sup[0] if sup else None

    def _eval(self, P):
        out = np.ones(len(P))
        for f in self.factors:
            out *= f._eval(P)
        return out


class GridField(ScalarField):
    """Multilinear interpolation of tabulated values inside a box, 0 outside."""

    def __init__(self, values, lo, hi):
        from scipy.interpolate import RegularGridInterpolator

        values = np.asarray(values, dtype=float)
        if (values < 0).any():
            raise ValueError("grid values must be nonnegative")
        lo = np.atleast_1d(np.asarray(lo, dtype=float))
        hi = np.atleast_1d(np.asarray(hi, dtype=float))
        self.dim = values.ndim
        axes = [np.linspace(lo[i], hi[i], values.shape[i]) for i in range(self.dim)]
        self._interp = RegularGridInterpolator(
            axes, values, method="linear", bounds_error=False, fill_value=0.0
        )
        self.values = values
        self.lo, self.hi = lo, hi
        self.support = geometry.Box(lo, hi) if (lo < hi).all() else None

    def _eval(self, P):
        return np.maximum(0.0, self._interp(P))


class PullbackField(ScalarField):
    """f(x) = base(scale * x + shift); support transforms accordingly."""

    def __init__(self, base: ScalarField, scale: float = 1.0, shift=None):
        if scale == 0:
            raise ValueError("scale must be nonzero")
        self.base = base
        self.scale = float(scale)
        self.shift = (
            np.zeros(base.dim) if shift is None else np.atleast_1d(np.asarray(shift, float))
        )
        self.dim = base.dim
        if base.support is not None:
            # {x : scale x + shift in S} = (S - shift) / scale
            self.support = geometry.minkowski_combine(
                1.0 / self.scale, base.support, 1.0, -self.shift / self.scale
            )
        self.claimed_exponent = base.claimed_exponent
        self.claimed_strict = base.claimed_strict

    def _eval(self, P):
        return self.base._eval(self.scale * P + self.shift)


# ---------------------------------------------------------------------------
# Space-time fields
# ---------------------------------------------------------------------------


class SpaceTimeField:
    """Nonnegative function on R^n x (t_lo, t_hi)."""

    dim: int
    t_lo: float = 0.0
    t_hi: float = math.inf
    claimed_alpha: float | None = None
    claimed_exponent: float | None = None
    claimed_mode: str | None = None  # "plain" | "strict" | "almost_strict"

    def _eval(self, P: np.ndarray, T: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _check_time(self, T):
        if (T <= self.t_lo).any() or (T >= self.t_hi).any():
            raise ValueError(
                f"time outside the field's interval ({self.t_lo}, {self.t_hi})"
            )

    def _eval_err(self, P: np.ndarray, T: np.ndarray):
        """Values and their evaluation-noise bounds (0 for closed forms)."""
        v = self._eval(P, T)
        return v, np.zeros_like(v)

    def _args(self, x, t):
        """(points, times, whether a single point was given) of a call."""
        P, single_x = _pts(x, self.dim)
        T = np.broadcast_to(np.asarray(t, dtype=float), (len(P),)).copy()
        self._check_time(T)
        return P, T, single_x and np.isscalar(t)

    def __call__(self, x, t):
        P, T, single = self._args(x, t)
        v = self._eval(P, T)
        return float(v[0]) if single else v

    def eval_with_error(self, x, t):
        """Value plus an evaluation-noise bound."""
        P, T, single = self._args(x, t)
        v, e = self._eval_err(P, T)
        return (float(v[0]), float(e[0])) if single else (v, e)

    def slice_at(self, t: float) -> "FixedTimeSlice":
        return FixedTimeSlice(self, t)


class FixedTimeSlice(ScalarField):
    """Space restriction phi(., t) of a space-time field."""

    def __init__(self, st_field: SpaceTimeField, t: float):
        if not st_field.t_lo < t < st_field.t_hi:
            raise ValueError("slice time outside the field's interval")
        self.st_field = st_field
        self.t = float(t)
        self.dim = st_field.dim
        self.claimed_exponent = st_field.claimed_exponent
        self.claimed_strict = st_field.claimed_mode in ("strict", "almost_strict")

    def _eval(self, P):
        return self.st_field._eval(P, np.full(len(P), self.t))

    def _eval_err(self, P):
        return self.st_field._eval_err(P, np.full(len(P), self.t))


class GaussWeierstrassKernel(SpaceTimeField):
    """Heat kernel on R^n x (0, inf)."""

    def __init__(self, n: int = 1):
        self.dim = n
        self.claimed_alpha = 0.5
        self.claimed_exponent = -1.0 / n
        self.claimed_mode = "almost_strict"

    def _eval(self, P, T):
        r2 = geometry.rowwise(np.add, P * P)
        return (4 * math.pi * T) ** (-self.dim / 2) * np.exp(-r2 / (4 * T))


class PoissonKernel(SpaceTimeField):
    """Half-space Poisson kernel on R^n x (0, inf)."""

    def __init__(self, n: int = 1):
        self.dim = n
        self._two_over_sigma = 2.0 / sigma_sphere(n)
        self.claimed_alpha = 1.0
        self.claimed_exponent = -1.0 / n
        self.claimed_mode = "almost_strict"

    def _eval(self, P, T):
        r2 = geometry.rowwise(np.add, P * P)
        return self._two_over_sigma * T * (r2 + T * T) ** (-(self.dim + 1) / 2)


class KappaExpKernel(SpaceTimeField):
    """Radial template t^a exp(-r^b / t^c) on R^n x (0, inf).

    Requires c/a < 0 and b >= 1; then the field is almost-strictly
    (c/b)-parabolically (c/(ab))-concave.  With (a, b, c) = (-n/2, 2, 1) it
    is the heat kernel up to the constant (4 pi)^{-n/2} and the rescaling
    x -> x/2.
    """

    def __init__(self, a: float, b: float, c: float, n: int = 1):
        if a == 0 or c / a >= 0:
            raise ValueError("requires c/a < 0")
        if b < 1:
            raise ValueError("requires b >= 1")
        self.a, self.b, self.c = float(a), float(b), float(c)
        self.dim = n
        self.claimed_alpha = c / b
        self.claimed_exponent = c / (a * b)
        self.claimed_mode = "almost_strict"

    def _eval(self, P, T):
        r = geometry.row_norm(P)
        return T**self.a * np.exp(-(r**self.b) / T**self.c)


class KappaPowerKernel(SpaceTimeField):
    """Radial template t^a (r^b + t^b)^{c/b} on R^n x (0, inf).

    Requires a >= 0, b >= 1, c < 0 with (a, b) != (0, 1) and c < -a; then the
    field is almost-strictly 1-parabolically 1/(a+c)-concave.  With
    (a, b, c) = (1, 2, -(n+1)) it is the Poisson kernel up to 2/sigma_n.
    """

    def __init__(self, a: float, b: float, c: float, n: int = 1):
        if a < 0 or b < 1 or c >= 0:
            raise ValueError("requires a >= 0, b >= 1, c < 0")
        if (a, b) == (0.0, 1.0):
            raise ValueError("(a, b) = (0, 1) is excluded")
        if not c < -a:
            raise ValueError("requires c < -a")
        self.a, self.b, self.c = float(a), float(b), float(c)
        self.dim = n
        self.claimed_alpha = 1.0
        self.claimed_exponent = 1.0 / (a + c)
        self.claimed_mode = "almost_strict"

    def _eval(self, P, T):
        r = geometry.row_norm(P)
        return T**self.a * (r**self.b + T**self.b) ** (self.c / self.b)


class LiftedField(SpaceTimeField):
    """Time lift t^{alpha/p} f(x / t^alpha) of a spatial profile f.

    For p = 0 the lift is exp(t^alpha log f(x/t^alpha)) with the guarded
    convention that f = 0 maps to 0.  A p-concave f yields a parabolically
    p-concave lift; strictness of f upgrades it to almost-strict.
    """

    def __init__(self, f: ScalarField, p: float, alpha: float):
        if math.isinf(p):
            raise ValueError("lift requires a finite exponent")
        if alpha == 0:
            raise ValueError("lift requires alpha != 0; conjugate afterwards instead")
        self.f = f
        self.p = float(p)
        self.alpha = float(alpha)
        self.dim = f.dim
        self.claimed_alpha = self.alpha
        self.claimed_exponent = self.p
        self.claimed_mode = "almost_strict" if f.claimed_strict else "plain"

    def _eval(self, P, T):
        fa = T**self.alpha
        fv = self.f._eval(P / fa[:, None])
        if self.p == 0.0:
            out = np.zeros_like(fv)
            pos = fv > 0
            out[pos] = np.exp(fa[pos] * np.log(fv[pos]))
            return out
        return fa ** (1.0 / self.p) * fv


def lift(f: ScalarField, p: float, alpha: float) -> LiftedField:
    """Lift a spatial profile into a parabolically p-concave space-time field."""
    return LiftedField(f, p, alpha)


class _LogTimeField(SpaceTimeField):
    """phi0(x, t) = inner(x, log t) on t > 1 (log-time picture)."""

    def __init__(self, inner: SpaceTimeField):
        self.inner = inner
        self.dim = inner.dim
        self.t_lo = max(1.0, math.exp(inner.t_lo) if inner.t_lo < 700 else math.inf)
        self.t_hi = math.exp(inner.t_hi) if inner.t_hi < 700 else math.inf
        self.claimed_alpha = 0.0
        self.claimed_exponent = inner.claimed_exponent
        self.claimed_mode = inner.claimed_mode

    def _eval(self, P, T):
        return self.inner._eval(P, np.log(T))


class _ExpTimeField(SpaceTimeField):
    """phi1(x, t) = inner(x, e^t) (linear-time picture of a t>1 field)."""

    def __init__(self, inner: SpaceTimeField):
        self.inner = inner
        self.dim = inner.dim
        self.t_lo = math.log(inner.t_lo) if inner.t_lo > 0 else -math.inf
        self.t_hi = math.log(inner.t_hi) if inner.t_hi < math.inf else math.inf
        if self.t_lo < 0:
            self.t_lo = 0.0  # stay inside R^n x (0, inf)
        self.claimed_alpha = 1.0
        self.claimed_exponent = inner.claimed_exponent
        self.claimed_mode = inner.claimed_mode

    def _eval(self, P, T):
        return self.inner._eval(P, np.exp(T))


def conjugate0(phi1: SpaceTimeField) -> SpaceTimeField:
    """Log-time conjugate phi0(x, t) = phi1(x, log t), defined for t > 1.

    Turns a 1-parabolically p-concave field into a 0-parabolically p-concave
    one; :func:`conjugate0_inverse` is the inverse map.  Round trips are
    exact wherever log/exp round trips are.
    """
    if isinstance(phi1, _ExpTimeField):
        return phi1.inner
    return _LogTimeField(phi1)


def conjugate0_inverse(phi0: SpaceTimeField) -> SpaceTimeField:
    """Linear-time conjugate phi1(x, t) = phi0(x, e^t)."""
    if isinstance(phi0, _LogTimeField):
        return phi0.inner
    return _ExpTimeField(phi0)


class ShiftedDifferenceField(SpaceTimeField):
    """Joint field (x, y, t) -> phi(x - y, t) on R^{2n} x I.

    Inherits parabolic power concavity in the doubled space variable; the
    equality cases sit on offset rays (x-y)/t^alpha = const.
    """

    def __init__(self, phi: SpaceTimeField):
        self.phi = phi
        self.dim = 2 * phi.dim
        self.t_lo = phi.t_lo
        self.t_hi = phi.t_hi
        self.claimed_alpha = phi.claimed_alpha
        self.claimed_exponent = phi.claimed_exponent
        self.claimed_mode = "plain"

    def _eval(self, P, T):
        n = self.phi.dim
        return self.phi._eval(P[:, :n] - P[:, n:], T)

    def at(self, x, y, t):
        """Convenience evaluation with separate x and y arguments."""
        x = np.atleast_1d(np.asarray(x, dtype=float))
        y = np.atleast_1d(np.asarray(y, dtype=float))
        return self(np.concatenate([x, y]), t)


def shifted(phi: SpaceTimeField) -> ShiftedDifferenceField:
    """Difference field (x, y, t) -> phi(x - y, t)."""
    return ShiftedDifferenceField(phi)


# ---------------------------------------------------------------------------
# JSON descriptors
# ---------------------------------------------------------------------------


def field_from_json(data: dict):
    """Build a scalar or space-time field from its JSON descriptor."""
    kind = data.get("kind")
    n = int(data.get("n", 1))
    if kind == "indicator":
        return IndicatorField(body_from_json(data["body"]), float(data.get("height", 1.0)))
    if kind == "tent":
        return TentField(
            body_from_json(data["body"]), float(data.get("height", 1.0)), data.get("center")
        )
    if kind == "constant":
        return ConstantField(float(data["value"]), n)
    if kind == "gaussian":
        return GaussWeierstrassSlice(n, float(data["t"]))
    if kind == "poisson_slice":
        return PoissonSlice(n, float(data["t"]))
    if kind == "radial":
        prof = data["profile"]
        if prof.get("kind") == "exp_decay":
            rate = float(prof.get("rate", 1.0))
            profile = RadialProfile(lambda r: np.exp(-rate * r), strictly_decreasing=True)
        else:
            raise ValueError(f"unknown radial profile kind: {prof.get('kind')!r}")
        return RadialField(profile, n)
    if kind == "product":
        return ProductField([field_from_json(d) for d in data["factors"]])
    if kind == "custom_grid":
        return GridField(np.asarray(data["values"], dtype=float), data["lo"], data["hi"])
    if kind == "slice":
        return FixedTimeSlice(field_from_json(data["field"]), float(data["t"]))
    if kind == "gauss_weierstrass":
        return GaussWeierstrassKernel(n)
    if kind == "poisson_kernel":
        return PoissonKernel(n)
    if kind == "kappa_exp":
        return KappaExpKernel(float(data["a"]), float(data["b"]), float(data["c"]), n)
    if kind == "kappa_power":
        return KappaPowerKernel(float(data["a"]), float(data["b"]), float(data["c"]), n)
    if kind == "lifted":
        from .means import as_exponent

        return LiftedField(
            field_from_json(data["field"]), as_exponent(data["p"]), float(data["alpha"])
        )
    if kind == "conjugate0":
        return conjugate0(field_from_json(data["field"]))
    if kind == "shifted_product":
        return ShiftedDifferenceField(field_from_json(data["field"]))
    raise ValueError(f"unknown field kind: {kind!r}")


def field_to_json(f) -> dict:
    from .means import exponent_str

    if isinstance(f, IndicatorField):
        return {"kind": "indicator", "body": body_to_json(f.body), "height": f.height}
    if isinstance(f, TentField):
        return {
            "kind": "tent",
            "body": body_to_json(f.body),
            "height": f.height,
            "center": f.center.tolist(),
        }
    if isinstance(f, ConstantField):
        return {"kind": "constant", "value": f.value, "n": f.dim}
    if isinstance(f, GaussWeierstrassSlice):
        return {"kind": "gaussian", "n": f.dim, "t": f.t}
    if isinstance(f, PoissonSlice):
        return {"kind": "poisson_slice", "n": f.dim, "t": f.t}
    if isinstance(f, ProductField):
        return {"kind": "product", "factors": [field_to_json(g) for g in f.factors]}
    if isinstance(f, GridField):
        return {
            "kind": "custom_grid",
            "values": f.values.tolist(),
            "lo": f.lo.tolist(),
            "hi": f.hi.tolist(),
        }
    if isinstance(f, FixedTimeSlice):
        return {"kind": "slice", "field": field_to_json(f.st_field), "t": f.t}
    if isinstance(f, GaussWeierstrassKernel):
        return {"kind": "gauss_weierstrass", "n": f.dim}
    if isinstance(f, PoissonKernel):
        return {"kind": "poisson_kernel", "n": f.dim}
    if isinstance(f, KappaExpKernel):
        return {"kind": "kappa_exp", "a": f.a, "b": f.b, "c": f.c, "n": f.dim}
    if isinstance(f, KappaPowerKernel):
        return {"kind": "kappa_power", "a": f.a, "b": f.b, "c": f.c, "n": f.dim}
    if isinstance(f, LiftedField):
        return {
            "kind": "lifted",
            "field": field_to_json(f.f),
            "p": exponent_str(f.p),
            "alpha": f.alpha,
        }
    if isinstance(f, _LogTimeField):
        return {"kind": "conjugate0", "field": field_to_json(f.inner)}
    if isinstance(f, ShiftedDifferenceField):
        return {"kind": "shifted_product", "field": field_to_json(f.phi)}
    raise ValueError(f"cannot serialize {type(f).__name__}")
