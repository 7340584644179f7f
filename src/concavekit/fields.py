"""Evaluable nonnegative function descriptors on R^n and R^n x (0, inf).

Scalar fields are total functions on R^n (zero outside a declared compact
support where one exists); space-time fields are total on R^n x I.  Both
kinds evaluate pointwise or on batches of points, are immutable after
construction, and carry advisory concavity metadata (exponent, strictness)
that the ``concavity`` module can verify but never trusts.

Every field has one evaluation hook, ``_eval``, which returns the values
with a bound on their error (0.0 for a closed form); :class:`Field` holds
the only call path on top of it.  A field built on another passes the inner
bound on, so no wrapper drops a quadrature error bar.

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
from .geometry import ConvexBody, Descriptor, Key, check_keys, float_array, from_json
from .geometry import integer, number, read_key
from .means import as_exponent

__all__ = [
    "sigma_sphere",
    "Field",
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
]

# the "n" key of a descriptor: the space dimension, 1 when left out
_N = Key(integer, 1, "dim")


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


class Field(Descriptor):
    """A nonnegative function with one evaluation hook and one call path.

    A subclass's ``_args`` normalizes the arguments of a call to (arrays...,
    whether a single point was given).  Its ``_eval`` takes those arrays and
    returns (values, bound): one float value per point, and a bound on their
    error that is an array of the values' shape, or 0.0 for a closed form.
    A field built on another returns the inner bound, or its image under the
    map from inner values to its own.
    """

    dim: int

    def __call__(self, *args):
        *arrays, single = self._args(*args)
        v = self._eval(*arrays)[0]
        return float(v[0]) if single else v

    def eval_with_error(self, *args):
        """Value plus an evaluation-noise bound, the bound as a fresh float array."""
        *arrays, single = self._args(*args)
        v, e = self._eval(*arrays)
        e = np.full(v.shape, e, dtype=float)
        return (float(v[0]), float(e[0])) if single else (v, e)


class ScalarField(Field):
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

    support: ConvexBody | None = None
    claimed_exponent: float | None = None
    claimed_strict: bool = False

    def _args(self, x):
        """(points of shape (m, dim), whether a single point was given) of a call."""
        return _pts(x, self.dim)


class IndicatorField(
    ScalarField, kind="indicator", keys={"body": ConvexBody, "height": Key(number, 1.0)}
):
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
        return self.height * self.body.contains_many(P).astype(float), 0.0


class TentField(
    ScalarField,
    kind="tent",
    keys={"body": ConvexBody, "height": Key(number, 1.0), "center": Key(float_array, None)},
):
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
        return self.height * np.maximum(0.0, 1.0 - self.body.gauge(P, self.center)), 0.0


class ConstantField(ScalarField, kind="constant", keys={"value": number, "n": _N}):
    def __init__(self, value: float, dim: int = 1):
        if value < 0:
            raise ValueError("field values must be nonnegative")
        self.value = float(value)
        self.dim = dim

    def _eval(self, P):
        return np.full(len(P), self.value), 0.0


class GaussWeierstrassSlice(ScalarField, kind="gaussian", keys={"n": _N, "t": number}):
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
        return (4 * math.pi * self.t) ** (-self.dim / 2) * np.exp(-r2 / (4 * self.t)), 0.0


class PoissonSlice(ScalarField, kind="poisson_slice", keys={"n": _N, "t": number}):
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
        return self._norm * (r2 + self.t**2) ** (-(self.dim + 1) / 2), 0.0


@dataclass(frozen=True)
class RadialProfile:
    """Nonnegative profile k on [0, inf); optionally flagged strictly decreasing.

    The flag is verified at construction time on 64 grid points of [0, 10].
    """

    fn: object
    strictly_decreasing: bool = False

    def __post_init__(self):
        if self.strictly_decreasing:
            r = np.linspace(0.0, 10.0, 64)
            v = self(r)
            if not (np.diff(v) < 0).all():
                raise ValueError("profile is not strictly decreasing on the check grid")

    def __call__(self, r):
        v = np.asarray(self.fn(np.asarray(r, dtype=float)), dtype=float)
        if (v < 0).any():
            raise ValueError("radial profile must be nonnegative")
        return v


def _profile_from_json(data) -> RadialProfile:
    """The profile of a radial descriptor; only ``exp_decay`` exp(-rate r) has one."""
    check_keys(data, ("kind", "rate"), "radial profile")
    if data.get("kind") != "exp_decay":
        raise ValueError(f"unknown radial profile kind: {data.get('kind')!r}")
    rate = read_key(data, "rate", Key(number, 1.0), "radial profile")
    return RadialProfile(lambda r: np.exp(-rate * r), strictly_decreasing=True)


class RadialField(ScalarField, kind="radial", keys={"profile": _profile_from_json, "n": _N}):
    """k(|x|) for a radial profile k."""

    def __init__(self, profile: RadialProfile, n: int):
        self.profile = profile
        self.dim = n
        if profile.strictly_decreasing:
            self.claimed_exponent = -math.inf
            self.claimed_strict = True

    def _eval(self, P):
        return self.profile(geometry.row_norm(P)), 0.0


def radialize(profile: RadialProfile, n: int = 1) -> RadialField:
    """Spatial field x -> k(|x|); strictly quasi-concave when k strictly decreases."""
    return RadialField(profile, n)


class ProductField(ScalarField, kind="product", keys={"factors": [ScalarField]}):
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
        out, bound = np.ones(len(P)), 0.0
        for f in self.factors:
            v, e = f._eval(P)
            # prod (v_i + e_i) - prod v_i without cancellation; exact factors keep 0.0
            if isinstance(bound, np.ndarray) or isinstance(e, np.ndarray):
                bound = bound * (v + e) + out * e
            out *= v
        return out, bound


class GridField(
    ScalarField, kind="custom_grid", keys=dict.fromkeys(("values", "lo", "hi"), float_array)
):
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
        return np.maximum(0.0, self._interp(P)), 0.0


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


class SpaceTimeField(Field):
    """Nonnegative function on R^n x (t_lo, t_hi)."""

    t_lo: float = 0.0
    t_hi: float = math.inf
    claimed_alpha: float | None = None
    claimed_exponent: float | None = None
    claimed_mode: str | None = None  # "plain" | "strict" | "almost_strict"

    def _args(self, x, t):
        """(points, times not to be written, whether a single point was given) of a call.

        Every time lies in the open interval (t_lo, t_hi) afterwards, so
        ``_eval`` need not check it again.  The times may be the caller's
        own array, so ``_eval`` must not write them.
        """
        P, single_x = _pts(x, self.dim)
        T = np.asarray(t, dtype=float)
        # a NaN time makes min and max NaN, so it fails too; an empty batch passes
        if T.size and not (T.min() > self.t_lo and T.max() < self.t_hi):
            raise ValueError(f"time outside the field's interval ({self.t_lo}, {self.t_hi})")
        if T.shape != (len(P),):
            T = np.broadcast_to(T, (len(P),))
        return P, T, single_x and np.isscalar(t)

    def slice_at(self, t: float) -> "FixedTimeSlice":
        return FixedTimeSlice(self, t)


class FixedTimeSlice(
    ScalarField, kind="slice", keys={"field": Key(SpaceTimeField, attr="st_field"), "t": number}
):
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


class GaussWeierstrassKernel(SpaceTimeField, kind="gauss_weierstrass", keys={"n": _N}):
    """Heat kernel on R^n x (0, inf)."""

    def __init__(self, n: int = 1):
        self.dim = n
        self.claimed_alpha = 0.5
        self.claimed_exponent = -1.0 / n
        self.claimed_mode = "almost_strict"

    def _eval(self, P, T):
        r2 = geometry.rowwise(np.add, P * P)
        return (4 * math.pi * T) ** (-self.dim / 2) * np.exp(-r2 / (4 * T)), 0.0


class PoissonKernel(SpaceTimeField, kind="poisson_kernel", keys={"n": _N}):
    """Half-space Poisson kernel on R^n x (0, inf)."""

    def __init__(self, n: int = 1):
        self.dim = n
        self._two_over_sigma = 2.0 / sigma_sphere(n)
        self.claimed_alpha = 1.0
        self.claimed_exponent = -1.0 / n
        self.claimed_mode = "almost_strict"

    def _eval(self, P, T):
        r2 = geometry.rowwise(np.add, P * P)
        return self._two_over_sigma * T * (r2 + T * T) ** (-(self.dim + 1) / 2), 0.0


_ABC_N = {"a": number, "b": number, "c": number, "n": _N}


class KappaExpKernel(SpaceTimeField, kind="kappa_exp", keys=_ABC_N):
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
        return T**self.a * np.exp(-(r**self.b) / T**self.c), 0.0


class KappaPowerKernel(SpaceTimeField, kind="kappa_power", keys=_ABC_N):
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
        return T**self.a * (r**self.b + T**self.b) ** (self.c / self.b), 0.0


class LiftedField(
    SpaceTimeField,
    kind="lifted",
    keys={"field": Key(ScalarField, attr="f"), "p": as_exponent, "alpha": number},
):
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
        # the lift increases in f, so it maps the ends of f's error bar to the ends of its own
        fa = T**self.alpha
        fv, e = self.f._eval(P / fa[:, None])
        if self.p != 0.0:
            scale = fa ** (1.0 / self.p)
            return scale * fv, scale * e if isinstance(e, np.ndarray) else 0.0
        out = _log_lift(fv, fa)
        if not isinstance(e, np.ndarray):
            return out, 0.0
        return out, np.maximum(_log_lift(fv + e, fa) - out, out - _log_lift(fv - e, fa))


def _log_lift(fv, fa):
    """exp(fa log fv), and 0 where fv <= 0."""
    out = np.zeros_like(fv)
    pos = fv > 0
    out[pos] = np.exp(fa[pos] * np.log(fv[pos]))
    return out


def lift(f: ScalarField, p: float, alpha: float) -> LiftedField:
    """Lift a spatial profile into a parabolically p-concave space-time field."""
    return LiftedField(f, p, alpha)


class _LogTimeField(
    SpaceTimeField, kind="conjugate0", keys={"field": Key(SpaceTimeField, attr="inner")}
):
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


class ShiftedDifferenceField(
    SpaceTimeField, kind="shifted_product", keys={"field": Key(SpaceTimeField, attr="phi")}
):
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
    return from_json(data, (ScalarField, SpaceTimeField))
