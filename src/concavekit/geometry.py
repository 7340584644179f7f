"""Convex bodies, support functions, Minkowski algebra, and parabolically
convex space-time regions.

Bodies are immutable after construction and all queries are read-only, so
instances are safe to share between threads.  Each body owns its shape
geometry: membership, support, and the gauge (Minkowski functional) about an
interior point, all vectorized over point batches.  An :class:`Interval` is
the 1-d :class:`Box` with its own constructor and repr.  Polytopes store
facet inequalities (from scipy's convex hull in dimension >= 2); membership
tests and gauges fold the facet products over the coordinates, so a point
gets the same bits alone as in a batch.  Exact polytope arithmetic is only
supported up to dimension 3.

Reductions over the coordinates of a point batch, of shape (m, n) with n
small, go through ``rowwise`` and ``row_norm``.  numpy reduces such a short
axis one row at a time, which costs tens of ns per point, while a fold over
the n columns runs one vectorized ufunc call per column.  Below 8 columns
numpy's own reduction adds sequentially too, so the fold gives exactly its
bits: ``rowwise(u, A)`` equals ``u.reduce(A, axis=1)`` and ``row_norm(A)``
equals ``np.linalg.norm(A, axis=1)``.  The one exception is the sign of a
zero: numpy's sum starts from +0.0, so it sums a row of -0.0 to +0.0 where
the fold gives -0.0.  Sums of squares never meet it.  From 8 columns on
numpy sums pairwise, and both helpers call numpy's reduction instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .means import mean_p
from .sampling import SamplingError, make_rng

__all__ = [
    "ConvexBody",
    "Interval",
    "Box",
    "Ball",
    "Polytope",
    "HalfSpace",
    "ConvexCone",
    "NotRepresentableError",
    "support_of_combination",
    "minkowski_combine",
    "CouplingCore",
    "coupling_core",
    "core_complement_witness",
    "interior_witness_outside",
    "ParabolicRegion",
    "HatRegion",
    "CylinderRegion",
    "UnionRegion",
    "SpaceTimeBox",
    "time_scaled_region",
    "straightening_chart",
    "chart_preimage",
    "RegionConvexityReport",
    "check_parabolic_convexity",
    "body_from_json",
    "body_to_json",
    "spacetime_box_from_json",
    "midpoint_axes",
    "midpoint_grid",
    "rowwise",
    "row_norm",
]

_MEMBERSHIP_TOL = 1e-12


class NotRepresentableError(ValueError):
    """A Minkowski combination has no closed-form body in the shape families.

    Callers that only need support values can fall back to
    ``support_of_combination``.
    """


def midpoint_axes(lo, hi, ppa: int) -> list[np.ndarray]:
    """The ppa increasing cell midpoints of [lo[i], hi[i]], for each axis i."""
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    return [lo[i] + (hi[i] - lo[i]) * (np.arange(ppa) + 0.5) / ppa for i in range(len(lo))]


def midpoint_grid(lo, hi, ppa: int):
    """(midpoints of shape (ppa**n, n), cell volume) of [lo, hi] cut into ppa cells per axis.

    The points are the tensor grid of ``midpoint_axes`` in C order: the last
    axis runs fastest.
    """
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    mesh = np.meshgrid(*midpoint_axes(lo, hi, ppa), indexing="ij")
    pts = np.stack([m.reshape(-1) for m in mesh], axis=1)
    return pts, float(np.prod((hi - lo) / ppa))


def rowwise(ufunc, A) -> np.ndarray:
    """``ufunc.reduce(A, axis=1)`` for an (m, n) array, as a fold over its columns."""
    A = np.asarray(A)
    n = A.shape[1]
    if not 0 < n < 8:
        return ufunc.reduce(A, axis=1)
    out = ufunc(A[:, 0], A[:, 1]) if n > 1 else A[:, 0].copy()
    for j in range(2, n):
        ufunc(out, A[:, j], out=out)
    return out


def row_norm(A) -> np.ndarray:
    """Euclidean norm of each row of an (m, n) array."""
    A = np.asarray(A)
    return np.sqrt(rowwise(np.add, A * A))


class ConvexBody:
    """Bounded convex set with nonempty interior in R^n."""

    dim: int

    # -- queries ---------------------------------------------------------

    def support(self, u) -> float:
        """Directional maximum h(u) = max_{x in K} x.u (any nonzero u)."""
        raise NotImplementedError

    def support_point(self, u) -> np.ndarray:
        """A maximizer of x.u over the body."""
        raise NotImplementedError

    def contains(self, x, tol: float = _MEMBERSHIP_TOL) -> bool:
        return bool(self.contains_many(np.asarray(x, dtype=float)[None, :], tol)[0])

    def contains_many(self, pts, tol: float = _MEMBERSHIP_TOL) -> np.ndarray:
        """Vectorized membership for points of shape (m, dim)."""
        raise NotImplementedError

    def gauge(self, P, z) -> np.ndarray:
        """Minkowski functional about the interior point z at each row of P.

        The smallest g >= 0 with z + (x - z) / g in the body; 1 on the
        boundary, positively homogeneous in x - z.
        """
        raise NotImplementedError

    def bounding_box(self):
        raise NotImplementedError

    def interior_point(self) -> np.ndarray:
        raise NotImplementedError

    def diameter(self) -> float:
        raise NotImplementedError

    def volume(self) -> float:
        raise NotImplementedError

    def sample(self, rng: np.random.Generator, k: int) -> np.ndarray:
        """k points drawn uniformly from the body, shape (k, dim)."""
        lo, hi = self.bounding_box()
        out = np.empty((k, self.dim))
        have = 0
        for _ in range(2000):
            draw = rng.uniform(lo, hi, size=(max(k, 64), self.dim))
            good = draw[self.contains_many(draw)]
            take = min(k - have, len(good))
            out[have : have + take] = good[:take]
            have += take
            if have == k:
                return out
        raise SamplingError(f"could not draw {k} points from {self!r}")

    def is_interior(self, x, delta: float | None = None) -> bool:
        """Interior test with margin delta (default 1e-9 * diameter).

        Probes the 2n axis neighbours of x, which is exact for boxes and a
        sound necessary test for the other shapes at this margin.
        """
        x = np.asarray(x, dtype=float)
        if delta is None:
            delta = 1e-9 * self.diameter()
        probes = np.concatenate([x + delta * np.eye(self.dim), x - delta * np.eye(self.dim)])
        return bool(self.contains_many(probes, tol=0.0).all())


@dataclass(frozen=True)
class Box(ConvexBody):
    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.lo, dtype=float)
        hi = np.asarray(self.hi, dtype=float)
        if lo.ndim != 1 or lo.shape != hi.shape:
            raise ValueError("box bounds must be 1-d arrays of equal length")
        if not (lo < hi).all():
            raise ValueError("box requires lo < hi componentwise")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)
        object.__setattr__(self, "dim", len(lo))

    def support(self, u):
        u = np.asarray(u, dtype=float)
        return float(np.where(u >= 0, self.hi * u, self.lo * u).sum())

    def support_point(self, u):
        u = np.asarray(u, dtype=float)
        return np.where(u >= 0, self.hi, self.lo)

    def contains_many(self, pts, tol=_MEMBERSHIP_TOL):
        p = np.asarray(pts, dtype=float)
        return rowwise(np.logical_and, (p >= self.lo - tol) & (p <= self.hi + tol))

    def contains(self, x, tol=_MEMBERSHIP_TOL):
        # contains_many's comparisons in Python floats, without numpy's per-call set-up
        x, lo, hi = np.asarray(x, dtype=float).tolist(), self.lo.tolist(), self.hi.tolist()
        return all(a - tol <= xi <= b + tol for xi, a, b in zip(x, lo, hi))

    def gauge(self, P, z):
        up = (P - z) / (self.hi - z)
        dn = (z - P) / (z - self.lo)
        return rowwise(np.maximum, np.maximum(up, dn, out=up))

    def bounding_box(self):
        return self.lo.copy(), self.hi.copy()

    def interior_point(self):
        return 0.5 * (self.lo + self.hi)

    def diameter(self):
        return float(np.linalg.norm(self.hi - self.lo))

    def volume(self):
        return float(np.prod(self.hi - self.lo))

    def sample(self, rng, k):
        return rng.uniform(self.lo, self.hi, size=(k, self.dim))


class Interval(Box):
    """The closed interval [a, b], as a 1-d box."""

    def __init__(self, a, b):
        # a and b may also be 1-element arrays, so that Box operations can
        # rebuild an Interval as type(body)(lo, hi)
        super().__init__(np.reshape(a, 1), np.reshape(b, 1))

    @property
    def a(self) -> float:
        return float(self.lo[0])

    @property
    def b(self) -> float:
        return float(self.hi[0])

    def __repr__(self):
        return f"Interval(a={self.a!r}, b={self.b!r})"


@dataclass(frozen=True)
class Ball(ConvexBody):
    center: np.ndarray
    radius: float

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.center, dtype=float))
        if self.radius <= 0:
            raise ValueError("ball requires radius > 0")
        object.__setattr__(self, "center", c)
        object.__setattr__(self, "dim", len(c))

    def support(self, u):
        u = np.asarray(u, dtype=float)
        return float(self.center @ u + self.radius * np.linalg.norm(u))

    def support_point(self, u):
        u = np.asarray(u, dtype=float)
        return self.center + self.radius * u / np.linalg.norm(u)

    def contains_many(self, pts, tol=_MEMBERSHIP_TOL):
        p = np.asarray(pts, dtype=float)
        return row_norm(p - self.center) <= self.radius + tol

    def gauge(self, P, z):
        w = z - self.center
        if not w.any():
            return row_norm(P - self.center) / self.radius
        # z + d/g lies on the sphere at the positive root of A g^2 - 2B g - C,
        # taken in whichever of its two forms does not cancel
        d = P - z
        A = self.radius**2 - w @ w
        B = d @ w
        C = rowwise(np.add, d * d)
        S = np.sqrt(B * B + A * C)
        g = (B + S) / A
        neg = B < 0
        g[neg] = C[neg] / (S[neg] - B[neg])
        return g

    def bounding_box(self):
        return self.center - self.radius, self.center + self.radius

    def interior_point(self):
        return self.center.copy()

    def diameter(self):
        return 2.0 * self.radius

    def volume(self):
        n = self.dim
        return math.pi ** (n / 2) / math.gamma(n / 2 + 1) * self.radius**n

    def surface_area(self):
        n = self.dim
        return 2 * math.pi ** (n / 2) / math.gamma(n / 2) * self.radius ** (n - 1)

    def sample(self, rng, k):
        v = rng.normal(size=(k, self.dim))
        v /= row_norm(v)[:, None]
        r = self.radius * rng.uniform(size=(k, 1)) ** (1.0 / self.dim)
        return self.center + r * v


class Polytope(ConvexBody):
    """Convex hull of a finite vertex set that affinely spans R^n.

    The facets are stored as rows (a_i, c_i) of a_i.x + c_i <= 0, with unit
    outward normals a_i, as scipy's hull reports them.
    """

    def __init__(self, vertices):
        v = np.atleast_2d(np.asarray(vertices, dtype=float))
        self.dim = v.shape[1]
        if self.dim == 1:
            lo, hi = v[:, 0].min(), v[:, 0].max()
            if lo >= hi:
                raise ValueError("1-d polytope must have extent")
            self.vertices = v
            self._equations = np.array([[-1.0, lo], [1.0, -hi]])
            # the boundary is two points
            self._hull_volume, self._hull_area = hi - lo, 2.0
        else:
            from scipy.spatial import ConvexHull

            try:
                hull = ConvexHull(v)
            except Exception as exc:  # qhull degeneracy
                raise ValueError("polytope vertices must affinely span R^n") from exc
            self.vertices = v[hull.vertices]
            self._equations = hull.equations
            self._hull_volume, self._hull_area = hull.volume, hull.area

    def support(self, u):
        u = np.asarray(u, dtype=float)
        return float((self.vertices @ u).max())

    def support_point(self, u):
        u = np.asarray(u, dtype=float)
        return self.vertices[int(np.argmax(self.vertices @ u))].copy()

    def _facet_dots(self, P):
        """a_i.x for each facet i (rows) and row x of P (columns).

        A matrix product sums a row in an order that depends on the batch
        shape, so a point on a facet plane could test inside alone and
        outside in a batch.  A fold over the coordinates gives each point the
        same bits in any batch; facets run down the rows so that each step of
        the fold is a long loop over the points.
        """
        normals = self._equations[:, :-1]
        out = normals[:, :1] * P[:, 0]
        for j in range(1, self.dim):
            out += normals[:, j : j + 1] * P[:, j]
        return out

    def contains_many(self, pts, tol=_MEMBERSHIP_TOL):
        vals = self._facet_dots(np.asarray(pts, dtype=float))
        vals += self._equations[:, -1:]
        return (vals <= tol).all(axis=0)

    def gauge(self, P, z):
        normals, offsets = self._equations[:, :-1], self._equations[:, -1]
        # z + (x - z)/g meets facet i's plane where a_i.(x - z)/g equals
        # -c_i - a_i.z, the plane's distance from z
        vals = self._facet_dots(P - z)
        vals /= -(normals @ z + offsets)[:, None]
        return vals.max(axis=0)

    def bounding_box(self):
        return self.vertices.min(axis=0), self.vertices.max(axis=0)

    def interior_point(self):
        return self.vertices.mean(axis=0)

    def diameter(self):
        d = self.vertices[:, None, :] - self.vertices[None, :, :]
        return float(np.linalg.norm(d, axis=2).max())

    def volume(self):
        return float(self._hull_volume)

    def surface_area(self):
        return float(self._hull_area)

    def __repr__(self):
        return f"Polytope({len(self.vertices)} vertices, dim={self.dim})"


@dataclass(frozen=True)
class HalfSpace:
    """Closed half-space {y : y.u <= h} with unit normal u."""

    h: float
    u: np.ndarray

    def __post_init__(self):
        u = np.atleast_1d(np.asarray(self.u, dtype=float))
        if abs(np.linalg.norm(u) - 1.0) > 1e-12:
            raise ValueError("half-space normal must be a unit vector")
        object.__setattr__(self, "u", u)

    def contains(self, y) -> bool:
        return float(np.asarray(y, dtype=float) @ self.u) <= self.h


class ConvexCone:
    """Convex cone given as an intersection of half-spaces through the origin.

    Covers the full space (no constraints) and orthant-style cones, which is
    all the region constructions here need.
    """

    def __init__(self, dim: int, normals=()):
        self.dim = dim
        self.normals = np.asarray(normals, dtype=float).reshape(-1, dim)

    @classmethod
    def full_space(cls, dim: int) -> "ConvexCone":
        return cls(dim, np.empty((0, dim)))

    @classmethod
    def orthant(cls, dim: int, signs=None) -> "ConvexCone":
        """{x : sign_i * x_i >= 0}; signs default to all +1."""
        if signs is None:
            signs = np.ones(dim)
        signs = np.asarray(signs, dtype=float)
        return cls(dim, -np.diag(signs))

    def contains_many(self, pts, tol: float = _MEMBERSHIP_TOL) -> np.ndarray:
        p = np.asarray(pts, dtype=float)
        if len(self.normals) == 0:
            return np.ones(len(p), dtype=bool)
        return rowwise(np.logical_and, p @ self.normals.T <= tol)

    def contains(self, x, tol: float = _MEMBERSHIP_TOL) -> bool:
        return bool(self.contains_many(np.asarray(x, dtype=float)[None, :], tol)[0])


# ---------------------------------------------------------------------------
# Minkowski algebra
# ---------------------------------------------------------------------------


def support_of_combination(mu: float, X: ConvexBody, nu: float, Y, u) -> float:
    """Support value of mu*X + nu*Y at direction u, without materializing it.

    Works for every shape pair and every sign of mu, nu, since
    h_{mu X}(u) = |mu| h_X(sign(mu) u).
    """
    u = np.asarray(u, dtype=float)

    def one(s, body):
        if s == 0:
            return 0.0
        if isinstance(body, np.ndarray) or np.isscalar(body):
            return float(s * (np.atleast_1d(np.asarray(body, dtype=float)) @ u))
        return abs(s) * body.support(np.sign(s) * u)

    return one(mu, X) + one(nu, Y)


def _scale_body(s: float, body: ConvexBody) -> ConvexBody:
    if s == 0:
        raise ValueError("zero scaling of a body is a point, not a body")
    if isinstance(body, Box):
        a, b = s * body.lo, s * body.hi
        return type(body)(np.minimum(a, b), np.maximum(a, b))
    if isinstance(body, Ball):
        return Ball(s * body.center, abs(s) * body.radius)
    if isinstance(body, Polytope):
        return Polytope(s * body.vertices)
    raise NotRepresentableError(f"cannot scale {type(body).__name__}")


def _translate_body(body: ConvexBody, v) -> ConvexBody:
    v = np.atleast_1d(np.asarray(v, dtype=float))
    if isinstance(body, Box):
        return type(body)(body.lo + v, body.hi + v)
    if isinstance(body, Ball):
        return Ball(body.center + v, body.radius)
    if isinstance(body, Polytope):
        return Polytope(body.vertices + v)
    raise NotRepresentableError(f"cannot translate {type(body).__name__}")


def _as_polytope(body: ConvexBody) -> Polytope:
    if isinstance(body, Polytope):
        return body
    if isinstance(body, Box):
        if body.dim > 3:
            raise NotRepresentableError("box-to-polytope conversion limited to dim <= 3")
        corners = np.array(np.meshgrid(*zip(body.lo, body.hi), indexing="ij"))
        return Polytope(corners.reshape(body.dim, -1).T)
    raise NotRepresentableError(f"cannot convert {type(body).__name__} to polytope")


def minkowski_combine(mu: float, X: ConvexBody, nu: float, Y) -> ConvexBody:
    """Minkowski combination mu*X + nu*Y as an explicit body.

    Y may be a body or a point (array).  Both terms must have the same
    dimension.  Supported pairs: box with box (an Interval is the 1-d box,
    and a sum with an Interval term is again an Interval), ball with ball,
    and any box/polytope mix via vertex enumeration (dim <= 3).  Ball with a
    non-ball raises :class:`NotRepresentableError`; use
    ``support_of_combination`` for support-level arithmetic in that case.
    """
    y_is_point = isinstance(Y, np.ndarray) or np.isscalar(Y) or isinstance(Y, (list, tuple))
    if mu == 0 and nu == 0:
        raise ValueError("mu and nu must not both be zero")
    if y_is_point:
        pt = np.atleast_1d(np.asarray(Y, dtype=float))
        if mu == 0:
            raise ValueError("0*X + nu*point is a single point, not a body")
        return _translate_body(_scale_body(mu, X), nu * pt)
    if nu == 0:
        return _scale_body(mu, X)
    if mu == 0:
        return _scale_body(nu, Y)

    a, b = _scale_body(mu, X), _scale_body(nu, Y)
    if a.dim != b.dim:
        raise ValueError("dimension mismatch in Minkowski combination")
    if isinstance(a, Box) and isinstance(b, Box):
        # the sum takes the more specific of the two classes
        cls = type(a) if isinstance(a, type(b)) else type(b)
        return cls(a.lo + b.lo, a.hi + b.hi)
    if isinstance(a, Ball) and isinstance(b, Ball):
        return Ball(a.center + b.center, a.radius + b.radius)
    if isinstance(a, Ball) or isinstance(b, Ball):
        raise NotRepresentableError(
            "ball combined with a non-ball has no closed-form body; "
            "use support_of_combination instead"
        )
    pa, pb = _as_polytope(a), _as_polytope(b)
    sums = (pa.vertices[:, None, :] + pb.vertices[None, :, :]).reshape(-1, pa.dim)
    return Polytope(sums)


# ---------------------------------------------------------------------------
# Coupling core (the shrunken-shifted intersection body) and the interior
# witness used to certify that it never swallows the whole support
# ---------------------------------------------------------------------------


def _time_factor(t: float, alpha: float) -> float:
    if t <= 0:
        raise ValueError("time must be positive")
    if alpha == 0.0:
        if t <= 1:
            raise ValueError("alpha = 0 requires times > 1")
        return math.log(t)
    return t**alpha


@dataclass(frozen=True)
class CouplingCore:
    """Intersection of two scaled translates of a body K.

    A point y belongs to the core exactly when the pair constraint is
    solvable: there are y0, y1 in K with (1-lam) y0 + lam y1 = y whose
    offsets from x0, x1 are aligned after the time rescaling, i.e.
    (x0 - y0)/f0 = (x1 - y1)/f1 with f_i the time factors.  That pair is
    unique and is returned by :meth:`decompose`.  Each factor body is
    scale_i * K + shift_i; for distinct anchors at least one factor is a
    strict shrink or a genuine shift, which is what keeps the core from
    covering all of K.
    """

    body0: ConvexBody
    body1: ConvexBody
    base: ConvexBody
    x0: np.ndarray
    x1: np.ndarray
    f0: float
    f1: float
    lam: float
    scale0: float = 1.0
    shift0: np.ndarray = None
    scale1: float = 1.0
    shift1: np.ndarray = None

    def contains(self, y, tol: float = _MEMBERSHIP_TOL) -> bool:
        return bool(self.contains_many(np.asarray(y, dtype=float)[None, :], tol)[0])

    def contains_many(self, pts, tol: float = _MEMBERSHIP_TOL) -> np.ndarray:
        return self.body0.contains_many(pts, tol) & self.body1.contains_many(pts, tol)

    def decompose(self, y):
        """The unique (y0, y1) with y_lam = y and aligned offsets."""
        y = np.asarray(y, dtype=float)
        T = (1 - self.lam) * self.f0 + self.lam * self.f1
        y0 = (self.lam * self.f1 * self.x0 - self.lam * self.f0 * self.x1 + self.f0 * y) / T
        y1 = (y - (1 - self.lam) * y0) / self.lam
        return y0, y1

    def bounding_box(self):
        lo0, hi0 = self.body0.bounding_box()
        lo1, hi1 = self.body1.bounding_box()
        return np.maximum(lo0, lo1), np.minimum(hi0, hi1)


def coupling_core(
    K: ConvexBody, x0, x1, t0: float, t1: float, alpha: float, lam: float
) -> CouplingCore:
    """Core body inside which two-point decompositions stay ray-aligned.

    Built as the intersection of two scaled translates of K.  Requires
    lam in (0, 1) and (x0, t0) != (x1, t1); for alpha = 0 the times enter
    through log t and must exceed 1.
    """
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    x1 = np.atleast_1d(np.asarray(x1, dtype=float))
    if not 0 < lam < 1:
        raise ValueError("lam must lie in (0, 1)")
    if np.array_equal(x0, x1) and t0 == t1:
        raise ValueError("coupling core requires (x0, t0) != (x1, t1)")
    f0 = _time_factor(t0, alpha)
    f1 = _time_factor(t1, alpha)
    c = lam / f0 + (1 - lam) / f1
    d = x0 / f0 - x1 / f1
    s0, v0 = f1 * c, -lam * f1 * d
    s1, v1 = f0 * c, (1 - lam) * f0 * d
    body0 = minkowski_combine(s0, K, 1.0, v0)
    body1 = minkowski_combine(s1, K, 1.0, v1)
    return CouplingCore(
        body0=body0, body1=body1, base=K, x0=x0, x1=x1, f0=f0, f1=f1, lam=lam,
        scale0=s0, shift0=v0, scale1=s1, shift1=v1,
    )


def core_complement_witness(omega: ConvexBody, core: CouplingCore) -> np.ndarray:
    """Interior point of omega outside the coupling core.

    Whichever factor body of the core is a strict shrink (or an unshrunken
    but genuinely shifted copy) admits an interior witness outside it, and
    outside the core with it.  A shrink with zero shift leaves the escape
    direction free; the first coordinate axis is used then.
    """
    dim = omega.dim
    candidates = sorted(
        ((core.scale0, core.shift0), (core.scale1, core.shift1)), key=lambda sv: sv[0]
    )
    for s, shift in candidates:
        s = min(s, 1.0) if abs(s - 1.0) < 1e-12 else s
        mu = float(np.linalg.norm(shift))
        if s > 1.0 or (s == 1.0 and mu == 0.0):
            continue
        if mu > 0:
            v = -shift / mu
        else:
            v = np.zeros(dim)
            v[0] = 1.0
        y = interior_witness_outside(omega, s, mu, v)
        if not core.contains_many(y[None, :], tol=0.0)[0]:
            return y
    raise ValueError("no factor of the core is a shrink or a shift; anchors degenerate")


def interior_witness_outside(omega: ConvexBody, s: float, mu: float, v) -> np.ndarray:
    """An interior point of omega lying outside the shrunken shift s*K - mu*v.

    K is the closure of omega.  Requires (s, mu) != (1, 0) with s in (0, 1]
    and mu >= 0; v must be a unit vector.  The point is found by walking a
    support maximizer slightly toward the interior, on whichever of the
    directions v, -v carries a positive support gap.
    """
    v = np.atleast_1d(np.asarray(v, dtype=float))
    norm = np.linalg.norm(v)
    if abs(norm - 1.0) > 1e-9:
        raise ValueError("direction v must be a unit vector")
    if not 0 < s <= 1 or mu < 0:
        raise ValueError("requires s in (0, 1] and mu >= 0")
    if s == 1 and mu == 0:
        raise ValueError("(s, mu) = (1, 0) leaves nothing outside the shift")

    h_v = omega.support(v)
    gap = h_v - (s * h_v - mu)
    direction = v
    if gap <= 0:
        # whole shift sits past h_K(v); the opposite direction must open up
        h_mv = omega.support(-v)
        gap = h_mv - (s * h_mv + mu)
        direction = -v
        if gap <= 0:
            raise ValueError("no support gap in either direction; inputs degenerate")

    x = omega.support_point(direction)
    z0 = omega.interior_point()
    step = np.linalg.norm(z0 - x)
    if step == 0:
        raise ValueError("support point coincides with the interior point")
    rho = min(0.5, gap / (4.0 * step))
    y = x + rho * (z0 - x)

    if not omega.is_interior(y):
        raise RuntimeError("witness construction failed the interior test")
    shifted_pt = (y + mu * v) / s
    if omega.contains(shifted_pt, tol=0.0):
        raise RuntimeError("witness construction landed inside the shifted body")
    return y


# ---------------------------------------------------------------------------
# Parabolically convex regions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SpaceTimeBox:
    """Sampleable box body x-range times [t_lo, t_hi] in R^n x (0, inf)."""

    body: ConvexBody
    t_lo: float
    t_hi: float

    def __post_init__(self):
        if not 0 < self.t_lo < self.t_hi:
            raise ValueError("requires 0 < t_lo < t_hi")

    @property
    def dim(self) -> int:
        return self.body.dim

    def sample(self, rng: np.random.Generator, k: int):
        x = self.body.sample(rng, k)
        t = rng.uniform(self.t_lo, self.t_hi, size=k)
        return x, t

    def contains_many(self, X, T) -> np.ndarray:
        T = np.asarray(T, dtype=float)
        return self.body.contains_many(X) & (T >= self.t_lo) & (T <= self.t_hi)

    def contains(self, x, t) -> bool:
        return self.t_lo <= t <= self.t_hi and self.body.contains(x)

    def diameter(self) -> float:
        return math.hypot(self.body.diameter(), self.t_hi - self.t_lo)


class ParabolicRegion:
    """Subset of R^n x (0, inf) interrogated for alpha-parabolic convexity.

    Concrete subclasses supply ``contains_many``; the base class carries the
    sampling bounds (an x-box and a time window) that make the membership
    predicate sampleable, plus the straightening chart for its alpha.
    """

    def __init__(self, dim, alpha, x_lo, x_hi, t_lo, t_hi):
        self.dim = dim
        self.alpha = float(alpha)
        self.x_lo = np.atleast_1d(np.asarray(x_lo, dtype=float))
        self.x_hi = np.atleast_1d(np.asarray(x_hi, dtype=float))
        if alpha == 0 and t_lo <= 1:
            raise ValueError("alpha = 0 regions need sampling times > 1")
        if t_lo <= 0 or t_hi <= t_lo:
            raise ValueError("need 0 < t_lo < t_hi")
        self.t_lo = float(t_lo)
        self.t_hi = float(t_hi)

    def contains_many(self, X, T) -> np.ndarray:
        raise NotImplementedError

    def contains(self, x, t) -> bool:
        x = np.atleast_1d(np.asarray(x, dtype=float))
        return bool(self.contains_many(x[None, :], np.atleast_1d(float(t)))[0])

    def sample(self, rng: np.random.Generator, k: int):
        out_x = np.empty((k, self.dim))
        out_t = np.empty(k)
        have = 0
        for _ in range(4000):
            m = max(k, 64)
            X = rng.uniform(self.x_lo, self.x_hi, size=(m, self.dim))
            T = rng.uniform(self.t_lo, self.t_hi, size=m)
            ok = self.contains_many(X, T)
            take = min(k - have, int(ok.sum()))
            out_x[have : have + take] = X[ok][:take]
            out_t[have : have + take] = T[ok][:take]
            have += take
            if have == k:
                return out_x, out_t
        raise SamplingError("no member points found in the bounding data")

    def diameter(self) -> float:
        return math.hypot(float(np.linalg.norm(self.x_hi - self.x_lo)), self.t_hi - self.t_lo)


class HatRegion(ParabolicRegion):
    """Region {(x, t) : x / f(t) in A} with f = t^alpha, or log t at alpha=0.

    A may be a convex body or a :class:`ConvexCone`.  For a cone the region
    is A x (0, inf) and the x sampling box must be supplied (cones are
    unbounded); for a body it is derived from the scaled bounding box.
    """

    def __init__(self, A, alpha: float, t_range=None, x_box=None):
        self.base = A
        if t_range is None:
            t_range = (1.5, 4.0) if alpha == 0 else (0.5, 2.0)
        t_lo, t_hi = t_range
        if isinstance(A, ConvexCone):
            if x_box is None:
                x_lo, x_hi = -np.ones(A.dim), np.ones(A.dim)
            else:
                x_lo, x_hi = x_box
        else:
            lo, hi = A.bounding_box()
            f_lo = _time_factor(t_lo, alpha)
            f_hi = _time_factor(t_hi, alpha)
            x_lo = np.minimum(lo * f_lo, lo * f_hi)
            x_hi = np.maximum(hi * f_lo, hi * f_hi)
        super().__init__(A.dim, alpha, x_lo, x_hi, t_lo, t_hi)

    def contains_many(self, X, T):
        X = np.asarray(X, dtype=float)
        T = np.asarray(T, dtype=float)
        if self.alpha == 0.0:
            ok = T > 1
            f = np.where(ok, np.log(np.where(ok, T, 2.0)), 1.0)
        else:
            ok = T > 0
            f = np.where(ok, np.where(ok, T, 1.0) ** self.alpha, 1.0)
        return ok & self.base.contains_many(X / f[:, None])


class CylinderRegion(ParabolicRegion):
    """Product region A x [t_lo, t_hi]."""

    def __init__(self, base: ConvexBody, t_lo: float, t_hi: float, alpha: float):
        lo, hi = base.bounding_box()
        super().__init__(base.dim, alpha, lo, hi, t_lo, t_hi)
        self.base = base

    def contains_many(self, X, T):
        T = np.asarray(T, dtype=float)
        return self.base.contains_many(X) & (T >= self.t_lo) & (T <= self.t_hi)


class UnionRegion(ParabolicRegion):
    """Union of regions (generally not parabolically convex)."""

    def __init__(self, parts, alpha=None):
        if alpha is None:
            alpha = parts[0].alpha
        x_lo = np.min([p.x_lo for p in parts], axis=0)
        x_hi = np.max([p.x_hi for p in parts], axis=0)
        t_lo = min(p.t_lo for p in parts)
        t_hi = max(p.t_hi for p in parts)
        super().__init__(parts[0].dim, alpha, x_lo, x_hi, t_lo, t_hi)
        self.parts = list(parts)

    def contains_many(self, X, T):
        out = np.zeros(len(np.atleast_1d(T)), dtype=bool)
        for p in self.parts:
            out |= p.contains_many(X, T)
        return out


def time_scaled_region(A, alpha: float, t_range=None, x_box=None) -> HatRegion:
    """Lift a convex set A to the region {(x,t) : x/t^alpha in A}.

    At alpha = 0 the time factor is log t and the region lives over t > 1.
    When A is a convex cone the region degenerates to A x (0, inf).
    """
    return HatRegion(A, alpha, t_range=t_range, x_box=x_box)


def straightening_chart(E: ParabolicRegion, x, t) -> np.ndarray:
    """Chart (x/f(t), 1/f(t)) under which parabolic convexity becomes
    ordinary convexity; f(t) = t^alpha, or log t at alpha = 0 (t > 1)."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    if E.alpha == 0.0:
        if t <= 1:
            raise ValueError("alpha = 0 chart requires t > 1")
        f = math.log(t)
    else:
        if t <= 0:
            raise ValueError("chart requires t > 0")
        f = t**E.alpha
    return np.concatenate([x / f, [1.0 / f]])


def chart_preimage(E: ParabolicRegion, w) -> tuple[np.ndarray, float]:
    """Invert :func:`straightening_chart`: (y, s) -> (y/s, f^{-1}(1/s))."""
    w = np.asarray(w, dtype=float)
    y, s = w[:-1], w[-1]
    if s <= 0:
        raise ValueError("chart image must have positive last coordinate")
    x = y / s
    if E.alpha == 0.0:
        t = math.exp(1.0 / s)
    else:
        t = (1.0 / s) ** (1.0 / E.alpha)
    return x, t


@dataclass
class RegionConvexityReport:
    """Sampled parabolic-convexity verdict with an optional chart cross-check."""

    verdict: str  # "pass" | "violation"
    direct_verdict: str
    chart_verdict: str | None
    witness: dict | None
    samples_used: int
    seed: int

    def to_json(self) -> dict:
        return {
            "verdict": self.verdict,
            "direct_verdict": self.direct_verdict,
            "chart_verdict": self.chart_verdict,
            "witness": self.witness,
            "samples": self.samples_used,
            "seed": self.seed,
        }


def check_parabolic_convexity(
    E: ParabolicRegion, samples: int = 2000, seed: int = 0
) -> RegionConvexityReport:
    """Sampled test that E is closed under parabolic combinations.

    Draws pairs of member points and lam in (0,1), and checks that the
    combined point (x_lam, M_alpha(t0,t1;lam)) is again a member.  When the
    straightening chart applies, the same pairs are also combined linearly
    in chart coordinates and mapped back, cross-checking the equivalence
    between parabolic convexity of E and convexity of its chart image.
    """
    rng = make_rng(seed)
    X0, T0 = E.sample(rng, samples)
    X1, T1 = E.sample(rng, samples)
    lam = rng.uniform(0.0, 1.0, size=samples)

    t_comb = mean_p(E.alpha, T0, T1, lam)
    x_comb = (1 - lam)[:, None] * X0 + lam[:, None] * X1
    ok_direct = E.contains_many(x_comb, t_comb)
    direct = "pass" if ok_direct.all() else "violation"

    chart_ok = None
    chart = None
    witness = None
    use_chart = E.alpha != 0.0 or E.t_lo > 1
    if use_chart:
        W0 = np.array([straightening_chart(E, x, t) for x, t in zip(X0, T0)])
        W1 = np.array([straightening_chart(E, x, t) for x, t in zip(X1, T1)])
        Wc = (1 - lam)[:, None] * W0 + lam[:, None] * W1
        pre = [chart_preimage(E, w) for w in Wc]
        Xp = np.array([p[0] for p in pre])
        Tp = np.array([p[1] for p in pre])
        chart_ok = E.contains_many(Xp, Tp)
        chart = "pass" if chart_ok.all() else "violation"

    bad = ~ok_direct if chart_ok is None else (~ok_direct | ~chart_ok)
    if bad.any():
        i = int(np.argmax(bad))
        witness = {
            "x0": X0[i].tolist(),
            "t0": float(T0[i]),
            "x1": X1[i].tolist(),
            "t1": float(T1[i]),
            "lambda": float(lam[i]),
        }
    verdict = "violation" if bad.any() else "pass"
    return RegionConvexityReport(
        verdict=verdict,
        direct_verdict=direct,
        chart_verdict=chart,
        witness=witness,
        samples_used=samples,
        seed=seed,
    )


# ---------------------------------------------------------------------------
# JSON descriptors
# ---------------------------------------------------------------------------


def body_from_json(data: dict) -> ConvexBody:
    """Build a body from {"kind": "interval"|"box"|"ball"|"polytope", ...}."""
    kind = data.get("kind")
    if kind == "interval":
        return Interval(float(data["a"]), float(data["b"]))
    if kind == "box":
        return Box(np.asarray(data["lo"], dtype=float), np.asarray(data["hi"], dtype=float))
    if kind == "ball":
        return Ball(np.asarray(data["center"], dtype=float), float(data["radius"]))
    if kind == "polytope":
        return Polytope(np.asarray(data["vertices"], dtype=float))
    raise ValueError(f"unknown body kind: {kind!r}")


def spacetime_box_from_json(data: dict) -> SpaceTimeBox:
    """Build a box from {"body": {...}, "t_lo": ..., "t_hi": ...}; "kind" is optional."""
    return SpaceTimeBox(body_from_json(data["body"]), float(data["t_lo"]), float(data["t_hi"]))


def body_to_json(body: ConvexBody) -> dict:
    if isinstance(body, Interval):
        return {"kind": "interval", "a": body.a, "b": body.b}
    if isinstance(body, Box):
        return {"kind": "box", "lo": body.lo.tolist(), "hi": body.hi.tolist()}
    if isinstance(body, Ball):
        return {"kind": "ball", "center": body.center.tolist(), "radius": body.radius}
    if isinstance(body, Polytope):
        return {"kind": "polytope", "vertices": body.vertices.tolist()}
    raise ValueError(f"cannot serialize {type(body).__name__}")
