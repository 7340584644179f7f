"""Unique-maximum search for strictly quasi-concave objectives.

A strictly quasi-concave function has at most one global maximum point, and
its restriction to any segment is strictly quasi-concave, so derivative-free
golden-section line searches along coordinate directions converge without
bracketing surprises.  The solver runs several stratified starts and reports
the spread of their limits: a tight cluster is the uniqueness certificate,
a wide one signals a non-strict objective or quadrature noise.

Objectives may return a bare value or a (value, error-estimate) pair; line
searches stop refining once bracket differences drop below five times the
local error estimate, so quadrature-backed objectives are never chased
inside their own noise.

The starts advance in lockstep, one point per unfinished start per round: a
field objective is evaluated once per round on the whole batch, any other
callable once per point.  Each start follows the trajectory it has alone,
since a pure objective's values do not depend on the batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .convolve import PoissonIndicatorField
from .fields import ScalarField, SpaceTimeField
from .geometry import Box, ConvexBody, Interval, ParabolicRegion, SpaceTimeBox
from .geometry import body_from_json, spacetime_box_from_json

__all__ = [
    "MaxProblem",
    "MaxResult",
    "ConvergenceError",
    "maximize",
    "regiomontanus",
    "problem_from_json",
]

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0


class ConvergenceError(RuntimeError):
    """No start reached the requested tolerance within the iteration cap."""


@dataclass
class MaxProblem:
    """Bounded maximization problem.

    ``feasible`` is a :class:`ConvexBody` (axes may be degenerate, e.g. a
    vertical segment as a zero-width box), a :class:`SpaceTimeBox`, or a
    :class:`ParabolicRegion`; space-time sets are treated as bodies in
    R^{n+1} with t as the last coordinate.  ``objective`` is a field, whose
    ``eval_with_error`` gets a batch of points per round, or a callable that
    maps one point to a value or to a (value, est_error) pair.
    """

    objective: object
    feasible: object
    tolerance: float = 1e-8
    multistart: int = 10
    seed: int = 0
    max_cycles: int = 60

    def __post_init__(self):
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")
        if self.multistart < 1:
            raise ValueError("needs at least one start")


@dataclass
class MaxResult:
    argmax: np.ndarray
    value: float
    starts_converged: int
    max_pairwise_spread: float
    evaluations: int
    unique: bool

    def to_json(self) -> dict:
        return {
            "argmax": self.argmax.tolist(),
            "value": self.value,
            "starts_converged": self.starts_converged,
            "max_pairwise_spread": self.max_pairwise_spread,
            "evaluations": self.evaluations,
            "unique": self.unique,
        }


class _Feasible:
    """Uniform view of the feasible set: bounds + membership + start points.

    Besides bodies and regions, a raw ``(lo, hi)`` pair is accepted as a box
    that may be degenerate along some axes (e.g. a vertical segment); proper
    bodies keep their nonempty-interior invariant.
    """

    def __init__(self, feasible):
        if isinstance(feasible, tuple) and len(feasible) == 2:
            lo = np.atleast_1d(np.asarray(feasible[0], dtype=float))
            hi = np.atleast_1d(np.asarray(feasible[1], dtype=float))
            if (lo > hi).any() or (lo == hi).all():
                raise ValueError("degenerate box needs lo <= hi with some extent")
            self.lo, self.hi = lo, hi
            tol = 1e-12 * (1.0 + np.abs(lo) + np.abs(hi))
            self.member = lambda z: bool(
                ((z >= lo - tol) & (z <= hi + tol)).all()
            )
        elif isinstance(feasible, ConvexBody):
            lo, hi = feasible.bounding_box()
            self.lo = np.asarray(lo, dtype=float)
            self.hi = np.asarray(hi, dtype=float)
            self.member = lambda z: feasible.contains(z, tol=1e-12)
        elif isinstance(feasible, SpaceTimeBox):
            blo, bhi = feasible.body.bounding_box()
            self.lo = np.append(blo, feasible.t_lo)
            self.hi = np.append(bhi, feasible.t_hi)
            self.member = lambda z: feasible.contains(z[:-1], z[-1])
        elif isinstance(feasible, ParabolicRegion):
            self.lo = np.append(feasible.x_lo, feasible.t_lo)
            self.hi = np.append(feasible.x_hi, feasible.t_hi)
            self.member = lambda z: feasible.contains(z[:-1], z[-1])
        else:
            raise ValueError("feasible set must be a body, space-time box, or region")
        self.dim = len(self.lo)
        self.span = self.hi - self.lo
        self.diameter = float(np.linalg.norm(self.span))

    def starts(self, count: int, seed: int) -> np.ndarray:
        """Stratified starting points (scrambled Sobol, membership-filtered)."""
        from scipy.stats import qmc

        active = self.span > 0
        out = []
        if active.any():
            sob = qmc.Sobol(d=int(active.sum()), scramble=True, seed=seed)
            batch = 1 << max(3, (count - 1).bit_length())
            for _ in range(64):
                u = sob.random(batch)
                pts = np.tile(self.lo.astype(float), (len(u), 1))
                pts[:, active] = self.lo[active] + u * self.span[active]
                for z in pts:
                    if self.member(z):
                        out.append(z)
                        if len(out) == count:
                            return np.array(out)
        else:
            z = self.lo.copy()
            if self.member(z):
                return np.tile(z, (count, 1))
        if not out:
            raise ConvergenceError("found no feasible starting point")
        return np.array(out)

    def segment(self, z: np.ndarray, axis: int):
        """Feasible parameter range for z + s * e_axis, by bisection.

        The restriction of a convex feasible set to a line is an interval,
        so bisecting between a known-feasible and a known-infeasible
        parameter localizes each endpoint to 1e-12 relative.
        """
        if self.span[axis] == 0:
            return 0.0, 0.0

        def feas(s):
            w = z.copy()
            w[axis] += s
            return self.member(w)

        out = []
        for sign in (-1.0, 1.0):
            s_max = sign * (self.hi[axis] - z[axis] if sign > 0 else z[axis] - self.lo[axis])
            if feas(s_max):
                out.append(s_max)
                continue
            a, b = 0.0, s_max  # feas(a) holds, feas(b) fails
            for _ in range(80):
                m = 0.5 * (a + b)
                if feas(m):
                    a = m
                else:
                    b = m
                if abs(b - a) <= 1e-12 * (1.0 + abs(self.span[axis])):
                    break
            out.append(a)
        return out[0], out[1]


def _golden_max(point, a: float, b: float, tol: float):
    """Golden-section maximization on [a, b]; returns (s*, value, error).

    A generator: yields ``point(s)`` per probe s and is sent its (value,
    error).  Probes that tie (exactly, or within five times their error
    estimates) pinch the bracket from both ends: for a unimodal restriction
    the maximum lies between two equal-valued points.  Persistent
    noise-level ties end the search, so quadrature-backed objectives are
    not resolved inside their own noise floor.
    """
    if b - a <= tol:
        s = 0.5 * (a + b)
        v, e = yield point(s)
        return s, v, e
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, ec = yield point(c)
    fd, ed = yield point(d)
    steps = int(math.ceil(math.log(tol / (b - a)) / math.log(_INVPHI)))
    stalls = 0
    for _ in range(max(2 * steps, 2)):
        if b - a <= tol:
            break
        noise = 5.0 * max(ec, ed)
        if abs(fc - fd) <= noise or fc == fd:
            prev_best = max(fc, fd)
            a, b = c, d
            if b - a <= tol:
                break
            c = b - _INVPHI * (b - a)
            d = a + _INVPHI * (b - a)
            fc, ec = yield point(c)
            fd, ed = yield point(d)
            if noise > 0:
                # refining stopped paying: the bracket is a noise plateau
                stalls = stalls + 1 if max(fc, fd) - prev_best <= noise else 0
                if stalls >= 2:
                    break
        elif fc > fd:
            b, d, fd, ed = d, c, fc, ec
            c = b - _INVPHI * (b - a)
            fc, ec = yield point(c)
        else:
            a, c, fc, ec = c, d, fd, ed
            d = a + _INVPHI * (b - a)
            fd, ed = yield point(d)
    if fc > fd:
        return c, fc, ec
    return d, fd, ed


def _ascend(feas: _Feasible, z0: np.ndarray, prob: MaxProblem):
    """Cyclic coordinate ascent with golden-section line searches (a generator)."""
    z = z0.copy()
    val, err = yield z
    converged = False
    for _ in range(prob.max_cycles):
        move = 0.0
        for axis in range(feas.dim):
            s_lo, s_hi = feas.segment(z, axis)
            if s_hi - s_lo <= 0:
                continue

            def point(s, axis=axis):
                w = z.copy()
                w[axis] += s
                return w

            s, v, e = yield from _golden_max(point, s_lo, s_hi, prob.tolerance)
            if v >= val:  # accept only ascent steps
                z[axis] += s
                if v > val:  # an equal-valued step on a flat top is no movement
                    move = max(move, abs(s))
                val, err = v, e
        if move < prob.tolerance:
            converged = True
            break
    return z, val, err, converged


def _evaluator(objective):
    """Batch evaluation: an (m, dim) array of points -> m (value, error) pairs."""
    if isinstance(objective, SpaceTimeField):
        return lambda Z: zip(*objective.eval_with_error(Z[:, :-1], Z[:, -1]))
    if isinstance(objective, ScalarField):
        return lambda Z: zip(*objective.eval_with_error(Z))
    return lambda Z: [out if isinstance(out, tuple) else (out, 0.0) for out in map(objective, Z)]


def _lockstep(evaluate, runs: list):
    """Advance generator runs, one batch per round; (results, points evaluated)."""
    pending = {i: next(run) for i, run in enumerate(runs)}
    results = [None] * len(runs)
    evaluations = 0
    while pending:
        live = list(pending)
        evaluations += len(live)
        for i, (v, e) in zip(live, evaluate(np.array([pending[i] for i in live]))):
            try:
                pending[i] = runs[i].send((float(v), float(e)))
            except StopIteration as done:
                results[i] = done.value
                del pending[i]
    return results, evaluations


def maximize(prob: MaxProblem) -> MaxResult:
    """Multistart ascent; the spread across starts certifies uniqueness.

    Raises :class:`ConvergenceError` if no start converges.  A spread above
    1000x the tolerance clears the ``unique`` flag instead of raising: it is
    evidence of a non-strict objective or of noise-dominated evaluations.
    With two or more starts, ``unique`` also needs two converged starts,
    since the spread of a single limit is 0 and certifies nothing.
    """
    feas = _Feasible(prob.feasible)
    starts = feas.starts(prob.multistart, prob.seed)
    runs = [_ascend(feas, z0, prob) for z0 in starts]
    finals, evaluations = _lockstep(_evaluator(prob.objective), runs)
    converged = [(z, v) for z, v, _, ok in finals if ok]
    if not converged:
        raise ConvergenceError("no start converged within the cycle cap")

    # deterministic winner: best value, lexicographic point as tie-break
    winner = min(converged, key=lambda zv: (-zv[1], tuple(zv[0])))
    pts = np.array([z for z, _ in converged])
    spread = 0.0
    if len(pts) > 1:
        diff = pts[:, None, :] - pts[None, :, :]
        spread = float(np.linalg.norm(diff, axis=2).max())
    return MaxResult(
        argmax=winner[0],
        value=winner[1],
        starts_converged=len(converged),
        max_pairwise_spread=spread,
        evaluations=evaluations,
        unique=spread <= 1e3 * prob.tolerance and (prob.multistart < 2 or len(converged) >= 2),
    )


def regiomontanus(a: float, b: float, constraint, **kw) -> MaxResult:
    """Maximize the viewing angle of the segment [a, b] over a constraint set.

    The objective is the normalized angle under which {(y, 0) : a <= y <= b}
    is seen from (x, t), i.e. the Poisson convolution of the segment's
    indicator.  Requires 0 < a < b (a degenerate segment has no interior
    angle to maximize) and a constraint inside the open upper half-plane.
    On a vertical constraint {x0} x [t_lo, t_hi] containing sqrt(ab), the
    classical optimum t* = sqrt(ab) is recovered.

    A 1-d constraint interval is read as a t-range at x = 0.
    """
    if not 0 < a < b - 1e-12 * max(1.0, abs(a)):
        raise ValueError("requires 0 < a < b with a non-degenerate segment")
    if isinstance(constraint, Interval):
        # a bare t-range means observing from the t-axis
        constraint = (np.array([0.0, constraint.a]), np.array([0.0, constraint.b]))
    if isinstance(constraint, tuple):
        lo = constraint[0]
    else:
        lo, _ = constraint.bounding_box()
    if lo[-1] <= 0:
        raise ValueError("constraint must lie in the open upper half-plane t > 0")

    prob = MaxProblem(objective=PoissonIndicatorField(a, b), feasible=constraint, **kw)
    return maximize(prob)


def problem_from_json(data: dict) -> MaxProblem:
    """Build a problem from JSON: objective descriptor + feasible descriptor.

    Objective kinds: ``oracle_w`` / ``oracle_p`` (closed-form interval
    convolutions over (x, t)), ``spacetime_field`` (any space-time field
    descriptor), ``scalar_field``, and ``convolution`` (quadrature-backed
    Gamma with kernel "gw"/"poisson" and data field "psi").
    """
    from .convolve import ConvolutionField, HeatIndicatorField, QuadratureSpec
    from .fields import GaussWeierstrassKernel, PoissonKernel, field_from_json

    spec = data["objective"]
    kind = spec.get("kind")
    if kind in ("oracle_w", "oracle_p"):
        oracle = HeatIndicatorField if kind == "oracle_w" else PoissonIndicatorField
        objective = oracle(float(spec["a"]), float(spec["b"]))
    elif kind in ("spacetime_field", "scalar_field"):
        objective = field_from_json(spec["field"])
        expected = SpaceTimeField if kind == "spacetime_field" else ScalarField
        if not isinstance(objective, expected):
            raise ValueError(f"{kind} needs a {expected.__name__} descriptor")
    elif kind == "convolution":
        psi = field_from_json(spec["psi"])
        kernel = (
            GaussWeierstrassKernel(psi.dim)
            if spec.get("kernel", "gw") == "gw"
            else PoissonKernel(psi.dim)
        )
        quad = QuadratureSpec.default_for(psi.support)
        objective = ConvolutionField(kernel, psi, quad)
    else:
        raise ValueError(f"unknown objective kind: {kind!r}")

    feasible = feasible_from_json(data["feasible"])
    opts = {k: data[k] for k in ("tolerance", "multistart", "seed") if k in data}
    return MaxProblem(objective=objective, feasible=feasible, **opts)


def feasible_from_json(fspec: dict):
    """Feasible-set descriptor: a body, a space-time box, or a degenerate box."""
    if fspec.get("kind") == "spacetime_box":
        return spacetime_box_from_json(fspec)
    if fspec.get("kind") == "box":
        lo = np.atleast_1d(np.asarray(fspec["lo"], dtype=float))
        hi = np.atleast_1d(np.asarray(fspec["hi"], dtype=float))
        if (lo < hi).all():
            return Box(lo, hi)
        return (lo, hi)  # segment-like constraint with zero-width axes
    return body_from_json(fspec)
