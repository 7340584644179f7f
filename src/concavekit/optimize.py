"""Unique-maximum search for strictly quasi-concave objectives.

A strictly quasi-concave function has at most one global maximum point, and
its restriction to any segment is strictly quasi-concave, so derivative-free
line searches along coordinate directions converge without bracketing
surprises.  The solver runs several stratified starts and reports
the spread of their limits: a tight cluster is the uniqueness certificate,
a wide one signals a non-strict objective or quadrature noise.

A search on [a, b] first probes b and b - tol, then a and a + tol, and
returns an end that beats its neighbour by more than five times their larger
error estimate: by strict quasi-concavity the maximum is within tol of it.
An end maximum (a space-time kernel's earliest time) costs 2 or 4 probes.
An interior one is found by Brent's method: from the golden pair of [a, b],
each probe is the vertex of the concave parabola through the three best
probes, or a golden step where that vertex is not admissible.  At tolerance
1e-6 on a line of length 4, a smooth interior maximum costs 10 to 20
probes, the end test's included, where the golden section cost 38.
Parabolic steps need exact values: on values with an error bar the search
makes golden steps only, so its probes depend on comparisons alone.  An
axis is skipped while z has moved along no other since its last search:
one free axis costs one search.

Objectives may return a bare value or a (value, error-estimate) pair; line
searches stop refining once bracket differences drop below five times the
local error estimate, so quadrature-backed objectives are never chased
inside their own noise.

A problem is a descriptor of kind ``problem``, whose ``"kind"`` a JSON file
may leave out; every field but ``max_cycles`` is a key.

The starts advance in lockstep, one probe per unfinished start per round.
Their current points are the rows of one (starts, dim) array; each start's
search moves its own row in place and asks for a probe as an ``(axis, s)``
move, the point ``z + s e_axis``.  A round gathers the live rows once, adds
each move, and evaluates the batch: one ``eval_with_error`` call for a
field objective, one call per point for any other callable.  Each start
follows the trajectory it has alone, since a pure objective's values do not
depend on the batch.

The starts are the first ``multistart`` feasible points of the scrambled
Sobol sequence of ``sampling.sobol(d, seed)`` over the bounding box's d
non-degenerate axes, drawn in batches of the smallest power of two, at
least 8, that holds them, and at most 64 batches.  Those points equal
``scipy.stats.qmc.Sobol(d, scramble=True, seed=seed)``'s bit for bit, so
a seed names the same starts as it did when scipy drew them.  A feasible
set with more than 32 non-degenerate axes raises ``ValueError``.  A
box-like set (a ``box``, an ``interval``, a ``spacetime_box`` over one) is
closed per-axis bounds: a segment's ends are its bounds, bisected only
where z + (hi - z) rounds past one.  Every set filters a batch of starts
with one batch membership test, and a segment of any other set bisects
through that test on one row.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .convolve import PoissonIndicatorField
from .fields import ScalarField, SpaceTimeField, field_from_json
from .geometry import Box, ConvexBody, Descriptor, Interval, Key, ParabolicRegion, Record
from .geometry import SpaceTimeBox, check_keys, from_json, integer, number, read_key
from .sampling import sobol

__all__ = [
    "MaxProblem",
    "MaxResult",
    "ConvergenceError",
    "maximize",
    "regiomontanus",
]

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_CGOLD = 1.0 - _INVPHI


class ConvergenceError(RuntimeError):
    """No start reached the requested tolerance within the iteration cap."""


def _objective_from_json(spec):
    """A field descriptor, or one wrapped as ``{"kind": ..., "field": ...}``."""
    kind = spec.get("kind") if isinstance(spec, dict) else None
    if kind in ("spacetime_field", "scalar_field"):
        check_keys(spec, ("kind", "field"), kind)
        expected = SpaceTimeField if kind == "spacetime_field" else ScalarField
        return read_key(spec, "field", Key(expected), kind)
    return field_from_json(spec)


def feasible_from_json(fspec: dict):
    """Feasible-set descriptor: a body, a space-time box, or a degenerate box."""
    if isinstance(fspec, dict) and fspec.get("kind") == "box":
        check_keys(fspec, ("kind", *Box.keys), "box")
        lo, hi = (np.atleast_1d(read_key(fspec, k, Box.keys[k], "box")) for k in ("lo", "hi"))
        if lo.ndim > 1 or lo.shape != hi.shape or (lo < hi).all():
            return Box(lo, hi)  # which refuses nested bounds or bounds of unequal length
        return (lo, hi)  # segment-like constraint with zero-width axes
    return from_json(fspec, (ConvexBody, SpaceTimeBox))


@dataclass
class MaxProblem(
    Descriptor,
    kind="problem",
    keys={"objective": _objective_from_json, "feasible": Key(feasible_from_json, attr="_feasible_json"),
          "tolerance": Key(number, 1e-8), "multistart": Key(integer, 10), "seed": Key(integer, 0)},
):
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
        if not self.tolerance > 0:
            raise ValueError("tolerance must be positive")
        if self.multistart < 1:
            raise ValueError("needs at least one start")

    @property
    def _feasible_json(self):
        """The feasible set as ``to_json`` writes it: a bare (lo, hi) pair as a box descriptor."""
        if isinstance(self.feasible, tuple):
            lo, hi = self.feasible
            return {"kind": "box", "lo": lo, "hi": hi}
        return self.feasible


@dataclass
class MaxResult(Record):
    argmax: np.ndarray
    value: float
    starts_converged: int
    max_pairwise_spread: float
    evaluations: int
    unique: bool


class _Feasible:
    """Uniform view of the feasible set: joint bounds ``lo, hi`` and one batch membership test.

    ``inside(P)`` tests each row of an (m, dim) array P.  Besides bodies and
    regions, a raw ``(lo, hi)`` pair is accepted as a box that may be
    degenerate along some axes (e.g. a vertical segment); proper bodies keep
    their nonempty-interior invariant.

    A box-like set (the pair, a ``Box`` or ``Interval``, a ``SpaceTimeBox``
    over one) is ``bounds``, closed per axis with its ``contains`` tolerance,
    and ``inside`` compares each row with them; a segment of a feasible z
    tests its moving coordinate alone.  A body tests ``contains_many(P,
    1e-12)``, and a ``SpaceTimeBox`` over another body or a
    ``ParabolicRegion`` tests ``contains_many(P[:, :-1], P[:, -1])``.  Each
    test gives a point the same answer alone and in any batch, so the starts
    filter a whole batch and a segment bisects through one row.
    """

    def __init__(self, feasible):
        self.bounds = widen = None  # widen: a box-like set's contains tolerance per axis
        if isinstance(feasible, tuple) and len(feasible) == 2:
            lo, hi = (np.atleast_1d(np.asarray(b, dtype=float)) for b in feasible)
            if (lo > hi).any() or (lo == hi).all():
                raise ValueError("degenerate box needs lo <= hi with some extent")
            widen = 1e-12 * (1.0 + np.abs(lo) + np.abs(hi))
        elif isinstance(feasible, ConvexBody):
            lo, hi = feasible.bounding_box()
            widen = 1e-12 if type(feasible) in (Box, Interval) else None
            self.inside = lambda P: feasible.contains_many(P, 1e-12)
        elif isinstance(feasible, (SpaceTimeBox, ParabolicRegion)):
            if isinstance(feasible, ParabolicRegion) and not feasible.bounded:
                # its x sampling box does not hold the members
                raise ValueError("the region's x range is unbounded")
            stb = isinstance(feasible, SpaceTimeBox)
            x_lo, x_hi = feasible.body.bounding_box() if stb else (feasible.x_lo, feasible.x_hi)
            lo, hi = np.append(x_lo, feasible.t_lo), np.append(x_hi, feasible.t_hi)
            if stb and type(feasible.body) in (Box, Interval):
                widen = np.append(np.full(feasible.dim, 1e-12), 0.0)  # closed times
            self.inside = lambda P: feasible.contains_many(P[:, :-1], P[:, -1])
        else:
            raise ValueError("feasible set must be a body, space-time box, or region")
        self.lo, self.hi = (np.asarray(b, dtype=float) for b in (lo, hi))
        if widen is not None:
            self.bounds = lows, highs = (self.lo - widen).tolist(), (self.hi + widen).tolist()
            self.inside = lambda P: ((P >= lows) & (P <= highs)).all(axis=1)
        self.dim = len(self.lo)
        self.span = self.hi - self.lo

    def starts(self, count: int, seed: int) -> np.ndarray:
        """Stratified starting points (scrambled Sobol, membership-filtered); see the module."""
        active = self.span > 0
        out = []
        draw = sobol(int(active.sum()), seed)
        batch = 1 << max(3, (count - 1).bit_length())
        for _ in range(64):
            u = draw(batch)
            pts = np.tile(self.lo, (len(u), 1))
            pts[:, active] = self.lo[active] + u * self.span[active]
            out.extend(pts[self.inside(pts)][: count - len(out)])
            if len(out) == count:
                return np.array(out)
        if not out:
            raise ConvergenceError("found no feasible starting point")
        return np.array(out)

    def segment(self, z: np.ndarray, axis: int):
        """Feasible parameter range for z + s * e_axis, by bisection.

        The restriction of a convex feasible set to a line is an interval,
        so bisecting between a known-feasible and a known-infeasible
        parameter localizes each endpoint to 1e-12 relative.  On a box-like
        set it runs only where z + (hi - z) rounds past the bound.
        """
        if self.span[axis] == 0:
            return 0.0, 0.0
        if self.bounds is None:
            def feas(s):
                w = z.copy()
                w[axis] += s
                return self.inside(w[None, :])[0]
        else:
            low, high, c = self.bounds[0][axis], self.bounds[1][axis], float(z[axis])
            def feas(s):
                return low <= c + s <= high

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


def _line_max(axis: int, a: float, b: float, tol: float):
    """End test, then Brent's search for an interior maximum on [a, b]; returns (s*, value, error).

    A generator: yields the move ``(axis, s)`` per probe s and is sent its
    (value, error).  The search keeps a bracket [a, b] of the maximum, the
    best probe x and the next best w and v (Brent 1973).  It starts from the
    golden pair of [a, b].  Each further probe is the vertex of the parabola
    through x, w and v, or a golden step into the larger side of x.  The
    vertex is admissible if the three values are exact (error estimate 0)
    and distinct, the parabola is concave, and the vertex lies inside the
    bracket and nearer x than half the step before last.  The search ends
    when the bracket is within tol of x on both sides.

    Values with an error bar are only compared.  A parabola through them
    moves with the shape of the restriction: on a quadrature noise plateau
    the starts of a field would stop at points that differ with their time,
    where golden steps lead restrictions of one shape to one point.

    Probes that tie (exactly, or within five times their error estimates)
    pinch the bracket to the two: for a unimodal restriction the maximum
    lies between two equal-valued points.  The search goes on from the
    golden pair of the pinched bracket.  Persistent noise-level ties end the
    search, so quadrature-backed objectives are not resolved inside their
    own noise floor.
    """
    if b - a <= tol:
        s = 0.5 * (a + b)
        v, e = yield axis, s
        return s, v, e
    for end, inner in ((b, b - tol), (a, a + tol)):
        fe, ee = yield axis, end
        fi, ei = yield axis, inner
        if fe - fi > 5.0 * max(ee, ei):
            return end, fe, ee
    x, u = b - _INVPHI * (b - a), a + _INVPHI * (b - a)
    fx, ex = yield axis, x
    fu, eu = yield axis, u
    w, fw, ew = v, fv, ev = x, fx, ex
    step = before = 0.0  # the last step from x and the one before it (Brent's d and e)
    steps = int(math.ceil(math.log(tol / (b - a)) / math.log(_INVPHI)))
    stalls = 0
    for _ in range(max(2 * steps, 2)):
        noise = 5.0 * max(ex, eu)
        if abs(fu - fx) <= noise or fu == fx:
            tie = max(fx, fu)
            a, b = min(x, u), max(x, u)
            if b - a <= tol:
                break
            x, u = b - _INVPHI * (b - a), a + _INVPHI * (b - a)
            fx, ex = yield axis, x
            fu, eu = yield axis, u
            w, fw, ew = v, fv, ev = x, fx, ex
            step = before = 0.0
            if noise > 0:
                # refining stopped paying: the bracket is a noise plateau
                stalls = stalls + 1 if max(fx, fu) - tie <= noise else 0
                if stalls >= 2:
                    break
            continue
        if fu > fx:
            if u < x:
                b = x
            else:
                a = x
            v, fv, ev, w, fw, ew, x, fx, ex = w, fw, ew, x, fx, ex, u, fu, eu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu >= fw or w == x:
                v, fv, ev, w, fw, ew = w, fw, ew, u, fu, eu
            elif fu >= fv or v == x or v == w:
                v, fv, ev = u, fu, eu
        if max(x - a, b - x) <= tol:
            break
        mid, tol1 = 0.5 * (a + b), 0.5 * tol
        parabolic = False
        if abs(before) > tol1 and ex == ew == ev == 0 and fx != fw != fv != fx:
            slope = (fw - fx) / (w - x)
            curve = (slope - (fv - fx) / (v - x)) / (w - v)
            if curve < 0:  # a concave parabola: its vertex is a maximum
                vertex = 0.5 * (w - x) - 0.5 * slope / curve
                parabolic = abs(vertex) < 0.5 * abs(before) and a < x + vertex < b
        if parabolic:
            before, step = step, vertex
            if x + step - a < tol or b - (x + step) < tol:
                step = math.copysign(tol1, mid - x)
        else:
            before = (a if x >= mid else b) - x
            step = _CGOLD * before
        u = x + (step if abs(step) >= tol1 else math.copysign(tol1, step))
        fu, eu = yield axis, u
    if fu > fx:
        return u, fu, eu
    return x, fx, ex


def _ascend(feas: _Feasible, z: np.ndarray, prob: MaxProblem):
    """Cyclic coordinate ascent with line searches that skip searched lines (a generator).

    ``z`` is the start's row of the shared point array; the ascent moves it
    in place.  The first probe is the start itself: adding -0.0 leaves
    every coordinate's bits as they are, -0.0 included.
    """
    val, err = yield 0, -0.0
    searched = set()  # axes whose line through z has been searched
    for _ in range(prob.max_cycles):
        move = 0.0
        for axis in range(feas.dim):
            if axis in searched:
                continue
            s_lo, s_hi = feas.segment(z, axis)
            if s_hi - s_lo <= 0:
                continue
            s, v, e = yield from _line_max(axis, s_lo, s_hi, prob.tolerance)
            searched.add(axis)
            if v >= val:  # accept only ascent steps
                if z[axis] + s != z[axis]:  # every other axis now lies on a new line
                    searched = {axis}
                z[axis] += s
                if v > val:  # an equal-valued step on a flat top is no movement
                    move = max(move, abs(s))
                val, err = v, e
        if move < prob.tolerance:
            return z, val, err, True
    return z, val, err, False


def _floats(v, e):
    return np.asarray(v, dtype=float).tolist(), np.asarray(e, dtype=float).tolist()


def _evaluator(objective):
    """Batch evaluation: an (m, dim) array of points -> (m values, m errors) as lists."""
    if isinstance(objective, SpaceTimeField):
        return lambda Z: _floats(*objective.eval_with_error(Z[:, :-1], Z[:, -1]))
    if isinstance(objective, ScalarField):
        return lambda Z: _floats(*objective.eval_with_error(Z))

    def pointwise(Z):
        outs = [out if isinstance(out, tuple) else (out, 0.0) for out in map(objective, Z)]
        return _floats(*zip(*outs))

    return pointwise


def _lockstep(evaluate, Z: np.ndarray, runs: list):
    """Advance the runs over the rows of Z, one batch per round; (results, points evaluated).

    Run i moves row i of Z in place and yields ``(axis, s)`` moves; a round
    evaluates each live row plus its move.
    """
    results = [None] * len(runs)
    rows = list(range(len(runs)))
    sends = [run.send for run in runs]
    moves = [next(run) for run in runs]
    evaluations = 0
    while rows:
        P = Z.take(rows, axis=0)  # a copy; faster than Z[rows] for a list
        for k, (axis, s) in enumerate(moves):
            P[k, axis] += s
        evaluations += len(rows)
        values, errors = evaluate(P)
        finished = []
        for k, send in enumerate(sends):
            try:
                moves[k] = send((values[k], errors[k]))
            except StopIteration as done:
                results[rows[k]] = done.value
                finished.append(k)
        if finished:
            keep = [k for k in range(len(rows)) if k not in finished]
            rows, sends, moves = ([xs[k] for k in keep] for xs in (rows, sends, moves))
    return results, evaluations


def maximize(prob: MaxProblem) -> MaxResult:
    """Multistart ascent; the spread across starts certifies uniqueness.

    Raises :class:`ConvergenceError` if no start converges.  A spread above
    1000x the tolerance clears the ``unique`` flag instead of raising: it is
    evidence of a non-strict objective or of noise-dominated evaluations.
    With two or more starts, ``unique`` also needs two converged starts,
    since the spread of a single limit is 0 and certifies nothing.  The end
    tests probe the boundary, so a field undefined there raises ValueError,
    as does a field whose points do not have the feasible set's dimension.
    """
    feas = _Feasible(prob.feasible)
    field = prob.objective
    if isinstance(field, (SpaceTimeField, ScalarField)):
        spacetime = isinstance(field, SpaceTimeField)
        need, kind = field.dim + spacetime, "space-time" if spacetime else "scalar"
        if feas.dim != need:
            raise ValueError(f"a {kind} field of dim {field.dim} needs {need} coordinates, "
                             f"but the feasible set has {feas.dim}")
    if isinstance(field, SpaceTimeField) and not field.t_lo < feas.lo[-1] <= feas.hi[-1] < field.t_hi:
        raise ValueError(f"time outside the field's interval ({field.t_lo}, {field.t_hi})")
    Z = feas.starts(prob.multistart, prob.seed)
    runs = [_ascend(feas, z, prob) for z in Z]
    finals, evaluations = _lockstep(_evaluator(prob.objective), Z, runs)
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
        argmax=winner[0].copy(),
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

    A 1-d constraint interval is read as a t-range at x = 0; any other
    constraint is a feasible set of :class:`MaxProblem`.
    """
    if not 0 < a < b - 1e-12 * max(1.0, abs(a)):
        raise ValueError("requires 0 < a < b with a non-degenerate segment")
    if isinstance(constraint, Interval):
        # a bare t-range means observing from the t-axis
        constraint = (np.array([0.0, constraint.a]), np.array([0.0, constraint.b]))
    if _Feasible(constraint).lo[-1] <= 0:
        raise ValueError("constraint must lie in the open upper half-plane t > 0")

    prob = MaxProblem(objective=PoissonIndicatorField(a, b), feasible=constraint, **kw)
    return maximize(prob)
