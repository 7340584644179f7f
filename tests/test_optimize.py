import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from concavekit import optimize
from concavekit.convolve import (
    ConvolutionField,
    HeatIndicatorField,
    PoissonIndicatorField,
    QuadratureSpec,
    oracle_P_interval,
    oracle_W_interval,
)
from concavekit.fields import (
    GaussWeierstrassKernel,
    GaussWeierstrassSlice,
    IndicatorField,
    TentField,
    conjugate0,
)
from concavekit.geometry import Ball, Box, ConvexCone, CylinderRegion, HatRegion, Interval, ParabolicRegion, Polytope
from concavekit.geometry import SpaceTimeBox, UnionRegion, from_json
from concavekit.optimize import MaxProblem, _line_max, maximize, regiomontanus
from concavekit.sampling import sobol


class TestMaximize:
    def test_symmetric_heat_profile(self):
        prob = MaxProblem(
            objective=lambda z: oracle_W_interval(-1, 1, z[0], 1.0),
            feasible=Interval(-3, 3),
        )
        r = maximize(prob)
        assert abs(r.argmax[0]) < 1e-6
        assert r.unique

    def test_space_time_objective_over_box(self):
        prob = MaxProblem(
            objective=lambda z: oracle_P_interval(-1, 1, z[0], z[1]),
            feasible=Box([-2.0, 0.5], [2.0, 3.0]),
        )
        r = maximize(prob)
        assert abs(r.argmax[0]) < 1e-6
        assert r.argmax[1] == pytest.approx(0.5, abs=1e-7)

    def test_ascent_is_monotone(self):
        values = []

        def objective(z):
            v = oracle_P_interval(-1, 1, z[0], z[1])
            values.append(v)
            return v

        prob = MaxProblem(
            objective=objective, feasible=Box([-2.0, 0.5], [2.0, 3.0]), multistart=1
        )
        r = maximize(prob)
        assert r.value == pytest.approx(max(values), rel=1e-15)

    def test_argmax_invariant_under_monotone_transform(self):
        base = lambda z: oracle_W_interval(-1, 1, z[0], 1.0)
        r1 = maximize(MaxProblem(objective=base, feasible=Interval(-3, 3), seed=4))
        r2 = maximize(
            MaxProblem(
                objective=lambda z: math.log(base(z)), feasible=Interval(-3, 3), seed=4
            )
        )
        assert np.allclose(r1.argmax, r2.argmax, atol=1e-6)

    def test_noisy_objective_respects_noise_floor(self):
        rng = np.random.default_rng(7)

        def noisy(z):
            v = oracle_W_interval(-1, 1, z[0], 1.0)
            return v + 1e-7 * rng.standard_normal(), 1e-7

        r = maximize(MaxProblem(objective=noisy, feasible=Interval(-3, 3)))
        assert abs(r.argmax[0]) < 1e-2  # localized only down to the noise scale

    def test_uniqueness_certificate_fails_on_two_bumps(self):
        # the bumps are symmetric about 0, so on [-3, 3] the first two golden
        # probes tie exactly and pinch the bracket to the valley between them;
        # no search beats its start, each start stays where it was drawn, and
        # the spread of these stranded starts clears the certificate (with
        # heights 1 and 0.9 every start reaches 2)
        def bumps(z):
            x = z[0]
            return math.exp(-((x - 2) ** 2)) + math.exp(-((x + 2) ** 2))

        r = maximize(
            MaxProblem(objective=bumps, feasible=Interval(-3, 3), tolerance=1e-10)
        )
        assert not r.unique
        assert r.max_pairwise_spread > 1.0

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_uniqueness_certificate_fails_on_two_separated_peaks(self, seed):
        # two equal peaks in the plane split the starts into two clusters
        def peaks(z):
            return math.exp(-((z[0] - 1.5) ** 2 + (z[1] - 1.5) ** 2)) + math.exp(
                -((z[0] + 1.5) ** 2 + (z[1] + 1.5) ** 2)
            )

        r = maximize(MaxProblem(objective=peaks, feasible=Box([-3.0, -3.0], [3.0, 3.0]), seed=seed))
        assert r.starts_converged == 10 and not r.unique
        assert r.max_pairwise_spread == pytest.approx(3.0 * math.sqrt(2.0), abs=1e-6)
        assert np.abs(r.argmax) == pytest.approx([1.5, 1.5], abs=1e-6)

    def test_one_converged_start_certifies_nothing(self):
        # flat for x >= 0.5: the start there converges in its first cycle,
        # the start below 0.5 still moves and hits the cycle cap
        def ramp(z):
            return -max(0.0, 0.5 - z[0])

        r = maximize(MaxProblem(objective=ramp, feasible=Interval(0, 1), multistart=2, max_cycles=1))
        assert r.starts_converged == 1 and r.max_pairwise_spread == 0.0
        assert not r.unique
        alone = maximize(
            MaxProblem(objective=ramp, feasible=Interval(0, 1), multistart=1, max_cycles=1)
        )
        assert alone.starts_converged == 1 and alone.unique

    def test_space_time_box_feasible(self):
        stb = SpaceTimeBox(Interval(-2, 2), 0.5, 3.0)
        W = HeatIndicatorField(-1, 1)
        r = maximize(MaxProblem(objective=lambda z: W(z[:1], z[1]), feasible=stb))
        assert abs(r.argmax[0]) < 1e-6
        assert r.argmax[1] == pytest.approx(0.5, abs=1e-7)

    def test_ball_feasible_set(self):
        prob = MaxProblem(
            objective=lambda z: -((z[0] - 2) ** 2) - (z[1] - 0.0) ** 2 + 9.0,
            feasible=Ball([0.0, 0.0], 1.0),
        )
        r = maximize(prob)
        assert np.linalg.norm(r.argmax) == pytest.approx(1.0, abs=1e-6)
        assert r.argmax[0] == pytest.approx(1.0, abs=1e-5)


def drive(search, f, error=0.0, probed=None):
    """Run a line search on the values of f, each sent with the error bar ``error``; its (s*, value, error).

    Each probe's (s, value) is appended to ``probed`` when it is given.
    """
    move = next(search)
    try:
        while True:
            value = f(move[1])
            if probed is not None:
                probed.append((move[1], value))
            move = search.send((value, error))
    except StopIteration as done:
        return done.value


def vertex(p0, p1, p2):
    """The stationary point of the parabola through three (s, value) points."""
    (x, fx), (w, fw), (v, fv) = p0, p1, p2
    slope = (fw - fx) / (w - x)
    curve = (slope - (fv - fx) / (v - x)) / (w - v)
    return 0.5 * (x + w) - 0.5 * slope / curve


class TestLineSearch:
    """The end test returns an end only where the restriction rises to it;
    parabolic steps find a smooth interior maximum, on exact values only."""

    @settings(max_examples=300, deadline=None)
    @given(
        a=st.floats(-10.0, 10.0),
        width=st.floats(1e-3, 10.0),
        tol=st.floats(1e-8, 1e-4),
        where=st.one_of(st.sampled_from([0.0, 1.0]), st.floats(-1.0, 2.0)),
    )
    def test_parabola_peak_within_tolerance(self, a, width, tol, where):
        b = a + width
        m = a + where * width  # inside, at or beyond [a, b]
        s, _, _ = drive(_line_max(0, a, b, tol), lambda s: -((s - m) ** 2))
        assert abs(s - min(max(m, a), b)) <= tol
        if not a < m < b:
            assert s == (a if m <= a else b)

    @settings(max_examples=100, deadline=None)
    @given(
        a=st.floats(-10.0, 10.0),
        width=st.floats(1e-3, 10.0),
        tol=st.floats(1e-8, 1e-4),
        case=st.sampled_from([(math.atan, True), (lambda s: s, True), (lambda s: -math.exp(s), False), (lambda s: -(s**3), False)]),
    )
    def test_monotone_restriction_returns_its_end(self, a, width, tol, case):
        f, rising = case
        s, _, _ = drive(_line_max(0, a, a + width, tol), f)
        assert s == (a + width if rising else a)

    @settings(max_examples=200, deadline=None)
    @given(
        m=st.floats(-1.9, 1.9).filter(lambda m: abs(m) >= 1e-3),
        width=st.floats(0.2, 3.0),
        height=st.floats(0.1, 3.0),
        case=st.sampled_from(["quadratic", "gaussian", "viewing_angle"]),
    )
    def test_smooth_interior_maximum_in_few_probes(self, m, width, height, case):
        # the golden section spends 38 probes on each of these
        f = {
            "quadratic": lambda s: -width * (s - m) ** 2,
            "gaussian": lambda s: math.exp(-(((s - m) / width) ** 2)),
            "viewing_angle": lambda s: oracle_P_interval(m - width, m + width, s, height),
        }[case]
        probed = []
        s, _, _ = drive(_line_max(0, -2.0, 2.0, 1e-6), f, probed=probed)
        assert abs(s - m) <= 1e-6
        assert len(probed) <= 20

    def test_centred_maximum_is_pinched_by_exact_ties(self):
        # a restriction symmetric about the centre of [a, b] ties every golden
        # pair exactly, and each tie pinches the bracket to the pair
        probed = []
        s, _, _ = drive(_line_max(0, -2.0, 2.0, 1e-6), lambda s: -(s**2), probed=probed)
        assert abs(s) <= 1e-6 and len(probed) < 38
        assert all(v0 == v1 for (_, v0), (_, v1) in zip(probed[4::2], probed[5::2]))

    @settings(max_examples=100, deadline=None)
    @given(
        m=st.floats(-0.32, -0.26),
        curvature=st.floats(0.1, 10.0),
        error=st.floats(1e-4, 1e-1),
        jitter=st.floats(0.0, 1.0),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_unresolved_triple_takes_no_parabolic_step(self, m, curvature, error, jitter, seed):
        # values carry jitter within their error bar.  With the maximum near
        # -0.29, the first golden step left of the golden pair of [-2, 2] is
        # about as high as the pair's right point, so the best probe comes
        # with two next best that tie within the error bar.  No probe may be
        # the vertex of three earlier values two of which lie within five
        # error bars of each other.
        rng = np.random.default_rng(seed)
        probed = []
        drive(
            _line_max(0, -2.0, 2.0, 1e-6),
            lambda s: -curvature * (s - m) ** 2 + jitter * error * rng.uniform(-1.0, 1.0),
            error,
            probed,
        )
        for i, j, k in itertools.combinations(range(len(probed)), 3):
            (s0, f0), (s1, f1), (s2, f2) = (probed[n] for n in (i, j, k))
            if min(abs(f0 - f1), abs(f0 - f2), abs(f1 - f2)) > 5.0 * error or len({s0, s1, s2}) < 3:
                continue
            top = vertex(probed[i], probed[j], probed[k])
            assert all(abs(s - top) > 1e-12 for s, _ in probed[k + 1 :])

    @settings(max_examples=100, deadline=None)
    @given(
        flatness=st.floats(0.0, 1.0),
        error=st.floats(1e-9, 1e-3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_noise_plateau_ends_the_search(self, flatness, error, seed):
        # every value lies within two error bars of every other: the end test,
        # the golden pair and two restarts that do not beat the tie
        rng = np.random.default_rng(seed)
        probed = []
        s, _, _ = drive(
            _line_max(0, -2.0, 2.0, 1e-6),
            lambda s: -flatness * error * s**2 / 16.0 + 0.5 * error * rng.uniform(-1.0, 1.0),
            error,
            probed,
        )
        assert len(probed) == 10 and -2.0 <= s <= 2.0

    @settings(max_examples=100, deadline=None)
    @given(m=st.floats(-1.9, 1.9).filter(lambda m: abs(m) >= 1e-3))
    def test_values_with_an_error_bar_are_only_compared(self, m):
        # under an error bar too small to make a tie, the probes are the same
        # for an increasing transform of the values: restrictions of one shape
        # (a symmetric field at two times) lead their starts to one point
        runs = []
        for f in (lambda s: -((s - m) ** 2), lambda s: math.exp(-3.0 * (s - m) ** 2)):
            probed = []
            drive(_line_max(0, -2.0, 2.0, 1e-6), f, 1e-300, probed)
            runs.append([s for s, _ in probed])
        assert runs[0] == runs[1]
        exact = []
        drive(_line_max(0, -2.0, 2.0, 1e-6), lambda s: -((s - m) ** 2), 0.0, exact)
        assert len(exact) < len(runs[0])

    def test_zero_shelf_is_not_an_end_maximum(self):
        # the tent vanishes outside [0.5, 1]; were a tie at an end enough to
        # stop, a search would stop on the zero shelf at 3
        r = maximize(MaxProblem(objective=TentField(Interval(0.5, 1.0)), feasible=Interval(-3.0, 3.0)))
        assert r.argmax[0] == pytest.approx(0.75, abs=1e-7)
        assert r.value == pytest.approx(1.0, abs=1e-7) and r.unique

    def test_one_free_axis_is_searched_once_per_start(self, monkeypatch):
        searches = []
        search = optimize._line_max

        def counted(*args):
            searches.append(args)
            return search(*args)

        monkeypatch.setattr(optimize, "_line_max", counted)
        segment = (np.array([0.0, 0.5]), np.array([0.0, 5.0]))
        r = maximize(MaxProblem(objective=PoissonIndicatorField(1.0, 4.0), feasible=segment, multistart=4))
        assert r.starts_converged == 4 and r.unique
        assert len(searches) == 4 and {args[0] for args in searches} == {1}

    def test_time_range_touching_the_fields_interval_is_refused(self):
        # phi0(x, t) = W(x, log t) is defined for t > 1 only; its supremum at
        # t = 1 is not attained, and the end test would probe t = 1
        field = conjugate0(HeatIndicatorField(-1.0, 1.0))
        field.eval_with_error = lambda X, T: pytest.fail("evaluated before the refusal")
        box = SpaceTimeBox(Interval(-2.0, 2.0), 1.0, 3.0)
        with pytest.raises(ValueError, match=r"time outside the field's interval \(1.0, inf\)"):
            maximize(MaxProblem(objective=field, feasible=box))
        del field.eval_with_error
        r = maximize(MaxProblem(objective=field, feasible=SpaceTimeBox(Interval(-2.0, 2.0), 1.5, 3.0)))
        assert r.argmax[1] == 1.5 and r.unique

    @pytest.mark.parametrize(
        "field, feasible, message",
        [
            (
                PoissonIndicatorField(1.0, 4.0),
                (np.array([0.0, 0.0, 1.0]), np.array([0.0, 0.0, 3.0])),
                "a space-time field of dim 1 needs 2 coordinates, but the feasible set has 3",
            ),
            (
                PoissonIndicatorField(1.0, 4.0),
                (np.array([0.0, 1.0, 0.0]), np.array([0.0, 3.0, 0.0])),
                "a space-time field of dim 1 needs 2 coordinates, but the feasible set has 3",
            ),
            (
                GaussWeierstrassKernel(2),
                SpaceTimeBox(Interval(-1.0, 1.0), 0.5, 2.0),
                "a space-time field of dim 2 needs 3 coordinates, but the feasible set has 2",
            ),
            (
                GaussWeierstrassSlice(2, 1.0),
                Interval(-1.0, 1.0),
                "a scalar field of dim 2 needs 2 coordinates, but the feasible set has 1",
            ),
        ],
        ids=["oracle_p_time_last", "oracle_p_time_zero", "kernel", "scalar"],
    )
    def test_dimension_mismatch_is_refused_before_the_starts(self, field, feasible, message, monkeypatch):
        monkeypatch.setattr(optimize, "sobol", lambda d, seed: pytest.fail("drew starts before the refusal"))
        with pytest.raises(ValueError, match=f"^{message}$"):
            maximize(MaxProblem(objective=field, feasible=feasible))

    @pytest.mark.parametrize("union", [False, True], ids=["hat", "union"])
    def test_hat_region_over_a_cone_is_refused(self, union):
        # its x sampling box [-1, 1] bounds no member set: maximize searched it
        # and certified argmax (1, 1), value -16, though (5, 1) has value 0;
        # a union copies that box from its part
        feasible = HatRegion(ConvexCone.orthant(1), 0.5)
        if union:
            feasible = UnionRegion([feasible, CylinderRegion(Interval(-1.0, 0.0), 0.5, 2.0, 0.5)])
        assert feasible.contains([5.0], 1.0) and not feasible.bounded
        with pytest.raises(ValueError, match="^the region's x range is unbounded$"):
            maximize(MaxProblem(objective=lambda z: -(z[0] - 5) ** 2 - (z[1] - 1) ** 2, feasible=feasible))

    @pytest.mark.parametrize(
        "lo, hi", [([0, 1], [0, 3, 4]), ([[0, 1]], [[0, 3]])], ids=["unequal_length", "nested"]
    )
    def test_box_bounds_must_be_flat_and_of_equal_length(self, lo, hi):
        with pytest.raises(ValueError, match="problem.feasible: box bounds must be 1-d arrays of equal length"):
            from_json(
                {"objective": {"kind": "oracle_p", "a": 1, "b": 4}, "feasible": {"kind": "box", "lo": lo, "hi": hi}},
                MaxProblem,
            )


class TestLockstep:
    """A field objective is evaluated once per round, on a batch of starts."""

    PSI = IndicatorField(Interval(-0.5, 0.8))
    CASES = {
        "vertical_segment": (
            lambda: PoissonIndicatorField(1.0, 4.0),
            (np.array([0.0, 0.5]), np.array([0.0, 5.0])),
            {},
        ),
        "box": (lambda: PoissonIndicatorField(1.0, 4.0), Box([-2.0, 0.5], [2.0, 3.0]), {}),
        # starts on a ball stop at different cycles, so the batch shrinks
        "ball": (lambda: PoissonIndicatorField(1.0, 4.0), Ball([1.0, 2.0], 1.0), {}),
        "heat_kernel": (
            lambda: GaussWeierstrassKernel(1),
            SpaceTimeBox(Interval(-1.0, 2.0), 0.3, 2.0),
            {"tolerance": 1e-6},
        ),
        "noisy_convolution": (
            lambda: ConvolutionField(
                GaussWeierstrassKernel(1),
                TestLockstep.PSI,
                QuadratureSpec.default_for(TestLockstep.PSI.support),
            ),
            SpaceTimeBox(Interval(-2.0, 2.0), 0.8, 2.3),
            {"multistart": 3, "tolerance": 1e-6},
        ),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_matches_pointwise_evaluation(self, case):
        make, feasible, kw = self.CASES[case]
        field = make()
        evaluate = field.eval_with_error
        sizes = []

        def batch(X, T):
            sizes.append(len(T))
            return evaluate(X, T)

        field.eval_with_error = batch  # still dispatched as a field
        lockstep = maximize(MaxProblem(objective=field, feasible=feasible, **kw))
        pointwise = maximize(
            MaxProblem(
                objective=lambda z: evaluate(z[:-1], float(z[-1])), feasible=feasible, **kw
            )
        )
        assert np.array_equal(lockstep.argmax, pointwise.argmax)
        assert lockstep.value == pointwise.value
        assert lockstep.evaluations == pointwise.evaluations == sum(sizes)
        assert lockstep.starts_converged == pointwise.starts_converged
        assert lockstep.max_pairwise_spread == pointwise.max_pairwise_spread
        assert sizes[0] == kw.get("multistart", 10)
        assert sizes == sorted(sizes, reverse=True)
        if case == "ball":
            assert len(set(sizes)) > 2  # starts finished in different rounds


class TestSobol:
    """The start points are scipy's scrambled Sobol points, bit for bit."""

    @pytest.mark.parametrize("seed", [0, 1, 12345, 2**31 - 2])
    def test_matches_scipy_across_batches(self, seed):
        from scipy.stats import qmc

        for d in range(1, 33):
            engine = qmc.Sobol(d, scramble=True, seed=seed)
            draw = sobol(d, seed)
            for n in (8, 8, 8, 64):
                assert np.array_equal(draw(n), engine.random(n)), (d, n)

    @settings(max_examples=60, deadline=None)
    @given(
        d=st.integers(1, 32),
        seed=st.integers(0, 2**64 - 1),
        sizes=st.lists(
            st.one_of(st.sampled_from([0, 1, 2, 3, 4, 7, 8, 9, 16, 31, 33, 64, 127, 129, 256]), st.integers(0, 1024)),
            max_size=6,
        ),
    )
    def test_draw_sizes_match_scipy(self, d, seed, sizes):
        import warnings

        from scipy.stats import qmc

        engine = qmc.Sobol(d, scramble=True, seed=seed)
        draw = sobol(d, seed)
        total = 0
        for n in sizes:
            n = min(n, 1024 - total)
            total += n
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", UserWarning)  # n not a power of two
                expected = engine.random(n)
            got = draw(n)
            assert got.shape == (n, d) and got.dtype == expected.dtype
            assert np.array_equal(got, expected), (n, total)

    def test_negative_draw_is_refused(self):
        draw = sobol(2, 0)
        first = draw(3)
        with pytest.raises(ValueError, match="cannot draw -1 more Sobol points after 3"):
            draw(-1)
        assert np.array_equal(np.vstack([first, draw(5)]), sobol(2, 0)(8))

    def test_more_than_32_axes_is_refused(self):
        with pytest.raises(ValueError, match="32"):
            sobol(33, 0)
        box = (np.zeros(33), np.ones(33))
        with pytest.raises(ValueError, match="32"):
            maximize(MaxProblem(objective=lambda z: -float(z @ z), feasible=box))


def _old_member(feasible):
    """The per-point membership test each feasible set had before its batch test."""
    if isinstance(feasible, tuple):
        lo, hi = (np.asarray(b, dtype=float) for b in feasible)
        tol = 1e-12 * (1.0 + np.abs(lo) + np.abs(hi))
        bounds = list(zip((lo - tol).tolist(), (hi + tol).tolist()))
        return lambda z: all(a <= c <= b for c, (a, b) in zip(z.tolist(), bounds))
    if isinstance(feasible, (SpaceTimeBox, ParabolicRegion)):
        return lambda z: feasible.contains(z[:-1], z[-1])
    return lambda z: feasible.contains(z, tol=1e-12)


def _old_segment(feas, member, z, axis):
    """``_Feasible.segment`` by membership bisection over the whole point."""
    if feas.span[axis] == 0:
        return 0.0, 0.0

    def inside(s):
        w = z.copy()
        w[axis] += s
        return member(w)

    out = []
    for sign in (-1.0, 1.0):
        s_max = sign * (feas.hi[axis] - z[axis] if sign > 0 else z[axis] - feas.lo[axis])
        if inside(s_max):
            out.append(s_max)
            continue
        a, b = 0.0, s_max
        for _ in range(80):
            m = 0.5 * (a + b)
            if inside(m):
                a = m
            else:
                b = m
            if abs(b - a) <= 1e-12 * (1.0 + abs(feas.span[axis])):
                break
        out.append(a)
    return out[0], out[1]


def _old_starts(feas, member, count, seed):
    out = []
    active = feas.span > 0
    draw = sobol(int(active.sum()), seed)
    batch = 1 << max(3, (count - 1).bit_length())
    for _ in range(64):
        u = draw(batch)
        pts = np.tile(feas.lo.astype(float), (len(u), 1))
        pts[:, active] = feas.lo[active] + u * feas.span[active]
        for z in pts:
            if member(z):
                out.append(z)
                if len(out) == count:
                    return np.array(out)
    return np.array(out)


@st.composite
def box_like(draw):
    """A box-like feasible set at a scale up to 1e9, and a point inside it."""
    scale = draw(st.sampled_from([1.0, 1e3, 1e6, 1e9]))
    kind = draw(st.sampled_from(["pair", "interval", "box", "st_interval", "st_box"]))
    n = {"pair": 2, "interval": 1, "box": 3, "st_interval": 2, "st_box": 3}[kind]
    lo = np.array(draw(st.lists(st.floats(-2.0, 2.0), min_size=n, max_size=n))) * scale
    width = np.array(draw(st.lists(st.floats(1e-9, 3.0), min_size=n, max_size=n))) * scale
    if kind == "pair":
        width[draw(st.integers(0, n - 1))] = 0.0  # a segment
    if kind.startswith("st"):
        lo[-1] = abs(lo[-1]) + 1e-3 * scale  # positive times
    hi = lo + width
    feasible = {
        "pair": lambda: (lo, hi),
        "interval": lambda: Interval(lo[0], hi[0]),
        "box": lambda: Box(lo, hi),
        "st_interval": lambda: SpaceTimeBox(Interval(lo[0], hi[0]), lo[1], hi[1]),
        "st_box": lambda: SpaceTimeBox(Box(lo[:-1], hi[:-1]), lo[-1], hi[-1]),
    }[kind]()
    # ends and their neighbours, where lo + (hi - lo) may round past hi
    u = np.array(draw(st.lists(st.one_of(st.sampled_from([0.0, 1.0, 1e-17, 1.0 - 1e-16]), st.floats(0.0, 1.0)), min_size=n, max_size=n)))
    return feasible, lo + u * width


class TestBoxLikeBounds:
    """Closed per-axis bounds give the bits of the membership bisection they replace."""

    @settings(max_examples=300, deadline=None)
    @given(case=box_like())
    def test_segment_matches_membership_bisection(self, case):
        feasible, z = case
        feas, member = optimize._Feasible(feasible), _old_member(feasible)
        assert feas.bounds is not None
        if not member(z):  # the ascent moves only feasible points
            return
        for axis in range(feas.dim):
            got, want = feas.segment(z, axis), _old_segment(feas, member, z, axis)
            assert [float(s).hex() for s in got] == [float(s).hex() for s in want]

    @settings(max_examples=100, deadline=None)
    @given(case=box_like(), count=st.integers(1, 20), seed=st.integers(0, 2**32))
    def test_starts_match_membership_filter(self, case, count, seed):
        feasible, _ = case
        feas = optimize._Feasible(feasible)
        got, want = feas.starts(count, seed), _old_starts(feas, _old_member(feasible), count, seed)
        assert got.shape == want.shape and np.array_equal(got, want)

    def test_time_end_bisection_is_exercised(self):
        # 0.12 + (1.7 - 0.12) rounds past 1.7, and the time end has no tolerance
        stb = SpaceTimeBox(Interval(-1.0, 1.0), 0.1, 1.7)
        feas, member = optimize._Feasible(stb), _old_member(stb)
        z = np.array([0.0, 0.12])
        assert not member(z + [0.0, 1.7 - 0.12])
        got = feas.segment(z, 1)
        assert got == _old_segment(feas, member, z, 1) and got[1] < 1.7 - 0.12


MEMBERSHIP_SETS = [
    Ball([0.3, -0.2], 0.8),
    Ball([0.1, 0.2, -0.3], 1.7),
    Polytope([[0.0, 0.0], [2.0, 0.0], [0.5, 1.5]]),
    Polytope(np.vstack([np.eye(3), -np.eye(3)]) + 0.25),
    SpaceTimeBox(Ball([0.3, -0.2], 0.8), 0.5, 2.0),
    SpaceTimeBox(Polytope([[0.0, 0.0], [2.0, 0.0], [0.5, 1.5]]), 0.1, 1.7),
    HatRegion(Ball([0.3, -0.2], 0.8), 0.5),
    HatRegion(Interval(0.25, 2.0), 1.0),
    HatRegion(Polytope([[0.0, 0.0], [2.0, 0.0], [0.5, 1.5]]), 0.0),
    CylinderRegion(Ball([0.1, 0.2], 1.7), 0.5, 2.0, 1.0),
]


class TestMembershipSets:
    """Sets without per-axis bounds give the bits of the per-point membership they replace."""

    @settings(max_examples=300, deadline=None)
    @given(feasible=st.sampled_from(MEMBERSHIP_SETS), u=st.lists(st.floats(0.0, 1.0), min_size=4, max_size=4))
    def test_segment_matches_membership_bisection(self, feasible, u):
        feas, member = optimize._Feasible(feasible), _old_member(feasible)
        assert feas.bounds is None
        z = feas.lo + np.array(u[: feas.dim]) * feas.span
        if not member(z):  # the ascent moves only feasible points
            return
        for axis in range(feas.dim):
            got, want = feas.segment(z, axis), _old_segment(feas, member, z, axis)
            assert [float(s).hex() for s in got] == [float(s).hex() for s in want]

    @settings(max_examples=100, deadline=None)
    @given(feasible=st.sampled_from(MEMBERSHIP_SETS), count=st.integers(1, 20), seed=st.integers(0, 2**32))
    def test_starts_match_membership_filter(self, feasible, count, seed):
        feas = optimize._Feasible(feasible)
        got, want = feas.starts(count, seed), _old_starts(feas, _old_member(feasible), count, seed)
        assert got.shape == want.shape and np.array_equal(got, want)


class TestPinnedMaxResults:
    """Every objective dispatch and feasible kind keeps its result bits.

    argmax, value and spread are pinned by ``float.hex``; the counts and the
    certificate exactly.  Two pins record known stalls of coordinate ascent
    (a ball and a polytope split their starts): they pin the bits, not
    correctness.
    """

    PSI = IndicatorField(Interval(-0.5, 0.8))
    TRIANGLE = Polytope([[0.0, 0.0], [2.0, 0.3], [0.4, 1.8]])
    # name: (objective, feasible set, problem options, pinned result)
    CASES = {
        "oracle_p_segment": (
            lambda: PoissonIndicatorField(1.0, 4.0),
            lambda: (np.array([0.0, 0.5]), np.array([0.0, 5.0])),
            {},
            (["0x0.0p+0", "0x1.0000000944cc8p+1"], "0x1.a37f5c4c419f1p-3", "0x1.33636b8000000p-26", 197, 10, True),
        ),
        "oracle_p_ball": (
            lambda: PoissonIndicatorField(1.0, 4.0),
            lambda: Ball([1.0, 2.0], 1.0),
            {},
            (
                ["0x1.b427ff7d3270ap+0", "0x1.4a1f257fff6b4p+0"],
                "0x1.fc0b7b0455d52p-2",
                "0x1.80cf90f4b077ep-1",
                92,
                10,
                False,
            ),
        ),
        "oracle_w_spacetime_box": (
            lambda: HeatIndicatorField(-1.0, 1.0),
            lambda: SpaceTimeBox(Interval(-2.0, 2.0), 0.5, 3.0),
            {"seed": 3},
            (
                ["-0x1.6071000000000p-44", "0x1.0000000000000p-1"],
                "0x1.5d897a241a6fap-1",
                "0x1.6131000000000p-44",
                495,
                10,
                True,
            ),
        ),
        "heat_kernel_parabolic": (
            lambda: GaussWeierstrassKernel(1),
            lambda: HatRegion(Interval(-1.0, 0.5), 0.5),
            {"tolerance": 1e-7},
            (
                ["0x1.8b71d48000000p-42", "0x1.0000000000000p-1"],
                "0x1.9884533d43651p-2",
                "0x1.ecfb400000000p-50",
                350,
                10,
                True,
            ),
        ),
        "scalar_box": (
            lambda: GaussWeierstrassSlice(2, 1.0),
            lambda: Box([0.3, -1.0], [2.0, 1.5]),
            {},
            (
                ["0x1.3333333333333p-2", "-0x1.3d6e953c00000p-33"],
                "0x1.3eb285cf2d96ap-4",
                "0x1.16e0000000000p-53",
                306,
                10,
                True,
            ),
        ),
        "scalar_polytope": (
            lambda: TentField(TestPinnedMaxResults.TRIANGLE),
            lambda: TestPinnedMaxResults.TRIANGLE,
            {"multistart": 6},
            (
                ["0x1.5820e89613698p-1", "0x1.2d1ccb8551235p-1"],
                "0x1.ae2922bae7a94p-1",
                "0x1.bf441ca90ec96p-2",
                811,
                6,
                False,
            ),
        ),
        "value_interval": (
            lambda: (lambda z: oracle_W_interval(-1, 1, z[0], 1.0)),
            lambda: Interval(-3.0, 2.0),
            {"seed": 5},
            (["-0x1.779b4ec000000p-27"], "0x1.0a7ef5c18edd2p-1", "0x1.7795a4c000000p-27", 154, 10, True),
        ),
        "pair_box": (
            lambda: (lambda z: (oracle_P_interval(-1, 1, z[0], z[1]), 1e-12)),
            lambda: Box([-2.0, 0.5], [1.5, 3.0]),
            {"multistart": 4},
            (
                ["0x1.1faab69844ac0p-25", "0x1.0000000000000p-1"],
                "0x1.68dfd7131067ap-1",
                "0x1.2e8e680000000p-52",
                315,
                4,
                True,
            ),
        ),
        "noisy_convolution": (
            lambda: ConvolutionField(
                GaussWeierstrassKernel(1),
                TestPinnedMaxResults.PSI,
                QuadratureSpec.default_for(TestPinnedMaxResults.PSI.support),
            ),
            lambda: SpaceTimeBox(Interval(-2.0, 2.0), 0.8, 2.3),
            {"multistart": 3, "tolerance": 1e-6},
            (
                ["0x1.336beb30af764p-3", "0x1.999d9041de393p-1"],
                "0x1.92130313ea338p-2",
                "0x1.0000000000000p-53",
                321,
                3,
                True,
            ),
        ),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_bits(self, case):
        objective, feasible, kw, pinned = self.CASES[case]
        r = maximize(MaxProblem(objective=objective(), feasible=feasible(), **kw))
        got = (
            [float(c).hex() for c in r.argmax],
            float(r.value).hex(),
            float(r.max_pairwise_spread).hex(),
            r.evaluations,
            r.starts_converged,
            r.unique,
        )
        assert got == pinned


class TestFlatTop:
    """Equal-valued steps must not keep a start from converging.

    At the default tolerance 1e-8 the viewing angle is flat in double
    precision over a wider range than the tolerance near its maximum.  These
    instances raised ConvergenceError when such steps counted as movement.
    """

    def test_vertical_segment(self):
        a, b = 0.3088280047659744, 2.4154792830563085
        lo = np.array([0.0, 0.5330839743942315])
        hi = np.array([0.0, 2.531193036355274])
        r = regiomontanus(a, b, (lo, hi), seed=466491402)
        assert r.argmax[0] == 0.0
        assert r.argmax[1] == pytest.approx(math.sqrt(a * b), abs=1e-6)
        assert r.unique

    def test_box(self):
        a, b = 1.2546373518552858, 1.8274952326482248
        lo = [-0.9682472641667168, 0.4039021147057089]
        hi = [0.14000515649353318, 3.424074655024391]
        r = regiomontanus(a, b, Box(lo, hi), seed=863712969)
        # the angle grows as x nears the segment, so the maximum lies on the
        # edge x = hi[0], at the classical height of the shifted segment
        x = hi[0]
        assert r.argmax[0] == pytest.approx(x, abs=1e-6)
        assert r.argmax[1] == pytest.approx(math.sqrt((a - x) * (b - x)), abs=1e-6)
        assert r.unique


class TestRegiomontanus:
    def test_classical_height(self):
        r = regiomontanus(1.0, 4.0, Interval(0.5, 5.0))
        assert abs(r.argmax[1] - 2.0) < 1e-6
        assert r.unique

    def test_boundary_optimum(self):
        r = regiomontanus(1.0, 4.0, Interval(3.0, 5.0))
        assert r.argmax[1] == pytest.approx(3.0, abs=1e-7)

    def test_degenerate_picture_rejected(self):
        with pytest.raises(ValueError):
            regiomontanus(2.0, 2.0, Interval(0.5, 5.0))
        with pytest.raises(ValueError):
            regiomontanus(-1.0, 2.0, Interval(0.5, 5.0))

    def test_constraint_must_be_above_the_wall(self):
        with pytest.raises(ValueError):
            regiomontanus(1.0, 4.0, (np.array([0.0, -1.0]), np.array([0.0, 5.0])))

    def test_two_dimensional_constraint_cluster(self):
        r = regiomontanus(1.0, 4.0, Box([-2.0, 0.5], [2.0, 3.0]), multistart=10)
        assert r.starts_converged == 10
        assert r.max_pairwise_spread < 1e-5
        assert r.unique

    def test_vertical_segment_descriptor(self):
        r = regiomontanus(1.0, 4.0, (np.array([0.0, 0.5]), np.array([0.0, 5.0])))
        assert abs(r.argmax[1] - 2.0) < 1e-6

    def test_space_time_box_constraint(self):
        # on [-1, 1] x [0.5, 3] the angle (arctan((4 - x)/t) - arctan((1 - x)/t)) / pi
        # is largest at the corner (1, 0.5), where it is arctan(6) / pi
        r = regiomontanus(1.0, 4.0, SpaceTimeBox(Interval(-1.0, 1.0), 0.5, 3.0))
        assert r.argmax.tolist() == pytest.approx([1.0, 0.5], abs=1e-6)
        assert r.value == pytest.approx(math.atan(6.0) / math.pi, rel=1e-12)
        assert r.unique


class TestProblemJson:
    def test_oracle_problem(self):
        prob = from_json(
            {
                "objective": {"kind": "oracle_p", "a": 1, "b": 4},
                "feasible": {"kind": "box", "lo": [0, 0.5], "hi": [0, 5]},
                "multistart": 4,
            },
            MaxProblem,
        )
        r = maximize(prob)
        assert abs(r.argmax[1] - 2.0) < 1e-6

    def test_zero_width_box_round_trips(self):
        # a box with a degenerate axis is read as a bare (lo, hi) pair and
        # written back as the box descriptor it came from
        data = {
            "kind": "problem",
            "objective": {"kind": "oracle_p", "a": 1.0, "b": 4.0},
            "feasible": {"kind": "box", "lo": [0.0, 0.5], "hi": [0.0, 5.0]},
            "tolerance": 1e-8,
            "multistart": 4,
            "seed": 0,
        }
        prob = from_json(data, MaxProblem)
        assert isinstance(prob.feasible, tuple) and prob.to_json() == data
        again = from_json(prob.to_json(), MaxProblem)
        assert again.to_json() == data
        assert all(np.array_equal(x, y) for x, y in zip(again.feasible, prob.feasible))
        assert maximize(again).to_json() == maximize(prob).to_json()

    def test_convolution_problem(self):
        prob = from_json(
            {
                "objective": {
                    "kind": "convolution",
                    "kernel": "poisson",
                    "psi": {
                        "kind": "indicator",
                        "body": {"kind": "interval", "a": -1, "b": 1},
                    },
                },
                "feasible": {
                    "kind": "spacetime_box",
                    "body": {"kind": "interval", "a": -2, "b": 2},
                    "t_lo": 0.5,
                    "t_hi": 3.0,
                },
                "multistart": 3,
            },
            MaxProblem,
        )
        r = maximize(prob)
        assert abs(r.argmax[0]) < 1e-3
        assert r.argmax[1] == pytest.approx(0.5, abs=1e-3)

    def test_field_kind_must_match(self):
        scalar = {"kind": "gaussian", "n": 2, "t": 1.0}
        with pytest.raises(ValueError, match="SpaceTimeField"):
            from_json(
                {
                    "objective": {"kind": "spacetime_field", "field": scalar},
                    "feasible": {"kind": "box", "lo": [-1, 0.5], "hi": [1, 2]},
                },
                MaxProblem,
            )

    def test_unknown_objective(self):
        with pytest.raises(ValueError):
            from_json(
                {"objective": {"kind": "mystery"}, "feasible": {"kind": "interval", "a": 0, "b": 1}},
                MaxProblem,
            )


class TestResultShape:
    def test_json_round_trip_fields(self):
        r = regiomontanus(1.0, 4.0, Interval(0.5, 5.0))
        data = r.to_json()
        assert set(data) == {
            "argmax",
            "value",
            "starts_converged",
            "max_pairwise_spread",
            "evaluations",
            "unique",
        }
