import math

import numpy as np
import pytest

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
)
from concavekit.geometry import Ball, Box, HatRegion, Interval, Polytope, SpaceTimeBox, from_json
from concavekit.optimize import MaxProblem, maximize, regiomontanus
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
        # separated local maxima split the starts into clusters, which the
        # pairwise spread exposes
        def bumps(z):
            x = z[0]
            return math.exp(-((x - 2) ** 2)) + math.exp(-((x + 2) ** 2))

        r = maximize(
            MaxProblem(objective=bumps, feasible=Interval(-3, 3), tolerance=1e-10)
        )
        assert not r.unique
        assert r.max_pairwise_spread > 1.0

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

    def test_more_than_32_axes_is_refused(self):
        with pytest.raises(ValueError, match="32"):
            sobol(33, 0)
        box = (np.zeros(33), np.ones(33))
        with pytest.raises(ValueError, match="32"):
            maximize(MaxProblem(objective=lambda z: -float(z @ z), feasible=box))


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
            (["0x0.0p+0", "0x1.000000020dc7fp+1"], "0x1.a37f5c4c419f1p-3", "0x0.0p+0", 834, 10, True),
        ),
        "oracle_p_ball": (
            lambda: PoissonIndicatorField(1.0, 4.0),
            lambda: Ball([1.0, 2.0], 1.0),
            {},
            (
                ["0x1.b427ff6cdebb8p+0", "0x1.4a1f257a03bb8p+0"],
                "0x1.fc0b7b00c9063p-2",
                "0x1.80cf8bdccfb1dp-1",
                1640,
                10,
                False,
            ),
        ),
        "oracle_w_spacetime_box": (
            lambda: HeatIndicatorField(-1.0, 1.0),
            lambda: SpaceTimeBox(Interval(-2.0, 2.0), 0.5, 3.0),
            {"seed": 3},
            (
                ["0x1.cad66916acc70p-29", "0x1.00000016278b4p-1"],
                "0x1.5d897a1961bdcp-1",
                "0x1.1b93c3b1578a4p-28",
                1575,
                10,
                True,
            ),
        ),
        "heat_kernel_parabolic": (
            lambda: GaussWeierstrassKernel(1),
            lambda: HatRegion(Interval(-1.0, 0.5), 0.5),
            {"tolerance": 1e-7},
            (
                ["0x1.77e7164a00000p-29", "0x1.000000ee87092p-1"],
                "0x1.9884527ef224bp-2",
                "0x1.d02a16a9ed271p-27",
                1474,
                10,
                True,
            ),
        ),
        "scalar_box": (
            lambda: GaussWeierstrassSlice(2, 1.0),
            lambda: Box([0.3, -1.0], [2.0, 1.5]),
            {},
            (
                ["0x1.33333363f394cp-2", "0x1.47646b3922032p-29"],
                "0x1.3eb285cce6f3bp-4",
                "0x1.2000000000000p-53",
                1650,
                10,
                True,
            ),
        ),
        "scalar_polytope": (
            lambda: TentField(TestPinnedMaxResults.TRIANGLE),
            lambda: TestPinnedMaxResults.TRIANGLE,
            {"multistart": 6},
            (
                ["0x1.5820e86bb1c04p-1", "0x1.2d1ccb5f4fdfbp-1"],
                "0x1.ae2922863ee61p-1",
                "0x1.bf441bf22ea46p-2",
                1010,
                6,
                False,
            ),
        ),
        "value_interval": (
            lambda: (lambda z: oracle_W_interval(-1, 1, z[0], 1.0)),
            lambda: Interval(-3.0, 2.0),
            {"seed": 5},
            (["0x1.b1447347f8f20p-32"], "0x1.0a7ef5c18edd2p-1", "0x1.0000000000000p-53", 810, 10, True),
        ),
        "pair_box": (
            lambda: (lambda z: (oracle_P_interval(-1, 1, z[0], z[1]), 1e-12)),
            lambda: Box([-2.0, 0.5], [1.5, 3.0]),
            {"multistart": 4},
            (
                ["0x1.1faab67db4d40p-25", "0x1.00000016278b4p-1"],
                "0x1.68dfd707c7e95p-1",
                "0x1.fffff00000000p-53",
                820,
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
                ["0x1.336beb30af75cp-3", "0x1.999d9041de393p-1"],
                "0x1.92130313ea338p-2",
                "0x1.0000000000000p-54",
                273,
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
