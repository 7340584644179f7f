import json
import math

import numpy as np
import pytest
from scipy.special import erf

from concavekit.concavity import (
    EQUALITY_OFF_SPEC,
    PASS,
    CheckConfig,
    check_p_concavity,
    check_parabolic_p_concavity,
)
from concavekit.convolve import (
    ConvolutionField,
    HeatIndicatorField,
    PoissonIndicatorField,
    QuadratureSpec,
    ResolutionError,
    convolve_at,
    gauss_weierstrass_integral,
    oracle_P_interval,
    oracle_W_interval,
    poisson_integral,
)
from concavekit.fields import (
    FixedTimeSlice,
    GaussWeierstrassKernel,
    IndicatorField,
    LiftedField,
    PoissonKernel,
    ProductField,
    PullbackField,
    TentField,
    conjugate0,
    conjugate0_inverse,
    shifted,
)
from concavekit.geometry import Ball, Box, Interval, Polytope, SpaceTimeBox
from concavekit.sampling import make_rng

INF = math.inf


class TestOracles:
    def test_heat_oracle_center_value(self):
        assert oracle_W_interval(-1, 1, 0.0, 1.0) == pytest.approx(erf(0.5), rel=1e-15)

    def test_poisson_oracle_center_value(self):
        assert oracle_P_interval(-1, 1, 0.0, 1.0) == pytest.approx(0.5, rel=1e-15)

    def test_initial_condition_recovered(self):
        assert oracle_W_interval(-1, 1, 0.3, 1e-12) == pytest.approx(1.0, abs=1e-12)
        assert oracle_P_interval(-1, 1, 0.3, 1e-12) == pytest.approx(1.0, abs=1e-10)

    def test_far_field_decay(self):
        assert oracle_W_interval(-1, 1, 50.0, 0.01) < 1e-300 + 1e-15
        assert oracle_P_interval(-1, 1, 50.0, 0.01) < 1e-3

    def test_symmetry(self):
        for t in (0.2, 1.0, 5.0):
            assert oracle_P_interval(-1, 1, 0.7, t) == pytest.approx(
                oracle_P_interval(-1, 1, -0.7, t), rel=1e-14
            )

    def test_monotone_in_t_far_from_support(self):
        t = np.linspace(1.0, 10.0, 50)
        vals = oracle_P_interval(-1, 1, 5.0, t)
        assert (np.diff(vals) < 0).any() or (np.diff(vals) > 0).any()
        # past the angle-maximizing height the angle shrinks
        t_star = math.sqrt((5 - 1) * (5 + 1))
        tt = np.linspace(t_star + 0.1, 20.0, 50)
        assert (np.diff(oracle_P_interval(-1, 1, 5.0, tt)) < 0).all()

    def test_invalid_interval(self):
        with pytest.raises(ValueError):
            oracle_W_interval(1, -1, 0.0, 1.0)


class TestQuadratureAgreement:
    def test_random_points_both_kernels(self):
        rng = make_rng(41)
        psi = IndicatorField(Interval(-1, 1))
        quad = QuadratureSpec.default_for(psi.support)
        for _ in range(100):
            x = rng.uniform(-3, 3)
            t = rng.uniform(0.1, 5)
            rw = convolve_at(GaussWeierstrassKernel(1), psi, [x], t, quad)
            assert abs(rw.value - oracle_W_interval(-1, 1, x, t)) <= max(rw.est_error, 1e-6)
            rp = convolve_at(PoissonKernel(1), psi, [x], t, quad)
            assert abs(rp.value - oracle_P_interval(-1, 1, x, t)) <= max(rp.est_error, 1e-6)

    @pytest.mark.parametrize("data", ["box", "unit_ball"])
    def test_3d_bars_hold_against_exact_forms(self, data):
        from scipy.stats import ncx2

        rng = make_rng(53)
        X, T = rng.uniform(-2, 2, (200, 3)), rng.uniform(0.05, 2, 200)
        if data == "box":
            body = Box([-1.0, -1.0, -0.5], [1.0, 0.5, 0.5])
            # the heat kernel factorizes over the axes of a box
            axes = zip(body.lo, body.hi, X.T)
            exact = math.prod(oracle_W_interval(a, b, x, T) for a, b, x in axes)
        else:
            body = Ball([0.0, 0.0, 0.0], 1.0)
            # |x + sqrt(2t) Z|^2 / 2t is noncentral chi-squared with 3 degrees of freedom
            exact = ncx2.cdf(1 / (2 * T), df=3, nc=(X * X).sum(axis=1) / (2 * T))
        quad = QuadratureSpec.default_for(body)
        assert quad.points_per_axis == 32
        gamma = ConvolutionField(GaussWeierstrassKernel(3), IndicatorField(body), quad)
        values, errors = gamma.eval_with_error(X, T)
        assert (np.abs(values - exact) <= errors).all()

    def test_zero_data(self):
        psi = IndicatorField(Interval(-1, 1), height=0.0)
        quad = QuadratureSpec.default_for(psi.support)
        r = convolve_at(GaussWeierstrassKernel(1), psi, [0.0], 1.0, quad)
        assert r.value == 0.0

    def test_box_data_factorizes(self):
        psi = IndicatorField(Box([-1.0, -0.5], [1.0, 0.7]))
        quad = QuadratureSpec.default_for(psi.support)
        r = gauss_weierstrass_integral(psi, [0.2, 0.1], 0.8, quad)
        ref = oracle_W_interval(-1, 1, 0.2, 0.8) * oracle_W_interval(-0.5, 0.7, 0.1, 0.8)
        assert abs(r.value - ref) <= max(3 * r.est_error, 1e-5)

    def test_ball_support_boundary_term(self):
        psi = IndicatorField(Ball([0.0, 0.0], 1.0))
        quad = QuadratureSpec.default_for(psi.support)
        r = poisson_integral(psi, [0.0, 0.0], 1.0, quad)
        # exact value: 1 - t / sqrt(1 + t^2) at the center
        exact = 1 - 1.0 / math.sqrt(2.0)
        assert abs(r.value - exact) <= max(3 * r.est_error, 1e-4)
        assert r.est_error > 0

    def test_polytope_boundary_term_reads_the_stored_hull(self, monkeypatch):
        import scipy.spatial

        tri = Polytope([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
        quad = QuadratureSpec(support=tri, points_per_axis=32)
        ref = poisson_integral(IndicatorField(tri), [0.2, 0.2], 1.0, quad)
        monkeypatch.setattr(scipy.spatial, "ConvexHull", None)  # no hull is rebuilt per call
        assert poisson_integral(IndicatorField(tri), [0.2, 0.2], 1.0, quad) == ref
        assert ref.est_error > 0

    def test_mass_preservation(self):
        # integrating the heat convolution over a wide box recovers the data
        # mass (kernel mass one plus fast tail decay)
        psi = IndicatorField(Interval(-1, 1))
        quad = QuadratureSpec.default_for(psi.support)
        t = 0.5
        xs = np.linspace(-9, 9, 151)
        vals = np.array(
            [convolve_at(GaussWeierstrassKernel(1), psi, [x], t, quad).value for x in xs]
        )
        h = xs[1] - xs[0]
        approx = h * (vals.sum() - 0.5 * (vals[0] + vals[-1]))
        assert approx == pytest.approx(2.0, abs=1e-4)

    def test_translation_equivariance(self):
        psi0 = IndicatorField(Interval(-1, 1))
        psi1 = IndicatorField(Interval(-0.5, 1.5))  # shifted by +0.5
        q0 = QuadratureSpec.default_for(psi0.support)
        q1 = QuadratureSpec.default_for(psi1.support)
        rng = make_rng(42)
        for _ in range(20):
            x = rng.uniform(-2, 2)
            t = rng.uniform(0.2, 3)
            a = convolve_at(PoissonKernel(1), psi0, [x], t, q0)
            b = convolve_at(PoissonKernel(1), psi1, [x + 0.5], t, q1)
            assert a.value == pytest.approx(b.value, abs=1e-12)

    def test_support_mismatch_rejected(self):
        psi = IndicatorField(Interval(-1, 1))
        quad = QuadratureSpec.default_for(Interval(0, 1))
        with pytest.raises(ValueError):
            convolve_at(GaussWeierstrassKernel(1), psi, [0.0], 1.0, quad)
        # a field refuses when it is built, before its first evaluation
        with pytest.raises(ValueError, match="support"):
            ConvolutionField(GaussWeierstrassKernel(1), psi, quad)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_point_is_refused(self, bad):
        psi = IndicatorField(Interval(-1, 1))
        quad = QuadratureSpec.default_for(psi.support)
        gamma = ConvolutionField(GaussWeierstrassKernel(1), psi, quad)
        with pytest.raises(ValueError, match="finite"):
            gamma.eval_with_error([bad], 1.0)
        with pytest.raises(ValueError, match="finite"):
            gamma([[0.3], [bad]], [1.0, 2.0])
        with pytest.raises(ValueError, match="finite"):
            convolve_at(PoissonKernel(1), psi, [bad], 1.0, quad)

    def test_point_of_another_dimension_is_refused(self):
        box = Box([-1.0, -1.0], [1.0, 1.0])
        quad = QuadratureSpec.default_for(box)
        with pytest.raises(ValueError, match="shape"):
            convolve_at(GaussWeierstrassKernel(2), IndicatorField(box), [0.5], 1.0, quad)

    def test_nodes_are_built_once(self, monkeypatch):
        import concavekit.convolve as cv

        ball = Ball([0.0, 0.0], 1.0)
        quad = QuadratureSpec.default_for(ball)
        gamma = ConvolutionField(PoissonKernel(2), IndicatorField(ball), quad)
        calls = []
        monkeypatch.setattr(cv, "midpoint_grid", lambda *a: calls.append(a))
        monkeypatch.setattr(Ball, "contains_many", lambda *a, **k: calls.append(a))
        values, errors = gamma.eval_with_error(np.zeros((5, 2)), np.linspace(0.5, 1.5, 5))
        assert calls == [] and (values > 0).all() and (errors > 0).all()

    def test_memory_does_not_grow_with_the_batch(self):
        import tracemalloc

        psi = IndicatorField(Interval(-1, 1))
        quad = QuadratureSpec.default_for(psi.support)
        gamma = ConvolutionField(GaussWeierstrassKernel(1), psi, quad)
        peaks = []
        for m in (1_000, 10_000):
            X, T = np.linspace(-2.0, 2.0, m)[:, None], np.full(m, 0.5)
            tracemalloc.start()
            gamma.eval_with_error(X, T)
            peaks.append(tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
        # 9,000 more rows may add their inputs and outputs (a few 8-byte
        # numbers each), not their 256 terms
        assert peaks[1] - peaks[0] < 9_000 * 8 * 8

    def test_error_budget(self):
        psi = IndicatorField(Interval(-1, 1))
        quad = QuadratureSpec(support=Interval(-1, 1), points_per_axis=16, error_budget=1e-14)
        with pytest.raises(ResolutionError):
            convolve_at(PoissonKernel(1), psi, [0.0], 0.05, quad)

    def test_four_dimensions_are_refused(self, tmp_path, capsys):
        from concavekit.cli import main

        box = {"kind": "box", "lo": [0, 0, 0, 0], "hi": [1, 1, 1, 1]}
        with pytest.raises(ValueError, match="dimensions 1 to 3"):
            QuadratureSpec(support=Box(box["lo"], box["hi"]))
        path = tmp_path / "box4.json"
        path.write_text(json.dumps(box))
        argv = ["convolve", "--kernel", "gw", "--body", str(path), "--xgrid=" + ",".join(["0:1:2"] * 4)]
        assert main(argv + ["--tgrid", "1:1:1"]) == 2
        assert capsys.readouterr().err == "error: quadrature supports dimensions 1 to 3, not 4\n"

    def test_min_resolution_enforced(self):
        with pytest.raises(ValueError):
            QuadratureSpec(support=Interval(-1, 1), points_per_axis=4)


class TestPinnedBits:
    """The midpoint grid keeps its value and error bits, one point or a batch.

    Values and error bars are pinned by ``float.hex`` at the default
    resolution of each dimension: an interval (indicator and tent data); a
    box, a ball and a triangle in 2-d; a box and a ball in 3-d; points far
    outside the support; t = 1e-4.
    """

    INTERVAL = Interval(-1.0, 1.0)
    BALL = Ball([0.0, 0.0], 1.0)
    TRIANGLE = Polytope([[0.0, 0.0], [2.0, 0.3], [0.4, 1.8]])
    # name: (kernel, data, [(x, t, value, est_error), ...])
    CASES = {
        "gw_interval_indicator": (
            GaussWeierstrassKernel(1),
            IndicatorField(INTERVAL),
            [
                ([0.3], 0.7, "0x1.2c8a979cff72ap-1", "0x1.403d9cc680000p-19"),
                ([-1.2], 2.5, "0x1.35049c6cb25f0p-2", "0x1.521d0c2400000p-22"),
                ([1.0], 0.05, "0x1.fffffffdd21c6p-2", "0x1.bd50000000000p-42"),
            ],
        ),
        "poisson_interval_indicator": (
            PoissonKernel(1),
            IndicatorField(INTERVAL),
            [
                ([0.3], 0.7, "0x1.2f802ade99b12p-1", "0x1.c96ccaab00000p-19"),
                ([-1.2], 2.5, "0x1.a267a565cc212p-3", "0x1.4ea056c800000p-23"),
                ([1.0], 0.05, "0x1.f7da5c85b784ep-2", "0x1.e902cdd000000p-26"),
            ],
        ),
        "gw_interval_tent": (
            GaussWeierstrassKernel(1),
            TentField(INTERVAL),
            [
                ([0.3], 0.7, "0x1.3ce31c898586ap-2", "0x1.7c18d32840000p-20"),
                ([-0.6], 0.2, "0x1.8b7ccdd75aadcp-2", "0x1.0c8b621c00000p-19"),
            ],
        ),
        "poisson_interval_tent": (
            PoissonKernel(1),
            TentField(INTERVAL),
            [
                ([0.3], 0.7, "0x1.596cbb2199432p-2", "0x1.c156117a80000p-19"),
                ([1.4], 1.3, "0x1.e665541c823cbp-4", "0x1.adf97f9900000p-22"),
            ],
        ),
        "gw_box": (
            GaussWeierstrassKernel(2),
            IndicatorField(Box([-1.0, -0.5], [1.0, 0.7])),
            [
                ([0.2, 0.1], 0.8, "0x1.a61b15dabcaacp-3", "0x1.082d666cc0000p-17"),
                ([1.3, -0.9], 0.3, "0x1.93a124a9756c6p-4", "0x1.1c9a863954000p-18"),
            ],
        ),
        "poisson_ball": (
            PoissonKernel(2),
            IndicatorField(BALL),
            [
                ([0.0, 0.0], 1.0, "0x1.2bc49979b682cp-2", "0x1.59f6c585787c6p-6"),
                ([0.9, 0.4], 0.2, "0x1.9e3ac7cf66a7ep-2", "0x1.fe8eddbd66862p-2"),
            ],
        ),
        "gw_ball_tent": (
            GaussWeierstrassKernel(2),
            TentField(Ball([0.5, -0.5], 1.25)),
            [([0.1, 0.2], 0.6, "0x1.276fbe6f93badp-3", "0x1.4de03c9a4a58bp-6")],
        ),
        "gw_triangle": (
            GaussWeierstrassKernel(2),
            IndicatorField(TRIANGLE),
            [
                ([0.7, 0.6], 0.4, "0x1.200e5e9e6baa9p-2", "0x1.a9d4c5c70bdafp-6"),
                ([-0.5, 2.0], 1.1, "0x1.db7e0f8981086p-5", "0x1.01070cc1a8a43p-7"),
            ],
        ),
        "poisson_triangle": (
            PoissonKernel(2),
            IndicatorField(TRIANGLE),
            [([0.7, 0.6], 0.4, "0x1.006f992fec8c3p-1", "0x1.fd3a7bd1d7165p-4")],
        ),
        "gw_box_3d": (
            GaussWeierstrassKernel(3),
            IndicatorField(Box([-1.0, -1.0, -0.5], [1.0, 0.5, 0.5])),
            [
                ([0.1, -0.2, 0.3], 0.9, "0x1.0b37ce11c3103p-4", "0x1.ceb53316d2000p-16"),
                ([1.5, 0.0, -0.4], 0.4, "0x1.06c745530ada4p-4", "0x1.ac0fd93ac0000p-22"),
            ],
        ),
        "poisson_ball_3d": (
            PoissonKernel(3),
            IndicatorField(Ball([0.0, 0.0, 0.0], 1.0)),
            [([0.2, 0.1, -0.3], 0.5, "0x1.ad4abe0af2b53p-2", "0x1.29bc211f0997ap-1")],
        ),
        "gw_far_outside": (
            GaussWeierstrassKernel(1),
            IndicatorField(INTERVAL),
            [([40.0], 0.5, "0x0.0p+0", "0x0.0p+0")],
        ),
        "poisson_far_outside": (
            PoissonKernel(1),
            IndicatorField(INTERVAL),
            [([40.0], 0.5, "0x1.a169260e68228p-13", "0x1.91270e0000000p-38")],
        ),
        "gw_tiny_time": (
            GaussWeierstrassKernel(1),
            IndicatorField(INTERVAL),
            [([-0.5], 1e-4, "0x1.0000000000000p+0", "0x1.97a03d4000000p-23")],
        ),
        "poisson_tiny_time": (
            PoissonKernel(1),
            IndicatorField(INTERVAL),
            [
                ([-0.5], 1e-4, "0x1.488c0ce5c5970p-5", "0x1.491bfa6e139b8p-6"),
                ([0.31], 1e-4, "0x1.1d65966611ca2p-3", "0x1.cfdd530e7e332p-4"),
            ],
        ),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_bits(self, case):
        phi, psi, rows = self.CASES[case]
        quad = QuadratureSpec.default_for(psi.support)
        pinned = [(v, e) for _, _, v, e in rows]
        got = [convolve_at(phi, psi, x, t, quad) for x, t, _, _ in rows]
        assert [(r.value.hex(), r.est_error.hex()) for r in got] == pinned
        # a batch of more rows than one block holds in 1-d
        reps = 70 // len(rows) + 1 if psi.dim == 1 else 2
        X = np.array([x for x, _, _, _ in rows] * reps)
        T = np.array([t for _, t, _, _ in rows] * reps)
        V, E = ConvolutionField(phi, psi, quad).eval_with_error(X, T)
        assert [(v.hex(), e.hex()) for v, e in zip(V.tolist(), E.tolist())] == pinned * reps

    def test_error_budget_refuses_a_batch(self):
        quad = QuadratureSpec(support=self.INTERVAL, points_per_axis=16, error_budget=1e-14)
        gamma = ConvolutionField(PoissonKernel(1), IndicatorField(self.INTERVAL), quad)
        with pytest.raises(ResolutionError):
            gamma.eval_with_error([[3.0], [0.0]], [50.0, 0.05])


class TestConvolutionConcavity:
    def test_heat_data_strictly_parabolically_quasi_concave(self):
        W = HeatIndicatorField(-1, 1)
        cfg = CheckConfig(samples=3000, seed=43, domain=SpaceTimeBox(Interval(-2, 2), 0.5, 4.0))
        assert check_parabolic_p_concavity(W, 0.5, -INF, cfg, mode="strict").verdict == PASS

    def test_poisson_data_strictly_parabolically_quasi_concave(self):
        P = PoissonIndicatorField(-1, 1)
        cfg = CheckConfig(samples=3000, seed=44, domain=SpaceTimeBox(Interval(-2, 2), 0.5, 4.0))
        assert check_parabolic_p_concavity(P, 1.0, -INF, cfg, mode="strict").verdict == PASS

    def test_quadrature_backed_field_passes_within_noise(self):
        psi = IndicatorField(Interval(-1, 1))
        quad = QuadratureSpec(support=Interval(-1, 1), points_per_axis=128)
        gamma = ConvolutionField(GaussWeierstrassKernel(1), psi, quad)
        cfg = CheckConfig(samples=150, seed=45, domain=SpaceTimeBox(Interval(-2, 2), 0.5, 4.0))
        rep = check_parabolic_p_concavity(gamma, 0.5, -INF, cfg, mode="strict")
        assert rep.verdict == PASS

    def test_heat_slices_strictly_log_concave(self):
        W = HeatIndicatorField(-1, 1)
        for t in (0.25, 1.0, 4.0):
            cfg = CheckConfig(samples=2000, seed=46, domain=Interval(-3, 3))
            assert check_p_concavity(FixedTimeSlice(W, t), 0.0, cfg, strict=True).verdict == PASS

    def test_poisson_slices_strictly_reciprocal_convex(self):
        # exponent -1: the reciprocal 1/P is midpoint-convex with strict margin
        P = PoissonIndicatorField(-1, 1)
        rng = make_rng(47)
        for t in (0.25, 1.0, 4.0):
            cfg = CheckConfig(samples=2000, seed=47, domain=Interval(-3, 3))
            assert check_p_concavity(FixedTimeSlice(P, t), -1.0, cfg, strict=True).verdict == PASS
            x0 = rng.uniform(-3, 3, 300)
            x1 = rng.uniform(-3, 3, 300)
            keep = np.abs(x0 - x1) > 1e-3
            x0, x1 = x0[keep], x1[keep]
            mid = 0.5 * (x0 + x1)
            inv = lambda x: 1.0 / oracle_P_interval(-1, 1, x, t)
            gap = 0.5 * inv(x0) + 0.5 * inv(x1) - inv(mid)
            assert (gap > 0).all()

    def test_tent_data_strict_slice_exponent(self):
        # q = 1 tent data with the Poisson kernel: p + q = -1/2 + 1 >= 0 and
        # the combined exponent sits at the boundary, so slices are strictly
        # quasi-concave
        psi = TentField(Interval(-1, 1))
        quad = QuadratureSpec(support=Interval(-1, 1), points_per_axis=192)
        gamma = ConvolutionField(PoissonKernel(1), psi, quad)
        cfg = CheckConfig(samples=120, seed=48, domain=Interval(-2, 2))
        rep = check_p_concavity(FixedTimeSlice(gamma, 1.0), -INF, cfg, strict=True)
        assert rep.verdict == PASS


class TestErrorHook:
    """eval_with_error normalizes its arguments once and returns _eval's values and bounds."""

    def test_convolution_field_and_its_slice(self):
        gamma = ConvolutionField(
            PoissonKernel(1),
            IndicatorField(Interval(-1, 1)),
            QuadratureSpec(support=Interval(-1, 1), points_per_axis=64),
        )
        v, e = gamma.eval_with_error(0.3, 0.7)
        assert type(v) is float and type(e) is float and e > 0
        assert v == gamma(0.3, 0.7)
        sl = FixedTimeSlice(gamma, 0.7)
        assert sl.eval_with_error(0.3) == (v, e)
        V, E = sl.eval_with_error([-0.5, 0.3])
        assert np.array_equal(V, gamma([-0.5, 0.3], 0.7)) and (V[1], E[1]) == (v, e)
        V, E = gamma.eval_with_error([-0.5, 0.3], [0.7, 0.7])
        assert (V[1], E[1]) == (v, e)

    def test_closed_forms_report_zero_error(self):
        gw = GaussWeierstrassKernel(1)
        v, e = gw.eval_with_error(0.3, 0.7)
        assert (type(v), type(e), v, e) == (float, float, gw(0.3, 0.7), 0.0)
        V, E = gw.eval_with_error([0.1, 0.3], 0.7)
        assert np.array_equal(V, gw([0.1, 0.3], 0.7)) and np.array_equal(E, np.zeros(2))
        tent = TentField(Interval(-1, 1))
        assert tent.eval_with_error(0.5) == (0.5, 0.0)
        V, E = tent.eval_with_error(np.array([[0.5], [0.0]]))
        assert np.array_equal(V, [0.5, 1.0]) and np.array_equal(E, np.zeros(2))


def _log_lift_image(V, E, fa):
    """The widest half-width of f^fa over the bar [V - E, V + E], with 0^fa = 0."""

    def power(F):
        return np.where(F > 0, np.exp(fa * np.log(np.maximum(F, 1e-300))), 0.0)

    return np.maximum(power(V + E) - power(V), power(V) - power(V - E))


class TestWrapperBounds:
    """A field built on a quadrature field reports that field's error bar, never 0."""

    t = 0.7
    X = np.linspace(-1.8, 1.8, 13)[:, None]

    @pytest.fixture(scope="class")
    def gamma(self):
        return ConvolutionField(
            PoissonKernel(1),
            IndicatorField(Interval(-1, 1)),
            QuadratureSpec(support=Interval(-1, 1), points_per_axis=64),
        )

    def test_slice_and_pullback_pass_the_bound_on(self, gamma):
        V, E = gamma.eval_with_error(self.X, self.t)
        sl = FixedTimeSlice(gamma, self.t)
        assert (E > 0).all()
        for field in (sl, PullbackField(sl, 1.0)):
            v, e = field.eval_with_error(self.X)
            assert np.array_equal(v, V) and np.array_equal(e, E)
        v, e = PullbackField(sl, 0.5, [0.1]).eval_with_error(self.X)
        ref = sl.eval_with_error(0.5 * self.X + np.array([0.1]))
        assert np.array_equal(v, ref[0]) and np.array_equal(e, ref[1])

    def test_conjugates_pass_the_bound_on(self, gamma):
        T = np.full(len(self.X), self.t)
        phi0 = conjugate0(gamma)
        v, e = phi0.eval_with_error(self.X, np.exp(T))
        V, E = gamma.eval_with_error(self.X, np.log(np.exp(T)))
        assert np.array_equal(v, V) and np.array_equal(e, E) and (e > 0).all()
        v, e = conjugate0_inverse(gamma).eval_with_error(self.X, T)
        V, E = gamma.eval_with_error(self.X, np.exp(T))
        assert np.array_equal(v, V) and np.array_equal(e, E) and (e > 0).all()

    def test_shifted_passes_the_bound_on(self, gamma):
        Y = np.linspace(-0.4, 0.4, len(self.X))[:, None]
        v, e = shifted(gamma).eval_with_error(np.hstack([self.X, Y]), self.t)
        V, E = gamma.eval_with_error(self.X - Y, self.t)
        assert np.array_equal(v, V) and np.array_equal(e, E) and (e > 0).all()

    def test_product_bounds_at_least_the_image(self, gamma):
        sl = FixedTimeSlice(gamma, self.t)
        V, E = sl.eval_with_error(self.X)
        v, e = ProductField([sl]).eval_with_error(self.X)
        assert np.array_equal(v, V) and np.array_equal(e, E)
        tent = TentField(Interval(-2, 2))
        w = tent(self.X)
        v, e = ProductField([sl, tent]).eval_with_error(self.X)
        assert np.array_equal(v, V * w) and (e >= E * w).all()
        v, e = ProductField([sl, sl]).eval_with_error(self.X)
        # (V + E)^2 - V^2, the image of the bar's upper end, up to rounding
        np.testing.assert_allclose(e, (V + E) ** 2 - V**2, rtol=1e-6)
        assert (e >= E * (2 * V + E) * (1 - 1e-15)).all()

    @pytest.mark.parametrize("alpha", [0.5, 1.0])
    def test_lift_maps_the_ends_of_the_bar(self, gamma, alpha):
        sl = FixedTimeSlice(gamma, self.t)
        s = np.linspace(0.5, 2.0, len(self.X))
        fa = s**alpha
        V, E = sl.eval_with_error(self.X / fa[:, None])
        v, e = LiftedField(sl, 1.0, alpha).eval_with_error(self.X, s)
        assert np.array_equal(v, fa * V) and (e >= fa * E).all() and (e > 0).all()
        v, e = LiftedField(sl, 0.0, alpha).eval_with_error(self.X, s)
        np.testing.assert_allclose(v, V**fa, rtol=1e-13)
        assert (e >= _log_lift_image(V, E, fa) * (1 - 1e-12)).all() and (e > 0).all()

    def test_exact_inner_fields_keep_a_zero_bound(self):
        gw = GaussWeierstrassKernel(1)
        tent = TentField(Interval(-2, 2))
        s = np.linspace(0.5, 2.0, len(self.X))
        Y = np.linspace(-0.4, 0.4, len(self.X))[:, None]
        calls = [
            (FixedTimeSlice(gw, self.t), (self.X,)),
            (PullbackField(tent, 2.0, [0.5]), (self.X,)),
            (ProductField([tent, FixedTimeSlice(gw, self.t)]), (self.X,)),
            (LiftedField(tent, 0.0, 0.5), (self.X, s)),
            (LiftedField(tent, -1.0, 0.5), (self.X, s)),
            (conjugate0(gw), (self.X, 1.0 + s)),
            (conjugate0_inverse(PoissonKernel(1)), (self.X, s)),
            (shifted(gw), (np.hstack([self.X, Y]), s)),
        ]
        for field, args in calls:
            v, e = field.eval_with_error(*args)
            assert np.array_equal(v, field(*args)) and np.array_equal(e, np.zeros(len(self.X)))
            # the hook's own bound is the closed-form 0.0, not an array
            assert field._eval(*field._args(*args)[:-1])[1] == 0.0


class TestWrappersKeepTheVerdict:
    """Wrappers that leave the values alone get the slice's strict verdict on the same pairs.

    The default grid's error bar on a slice of the convolved unit disk hides
    its strictness margin, so the slice reads equality_off_spec; a wrapper
    that dropped the bar would certify strictness inside that noise.
    """

    @pytest.mark.parametrize("kernel, t, p, seed", [(PoissonKernel, 0.05, -1.0, 0), (GaussWeierstrassKernel, 0.3, -2.0, 1)])
    def test_product_and_pullback_read_the_slice_verdict(self, kernel, t, p, seed):
        disk = Ball([0.0, 0.0], 1.0)
        gamma = ConvolutionField(kernel(2), IndicatorField(disk), QuadratureSpec.default_for(disk))
        sl = FixedTimeSlice(gamma, t)
        cfg = CheckConfig(samples=400, seed=seed, domain=Ball([0.0, 0.0], 1.5))
        ref = check_p_concavity(sl, p, cfg, strict=True)
        assert ref.verdict == EQUALITY_OFF_SPEC
        for wrapper in (ProductField([sl]), PullbackField(sl, 1.0)):
            assert check_p_concavity(wrapper, p, cfg, strict=True).to_json() == ref.to_json()


class TestExactFieldHelpers:
    def test_heat_indicator_matches_oracle(self):
        W = HeatIndicatorField(-1, 1)
        rng = make_rng(49)
        x = rng.uniform(-3, 3, 200)
        t = rng.uniform(0.1, 5, 200)
        # the field and the public oracle share one kernel: the same bits
        assert np.array_equal(W(x[:, None], t), oracle_W_interval(-1, 1, x, t))

    def test_poisson_indicator_matches_oracle(self):
        P = PoissonIndicatorField(-1, 1)
        rng = make_rng(50)
        x = rng.uniform(-3, 3, 200)
        t = rng.uniform(0.1, 5, 200)
        assert np.array_equal(P(x[:, None], t), oracle_P_interval(-1, 1, x, t))

    @pytest.mark.parametrize("oracle", [oracle_W_interval, oracle_P_interval])
    def test_public_oracles_keep_their_checks(self, oracle):
        with pytest.raises(ValueError, match="positive"):
            oracle(-1, 1, 0.0, 0.0)
        with pytest.raises(ValueError, match="positive"):
            oracle(-1, 1, [0.0, 0.5], [1.0, -1.0])
        with pytest.raises(ValueError, match="a < b"):
            oracle(1, 1, 0.0, 1.0)
        assert type(oracle(-1, 1, 0.25, 1.0)) is float
