import math

import numpy as np
import pytest
from scipy.special import erf

from concavekit.concavity import (
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
    PoissonKernel,
    TentField,
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

    def test_error_budget(self):
        psi = IndicatorField(Interval(-1, 1))
        quad = QuadratureSpec(support=Interval(-1, 1), points_per_axis=16, error_budget=1e-14)
        with pytest.raises(ResolutionError):
            convolve_at(PoissonKernel(1), psi, [0.0], 0.05, quad)

    def test_monte_carlo_path(self):
        psi = IndicatorField(Interval(-1, 1))
        quad = QuadratureSpec(support=Interval(-1, 1), scheme="monte_carlo", mc_samples=200_000)
        r = convolve_at(PoissonKernel(1), psi, [0.0], 1.0, quad)
        assert abs(r.value - 0.5) <= 4 * r.est_error

    def test_min_resolution_enforced(self):
        with pytest.raises(ValueError):
            QuadratureSpec(support=Interval(-1, 1), points_per_axis=4)


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
    """eval_with_error normalizes its arguments once and dispatches to _eval_err."""

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
