import math

import numpy as np
import pytest
from scipy.integrate import quad

from concavekit.fields import (
    ConstantField,
    FixedTimeSlice,
    GaussWeierstrassKernel,
    GaussWeierstrassSlice,
    GridField,
    IndicatorField,
    KappaExpKernel,
    KappaPowerKernel,
    PoissonKernel,
    PoissonSlice,
    ProductField,
    PullbackField,
    RadialProfile,
    ScalarField,
    TentField,
    conjugate0,
    conjugate0_inverse,
    field_from_json,
    field_to_json,
    lift,
    radialize,
    shifted,
    sigma_sphere,
)
from concavekit.geometry import Ball, Box, Interval, Polytope
from concavekit.sampling import make_rng


class TestSphereMeasure:
    def test_tabulated_values(self):
        assert sigma_sphere(1) == pytest.approx(2 * math.pi, rel=1e-14)
        assert sigma_sphere(2) == pytest.approx(4 * math.pi, rel=1e-14)
        assert sigma_sphere(3) == pytest.approx(2 * math.pi**2, rel=1e-14)


class TestKernelEvaluation:
    def test_heat_kernel_normalizing_time(self):
        gw = GaussWeierstrassKernel(1)
        assert gw([0.0], 1 / (4 * math.pi)) == pytest.approx(1.0, rel=1e-14)

    def test_poisson_kernel_at_origin(self):
        pk = PoissonKernel(1)
        assert pk([0.0], 1.0) == pytest.approx(1 / math.pi, rel=1e-14)

    def test_indicator_outside_support(self):
        f = IndicatorField(Interval(-1, 1))
        assert f([2.0]) == 0.0
        assert f([0.5]) == 1.0

    def test_kernel_mass_is_one_1d(self):
        for t in (0.25, 1.0, 4.0):
            gw = GaussWeierstrassSlice(1, t)
            cut = 8 * math.sqrt(2 * t)
            mass, _ = quad(lambda x: gw([x]), -cut, cut)
            assert mass == pytest.approx(1.0, abs=1e-6)
            pk = PoissonSlice(1, t)
            mass_core, _ = quad(lambda x: pk([x]), -50 * t, 50 * t)
            tail = 1 - (2 / math.pi) * math.atan(50.0)  # exact arctan tail
            assert mass_core + tail == pytest.approx(1.0, abs=1e-6)

    def test_kernel_mass_is_one_2d(self):
        # radial reduction: mass = sigma_{n-1} integral r^{n-1} k(r) dr
        for t in (0.5, 2.0):
            gw = GaussWeierstrassSlice(2, t)
            mass, _ = quad(lambda r: 2 * math.pi * r * gw([r, 0.0]), 0, 8 * math.sqrt(2 * t))
            assert mass == pytest.approx(1.0, abs=1e-6)
            pk = PoissonSlice(2, t)
            mass, _ = quad(lambda r: 2 * math.pi * r * pk([r, 0.0]), 0, np.inf)
            assert mass == pytest.approx(1.0, abs=1e-6)

    def test_time_interval_enforced(self):
        gw = GaussWeierstrassKernel(1)
        with pytest.raises(ValueError):
            gw([0.0], -1.0)


class TestKappaFamilies:
    def test_exp_template_matches_heat_kernel(self):
        # t^{-1/2} exp(-r^2/t) rescaled by x -> x/2 and (4 pi)^{-1/2}
        k = KappaExpKernel(-0.5, 2.0, 1.0, n=1)
        gw = GaussWeierstrassKernel(1)
        rng = make_rng(31)
        x = rng.uniform(-4, 4, 1000)
        t = rng.uniform(0.1, 5, 1000)
        left = gw(x[:, None], t)
        right = (4 * math.pi) ** -0.5 * k(x[:, None] / 2.0, t)
        assert np.allclose(left, right, rtol=1e-12)
        assert k.claimed_alpha == 0.5
        assert k.claimed_exponent == pytest.approx(-1.0)

    def test_power_template_matches_poisson_kernel(self):
        k = KappaPowerKernel(1.0, 2.0, -2.0, n=1)
        pk = PoissonKernel(1)
        rng = make_rng(32)
        x = rng.uniform(-4, 4, 1000)
        t = rng.uniform(0.1, 5, 1000)
        left = pk(x[:, None], t)
        right = (2.0 / sigma_sphere(1)) * k(x[:, None], t)
        assert np.allclose(left, right, rtol=1e-12)
        assert k.claimed_alpha == 1.0
        assert k.claimed_exponent == pytest.approx(-1.0)

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            KappaExpKernel(0.5, 2.0, 1.0)  # c/a > 0
        with pytest.raises(ValueError):
            KappaExpKernel(-0.5, 0.5, 1.0)  # b < 1
        with pytest.raises(ValueError):
            KappaPowerKernel(1.0, 2.0, 0.5)  # c >= 0
        with pytest.raises(ValueError):
            KappaPowerKernel(0.0, 1.0, -1.0)  # (a, b) = (0, 1)
        with pytest.raises(ValueError):
            KappaPowerKernel(2.0, 2.0, -1.0)  # c >= -a

    def test_scaling_law(self):
        # kappa(r, t) = t^{alpha/p} kappa(r / t^alpha, 1) for both templates
        rng = make_rng(33)
        for k in (KappaExpKernel(-0.5, 2.0, 1.0), KappaPowerKernel(1.0, 2.0, -2.0)):
            alpha, p = k.claimed_alpha, k.claimed_exponent
            for _ in range(200):
                r = rng.uniform(0, 3)
                t = rng.uniform(0.2, 5)
                direct = k([r], t)
                scaled = t ** (alpha / p) * k([r / t**alpha], 1.0)
                assert direct == pytest.approx(scaled, rel=1e-12)


class TestLift:
    def test_constant_profile(self):
        f = ConstantField(1.0, 1)
        phi = lift(f, 1.0, 1.0)
        assert phi([0.7], 2.5) == pytest.approx(2.5)

    def test_tent_substitution(self):
        tent = TentField(Interval(-1, 1))
        phi = lift(tent, 1.0, 1.0)
        assert phi([0.5], 2.0) == pytest.approx(2.0 * (1 - 0.25))

    def test_log_lift(self):
        f = GaussWeierstrassSlice(1, 0.25)  # exp(-x^2) up to a constant
        g = RadialProfile(lambda r: np.exp(-(r**2)))
        fld = radialize(g, 1)
        phi = lift(fld, 0.0, 1.0)
        rng = make_rng(34)
        for _ in range(100):
            x = rng.uniform(-2, 2)
            t = rng.uniform(0.2, 4)
            assert phi([x], t) == pytest.approx(math.exp(-(x**2) / t), rel=1e-12)

    def test_zero_maps_to_zero_in_log_lift(self):
        ind = IndicatorField(Interval(-1, 1))
        phi = lift(ind, 0.0, 1.0)
        assert phi([5.0], 1.0) == 0.0
        assert phi([0.5], 1.0) == 1.0

    def test_lift_reproduces_kernel_scaling(self):
        # lifting the unit-time profile of each template recovers the
        # template itself
        k = KappaPowerKernel(1.0, 2.0, -2.0)
        prof = FixedTimeSlice(k, 1.0)
        phi = lift(prof, k.claimed_exponent, k.claimed_alpha)
        rng = make_rng(35)
        for _ in range(100):
            x = rng.uniform(-3, 3)
            t = rng.uniform(0.3, 4)
            assert phi([x], t) == pytest.approx(k([x], t), rel=1e-12)

    def test_infinite_exponent_rejected(self):
        with pytest.raises(ValueError):
            lift(ConstantField(1.0, 1), math.inf, 1.0)


class TestConjugation:
    def test_log_time_evaluation(self):
        phi1 = lift(ConstantField(1.0, 1), 1.0, 1.0)  # phi1(x, t) = t
        phi0 = conjugate0(phi1)
        assert phi0([0.0], math.e**2) == pytest.approx(2.0, rel=1e-14)

    def test_round_trip_identity(self):
        phi1 = GaussWeierstrassKernel(1)
        back = conjugate0_inverse(conjugate0(phi1))
        assert back is phi1
        rng = make_rng(36)
        phi0 = conjugate0(phi1)
        again = conjugate0(conjugate0_inverse(phi0))
        for _ in range(50):
            x = rng.uniform(-2, 2)
            t = rng.uniform(1.5, 6)
            assert again([x], t) == phi0([x], t)

    def test_domain_guard(self):
        phi0 = conjugate0(GaussWeierstrassKernel(1))
        with pytest.raises(ValueError):
            phi0([0.0], 0.5)

    def test_radial_template_conjugation(self):
        # the log-time version of a radial template evaluates at log t
        k = KappaExpKernel(-0.5, 2.0, 1.0)
        k0 = conjugate0(k)
        rng = make_rng(37)
        for _ in range(100):
            r = rng.uniform(0, 2)
            t = rng.uniform(1.2, 8)
            assert k0([r], t) == pytest.approx(k([r], math.log(t)), rel=1e-14)


class TestShifted:
    def test_zero_offset(self):
        gw = GaussWeierstrassKernel(1)
        Phi = shifted(gw)
        assert Phi.at([0.7], [0.7], 1.3) == pytest.approx(gw([0.0], 1.3))

    def test_identity_and_reflection(self):
        gw = GaussWeierstrassKernel(1)
        Phi = shifted(gw)
        assert Phi.at([0.4], [0.0], 2.0) == pytest.approx(gw([0.4], 2.0))
        assert Phi.at([0.0], [0.4], 2.0) == pytest.approx(gw([-0.4], 2.0))

    def test_doubled_dimension(self):
        Phi = shifted(PoissonKernel(2))
        assert Phi.dim == 4
        assert Phi([0.3, 0.1, 0.2, 0.1], 1.0) == pytest.approx(
            PoissonKernel(2)([0.1, 0.0], 1.0)
        )


class TestInfinityConcaveStructure:
    def test_indicator_is_constant_on_support(self):
        f = IndicatorField(Ball([0.0, 0.0], 1.0), height=2.5)
        rng = make_rng(38)
        pts = f.body.sample(rng, 200)
        assert np.allclose(f(pts), 2.5)


class TestRadialProfiles:
    def test_strictly_decreasing_validation(self):
        with pytest.raises(ValueError):
            RadialProfile(lambda r: np.ones_like(r), strictly_decreasing=True)
        RadialProfile(lambda r: np.exp(-r), strictly_decreasing=True)

    def test_radializes_by_norm(self):
        prof = RadialProfile(lambda r: np.exp(-r))
        f = radialize(prof, 2)
        assert f([0.0, 2.0]) == pytest.approx(math.exp(-2.0))

    def test_constant_profile_constant_field(self):
        prof = RadialProfile(lambda r: np.full_like(r, 3.0))
        f = radialize(prof, 3)
        assert f([1.0, 2.0, 2.0]) == 3.0


class TestAuxiliaryFields:
    def test_tent_on_box_and_polytope_agree(self):
        box = Box([-1.0, -1.0], [1.0, 1.0])
        poly = Polytope([[-1, -1], [1, -1], [1, 1], [-1, 1]])
        tb = TentField(box)
        tp = TentField(poly, center=[0.0, 0.0])
        rng = make_rng(39)
        pts = rng.uniform(-1.5, 1.5, size=(60, 2))
        assert np.allclose(tb(pts), tp(pts), atol=1e-9)

    def test_tent_on_simplex_is_scaled_least_barycentric_coordinate(self):
        # about the centroid of a triangle the gauge is max_i (1 - 3 lambda_i)
        verts = np.array([[0.0, 0.0], [2.0, 0.0], [0.5, 1.5]])
        tent = TentField(Polytope(verts), height=2.0)
        pts = make_rng(40).uniform(-0.5, 2.5, size=(400, 2))
        M = np.vstack([verts.T, np.ones(3)])
        lam = np.linalg.solve(M, np.vstack([pts.T, np.ones(len(pts))])).T
        ref = 2.0 * np.maximum(0.0, 3.0 * lam.min(axis=1))
        assert np.allclose(tent(pts), ref, rtol=1e-12, atol=1e-14)
        assert 0 < (ref > 0).sum() < len(pts)

    def test_tent_off_centre_ball(self):
        ball, z = Ball([0.3, -0.2], 0.8), np.array([0.7, 0.1])
        tent = TentField(ball, height=1.5, center=z)
        u = make_rng(41).standard_normal((50, 2))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        rim = ball.center + ball.radius * u
        assert tent(z) == 1.5
        assert np.allclose(tent(rim), 0.0, atol=1e-12)
        # affine along each ray from the anchor to the rim
        for s in (0.25, 0.5, 0.9):
            assert np.allclose(tent(z + s * (rim - z)), 1.5 * (1 - s), rtol=1e-12)

    @pytest.mark.parametrize(
        "body",
        [Interval(-0.75, 1.25), Box([-1.0, 0.25], [0.5, 2.0]), Ball([0.3, -0.2], 0.8)],
        ids=lambda b: type(b).__name__,
    )
    def test_tent_closed_forms_bit_for_bit(self, body):
        # the formulas the tent used before the bodies owned their gauges
        tent = TentField(body, height=1.5)
        z = body.interior_point()
        P = make_rng(42).uniform(-2.0, 2.0, size=(300, body.dim))
        if isinstance(body, Ball):
            g = np.linalg.norm(P - body.center, axis=1) / body.radius
        else:
            g = np.maximum((P - z) / (body.hi - z), (z - P) / (z - body.lo)).max(axis=1)
        ref = 1.5 * np.maximum(0.0, 1.0 - g)
        assert np.array_equal(tent(P).view(np.uint64), ref.view(np.uint64))

    def test_product_field(self):
        f = ProductField([IndicatorField(Interval(-1, 1)), GaussWeierstrassSlice(1, 1.0)])
        assert f([0.0]) == pytest.approx(GaussWeierstrassSlice(1, 1.0)([0.0]))
        assert f([1.5]) == 0.0

    def test_grid_field_interpolates_and_clips(self):
        g = GridField([0.0, 1.0, 0.0], [-1.0], [1.0])
        assert g([0.0]) == pytest.approx(1.0)
        assert g([0.5]) == pytest.approx(0.5)
        assert g([2.0]) == 0.0

    def test_pullback_support_transforms(self):
        base = IndicatorField(Interval(0, 1))
        g = PullbackField(base, scale=-1.0, shift=[0.5])  # y -> base(0.5 - y)
        assert g([0.2]) == 1.0
        assert g([-0.4]) == 1.0
        assert g([0.6]) == 0.0
        lo, hi = g.support.bounding_box()
        assert (lo[0], hi[0]) == (-0.5, 0.5)


class TestFieldJson:
    @pytest.mark.parametrize(
        "descriptor",
        [
            {"kind": "gauss_weierstrass", "n": 1},
            {"kind": "poisson_kernel", "n": 2},
            {"kind": "kappa_power", "a": 1, "b": 2, "c": -2},
            {"kind": "kappa_exp", "a": -0.5, "b": 2, "c": 1},
            {"kind": "indicator", "body": {"kind": "interval", "a": -1, "b": 1}, "height": 1},
            {"kind": "tent", "body": {"kind": "ball", "center": [0, 0], "radius": 1}},
            {"kind": "gaussian", "n": 1, "t": 0.5},
            {"kind": "poisson_slice", "n": 1, "t": 1.0},
            {"kind": "constant", "value": 2.0, "n": 1},
            {"kind": "custom_grid", "values": [0, 1, 0], "lo": [-1], "hi": [1]},
            {
                "kind": "lifted",
                "field": {"kind": "tent", "body": {"kind": "interval", "a": -1, "b": 1}},
                "p": "1",
                "alpha": 1.0,
            },
            {"kind": "conjugate0", "field": {"kind": "gauss_weierstrass", "n": 1}},
            {"kind": "shifted_product", "field": {"kind": "poisson_kernel", "n": 1}},
            {
                "kind": "tent",
                "body": {"kind": "box", "lo": [0, 0], "hi": [2, 2]},
                "center": [0.5, 0.5],
            },
        ],
    )
    def test_round_trip(self, descriptor):
        f = field_from_json(descriptor)
        back = field_from_json(field_to_json(f))
        assert type(back) is type(f)
        assert back.dim == f.dim
        rng = make_rng(31)
        X = rng.uniform(-1.5, 2.5, size=(64, f.dim))
        args = (X,) if isinstance(f, ScalarField) else (X, rng.uniform(1.5, 3.0, size=64))
        assert np.array_equal(back(*args), f(*args))

    def test_tent_center_round_trip(self):
        f = TentField(Box([0, 0], [2, 2]), center=[0.5, 0.5])
        back = field_from_json(field_to_json(f))
        assert back([0.5, 0.5]) == f([0.5, 0.5]) == 1.0
        # descriptors written without a centre anchor the tent at the body's own point
        box = {"kind": "box", "lo": [0, 0], "hi": [2, 2]}
        plain = field_from_json({"kind": "tent", "body": box})
        assert plain([1.0, 1.0]) == 1.0

    @pytest.mark.parametrize("center", [[0.5], 0.5, [[0.5, 0.5]], [0.5, 0.5, 0.5]])
    def test_tent_center_shape(self, center):
        # a centre that would broadcast must not load as a tent anchored elsewhere
        box = {"kind": "box", "lo": [0, 0], "hi": [2, 2]}
        with pytest.raises(ValueError):
            field_from_json({"kind": "tent", "body": box, "center": center})

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            field_from_json({"kind": "wavelet"})
