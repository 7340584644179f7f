import math

import numpy as np
import pytest

from concavekit.concavity import (
    EQUALITY_OFF_SPEC,
    PASS,
    VIOLATION,
    CheckConfig,
    check_p_concavity,
    check_parabolic_p_concavity,
    check_quasi_concavity_superlevel,
    classify_equality,
    _sample_pairs_body,
)
from concavekit.convolve import ConvolutionField, QuadratureSpec
from concavekit.fields import (
    ConstantField,
    GaussWeierstrassKernel,
    GaussWeierstrassSlice,
    GridField,
    IndicatorField,
    PoissonKernel,
    PoissonSlice,
    RadialProfile,
    SpaceTimeField,
    TentField,
    conjugate0,
    lift,
    radialize,
    shifted,
)
from concavekit.geometry import Box, Interval, SpaceTimeBox, time_scaled_region
from concavekit.means import mean_p
from concavekit.sampling import SamplingError, make_rng

INF = math.inf
STB = SpaceTimeBox(Interval(-2, 2), 0.5, 4.0)


class _TimeOnly(SpaceTimeField):
    """phi(x, t) = t: parabolically 1-concave but nowhere strict in x."""

    dim = 1

    def _eval(self, P, T):
        return T.copy(), 0.0


def _two_bumps():
    """A grid field with two separated plateaus: not quasi-concave."""
    vals = np.zeros(41)
    vals[5:10] = 1.0
    vals[30:35] = 1.0
    return GridField(vals, [-2.0], [2.0])


class _Bumpy(SpaceTimeField):
    """Oscillates in x, so it is not parabolically log-concave."""

    dim = 1

    def _eval(self, P, T):
        return 1.0 + np.sin(4 * P[:, 0]) ** 2, 0.0


class TestSpatialChecks:
    def test_indicator_infinity_concave(self):
        f = IndicatorField(Box([0, 0], [1, 1]))
        cfg = CheckConfig(samples=1500, seed=2, domain=Box([-0.2, -0.2], [1.2, 1.2]))
        assert check_p_concavity(f, INF, cfg).verdict == PASS

    def test_indicator_not_strictly_concave(self):
        f = IndicatorField(Box([0, 0], [1, 1]))
        cfg = CheckConfig(samples=1500, seed=2, domain=Box([-0.2, -0.2], [1.2, 1.2]))
        rep = check_p_concavity(f, INF, cfg, strict=True)
        assert rep.verdict == EQUALITY_OFF_SPEC
        w = rep.witness
        assert w is not None and not np.allclose(w["x0"], w["x1"])

    def test_gaussian_strictly_log_concave(self):
        f = GaussWeierstrassSlice(2, 1.0)
        cfg = CheckConfig(samples=2500, seed=3, domain=Box([-2, -2], [2, 2]))
        assert check_p_concavity(f, 0.0, cfg, strict=True).verdict == PASS

    def test_poisson_slice_strict_negative_exponent(self):
        f = PoissonSlice(1, 1.0)
        cfg = CheckConfig(samples=2500, seed=4, domain=Interval(-3, 3))
        assert check_p_concavity(f, -0.5, cfg, strict=True).verdict == PASS

    def test_tent_concave_but_not_strict(self):
        tent = TentField(Interval(-1, 1))
        cfg = CheckConfig(samples=2500, seed=5, domain=Interval(-0.9, 0.9))
        assert check_p_concavity(tent, 1.0, cfg).verdict == PASS
        assert check_p_concavity(tent, 1.0, cfg, strict=True).verdict == EQUALITY_OFF_SPEC

    def test_violation_detected_with_replaying_witness(self):
        f = _two_bumps()
        cfg = CheckConfig(samples=3000, seed=6, domain=Interval(-2, 2))
        rep = check_p_concavity(f, -INF, cfg)
        assert rep.verdict == VIOLATION
        w = rep.witness
        comb = (1 - w["lambda"]) * np.array(w["x0"]) + w["lambda"] * np.array(w["x1"])
        margin = f(comb) - mean_p(-INF, f(np.array(w["x0"])), f(np.array(w["x1"])), w["lambda"])
        assert margin < -rep.tolerance

    def test_strictness_without_positive_samples_errors(self):
        f = IndicatorField(Interval(10, 11))  # zero everywhere on the domain
        cfg = CheckConfig(samples=200, seed=7, domain=Interval(-1, 1))
        with pytest.raises(SamplingError):
            check_p_concavity(f, 1.0, cfg, strict=True)

    def test_interior_zeros_break_strictness(self):
        # a clipped bump vanishes on part of the domain; pairs inside the
        # zero set realize the defining inequality with equality at distinct
        # points, so the field is not strictly concave on the larger domain
        bump = RadialProfile(lambda r: np.maximum(0.0, 1.0 - r**2))
        f = radialize(bump, 1)
        cfg = CheckConfig(samples=3000, seed=71, domain=Interval(-3, 3))
        assert check_p_concavity(f, 1.0, cfg).verdict == PASS
        rep = check_p_concavity(f, 1.0, cfg, strict=True)
        assert rep.verdict == EQUALITY_OFF_SPEC
        w = rep.witness
        assert w["f0"] == w["f1"] == w["f_comb"] == 0.0
        # on the positivity set alone the same bump is strictly concave
        cfg_in = CheckConfig(samples=3000, seed=71, domain=Interval(-0.95, 0.95))
        assert check_p_concavity(f, 1.0, cfg_in, strict=True).verdict == PASS

    def test_downward_closure_in_exponent(self):
        # passing at p implies passing at any q <= p on the same seed, since
        # the q-mean never exceeds the p-mean sample by sample
        f = GaussWeierstrassSlice(1, 1.0)
        cfg = CheckConfig(samples=2000, seed=8, domain=Interval(-2, 2))
        assert check_p_concavity(f, 0.0, cfg).verdict == PASS
        for q in (-0.5, -2.0, -INF):
            assert check_p_concavity(f, q, cfg).verdict == PASS
        rng = make_rng(81)
        f0 = f(rng.uniform(-2, 2, 300))
        f1 = f(rng.uniform(-2, 2, 300))
        lam = rng.uniform(0, 1, 300)
        assert (mean_p(0.0, f0, f1, lam) >= mean_p(-0.5, f0, f1, lam) - 1e-15).all()


class TestSuperLevel:
    def test_radial_strictly_decreasing_passes(self):
        prof = RadialProfile(lambda r: np.exp(-r), strictly_decreasing=True)
        f = radialize(prof, 2)
        cfg = CheckConfig(samples=2000, seed=9, domain=Box([-2, -2], [2, 2]))
        assert check_quasi_concavity_superlevel(f, cfg).verdict == PASS

    def test_two_bump_fails(self):
        cfg = CheckConfig(samples=2000, seed=10, domain=Interval(-2, 2))
        assert check_quasi_concavity_superlevel(_two_bumps(), cfg).verdict == VIOLATION

    def test_constant_field_passes(self):
        f = ConstantField(2.0, 1)
        cfg = CheckConfig(samples=500, seed=11, domain=Interval(-1, 1))
        assert check_quasi_concavity_superlevel(f, cfg).verdict == PASS

    @pytest.mark.parametrize(
        "f, cfg",
        [
            (radialize(RadialProfile(lambda r: np.exp(-r), strictly_decreasing=True), 2),
             CheckConfig(samples=2000, seed=9, domain=Box([-2, -2], [2, 2]))),
            (_two_bumps(), CheckConfig(samples=2000, seed=10, domain=Interval(-2, 2))),
            (ConstantField(2.0, 1), CheckConfig(samples=500, seed=11, domain=Interval(-1, 1))),
            # demo 04's radial profile
            (radialize(RadialProfile(lambda r: np.exp(-r), strictly_decreasing=True), 2),
             CheckConfig(samples=3000, seed=13, domain=Box([-2, -2], [2, 2]))),
        ],
    )
    def test_level_sets_agree_with_min_margin(self, f, cfg):
        # the super-level picture on the checker's own pairs: at levels a at
        # the 0.2, 0.5 and 0.8 quantiles of min(f0, f1), a pair above a must
        # keep its combined point above a; finitely many levels see only a
        # subset of the pairs whose min-margin is negative
        rep = check_quasi_concavity_superlevel(f, cfg)
        _, x0, x1, lam, xl = _sample_pairs_body(f, cfg)
        f0, f1, fl = f(x0), f(x1), f(xl)
        lo = np.minimum(f0, f1)
        bad_level = np.zeros(len(lo), dtype=bool)
        for a in np.quantile(lo[lo > 0], [0.2, 0.5, 0.8]):
            bad_level |= (lo > a) & ~(fl > a - rep.tolerance * max(a, 1.0))
        rhs = mean_p(-INF, f0, f1, lam)
        bad_margin = fl - rhs < -rep.tolerance * np.maximum(fl, rhs)
        assert not (bad_level & ~bad_margin).any()
        assert rep.verdict == (VIOLATION if bad_level.any() else PASS)
        assert rep.verdict == (VIOLATION if bad_margin.any() else PASS)


class TestParabolicChecks:
    def test_heat_kernel_almost_strict(self):
        gw = GaussWeierstrassKernel(1)
        cfg = CheckConfig(samples=3000, seed=12, domain=STB)
        rep = check_parabolic_p_concavity(gw, 0.5, -1.0, cfg, mode="almost_strict")
        assert rep.verdict == PASS

    def test_poisson_kernel_almost_strict(self):
        pk = PoissonKernel(1)
        cfg = CheckConfig(samples=3000, seed=13, domain=STB)
        rep = check_parabolic_p_concavity(pk, 1.0, -1.0, cfg, mode="almost_strict")
        assert rep.verdict == PASS

    def test_lifted_tent_plain(self):
        phi = lift(TentField(Interval(-1, 1)), 1.0, 1.0)
        cfg = CheckConfig(samples=2000, seed=14, domain=STB)
        assert check_parabolic_p_concavity(phi, 1.0, 1.0, cfg, mode="plain").verdict == PASS

    def test_time_only_field_fails_strict(self):
        cfg = CheckConfig(samples=2000, seed=15, domain=STB)
        rep = check_parabolic_p_concavity(_TimeOnly(), 1.0, 1.0, cfg, mode="strict")
        assert rep.verdict == EQUALITY_OFF_SPEC

    def test_almost_strict_kernels_fail_fully_strict_mode(self):
        # the kernels are flat along their rays, so they are almost-strict
        # but not strict; the forced ray samples expose this deterministically
        cfg = CheckConfig(samples=2000, seed=15, domain=STB)
        gw = GaussWeierstrassKernel(1)
        assert (
            check_parabolic_p_concavity(gw, 0.5, -1.0, cfg, mode="strict").verdict
            == EQUALITY_OFF_SPEC
        )
        pk = PoissonKernel(1)
        assert (
            check_parabolic_p_concavity(pk, 1.0, -1.0, cfg, mode="strict").verdict
            == EQUALITY_OFF_SPEC
        )

    def test_non_concave_field_violates(self):
        cfg = CheckConfig(samples=2000, seed=16, domain=STB)
        rep = check_parabolic_p_concavity(_Bumpy(), 0.5, 0.0, cfg, mode="plain")
        assert rep.verdict == VIOLATION

    def test_restriction_to_slices(self):
        # a field passing the space-time check passes the spatial check on
        # every fixed-time slice
        gw = GaussWeierstrassKernel(1)
        cfg = CheckConfig(samples=2000, seed=17, domain=STB)
        assert check_parabolic_p_concavity(gw, 0.5, -1.0, cfg).verdict == PASS
        for t in (0.5, 1.0, 3.0):
            cfg_s = CheckConfig(samples=1500, seed=17, domain=Interval(-2, 2))
            assert check_p_concavity(gw.slice_at(t), -1.0, cfg_s).verdict == PASS

    def test_homothety_invariance(self):
        # rescaling space and time does not change verdicts on matched seeds
        gw = GaussWeierstrassKernel(1)

        class Scaled(SpaceTimeField):
            dim = 1

            def _eval(self, P, T):
                return gw._eval(3.0 * P, 0.5 * T)

        cfg = CheckConfig(samples=2000, seed=18, domain=STB)
        base = check_parabolic_p_concavity(gw, 0.5, -1.0, cfg, mode="almost_strict")
        scaled = check_parabolic_p_concavity(Scaled(), 0.5, -1.0, cfg, mode="almost_strict")
        assert base.verdict == scaled.verdict == PASS

    def test_conjugation_agreement(self):
        # verdict of the log-time check equals the linear-time verdict
        phi1 = lift(TentField(Interval(-1, 1)), 1.0, 1.0)
        phi0 = conjugate0(phi1)
        dom1 = SpaceTimeBox(Interval(-1.5, 1.5), math.log(1.5), math.log(6.0))
        dom0 = SpaceTimeBox(Interval(-1.5, 1.5), 1.5, 6.0)
        v1 = check_parabolic_p_concavity(
            phi1, 1.0, 1.0, CheckConfig(samples=1500, seed=19, domain=dom1)
        ).verdict
        v0 = check_parabolic_p_concavity(
            phi0, 0.0, 1.0, CheckConfig(samples=1500, seed=19, domain=dom0)
        ).verdict
        assert v0 == v1 == PASS

    def test_joint_difference_field_inherits(self):
        # if phi passes the plain check, so does (x, y, t) -> phi(x - y, t)
        gw = GaussWeierstrassKernel(1)
        Phi = shifted(gw)
        dom = SpaceTimeBox(Box([-1, -1], [1, 1]), 0.5, 4.0)
        cfg = CheckConfig(samples=2000, seed=20, domain=dom)
        assert check_parabolic_p_concavity(Phi, 0.5, -1.0, cfg, mode="plain").verdict == PASS

    def test_strict_positivity_consequence(self):
        # fields that pass a strict check are positive at sampled interior
        # points of the domain
        pk = PoissonSlice(1, 1.0)
        cfg = CheckConfig(samples=1500, seed=21, domain=Interval(-3, 3))
        assert check_p_concavity(pk, -0.5, cfg, strict=True).verdict == PASS
        pts = Interval(-3, 3).sample(make_rng(21), 500)
        assert (pk(pts) > 0).all()

    def test_alpha_zero_needs_late_times(self):
        phi0 = conjugate0(GaussWeierstrassKernel(1))
        cfg = CheckConfig(
            samples=500, seed=22, domain=SpaceTimeBox(Interval(-1, 1), 0.5, 4.0)
        )
        with pytest.raises(ValueError):
            check_parabolic_p_concavity(phi0, 0.0, -1.0, cfg, mode="almost_strict")


class TestClassifyEquality:
    def test_heat_kernel_ray_equality(self):
        gw = GaussWeierstrassKernel(1)
        c = classify_equality(gw, 0.5, -1.0, [1.0], 1.0, [2.0], 4.0, 0.5, eps_eq=1e-12)
        assert c.labels == ("on_ray", "equal")
        both = (4 * math.pi * 2.25) ** -0.5 * math.exp(-0.25)
        assert c.lhs == pytest.approx(both, rel=1e-12)
        assert c.rhs == pytest.approx(both, rel=1e-12)

    def test_perturbation_leaves_the_ray(self):
        gw = GaussWeierstrassKernel(1)
        c = classify_equality(gw, 0.5, -1.0, [1.0], 1.0, [2.1], 4.0, 0.5, eps_eq=1e-12)
        assert c.labels == ("off_ray", "strict")
        assert c.margin > 0

    def test_same_time_distinct_points(self):
        gw = GaussWeierstrassKernel(1)
        c = classify_equality(gw, 0.5, -1.0, [0.0], 1.0, [2.0], 1.0, 0.5, eps_eq=1e-12)
        assert c.labels == ("off_ray", "strict")

    def test_alpha_zero_needs_times_above_one(self):
        phi0 = conjugate0(GaussWeierstrassKernel(1))
        with pytest.raises(ValueError):
            classify_equality(phi0, 0.0, -1.0, [0.5], 1.0, [1.0], 2.0, 0.5)

    def test_endpoint_weight_is_equality(self):
        gw = GaussWeierstrassKernel(1)
        c = classify_equality(gw, 0.5, -1.0, [0.0], 1.0, [2.0], 1.0, 0.0, eps_eq=1e-12)
        assert c.equality == "equal"


class TestConfigValidation:
    def test_report_json_shape(self):
        f = GaussWeierstrassSlice(1, 1.0)
        cfg = CheckConfig(samples=300, seed=1, domain=Interval(-2, 2))
        rep = check_p_concavity(f, 0.0, cfg)
        data = rep.to_json()
        assert set(data) >= {"verdict", "worst_margin", "witness", "samples", "seed", "tolerance"}

    @pytest.mark.parametrize("seed", [-1, 2**64, np.int64(-1), 1.5, 2.0, "3", None])
    def test_seed_outside_64_bits_is_refused(self, seed):
        with pytest.raises(ValueError, match=r"a seed must be an integer in \[0, 2\*\*64\)"):
            make_rng(seed)
        cfg = CheckConfig(samples=10, seed=seed, domain=Interval(-2, 2))
        with pytest.raises(ValueError, match="seed"):
            check_p_concavity(GaussWeierstrassSlice(1, 1.0), 0.0, cfg)

    @pytest.mark.parametrize("seed", [0, 2**64 - 1, np.uint64(2**64 - 1), np.int64(7)])
    def test_seeds_in_64_bits_key_the_stream(self, seed):
        ref = np.random.Generator(np.random.Philox(key=int(seed))).random(4)
        assert np.array_equal(make_rng(seed).random(4), ref)


def _cfg(samples, seed, domain):
    return CheckConfig(samples=samples, seed=seed, domain=domain)


# The exact report of one case per verdict, checker, mode and domain kind:
# a change to any margin, floor or witness bit shows here.
PINNED_CHECKS = {
    "spatial_plain_pass": lambda: check_p_concavity(
        GaussWeierstrassSlice(2, 1.0), 0.0, _cfg(400, 3, Box([-2, -2], [2, 2]))
    ),
    "spatial_strict_pass": lambda: check_p_concavity(
        PoissonSlice(1, 1.0), -0.5, _cfg(400, 4, Interval(-3, 3)), strict=True
    ),
    "spatial_strict_tent_off_spec": lambda: check_p_concavity(
        TentField(Interval(-1, 1)), 1.0, _cfg(400, 5, Interval(-0.9, 0.9)), strict=True
    ),
    "spatial_strict_zero_set_off_spec": lambda: check_p_concavity(
        radialize(RadialProfile(lambda r: np.maximum(0.0, 1.0 - r**2)), 1),
        1.0,
        _cfg(400, 71, Interval(-3, 3)),
        strict=True,
    ),
    "spatial_plain_violation": lambda: check_p_concavity(
        _two_bumps(), -INF, _cfg(400, 6, Interval(-2, 2))
    ),
    "spatial_plain_all_trivial": lambda: check_p_concavity(
        IndicatorField(Interval(10, 11)), 1.0, _cfg(200, 7, Interval(-1, 1))
    ),
    "parabolic_plain_pass": lambda: check_parabolic_p_concavity(
        lift(TentField(Interval(-1, 1)), 1.0, 1.0), 1.0, 1.0, _cfg(400, 14, STB)
    ),
    "parabolic_plain_violation": lambda: check_parabolic_p_concavity(
        _Bumpy(), 0.5, 0.0, _cfg(400, 16, STB)
    ),
    "parabolic_strict_off_spec": lambda: check_parabolic_p_concavity(
        GaussWeierstrassKernel(1), 0.5, -1.0, _cfg(400, 15, STB), mode="strict"
    ),
    "parabolic_almost_strict_hat_region": lambda: check_parabolic_p_concavity(
        GaussWeierstrassKernel(1),
        0.5,
        -1.0,
        _cfg(400, 12, time_scaled_region(Interval(-1, 1), 0.5)),
        mode="almost_strict",
    ),
    "parabolic_almost_strict_alpha0": lambda: check_parabolic_p_concavity(
        conjugate0(lift(TentField(Interval(-1, 1)), 1.0, 1.0)),
        0.0,
        1.0,
        _cfg(400, 19, SpaceTimeBox(Interval(-1.5, 1.5), 1.5, 6.0)),
        mode="almost_strict",
    ),
    "parabolic_strict_quadrature": lambda: check_parabolic_p_concavity(
        ConvolutionField(
            GaussWeierstrassKernel(1),
            IndicatorField(Interval(-1, 1)),
            QuadratureSpec(support=Interval(-1, 1), points_per_axis=64),
        ),
        0.5,
        -INF,
        _cfg(40, 45, STB),
        mode="strict",
    ),
}

PINNED_BITS = {
    "parabolic_almost_strict_alpha0": (
        "equality_off_spec",
        "-0x1.e19aca1f3c485p-48",
        (
            ("x0", "0x1.7e03a55ff5e7ap+0"),
            ("t0", "0x1.484eb0a1604c8p+2"),
            ("x1", "0x1.7f566418bc7e4p+0"),
            ("t1", "0x1.1f46e045a2534p+2"),
            ("lambda", "0x1.d6c9c508550d1p-1"),
            ("phi0", "0x1.2480f58816ea6p-3"),
            ("phi1", "0x1.1010504326246p-8"),
            ("phi_comb", "0x1.f5ca079a3b613p-7"),
            ("rhs", "0x1.f5ca079a3b64ep-7"),
        ),
    ),
    "parabolic_almost_strict_hat_region": (
        "pass",
        "-0x1.a1f391ba13678p-53",
        (
            ("x0", "0x1.f41e0742dd360p-5"),
            ("t0", "0x1.7ae046f6c1c8cp-1"),
            ("x1", "0x1.119c0bf941702p-4"),
            ("t1", "0x1.c59a60e125275p-1"),
            ("lambda", "0x1.796aeab539ae2p-1"),
            ("phi0", "0x1.4f60c48789cd2p-2"),
            ("phi1", "0x1.3282a83924a82p-2"),
            ("phi_comb", "0x1.399b164430a0ap-2"),
            ("rhs", "0x1.399b164430a0bp-2"),
        ),
    ),
    "parabolic_plain_pass": (
        "pass",
        "-0x1.473c2e7eff501p-50",
        (
            ("x0", "0x1.5d77a4554956cp-1"),
            ("t0", "0x1.82cec3eeb18d0p-1"),
            ("x1", "0x1.660cb71b67625p-1"),
            ("t1", "0x1.8c4e9826f0dbap-1"),
            ("lambda", "0x1.d679592b2bdacp-3"),
            ("phi0", "0x1.2ab8fccb41b21p-4"),
            ("phi1", "0x1.320f085c4bca8p-4"),
            ("phi_comb", "0x1.2c686b39fe8bep-4"),
            ("rhs", "0x1.2c686b39fe8c4p-4"),
        ),
    ),
    "parabolic_plain_violation": (
        "violation",
        "-0x1.1da0e4f49bb1dp-3",
        (
            ("x0", "-0x1.a62f5b6b5789ap+0"),
            ("t0", "0x1.fc051b4191a4fp+1"),
            ("x1", "0x1.a54a9742c5480p-3"),
            ("t1", "0x1.44214330ac67cp+1"),
            ("lambda", "0x1.0705de0a80ca4p-1"),
            ("phi0", "0x1.185708a694917p+0"),
            ("phi1", "0x1.89932653a1d84p+0"),
            ("phi_comb", "0x1.1f2c799f04ba3p+0"),
            ("rhs", "0x1.4db7545df3b63p+0"),
        ),
    ),
    "parabolic_strict_off_spec": (
        "equality_off_spec",
        "-0x1.0120f0e7425d5p-52",
        (
            ("x0", "0x1.5978ffece5422p+0"),
            ("t0", "0x1.305d857c3b23cp+1"),
            ("x1", "0x1.abb9c34d83d01p+0"),
            ("t1", "0x1.d28cd93d47e76p+1"),
            ("lambda", "0x1.cbc6be79d82f8p-1"),
            ("phi0", "0x1.355ea46cd4f0ap-3"),
            ("phi1", "0x1.f3c0fd716197dp-4"),
            ("phi_comb", "0x1.fdc0a792613c9p-4"),
            ("rhs", "0x1.fdc0a792613cbp-4"),
        ),
    ),
    "parabolic_strict_quadrature": (
        "pass",
        "0x1.2ddee847d6e01p-26",
        (
            ("x0", "-0x1.d4fea39236150p-2"),
            ("t0", "0x1.49b4d9a06d1ebp+1"),
            ("x1", "-0x1.d4fea39236150p-2"),
            ("t1", "0x1.49b4f13bd92f2p+1"),
            ("lambda", "0x1.edba54960ce43p-1"),
            ("phi0", "0x1.5611f793310c8p-2"),
            ("phi1", "0x1.5611ec898d846p-2"),
            ("phi_comb", "0x1.5611ecee64bfcp-2"),
            ("rhs", "0x1.5611ec898d846p-2"),
        ),
    ),
    "spatial_plain_all_trivial": (
        "pass",
        "0x0.0p+0",
        None,
    ),
    "spatial_plain_pass": (
        "pass",
        "0x1.4f9c470209942p-32",
        (
            ("x0", "0x1.4f3b36ca081b8p-1", "-0x1.906d1a5b034f0p-2"),
            ("x1", "0x1.4f3655619b1a8p-1", "-0x1.908af061056d1p-2"),
            ("lambda", "0x1.80e7371a76b60p-4"),
            ("f0", "0x1.19d70cbec7633p-4"),
            ("f1", "0x1.19d652cd6866cp-4"),
            ("f_comb", "0x1.19d6fb4713b1dp-4"),
            ("rhs", "0x1.19d6fb45a2357p-4"),
        ),
    ),
    "spatial_plain_violation": (
        "violation",
        "-0x1.1e8b72de0be1fp-1",
        (
            ("x0", "-0x1.83a22d4c7cc44p+0"),
            ("x1", "0x1.e20da427b551cp-1"),
            ("lambda", "0x1.9d94d078bc940p-3"),
            ("f0", "0x1.b754760640ab1p-1"),
            ("f1", "0x1.a910d31a2a60bp-2"),
            ("f_comb", "0x1.76594f804be0cp-3"),
            ("rhs", "0x1.a910d31a2a60bp-2"),
        ),
    ),
    "spatial_strict_pass": (
        "pass",
        "0x1.de8d12284f01bp-39",
        (
            ("x0", "0x1.eddf121d52ea0p+0"),
            ("x1", "0x1.eddc9d9211a53p+0"),
            ("lambda", "0x1.e2ab084aab813p-1"),
            ("f0", "0x1.142025b6ef906p-4"),
            ("f1", "0x1.14224fb79db1ap-4"),
            ("f_comb", "0x1.14222ffa7ab36p-4"),
            ("rhs", "0x1.14222ffa76ab0p-4"),
        ),
    ),
    "spatial_strict_tent_off_spec": (
        "equality_off_spec",
        "-0x1.73a3110ca06edp-51",
        (
            ("x0", "0x1.5d9b12beeaf3dp-1"),
            ("x1", "0x1.c9fd5efb07a5bp-1"),
            ("lambda", "0x1.c6c065439cb33p-1"),
            ("f0", "0x1.44c9da822a186p-2"),
            ("f1", "0x1.b0150827c2d28p-4"),
            ("f_comb", "0x1.0884256df3f3cp-3"),
            ("rhs", "0x1.0884256df3f3fp-3"),
        ),
    ),
    "spatial_strict_zero_set_off_spec": (
        "equality_off_spec",
        "0x0.0p+0",
        (
            ("x0", "0x1.05593cfaef0f4p+1"),
            ("x1", "0x1.4cce718f2e08ap+1"),
            ("lambda", "0x1.c5916b8a861bcp-1"),
            ("f0", "0x0.0p+0"),
            ("f1", "0x0.0p+0"),
            ("f_comb", "0x0.0p+0"),
            ("rhs", "0x0.0p+0"),
        ),
    ),
}


def _report_bits(rep):
    """Verdict, worst margin and witness values of a report, as exact hex."""
    witness = rep.witness and tuple(
        (k, *(float(u).hex() for u in np.atleast_1d(v))) for k, v in rep.witness.items()
    )
    return rep.verdict, float(rep.worst_margin).hex(), witness


class TestPinnedReports:
    @pytest.mark.parametrize("name", sorted(PINNED_CHECKS))
    def test_report_bits(self, name):
        assert _report_bits(PINNED_CHECKS[name]()) == PINNED_BITS[name]
