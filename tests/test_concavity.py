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
    _report,
    _sample_pairs,
)
from concavekit.convolve import ConvolutionField, HeatIndicatorField, QuadratureSpec
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
        body = cfg.domain
        x0, x1, lam = _sample_pairs(body, cfg, body.sample, body.contains_many)
        xl = (1 - lam)[:, None] * x0 + lam[:, None] * x1
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

    def test_close_pair_off_the_time_axis_replays_as_violation(self):
        # heat * 1_[-1, 1] at alpha = 1/2 is parabolically p-concave only for
        # p <= -17.15, reached near x = +-2, t = 0.3; this close pair moves in
        # x and t and fails p = -5 by 2,500 times the tolerance
        f = HeatIndicatorField(-1, 1)
        X0, T0 = np.array([[-1.94132]]), np.array([0.324315])
        X1, T1 = np.array([[-1.95868]]), np.array([0.335734])
        lam = np.array([0.5])
        t_comb = mean_p(0.5, T0, T1, lam)
        x_comb = (1 - lam)[:, None] * X0 + lam[:, None] * X1
        rep = _report(
            CheckConfig(samples=1), -5.0, lam, "plain", np.zeros(1),
            {"x0": X0, "t0": T0, "x1": X1, "t1": T1},
            {"phi0": f.eval_with_error(X0, T0), "phi1": f.eval_with_error(X1, T1),
             "phi_comb": f.eval_with_error(x_comb, t_comb)},
        )
        assert rep.verdict == VIOLATION
        assert rep.worst_margin == pytest.approx(-2.54e-6, rel=1e-2)
        assert rep.worst_margin < -1000 * rep.tolerance

    @pytest.mark.parametrize("seed", [2, 4])
    def test_near_diagonal_steps_in_space_and_time_find_violations(self, seed):
        # close pairs stepped in every direction of (x, t) reach the region
        # where heat * 1_[-1, 1] is not -1.7-concave; time-only steps missed it
        dom = SpaceTimeBox(Interval(-2, 2), 0.3, 4)
        cfg = CheckConfig(samples=3000, seed=seed, domain=dom)
        rep = check_parabolic_p_concavity(HeatIndicatorField(-1, 1), 0.5, -1.7, cfg)
        assert rep.verdict == VIOLATION
        w = rep.witness
        assert w["x0"] != w["x1"] and w["t0"] != w["t1"]

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
        "-0x1.72505cb2716eap-48",
        (
            ("x0", "0x1.7e03a55ff5e7ap+0"),
            ("t0", "0x1.484eb0a1604c8p+2"),
            ("x1", "0x1.7f566418bc7e4p+0"),
            ("t1", "0x1.1f46e045a2534p+2"),
            ("lambda", "0x1.bd1285280cc43p-1"),
            ("phi0", "0x1.2480f58816ea6p-3"),
            ("phi1", "0x1.1010504326246p-8"),
            ("phi_comb", "0x1.6d025d780d7e9p-6"),
            ("rhs", "0x1.6d025d780d80ap-6"),
        ),
    ),
    "parabolic_almost_strict_hat_region": (
        "pass",
        "-0x1.1278c3719804dp-52",
        (
            ("x0", "0x1.636e852490fe8p-2"),
            ("t0", "0x1.0a22ac0ea15f9p-1"),
            ("x1", "0x1.48fdbbcd58dcdp-1"),
            ("t1", "0x1.c8066df71616ap+0"),
            ("lambda", "0x1.5eff577157ffcp-1"),
            ("phi0", "0x1.7a1b10103c466p-2"),
            ("phi1", "0x1.987e59c3c0abep-3"),
            ("phi_comb", "0x1.dd8af50d712afp-3"),
            ("rhs", "0x1.dd8af50d712b1p-3"),
        ),
    ),
    "parabolic_plain_pass": (
        "pass",
        "-0x1.a5e4bb618fb45p-51",
        (
            ("x0", "0x1.6303a04a975f2p+0"),
            ("t0", "0x1.816ebb79aeaa0p+0"),
            ("x1", "0x1.32c188186e902p+0"),
            ("t1", "0x1.f857348b43249p+0"),
            ("lambda", "0x1.bc19c9eccf2f0p-4"),
            ("phi0", "0x1.e6b1b2f174ae1p-4"),
            ("phi1", "0x1.8b2b58e5a928fp-1"),
            ("phi_comb", "0x1.84582ef317966p-3"),
            ("rhs", "0x1.84582ef31796bp-3"),
        ),
    ),
    "parabolic_plain_violation": (
        "violation",
        "-0x1.2ca0c801bbe5ep-24",
        (
            ("x0", "-0x1.32041b0085380p-6"),
            ("t0", "0x1.f9d571d06de33p+1"),
            ("x1", "-0x1.37540ced8d0c4p-6"),
            ("t1", "0x1.f9ed8c04965cep+1"),
            ("lambda", "0x1.e90c090d86df3p-1"),
            ("phi0", "0x1.016d1fb59eb62p+0"),
            ("phi1", "0x1.0179e2d0ce684p+0"),
            ("phi_comb", "0x1.01794f280e99ep+0"),
            ("rhs", "0x1.017950566a790p+0"),
        ),
    ),
    "parabolic_strict_off_spec": (
        "equality_off_spec",
        "-0x1.b56c0ecbddfabp-53",
        (
            ("x0", "0x1.5978ffece5422p+0"),
            ("t0", "0x1.305d857c3b23cp+1"),
            ("x1", "0x1.abb9c34d83d00p+0"),
            ("t1", "0x1.d28cd93d47e76p+1"),
            ("lambda", "0x1.171ee3f79e414p-3"),
            ("phi0", "0x1.355ea46cd4f0ap-3"),
            ("phi1", "0x1.f3c0fd716197dp-4"),
            ("phi_comb", "0x1.2ba580cbdb079p-3"),
            ("rhs", "0x1.2ba580cbdb07ap-3"),
        ),
    ),
    "parabolic_strict_quadrature": (
        "pass",
        "0x1.f4a541c5da00cp-18",
        (
            ("x0", "0x1.4489885348246p+0"),
            ("t0", "0x1.8e5c3d6519924p+1"),
            ("x1", "0x1.447728098b7d8p+0"),
            ("t1", "0x1.8e637f7dfba03p+1"),
            ("lambda", "0x1.0abf107bfdeb8p-2"),
            ("phi0", "0x1.1a332e22e77d4p-2"),
            ("phi1", "0x1.1a353faa683e4p-2"),
            ("phi_comb", "0x1.1a33b81bb3588p-2"),
            ("rhs", "0x1.1a332e22e77d4p-2"),
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


def _pinned_bits_source() -> str:
    """``PINNED_BITS`` for every case of ``PINNED_CHECKS``, as the source above."""
    lines = ["PINNED_BITS = {"]
    for name in sorted(PINNED_CHECKS):
        verdict, margin, witness = _report_bits(PINNED_CHECKS[name]())
        lines += [f'    "{name}": (', f'        "{verdict}",', f'        "{margin}",']
        if witness is None:
            lines.append("        None,")
        else:
            lines.append("        (")
            lines += ["            (" + ", ".join(f'"{v}"' for v in row) + ")," for row in witness]
            lines.append("        ),")
        lines.append("    ),")
    return "\n".join([*lines, "}"])


if __name__ == "__main__":
    print(_pinned_bits_source())
