import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from concavekit.means import (
    INF,
    _mean_ld,
    NEG_INF,
    as_exponent,
    bbl_exponent,
    check_product_inequality,
    exponent_str,
    holder_exponent,
    mean_p,
    product_inequality_margin,
)

EPS = np.finfo(float).eps


class TestMeanP:
    def test_zero_product_wins_for_every_exponent(self):
        for p in (-INF, -2.0, 0.0, 1.0, 7.5, INF):
            assert mean_p(p, 5.0, 0.0, 0.3) == 0.0
            assert mean_p(p, 0.0, 5.0, 0.3) == 0.0

    def test_geometric_mean(self):
        assert mean_p(0.0, 1.0, 4.0, 0.5) == pytest.approx(2.0, rel=1e-15)

    def test_max_min_cases(self):
        assert mean_p(INF, 2.0, 7.0, 0.5) == 7.0
        assert mean_p(NEG_INF, 2.0, 7.0, 0.5) == 2.0

    def test_harmonic_mean(self):
        assert mean_p(-1.0, 1.0, 2.0, 0.5) == pytest.approx(4.0 / 3.0, rel=1e-15)

    def test_arithmetic_mean(self):
        assert mean_p(1.0, 1.0, 3.0, 0.25) == pytest.approx(1.5, rel=1e-14)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            mean_p(1.0, -1.0, 2.0, 0.5)
        with pytest.raises(ValueError):
            mean_p(1.0, 1.0, 2.0, 1.5)
        with pytest.raises(ValueError):
            mean_p(float("nan"), 1.0, 2.0, 0.5)
        with pytest.raises(ValueError):
            mean_p(1.0, INF, 2.0, 0.5)  # operands must be finite

    def test_endpoint_identities_finite_p(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            p = rng.uniform(-20, 20)
            a, b = rng.uniform(0.01, 10, 2)
            assert mean_p(p, a, b, 0.0) == pytest.approx(a, rel=4e-16)
            assert mean_p(p, a, b, 1.0) == pytest.approx(b, rel=4e-16)

    def test_equal_operands_identity_all_p(self):
        for p in (-INF, -3.0, -1e-14, 0.0, 2.0, INF):
            assert mean_p(p, 1.7, 1.7, 0.42) == pytest.approx(1.7, rel=4e-16)

    @given(
        p=st.floats(-40, 40),
        s=st.floats(0.01, 100),
        a=st.floats(0.001, 50),
        b=st.floats(0.001, 50),
        lam=st.floats(0, 1),
    )
    @settings(max_examples=300, deadline=None)
    def test_homogeneity(self, p, s, a, b, lam):
        m = mean_p(p, a, b, lam)
        ms = mean_p(p, s * a, s * b, lam)
        assert ms == pytest.approx(s * m, rel=1e-13)

    def test_monotone_in_p_bulk(self):
        rng = np.random.default_rng(11)
        n = 50_000
        p = rng.uniform(-30, 30, n)
        q = p - np.abs(rng.normal(0, 1, n)) * 10.0 ** rng.uniform(-10, 1, n)
        a = rng.uniform(0, 10, n)
        b = rng.uniform(0, 10, n)
        lam = rng.uniform(0, 1, n)
        hi = mean_p(p, a, b, lam)
        lo = mean_p(q, a, b, lam)
        scale = np.maximum(np.maximum(hi, lo), 1e-300)
        assert ((hi - lo) / scale).min() >= -4 * EPS

    def test_continuity_toward_special_cases(self):
        a, b, lam = 2.3, 0.7, 0.31
        g = mean_p(0.0, a, b, lam)
        assert mean_p(1e-8, a, b, lam) == pytest.approx(g, rel=1e-6)
        assert mean_p(-1e-8, a, b, lam) == pytest.approx(g, rel=1e-6)
        assert mean_p(1e8, a, b, lam) == pytest.approx(max(a, b), rel=1e-6)
        assert mean_p(-1e8, a, b, lam) == pytest.approx(min(a, b), rel=1e-6)

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(5)
        a = rng.uniform(0, 3, 20)
        b = rng.uniform(0, 3, 20)
        lam = rng.uniform(0, 1, 20)
        vec = mean_p(2.5, a, b, lam)
        for i in range(20):
            assert vec[i] == mean_p(2.5, a[i], b[i], lam[i])

    @pytest.mark.parametrize("lam", [0.0, 1e-9, 0.5, 1.0])
    def test_general_branch_matches_two_branch_form(self, lam):
        # finite p takes the centred form where max(|u|, |v|) <= 30 and the
        # max-anchored form elsewhere; computing each form only where it is
        # taken must give the bits of computing both everywhere
        ld = np.longdouble
        x = np.linspace(-2.0, 2.0, 20)
        # the p at which max(|u|, |v|) = 30 for b = a**-0.5, its neighbours, and a sweep
        edge = 30.0 / (max(lam, 1 - lam) * 1.5 * np.abs(x))
        ps = np.concatenate([edge, edge * (1 - 1e-12), edge * (1 + 1e-12), -edge])
        p, x = np.meshgrid(np.concatenate([ps, np.linspace(-90.0, 90.0, 180)]), x)
        p, a, b = (v.reshape(-1).astype(ld) for v in (p, np.exp(x), np.exp(-0.5 * x)))
        lam = np.full(p.shape, lam, dtype=ld)
        ref, small = two_branch_mean(p, a, b, lam)
        assert small.any() and not small.all()
        got = _mean_ld(p, a, b, lam)
        assert got.dtype == ld and np.array_equal(got, ref)


def two_branch_mean(p, a, b, lam):
    """Former general-exponent branch of ``_mean_ld``: both forms on every element."""
    la, lb = np.log(a), np.log(b)
    mu = (1 - lam) * la + lam * lb
    diff = la - lb
    u = p * lam * diff
    v = -p * (1 - lam) * diff
    small = np.maximum(np.abs(u), np.abs(v)) <= 30.0
    w = np.where(
        small,
        (1 - lam) * np.expm1(np.where(small, u, 0.0)) + lam * np.expm1(np.where(small, v, 0.0)),
        0.0,
    )
    with np.errstate(all="ignore"):
        centered = np.exp(mu + np.log1p(w) / p)
        t0 = np.log1p(-lam) + p * la
        t1 = np.log(lam) + p * lb
        hi = np.maximum(t0, t1)
        s = np.exp(t0 - hi) + np.exp(t1 - hi)
        anchored = np.exp((hi + np.log(s)) / p)
    return np.where(small, centered, anchored), small


# one exponent per class: the max and min, the geometric band on both sides
# of 0, and general exponents whose spread takes both the centred and the
# max-anchored form
CLASS_EXPONENTS = [INF, NEG_INF, 1e-13, -1e-13, 0.0, 0.5, -0.5, 40.0, -40.0, 400.0]


def class_operands():
    """Operands with zeros in either place, and weights with both ends."""
    rng = np.random.default_rng(25)
    a = np.exp(rng.uniform(-6.0, 6.0, 64))
    b = np.exp(rng.uniform(-6.0, 6.0, 64))
    # close pairs, where even p = 400 takes the centred form
    b[12:24] = a[12:24] * np.exp(rng.uniform(-0.01, 0.01, 12))
    a[:4] = 0.0
    b[2:6] = 0.0
    lam = rng.uniform(0.0, 1.0, 64)
    lam[6:9] = 0.0
    lam[9:12] = 1.0
    return a, b, lam


class TestMeanPClasses:
    @pytest.mark.parametrize("p", CLASS_EXPONENTS)
    def test_scalar_exponent_equals_per_element_array(self, p):
        a, b, lam = class_operands()
        for weights in (lam, 0.0, 0.3, 1.0):
            got = mean_p(p, a, b, weights)
            ref = mean_p(np.full(a.shape, p), a, b, weights)
            assert got.dtype == float and np.array_equal(got, ref)
            # one element at a time is the same call with scalars
            scalar_lam = np.broadcast_to(weights, a.shape)
            one = [mean_p(p, float(x), float(y), float(w)) for x, y, w in zip(a, b, scalar_lam)]
            assert all(type(v) is float for v in one) and np.array_equal(one, got)

    def test_scalar_exponent_takes_both_general_forms(self):
        # max(|u|, |v|) = |p| lam' |log a - log b| crosses 30 inside the operands
        a, b, lam = class_operands()
        spread = np.abs(np.log(a[12:]) - np.log(b[12:])) * np.maximum(lam[12:], 1 - lam[12:])
        for p in (40.0, -40.0, 400.0):
            assert (abs(p) * spread <= 30).any() and (abs(p) * spread > 30).any()

    @pytest.mark.parametrize("p", CLASS_EXPONENTS)
    def test_scalar_exponent_keeps_the_operand_shape(self, p):
        a, b, lam = class_operands()
        got = mean_p(p, a.reshape(8, 8), b.reshape(8, 8)[:1], lam.reshape(8, 8))
        ref = mean_p(np.full((8, 8), p), a.reshape(8, 8), np.broadcast_to(b.reshape(8, 8)[:1], (8, 8)), lam.reshape(8, 8))
        assert got.shape == (8, 8) and np.array_equal(got, ref)

    @pytest.mark.parametrize("p", CLASS_EXPONENTS)
    def test_empty_operands_give_an_empty_array(self, p):
        empty = np.array([])
        for args in ((empty, empty, 0.5), (empty, 1.0, empty), (1.0, 2.0, empty)):
            got = mean_p(p, *args)
            assert isinstance(got, np.ndarray) and got.dtype == float and got.shape == (0,)
        assert mean_p(np.array([]), 1.0, 2.0, 0.5).shape == (0,)

    @pytest.mark.parametrize(
        "args, message",
        [
            ((1.0, -1.0, 2.0, 0.5), "mean operands must be nonnegative reals"),
            ((1.0, 1.0, -0.0 - 1e-300, 0.5), "mean operands must be nonnegative reals"),
            ((1.0, float("nan"), 2.0, 0.5), "mean operands must be nonnegative reals"),
            ((1.0, 1.0, [2.0, float("nan")], 0.5), "mean operands must be nonnegative reals"),
            # a negative operand is named before an infinite one
            ((1.0, INF, -1.0, 0.5), "mean operands must be nonnegative reals"),
            ((1.0, INF, 2.0, 0.5), "mean operands must be finite"),
            ((0.0, 1.0, [2.0, -INF], 0.5), "mean operands must be nonnegative reals"),
            ((INF, [1.0, INF], 2.0, 0.5), "mean operands must be finite"),
            ((1.0, 1.0, 2.0, 1.5), r"lambda must lie in \[0, 1\]"),
            ((1.0, 1.0, 2.0, -1e-300), r"lambda must lie in \[0, 1\]"),
            ((1.0, 1.0, 2.0, float("nan")), r"lambda must lie in \[0, 1\]"),
            ((1.0, 1.0, 2.0, [0.5, INF]), r"lambda must lie in \[0, 1\]"),
            # operands are checked before the weight, the exponent before both
            ((1.0, -1.0, 2.0, 1.5), "mean operands must be nonnegative reals"),
            ((float("nan"), 1.0, 2.0, 0.5), "exponent must not be NaN"),
            (([1.0, float("nan")], 1.0, 2.0, 0.5), "exponent must not be NaN"),
            ((float("nan"), -1.0, 2.0, 1.5), "exponent must not be NaN"),
        ],
    )
    def test_refusals_keep_their_messages(self, args, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            mean_p(*args)


class TestHolderExponent:
    def test_finite_formula(self):
        assert holder_exponent(2.0, 2.0) == 1.0

    def test_zero_pair(self):
        assert holder_exponent(0.0, 0.0) == 0.0

    def test_opposite_exponents(self):
        assert holder_exponent(3.0, -3.0) == NEG_INF

    def test_opposite_infinities(self):
        assert holder_exponent(INF, NEG_INF) == NEG_INF

    def test_one_infinite_operand_limits(self):
        assert holder_exponent(-0.5, INF) == -0.5
        assert holder_exponent(INF, -0.5) == -0.5
        assert holder_exponent(0.0, INF) == 0.0
        assert holder_exponent(INF, INF) == INF

    def test_negative_sum_rejected(self):
        with pytest.raises(ValueError):
            holder_exponent(-2.0, 1.0)
        with pytest.raises(ValueError):
            holder_exponent(NEG_INF, 1.0)


class TestBBLExponent:
    def test_zero(self):
        assert bbl_exponent(0.0, 3) == 0.0

    def test_infinite_ell(self):
        assert bbl_exponent(INF, 2) == 0.5

    def test_intermediate_value(self):
        assert bbl_exponent(-0.5, 1) == pytest.approx(-1.0, rel=1e-15)

    def test_boundary_is_minus_infinity(self):
        assert bbl_exponent(-1.0, 1) == NEG_INF
        assert bbl_exponent(-0.5, 2) == NEG_INF

    def test_below_boundary_rejected(self):
        with pytest.raises(ValueError):
            bbl_exponent(-1.01, 1)

    def test_poisson_slice_exponent_chain(self):
        # kernel exponent -1/(n+1) with bounded +inf-concave data gives -1
        for n in (1, 2, 3):
            ell = holder_exponent(-1.0 / (n + 1), INF)
            assert bbl_exponent(ell, n) == pytest.approx(-1.0, rel=1e-12)


class TestProductInequality:
    def test_all_ones(self):
        r = check_product_inequality(1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 0.5)
        assert r.margin == pytest.approx(0.0, abs=4 * EPS)

    def test_direct_evaluation(self):
        r = check_product_inequality(2.0, 2.0, 1.0, 2.0, 3.0, 1.0, 0.5)
        assert r.ell == 1.0
        assert r.margin >= 0.0
        assert r.lhs == pytest.approx(mean_p(2, 1, 2, 0.5) * mean_p(2, 3, 1, 0.5))

    def test_geometric_case_is_equality(self):
        r = check_product_inequality(0.0, 0.0, 1.0, 4.0, 4.0, 1.0, 0.5)
        assert abs(r.margin) <= 4 * EPS * max(r.lhs, r.rhs)

    def test_bulk_margin_floor(self):
        rng = np.random.default_rng(7)
        n = 100_000
        p = rng.uniform(-20, 20, n)
        q = np.abs(rng.uniform(0, 20, n)) - p
        mask = rng.random(n) < 0.05
        q[mask] = -p[mask]
        a, b, c, d = (rng.uniform(0, 5, n) for _ in range(4))
        lam = rng.uniform(0, 1, n)
        margin = product_inequality_margin(p, q, a, b, c, d, lam)
        lhs = mean_p(p, a, b, lam) * mean_p(q, c, d, lam)
        scale = np.maximum(lhs, 1e-300)
        assert (margin / scale).min() >= -4 * EPS


class TestSerialization:
    def test_round_trip(self):
        for v, s in ((INF, "inf"), (NEG_INF, "-inf"), (2.5, "2.5")):
            assert exponent_str(v) == s
            assert as_exponent(s) == v

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            as_exponent(float("nan"))
