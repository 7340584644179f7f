import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from concavekit import bbl, convolve
from concavekit.bbl import (
    BBLInstance,
    _log_mean_key,
    _node_key,
    _partner_ranges,
    _positive_runs,
    _sup_grid,
    sup_convolution,
    verify_bbl,
)
from concavekit.convolve import oracle_W_interval
from concavekit.fields import (
    GaussWeierstrassKernel,
    GaussWeierstrassSlice,
    GridField,
    IndicatorField,
    ProductField,
    PullbackField,
    TentField,
)
from concavekit.geometry import Ball, Box, Interval, Polytope, from_json, midpoint_grid
from concavekit.means import holder_exponent, mean_p
from concavekit.sampling import make_rng

INF = math.inf
EPS = np.finfo(float).eps


def interval_instance(ell=0.0, lam=0.5, grid=512):
    return BBLInstance(
        IndicatorField(Interval(0, 1)), IndicatorField(Interval(2, 4)), ell, lam, grid
    )


class TestSupConvolution:
    def test_identical_indicators(self):
        inst = BBLInstance(
            IndicatorField(Interval(0, 1)), IndicatorField(Interval(0, 1)), 0.0, 0.5
        )
        assert sup_convolution(inst, [0.5]) == 1.0

    def test_disjoint_indicators_inside_combination(self):
        assert sup_convolution(interval_instance(), [1.5]) == 1.0

    def test_outside_combination_is_zero(self):
        assert sup_convolution(interval_instance(), [3.0]) == 0.0

    def test_heights_mix_through_the_mean(self):
        inst = BBLInstance(
            IndicatorField(Interval(0, 1), height=1.0),
            IndicatorField(Interval(2, 4), height=2.0),
            0.0,
            0.5,
        )
        assert sup_convolution(inst, [1.5]) == pytest.approx(math.sqrt(2.0), rel=1e-12)

    def test_coarse_grid_refuses_a_certified_positive_sup(self):
        # 8 cells: the half-cell partners of y = 1.01 miss f1's support, though
        # y lies inside the combination [1, 2.5] of the supports
        inst = interval_instance(grid=8)
        with pytest.raises(convolve.ResolutionError, match="grid too coarse"):
            sup_convolution(inst, [1.01])
        assert sup_convolution(inst, [1.5]) == 1.0


def data_field(kind, body):
    if kind == "indicator":
        return IndicatorField(body)
    if kind == "tent":
        return TentField(body)
    return ProductField([GaussWeierstrassSlice(body.dim, 0.7), IndicatorField(body)])


def padded_rows(inst, ppa):
    """Grid over the support combination box, widened so its outer rows see f1 = 0 only."""
    lo0, hi0 = inst.f0.support.bounding_box()
    lo1, hi1 = inst.f1.support.bounding_box()
    lo = (1 - inst.lam) * lo0 + inst.lam * lo1
    hi = (1 - inst.lam) * hi0 + inst.lam * hi1
    pad = 0.25 * (hi - lo)
    return midpoint_grid(lo - pad, hi + pad, ppa)[0]


def pair_values(inst, Y, ppa):
    """f0 on its positive grid nodes, and f1 at the partner of every (row, node) pair."""
    y0, _ = midpoint_grid(*inst.f0.support.bounding_box(), ppa)
    v0 = inst.f0(y0)
    y0, v0 = y0[v0 > 0], v0[v0 > 0]
    y1 = (Y[:, None, :] - (1 - inst.lam) * y0[None, :, :]) / inst.lam
    return v0, inst.f1(y1.reshape(-1, inst.dim)).reshape(len(Y), len(y0))


def f0_grid(inst, ppa):
    """f0's midpoint grid and its values there."""
    P0, _ = midpoint_grid(*inst.f0.support.bounding_box(), ppa)
    return P0, inst.f0(P0)


def sup_grid(inst, Y, ppa):
    return _sup_grid(inst, Y, [len(Y)], [ppa], *f0_grid(inst, ppa))


def brute_pair_means(inst, Y, ppa):
    """Reference: mean_p on every pair; the sup-convolution is the row max."""
    v0, v1 = pair_values(inst, Y, ppa)
    return mean_p(inst.ell, np.broadcast_to(v0, v1.shape), v1, inst.lam)


RANK_ELLS = {
    "-1/n": lambda n: -1.0 / n,
    "-1/(2n)": lambda n: -0.5 / n,
    "1e-13": lambda n: 1e-13,
    "0": lambda n: 0.0,
    "1": lambda n: 1.0,
    "400": lambda n: 400.0,
    "inf": lambda n: INF,
}


# pairs that pruning to f1's support box could get wrong: far-apart supports,
# extreme lambda, 3-d grids, and f0 vanishing on part of its grid
PRUNING_CASES = {
    "far_apart": (("indicator", Interval(-3.0, -2.0)), ("tent", Interval(4.0, 5.5)), 0.5),
    "lam_0.05": (("tent", Interval(-0.5, 1.0)), ("gauss", Interval(0.25, 2.0)), 0.05),
    "lam_0.95": (("gauss", Interval(-0.5, 1.0)), ("tent", Interval(0.25, 2.0)), 0.95),
    "2d_lam_0.05": (
        ("tent", Box([-0.5, 0.0], [0.5, 1.25])), ("indicator", Box([0.0, -0.75], [1.5, 0.5])), 0.05,
    ),
    "3d_boxes": (
        ("tent", Box([-0.5, 0.0, 0.25], [0.5, 1.25, 1.0])),
        ("gauss", Box([0.0, -0.75, -1.0], [1.5, 0.5, 0.0])),
        0.4,
    ),
    "ball_f0": (("tent", Ball([0.1, 0.2], 0.7)), ("indicator", Box([-0.5, -0.4], [0.6, 0.5])), 0.5),
    "polytope_f0": (
        ("indicator", Polytope([[0.0, 0.0], [1.0, 0.2], [0.7, 1.1], [-0.3, 0.6]])),
        ("tent", Ball([1.0, -0.5], 0.6)),
        0.35,
    ),
}


class TestSupGridRanking:
    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("kind", ["indicator", "tent", "gauss_indicator"])
    @pytest.mark.parametrize("ell", list(RANK_ELLS))
    def test_matches_brute_force(self, ell, kind, dim):
        if dim == 1:
            b0, b1 = Interval(-0.5, 1.0), Interval(0.25, 2.0)
        else:
            b0, b1 = Box([-0.5, 0.0], [0.5, 1.25]), Box([0.0, -0.75], [1.5, 0.5])
        inst = BBLInstance(
            data_field(kind, b0), data_field(kind, b1), RANK_ELLS[ell](dim), 0.35,
            96 if dim == 1 else 144,
        )
        ppa = inst.points_per_axis
        Y = padded_rows(inst, ppa)
        vals = brute_pair_means(inst, Y, ppa)
        ref = vals.max(axis=1)
        assert (ref == 0).any() and (ref > 0).any()
        if kind == "indicator":
            # every positive pair has the same mean: the rows are exact ties
            assert (vals == ref[:, None]).sum(axis=1).max() > 1
        np.testing.assert_allclose(sup_grid(inst, Y, ppa), ref, rtol=4 * EPS, atol=0)

    def test_large_exponent_ranks_without_underflow(self):
        # raw powers s**400 underflow to 0 below s = 0.17 and tie there, so
        # ranking by them picks wrong pairs on this instance
        inst = BBLInstance(TentField(Interval(0, 1)), TentField(Interval(2, 4)), 400.0, 0.5, 256)
        ppa = inst.points_per_axis
        Y = padded_rows(inst, ppa)
        v0, v1 = pair_values(inst, Y, ppa)
        ref = mean_p(400.0, np.broadcast_to(v0, v1.shape), v1, 0.5).max(axis=1)
        np.testing.assert_allclose(sup_grid(inst, Y, ppa), ref, rtol=4 * EPS, atol=0)
        raw = np.where(v1 > 0, v0**400 + v1**400, -1.0).argmax(axis=1)
        raw_sup = mean_p(400.0, v0[raw], v1[np.arange(len(Y)), raw], 0.5)
        assert np.abs(raw_sup - ref).max() > 1e-3 * ref.max()

    @given(
        lam=st.floats(0.05, 0.95, exclude_min=True, exclude_max=True),
        ell=st.one_of(
            st.sampled_from([-1.0, -0.5, 1e-13, 0.0, 1.0, 400.0, INF]),
            st.floats(-1.0, 500.0),
        ),
        kinds=st.tuples(*[st.sampled_from(["indicator", "tent", "gauss"])] * 2),
        boxes=st.integers(1, 2).flatmap(
            lambda n: st.tuples(*[st.tuples(*[st.floats(-2.0, 2.0)] * n)] * 2)
        ),
        widths=st.tuples(*[st.tuples(*[st.floats(0.25, 2.0)] * 2)] * 2),
    )
    @example(
        lam=0.5, ell=400.0, kinds=("tent", "tent"), boxes=((0.0,), (2.0,)),
        widths=((1.0, 1.0), (2.0, 2.0)),
    )
    @settings(max_examples=60, deadline=None)
    def test_property_matches_brute_force(self, lam, ell, kinds, boxes, widths):
        # ell below -1/n is raised to it in 2-d; inf stays as drawn
        dim = len(boxes[0])
        ell = max(ell, -1.0 / dim)
        data = [
            data_field(kind, Box(lo, np.add(lo, w[:dim])))
            for kind, lo, w in zip(kinds, boxes, widths)
        ]
        inst = BBLInstance(*data, ell, lam, 64 if dim == 1 else 144)
        ppa = inst.points_per_axis
        Y = padded_rows(inst, ppa)
        ref = brute_pair_means(inst, Y, ppa).max(axis=1)
        np.testing.assert_allclose(sup_grid(inst, Y, ppa), ref, rtol=4 * EPS, atol=0)

    @pytest.mark.parametrize("ell", ["-1/n", "0", "1", "inf"])
    @pytest.mark.parametrize("case", list(PRUNING_CASES))
    def test_pruned_pairs_match_brute_force(self, case, ell):
        d0, d1, lam = PRUNING_CASES[case]
        dim = d0[1].dim
        inst = BBLInstance(
            data_field(*d0), data_field(*d1), RANK_ELLS[ell](dim), lam, (64, 144, 512)[dim - 1]
        )
        ppa = inst.points_per_axis
        Y = padded_rows(inst, ppa)
        P0, v0 = f0_grid(inst, ppa)
        first, end = _partner_ranges(inst, Y, [len(Y)], [ppa])
        pairs = np.prod(end - first, axis=1)
        # rows without any admissible pair, and pairs pruned from the others
        assert (pairs == 0).any() and 0 < pairs.sum() < len(Y) * len(P0)
        if case in ("ball_f0", "polytope_f0"):
            assert (v0 == 0).any()
        ref = brute_pair_means(inst, Y, ppa).max(axis=1)
        assert (ref == 0).any() and (ref > 0).any()
        np.testing.assert_allclose(sup_grid(inst, Y, ppa), ref, rtol=4 * EPS, atol=0)

    @pytest.mark.parametrize("ell", ["-1/n", "0", "1", "inf"])
    @pytest.mark.parametrize("dim", [1, 2])
    def test_f0_with_a_gap_in_a_grid_line_matches_brute_force(self, dim, ell):
        # f0 vanishes on a band across its box, so a grid line's positive
        # nodes form two runs and the pairs of the zero nodes stay, ranked last
        values = np.ones((6,) * dim)
        values[2:4] = 0.0
        if dim == 2:
            values = values.T
        f0 = GridField(values, [0.0] * dim, [1.0] * dim)
        f1 = data_field("tent", Box([0.25] * dim, [1.5] * dim))
        inst = BBLInstance(f0, f1, RANK_ELLS[ell](dim), 0.4, (64, 144)[dim - 1])
        ppa = inst.points_per_axis
        assert _positive_runs(f0_grid(inst, ppa)[1] > 0, [ppa], dim)[2]
        Y = padded_rows(inst, ppa)
        ref = brute_pair_means(inst, Y, ppa).max(axis=1)
        assert (ref == 0).any() and (ref > 0).any()
        np.testing.assert_allclose(sup_grid(inst, Y, ppa), ref, rtol=4 * EPS, atol=0)

    def test_positive_runs_per_grid_line(self):
        # two stacked 2-d grids, of 4 and 2 points per axis
        pos = np.array([[0, 1, 1, 0], [0, 0, 0, 0], [1, 1, 1, 1], [0, 0, 1, 1]], dtype=bool)
        small = np.array([[0, 1], [1, 1]], dtype=bool)
        lo, hi, gap = _positive_runs(np.concatenate([pos.ravel(), small.ravel()]), [4, 2], 2)
        # each node carries its grid line's span
        np.testing.assert_array_equal(lo, np.repeat([1, 0, 0, 2, 1, 0], [4, 4, 4, 4, 2, 2]))
        np.testing.assert_array_equal(hi, np.repeat([3, 0, 4, 4, 2, 2], [4, 4, 4, 4, 2, 2]))
        assert not gap
        # a gap in a line of either grid
        pos[1, [0, 2]] = True
        assert _positive_runs(np.concatenate([pos.ravel(), small.ravel()]), [4, 2], 2)[2]
        pos[1, [0, 2]] = False
        assert _positive_runs(np.concatenate([pos.ravel(), [1, 0, 1, 0, 1, 0, 1, 1, 1]]), [4, 3], 2)[2]

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("face", ["lo", "hi"])
    def test_partner_on_face_of_f1_box(self, face, dim):
        # f0's grid nodes are (2k + 1)/16 per axis and f1's box is narrower
        # than the spacing 1/8 of one row's partners, so each row has one pair:
        # its partner lies on the face, 0.5e-12 outside it (inside the
        # membership tolerance), or 4e-12 outside it
        inst = BBLInstance(
            IndicatorField(Box([0.0] * dim, [1.0] * dim)),
            IndicatorField(Box([2.0] * dim, [2.0625] * dim)),
            0.0, 0.5, 8**dim,
        )
        node, bound, out = {"lo": (15 / 16, 2.0, -1.0), "hi": (1 / 16, 2.0625, 1.0)}[face]
        Y = np.full((3, dim), (1 / 16 + 2.0625) / 2)
        Y[:, 0] = (node + bound) / 2 + out * np.array([0.0, 0.5e-12, 4e-12]) / 2
        ref = brute_pair_means(inst, Y, 8).max(axis=1)
        np.testing.assert_array_equal(ref, [1.0, 1.0, 0.0])
        np.testing.assert_array_equal(sup_grid(inst, Y, 8), ref)

    def test_one_row_path_matches_brute_force(self):
        d0, d1, lam = PRUNING_CASES["ball_f0"]
        inst = BBLInstance(data_field(*d0), data_field(*d1), 1.0, lam, 400)
        Y = padded_rows(inst, inst.points_per_axis)[::7]
        ref = brute_pair_means(inst, Y, inst.points_per_axis).max(axis=1)
        assert (ref == 0).any() and (ref > 0).any()
        got = [sup_convolution(inst, y) for y in Y]
        np.testing.assert_allclose(got, ref, rtol=4 * EPS, atol=0)

    @pytest.mark.parametrize("case", ["3d_boxes", "ball_f0", "polytope_f0"])
    def test_row_blocks_match_one_block(self, case, monkeypatch):
        d0, d1, lam = PRUNING_CASES[case]
        inst = BBLInstance(data_field(*d0), data_field(*d1), -0.25, lam, 512)
        ppa = inst.points_per_axis
        Y = padded_rows(inst, ppa)
        monkeypatch.setattr(bbl, "_PAIR_BUDGET", 10**9)
        whole = sup_grid(inst, Y, ppa)
        report = verify_bbl(inst)
        monkeypatch.setattr(bbl, "_PAIR_BUDGET", 300)
        first, end = _partner_ranges(inst, Y, [len(Y)], [ppa])
        assert len(list(bbl._row_blocks(np.prod(end - first, axis=1)))) > 10
        np.testing.assert_array_equal(sup_grid(inst, Y, ppa), whole)
        assert verify_bbl(inst) == report

    @pytest.mark.parametrize("ell", [1e-13, 1e-9, 1e-6])
    def test_key_resolves_near_ties_at_small_exponents(self, ell):
        # geometric means equal to within 1e-12 relative.  A log-sum-exp key
        # cancels the log-weights to ell * log M and cannot order these, and
        # below the geometric cutoff only the geometric key ranks as mean_p does
        rng = make_rng(62)
        lam = 0.37
        a = np.exp(rng.uniform(-7.0, 7.0, 64))
        log_target = rng.uniform(-1e-12, 1e-12, (16, 64))
        b = np.exp((log_target - (1 - lam) * np.log(a)) / lam)
        rows = np.arange(16)
        # the key composes f0's part, computed per node, with f1's values
        best = _log_mean_key(ell, _node_key(ell, a, lam), b, lam).argmax(axis=1)
        ref = mean_p(ell, np.broadcast_to(a, b.shape), b, lam).max(axis=1)
        got = mean_p(ell, a[best], b[rows, best], lam)
        np.testing.assert_allclose(got, ref, rtol=4 * EPS, atol=0)

    def test_negative_field_values_rejected(self):
        class Dip(TentField):
            def _eval(self, P):
                v, e = super()._eval(P)
                return v - 0.5, e

        inst = BBLInstance(TentField(Interval(0, 1)), Dip(Interval(2, 4)), 1.0, 0.5, 64)
        with pytest.raises(ValueError):
            verify_bbl(inst)

    @pytest.mark.parametrize("shift", [0.2, math.nan])
    def test_negative_or_nan_f0_values_rejected(self, shift):
        # f0 is a tent lowered by 0.2, negative near the ends of [0, 1]
        # (or NaN everywhere): it was dropped from the sup while mass0 summed it
        class Lowered(TentField):
            def _eval(self, P):
                v, e = super()._eval(P)
                return v - shift, e

        inst = BBLInstance(Lowered(Interval(0, 1)), TentField(Interval(2, 4)), 1.0, 0.5)
        with pytest.raises(ValueError, match="mean operands must be nonnegative reals"):
            verify_bbl(inst)
        with pytest.raises(ValueError, match="mean operands must be nonnegative reals"):
            sup_convolution(inst, [1.5])

    def test_minus_inf_exponent_refused_before_grid_work(self, monkeypatch):
        def grid_work(*args):
            raise AssertionError("grid work before the exponent check")

        monkeypatch.setattr(bbl, "_sup_grid", grid_work)
        monkeypatch.setattr(bbl, "midpoint_grid", grid_work)
        with pytest.raises(ValueError, match=r"^bbl_exponent requires ell >= -1/n = -1\.0$"):
            BBLInstance(IndicatorField(Interval(0, 1)), TentField(Interval(2, 4)), -INF, 0.5)

    def test_one_resolution_error_class(self):
        assert bbl.ResolutionError is convolve.ResolutionError


def gap_polytope_field():
    """The indicator of a polygon times grid data that vanish on a band
    across it, so some grid lines have two runs of positive nodes."""
    poly = Polytope([[0.0, 0.0], [1.0, 0.2], [0.7, 1.1], [-0.3, 0.6]])
    values = np.ones((7, 7))
    values[:, 3] = 0.0
    lo, hi = poly.bounding_box()
    return ProductField([IndicatorField(poly), GridField(values, lo, hi)])


# (f0, f1, ell, lam, grid points) per case; each data body is drawn from
# the case's seed
ONE_PASS_CASES = {
    "1d": (("tent", 1), ("gauss", 1), 0.5, 0.3, 64),
    "2d": (("gauss", 2), ("tent", 2), -0.25, 0.6, 256),
    "2d_gap": ("polytope_gap", ("tent", 2), 1.0, 0.45, 324),
    "3d": (("tent", 3), ("gauss", 3), INF, 0.4, 16**3),
}


class TestOnePass:
    """verify_bbl's one enumeration, row by row, against sup_convolution."""

    @staticmethod
    def case(name):
        d0, d1, ell, lam, grid = ONE_PASS_CASES[name]
        rng = make_rng(90 + list(ONE_PASS_CASES).index(name))

        def field(spec):
            if spec == "polytope_gap":
                return gap_polytope_field()
            kind, dim = spec
            lo = rng.uniform(-1.0, 0.5, dim)
            return data_field(kind, Box(lo, lo + rng.uniform(0.5, 1.5, dim)))

        return BBLInstance(field(d0), field(d1), ell, lam, grid)

    @staticmethod
    def sup_at(inst, y):
        # the value before the coarse-grid refusal, which rows with a zero sup
        # inside the support combination meet
        try:
            return sup_convolution(inst, y)
        except convolve.ResolutionError:
            return 0.0

    @pytest.mark.parametrize("budget", [None, "straddle"])
    @pytest.mark.parametrize("name", list(ONE_PASS_CASES))
    def test_rows_match_sup_convolution(self, name, budget, monkeypatch):
        inst = self.case(name)
        n, ppa = inst.dim, inst.points_per_axis
        ppa_c = ppa // 2
        assert ppa_c >= 8
        coarse = BBLInstance(inst.f0, inst.f1, inst.ell, inst.lam, ppa_c**n)
        assert coarse.points_per_axis == ppa_c
        calls = []

        def spy(*args):
            calls.append((args, bbl_sup_grid(*args)))
            return calls[-1][1]

        bbl_sup_grid = bbl._sup_grid
        monkeypatch.setattr(bbl, "_sup_grid", spy)
        if budget == "straddle":
            # a budget under which one block holds the last full-resolution
            # rows and the first half-resolution ones
            monkeypatch.setattr(bbl, "_PAIR_BUDGET", 1500)
        verify_bbl(inst)
        (args, S), = calls
        _, Y, rows, ppas, P0, v0 = args
        assert list(rows) == [ppa**n, ppa_c**n] and list(ppas) == [ppa, ppa_c]
        if name == "2d_gap":
            assert _positive_runs(v0 > 0, ppas, n)[2]
        if budget == "straddle":
            first, end = _partner_ranges(inst, Y, rows, ppas)
            blocks = bbl._row_blocks(np.prod(end - first, axis=1))
            assert any(r0 < rows[0] < r1 for r0, r1 in blocks)
        monkeypatch.undo()
        full = rows[0]
        assert (S[:full] > 0).any() and (S[full:] > 0).any()
        for k in range(len(Y)):
            want = self.sup_at(inst if k < full else coarse, Y[k])
            assert float(S[k]).hex() == float(want).hex(), k


class TestMemory:
    def test_grid_2500_peak(self):
        # the whole (rows x nodes) partner array of this instance is 100 MB
        inst = BBLInstance(
            TentField(Ball([0.1, 0.2], 0.7)),
            IndicatorField(Box([-0.5, -0.4], [0.6, 0.5])),
            1.0, 0.5, 2500,
        )
        tracemalloc.start()
        try:
            verify_bbl(inst)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32e6


class TestVerify:
    def test_flagship_interval_instance(self):
        r = verify_bbl(interval_instance())
        h = 1.5 / 512
        assert abs(r.lhs - 1.5) <= h
        assert r.rhs == pytest.approx(math.sqrt(2.0), rel=1e-15)
        assert r.margin == pytest.approx(1.5 - math.sqrt(2.0), abs=h)
        assert r.ok

    def test_equality_at_identical_data(self):
        inst = BBLInstance(
            IndicatorField(Interval(0, 1)), IndicatorField(Interval(0, 1)), 0.0, 0.5
        )
        r = verify_bbl(inst)
        assert r.lhs == pytest.approx(1.0, abs=1e-12)
        assert r.rhs == pytest.approx(1.0, rel=1e-15)
        assert r.ok

    def test_truncated_gaussians(self):
        g0 = ProductField([GaussWeierstrassSlice(1, 0.5), IndicatorField(Interval(-3, 3))])
        g1 = ProductField([GaussWeierstrassSlice(1, 1.0), IndicatorField(Interval(-3, 3))])
        r = verify_bbl(BBLInstance(g0, g1, 0.0, 0.5))
        assert r.ok

    def test_monotone_in_ell(self):
        f0 = IndicatorField(Interval(0, 1))
        f1 = TentField(Interval(1, 3))
        prev = -math.inf
        for ell in (-0.5, 0.0, 1.0, INF):
            r = verify_bbl(BBLInstance(f0, f1, ell, 0.4))
            assert r.lhs >= prev - 1e-12
            prev = r.lhs

    def test_zero_mass_rejected(self):
        inst = BBLInstance(
            IndicatorField(Interval(0, 1), height=0.0), IndicatorField(Interval(2, 4)), 0.0, 0.5
        )
        with pytest.raises(ValueError):
            verify_bbl(inst)

    def test_random_instances_nonnegative_margin(self):
        rng = make_rng(60)
        families_1d = [
            lambda a, b: IndicatorField(Interval(a, b)),
            lambda a, b: TentField(Interval(a, b)),
            lambda a, b: ProductField(
                [GaussWeierstrassSlice(1, 1.0), IndicatorField(Interval(a, b))]
            ),
        ]
        for k in range(30):
            mk0 = families_1d[k % 3]
            mk1 = families_1d[(k + 1) % 3]
            a0 = rng.uniform(-2, 0)
            b0 = a0 + rng.uniform(0.5, 2)
            a1 = rng.uniform(-1, 1)
            b1 = a1 + rng.uniform(0.5, 2)
            ell = [-0.5, 0.0, 1.0, INF][k % 4]
            lam = rng.uniform(0.1, 0.9)
            r = verify_bbl(BBLInstance(mk0(a0, b0), mk1(a1, b1), ell, lam, grid_points=256))
            assert r.ok, (k, r)

    def test_random_instances_2d(self):
        rng = make_rng(61)
        for k in range(8):
            lo0 = rng.uniform(-1, 0, 2)
            f0 = IndicatorField(Box(lo0, lo0 + rng.uniform(0.5, 1.5, 2)))
            lo1 = rng.uniform(-1, 0, 2)
            f1 = TentField(Box(lo1, lo1 + rng.uniform(0.5, 1.5, 2)))
            ell = [-0.25, 0.0, 1.0, INF][k % 4]
            r = verify_bbl(BBLInstance(f0, f1, ell, 0.5, grid_points=512))
            assert r.ok, (k, r)

    def test_marginal_exponent_boundary(self):
        # ell = -1/n turns the right side into the minimum of the masses
        f0 = IndicatorField(Interval(0, 1))
        f1 = IndicatorField(Interval(0, 3))
        r = verify_bbl(BBLInstance(f0, f1, -1.0, 0.5))
        assert r.marginal_exponent == -INF
        assert r.rhs == pytest.approx(1.0, rel=1e-12)
        assert r.ok


# verify_bbl reports pinned to the bit: (f0, f1, ell, lam, grid) and the
# float.hex of lhs, rhs, tolerance, mass0, mass1.  A change to the point
# kernels, the ranking key or the grids that moves one bit fails here.
PINNED_REPORTS = [
    (
        ("indicator", Interval(-0.5, 1.0)), ("tent", Interval(0.25, 2.0)), -0.5, 0.3, 256,
        ("0x1.6cea2b57cef40p+0", "0x1.3c3c3c3c3c3c4p+0", "0x1.5913961c6cedbp-7",
         "0x1.8000000000000p+0", "0x1.c000000000000p-1"),
    ),
    (
        ("tent", Interval(-1.0, 0.5)), ("gauss", Interval(0.0, 1.5)), 0.0, 0.6, 256,
        ("0x1.2a35c99650893p-1", "0x1.06616d23b5174p-1", "0x1.40a8148e3f5b0p-9",
         "0x1.8000000000000p-1", "0x1.9718354cca764p-2"),
    ),
    (
        ("gauss", Interval(-2.0, -0.5)), ("indicator", Interval(-0.25, 0.75)), 1.0, 0.45, 256,
        ("0x1.79be5fef34829p-1", "0x1.1d6548c970c40p-1", "0x1.15b52959af25ep-11",
         "0x1.29cc0c2f68244p-2", "0x1.0000000000000p+0"),
    ),
    (
        ("indicator", Interval(0.0, 1.0)), ("tent", Interval(-1.5, 0.5)), INF, 0.7, 256,
        ("0x1.b333333333332p+0", "0x1.0000000000000p+0", "0x1.d34add7753996p-30",
         "0x1.0000000000000p+0", "0x1.0000000000000p+0"),
    ),
    (
        ("indicator", Box([-1.0, 0.25], [0.5, 1.5])),
        ("tent", Ball([0.2, -0.3], 0.7)), -0.25, 0.35, 400,
        ("0x1.6a5ddd5642bc4p+0", "0x1.13e93b1f72d92p+0", "0x1.c56afb381d6bdp-3",
         "0x1.e000000000000p+0", "0x1.06c73f3613253p-1"),
    ),
    (
        ("gauss", Ball([-0.4, 0.1], 0.6)),
        ("indicator", Box([0.0, -0.5], [1.25, 0.5])), 0.0, 0.5, 400,
        ("0x1.9d7078ad9f097p-2", "0x1.839450abecf9cp-2", "0x1.48b1ab462577ep-5",
         "0x1.d56e34aa8bc0cp-4", "0x1.4000000000000p+0"),
    ),
    (
        ("tent", Box([-0.75, -0.5], [0.25, 0.75])),
        ("gauss", Ball([0.3, 0.3], 0.85)), 1.0, 0.65, 400,
        ("0x1.2db5735b0835ap-1", "0x1.1bb23a96b7949p-2", "0x1.ec8f7cd9a32f3p-5",
         "0x1.acccccccccccdp-2", "0x1.ba8e30c387c8ap-3"),
    ),
    (
        ("tent", Ball([0.0, 0.0], 0.5)), ("indicator", Ball([0.5, -0.5], 0.9)), INF, 0.25, 400,
        ("0x1.2339c0ebedfa4p+0", "0x1.3a827f9b2d702p-1", "0x1.31764d4f295dep-5",
         "0x1.0c24212781403p-2", "0x1.47a0f9096bb98p+1"),
    ),
]


def pinned_instance(d0, d1, ell, lam, grid):
    return BBLInstance(data_field(*d0), data_field(*d1), ell, lam, grid)


class TestPinnedReports:
    @pytest.mark.parametrize("case", range(len(PINNED_REPORTS)))
    def test_report_bits(self, case):
        *spec, pinned = PINNED_REPORTS[case]
        r = verify_bbl(pinned_instance(*spec))
        got = (r.lhs, r.rhs, r.tolerance, r.mass0, r.mass1)
        assert tuple(float(v).hex() for v in got) == pinned
        assert r.ok

    @pytest.mark.xfail(
        strict=True,
        reason="known defect: the half-resolution tolerance is too small here, so a "
        "Brunn-Minkowski instance that holds is reported as a violation",
    )
    def test_indicator_ball_box_at_ell_inf(self):
        # a timed bbl_sweep job of the benchmark (seed 1203): margin -0.028451
        # against a tolerance of 0.028325
        f0 = IndicatorField(Ball([-0.005585374950129562, -0.42302079478660914], 0.756381476851805))
        f1 = IndicatorField(
            Box(
                [-0.34575540670731897, -0.25288266760938427],
                [0.23763685960883407, 0.5363229444602631],
            )
        )
        assert verify_bbl(BBLInstance(f0, f1, INF, 0.2807712710844342, 400)).ok


class TestProofStepConsistency:
    def test_weighted_product_bound_for_concave_weights(self):
        # for a q-concave weight psi and any nonnegative pair (v0, v1):
        # M_p(v0, v1) * psi(y_lam) >= M_ell(v0 psi(y0), v1 psi(y1)),
        # the pointwise estimate behind the sup-convolution bound
        rng = make_rng(59)
        psi = TentField(Interval(-1, 1))  # 1-concave
        q = 1.0
        for _ in range(500):
            p = rng.uniform(-q, 3.0)  # keeps p + q >= 0
            ell = holder_exponent(p, q)
            v0, v1 = rng.uniform(0, 5, 2)
            y0, y1 = rng.uniform(-1.2, 1.2, 2)
            lam = rng.uniform(0, 1)
            ylam = (1 - lam) * y0 + lam * y1
            lhs = mean_p(p, v0, v1, lam) * psi([ylam])
            rhs = mean_p(ell, v0 * psi([y0]), v1 * psi([y1]), lam)
            assert lhs >= rhs - 1e-12 * max(lhs, rhs, 1.0)

    def test_integral_of_sup_dominates_combined_convolutions(self):
        # the two data slices of a kernel-times-data product: the integral of
        # their sup-convolution dominates the mean of the two convolution
        # values at the endpoints
        psi = IndicatorField(Interval(-1, 1))
        gw = GaussWeierstrassKernel(1)
        x0, t0 = 0.3, 0.8
        x1, t1 = -0.4, 1.7
        lam = 0.4
        p, q = -1.0, INF
        ell = holder_exponent(p, q)  # -1 at the boundary -1/n

        f0 = ProductField([PullbackField(gw.slice_at(t0), scale=-1.0, shift=[x0]), psi])
        f1 = ProductField([PullbackField(gw.slice_at(t1), scale=-1.0, shift=[x1]), psi])
        inst = BBLInstance(f0, f1, ell, lam, grid_points=512)
        r = verify_bbl(inst)
        gamma0 = oracle_W_interval(-1, 1, x0, t0)
        gamma1 = oracle_W_interval(-1, 1, x1, t1)
        assert r.mass0 == pytest.approx(gamma0, abs=1e-4)
        assert r.mass1 == pytest.approx(gamma1, abs=1e-4)
        rhs = mean_p(-INF, gamma0, gamma1, lam)
        assert r.lhs >= rhs - r.tolerance - 1e-4


class TestJson:
    def test_instance_round_trip(self):
        data = {
            "f0": {"kind": "indicator", "body": {"kind": "interval", "a": 0, "b": 1}},
            "f1": {"kind": "indicator", "body": {"kind": "interval", "a": 2, "b": 4}},
            "ell": 0,
            "lambda": 0.5,
        }
        inst = from_json(data, BBLInstance)
        r = verify_bbl(inst)
        assert r.rhs == pytest.approx(math.sqrt(2.0))

    @pytest.mark.parametrize("ell", ["inf"])
    def test_infinite_exponent_writes_standard_json(self, ell):
        # every key given, so the written descriptor equals the one read
        body0 = {"kind": "interval", "a": 0, "b": 1}
        body1 = {"kind": "interval", "a": 2, "b": 4}
        data = {
            "kind": "bbl_instance",
            "f0": {"kind": "indicator", "body": body0, "height": 1.0},
            "f1": {"kind": "tent", "body": body1, "height": 1.0, "center": [3.0]},
            "ell": ell,
            "lambda": 0.5,
            "grid_points": 512,
        }
        inst = from_json(data, BBLInstance)
        text = json.dumps(inst.to_json(), allow_nan=False)
        assert json.loads(text) == data
        back = from_json(json.loads(text), BBLInstance)
        assert back.ell == inst.ell and back.to_json() == inst.to_json()

    def test_validation(self):
        with pytest.raises(ValueError):
            BBLInstance(
                IndicatorField(Interval(0, 1)), IndicatorField(Interval(0, 1)), -2.0, 0.5
            )
        with pytest.raises(ValueError):
            BBLInstance(
                IndicatorField(Interval(0, 1)), IndicatorField(Interval(0, 1)), 0.0, 1.0
            )
        with pytest.raises(ValueError):
            BBLInstance(
                GaussWeierstrassSlice(1, 1.0), IndicatorField(Interval(0, 1)), 0.0, 0.5
            )

    def test_exponent_just_below_minus_one_over_n_is_the_boundary(self):
        # the instance reads ell as bbl_exponent does: within 4 ulp below
        # -1/n is the boundary, whose marginal exponent is -inf
        ell = np.nextafter(-1.0, -2.0)
        inst = BBLInstance(IndicatorField(Interval(0, 1)), IndicatorField(Interval(2, 3)), ell, 0.5, 64)
        assert verify_bbl(inst).marginal_exponent == -INF
