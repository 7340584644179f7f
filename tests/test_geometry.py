import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from concavekit.geometry import (
    Ball,
    Box,
    ConvexCone,
    CylinderRegion,
    HatRegion,
    Interval,
    NotRepresentableError,
    Polytope,
    SpaceTimeBox,
    UnionRegion,
    body_from_json,
    chart_preimage,
    check_parabolic_convexity,
    coupling_core,
    interior_witness_outside,
    midpoint_axes,
    midpoint_grid,
    minkowski_combine,
    row_norm,
    rowwise,
    straightening_chart,
    support_of_combination,
    time_factor,
    time_scaled_region,
)
from concavekit.geometry import _MEMBERSHIP_TOL
from concavekit.sampling import make_rng


class TestSupport:
    def test_box(self):
        assert Box([-1, -1], [1, 1]).support([1, 0]) == 1.0

    def test_ball_offset(self):
        assert Ball([2, 0], 3.0).support([0, 1]) == pytest.approx(3.0)

    def test_polytope_vertex_max(self):
        p = Polytope([[0, 0], [1, 0], [0, 2]])
        assert p.support([0, 1]) == 2.0

    def test_sublinear_and_homogeneous_sampled(self):
        rng = make_rng(5)
        bodies = [
            Interval(-1, 2),
            Box([-1, 0], [2, 3]),
            Ball([0.5, -0.3], 1.2),
            Polytope([[0, 0], [2, 0], [1, 2], [-1, 1]]),
        ]
        for body in bodies:
            d = body.dim
            for _ in range(50):
                u = rng.normal(size=d)
                w = rng.normal(size=d)
                s = rng.uniform(0.1, 5)
                assert body.support(u + w) <= body.support(u) + body.support(w) + 1e-10
                assert body.support(s * u) == pytest.approx(s * body.support(u), rel=1e-12)

    def test_support_point_attains_value(self):
        rng = make_rng(6)
        for body in (Interval(-1, 2), Box([-1, 0], [2, 3]), Ball([0.0, 0.0], 2.0),
                     Polytope([[0, 0], [2, 0], [1, 2]])):
            for _ in range(20):
                u = rng.normal(size=body.dim)
                x = body.support_point(u)
                assert float(x @ u) == pytest.approx(body.support(u), rel=1e-12)
                assert body.contains(x, tol=1e-9)


class TestMinkowski:
    def test_interval_combination(self):
        r = minkowski_combine(0.5, Interval(0, 1), 0.5, Interval(2, 4))
        assert (r.a, r.b) == (1.0, 2.5)

    def test_identity_with_origin(self):
        K = Ball([0.0, 0.0], 1.0)
        r = minkowski_combine(1.0, K, 1.0, np.zeros(2))
        assert isinstance(r, Ball) and r.radius == 1.0

    def test_scaling_drops_zero_summand(self):
        r = minkowski_combine(2.0, Ball([0.0, 0.0], 1.0), 0.0, Box([-9, -9], [9, 9]))
        assert r.radius == 2.0

    def test_ball_with_box_not_representable(self):
        with pytest.raises(NotRepresentableError):
            minkowski_combine(1.0, Ball([0.0, 0.0], 1.0), 1.0, Box([-1, -1], [1, 1]))

    def test_support_consistency_sampled(self):
        rng = make_rng(7)
        pairs = [
            (Interval(-1, 2), Interval(0, 3)),
            (Box([-1, 0], [2, 3]), Box([0, -1], [1, 1])),
            (Ball([0.5, 0.0], 1.0), Ball([-0.5, 1.0], 0.7)),
            (Polytope([[0, 0], [2, 0], [1, 2]]), Box([-1, -1], [0, 0])),
        ]
        for X, Y in pairs:
            mu, nu = rng.uniform(0.1, 2, 2)
            Z = minkowski_combine(mu, X, nu, Y)
            for _ in range(30):
                u = rng.normal(size=X.dim)
                hz = Z.support(u)
                ref = mu * X.support(u) + nu * Y.support(u)
                assert hz == pytest.approx(ref, rel=1e-10, abs=1e-10)
                assert support_of_combination(mu, X, nu, Y, u) == pytest.approx(ref)

    def test_negative_scaling_reflects(self):
        r = minkowski_combine(-1.0, Interval(0, 2), 0.0, np.zeros(1))
        assert (r.a, r.b) == (-2.0, 0.0)

    def test_both_zero_rejected(self):
        with pytest.raises(ValueError):
            minkowski_combine(0.0, Interval(0, 1), 0.0, Interval(0, 1))


class TestCouplingCore:
    def test_coincident_pair_rejected(self):
        with pytest.raises(ValueError):
            coupling_core(Interval(0, 1), [0.0], [0.0], 1.0, 1.0, 1.0, 0.5)

    def test_single_point_core(self):
        core = coupling_core(Interval(0, 1), [0.0], [1.0], 1.0, 1.0, 1.0, 0.5)
        assert core.contains([0.5])
        assert not core.contains([0.51])
        assert not core.contains([0.49])

    def test_scaled_translate_intersection(self):
        core = coupling_core(Interval(-1, 1), [0.0], [0.0], 1.0, 4.0, 1.0, 0.5)
        lo, hi = core.bounding_box()
        assert lo[0] == pytest.approx(-0.625)
        assert hi[0] == pytest.approx(0.625)

    def test_decomposition_is_consistent(self):
        rng = make_rng(8)
        K = Interval(-1, 2)
        for _ in range(50):
            x0, x1 = rng.uniform(-1, 1, 2)
            t0, t1 = rng.uniform(0.5, 3, 2)
            lam = rng.uniform(0.1, 0.9)
            alpha = rng.uniform(0.2, 2)
            if (x0, t0) == (x1, t1):
                continue
            core = coupling_core(K, [x0], [x1], t0, t1, alpha, lam)
            y = rng.uniform(-2, 3, 1)
            y0, y1 = core.decompose(y)
            assert (1 - lam) * y0 + lam * y1 == pytest.approx(y)
            ray0 = (np.array([x0]) - y0) / t0**alpha
            ray1 = (np.array([x1]) - y1) / t1**alpha
            assert ray0 == pytest.approx(ray1)
            # membership iff the unique decomposition lands in K x K
            assert core.contains(y) == (
                K.contains(y0, tol=1e-9) and K.contains(y1, tol=1e-9)
            )

    def test_log_time_path_matches_rescaled_linear_path(self):
        # at alpha = 0 the time factors are log t, so the core of times
        # (t0, t1) equals the alpha = 1 core of times (log t0, log t1)
        K = Interval(-1, 1)
        x0, x1 = [0.3], [-0.2]
        t0, t1 = 2.0, 5.0
        lam = 0.4
        c0 = coupling_core(K, x0, x1, t0, t1, 0.0, lam)
        c1 = coupling_core(K, x0, x1, math.log(t0), math.log(t1), 1.0, lam)
        rng = make_rng(14)
        probes = rng.uniform(-2, 2, size=(200, 1))
        assert (c0.contains_many(probes) == c1.contains_many(probes)).all()

    def test_log_time_path_needs_late_times(self):
        with pytest.raises(ValueError):
            coupling_core(Interval(-1, 1), [0.0], [1.0], 0.5, 2.0, 0.0, 0.5)

    def test_membership_matches_grid_search(self):
        # enumerate y0 on a fine grid, recover y1 from the combination, and
        # accept when the ray-alignment residual is below the grid scale
        rng = make_rng(9)
        for trial in range(20):
            dim = 1 if trial % 2 == 0 else 2
            if dim == 1:
                K = Interval(*np.sort(rng.uniform(-2, 2, 2) + [0, 1.0]))
            else:
                lo = rng.uniform(-2, 0, 2)
                K = Box(lo, lo + rng.uniform(0.5, 2, 2))
            x0 = rng.uniform(-1, 1, dim)
            x1 = rng.uniform(-1, 1, dim)
            t0, t1 = rng.uniform(0.5, 3, 2)
            lam = rng.uniform(0.2, 0.8)
            alpha = rng.uniform(0.3, 1.5)
            core = coupling_core(K, x0, x1, t0, t1, alpha, lam)

            m = 41 if dim == 1 else 21
            klo, khi = K.bounding_box()
            axes = [np.linspace(klo[i], khi[i], m) for i in range(dim)]
            grid = np.stack([g.reshape(-1) for g in np.meshgrid(*axes, indexing="ij")], axis=1)
            h = float(np.max((khi - klo) / (m - 1)))
            # per-axis sensitivity of the alignment residual to a y0 step
            slope = 1.0 / t0**alpha + (1 - lam) / (lam * t1**alpha)
            res_tol = 0.75 * slope * h * math.sqrt(dim)
            layer = (1.0 + (1 - lam) / lam) * h

            ylo = np.minimum(klo * 2, -np.ones(dim) * 3)
            yhi = np.maximum(khi * 2, np.ones(dim) * 3)
            probes = rng.uniform(ylo, yhi, size=(40, dim))
            for y in probes:
                y1 = (y[None, :] - (1 - lam) * grid) / lam
                ok = K.contains_many(y1, tol=1e-9)
                res = np.linalg.norm(
                    (x0 - grid) / t0**alpha - (x1 - y1) / t1**alpha, axis=1
                )
                found = bool((ok & (res < res_tol)).any())
                exact = core.contains(y)
                if found != exact:
                    # disagreement is only allowed within a boundary layer
                    y0x, y1x = core.decompose(y)
                    d_edge = min(
                        np.min(np.abs(np.concatenate([y0x - klo, khi - y0x]))),
                        np.min(np.abs(np.concatenate([y1x - klo, khi - y1x]))),
                    )
                    assert d_edge <= layer


class TestCoreComplementWitness:
    def test_random_instances(self):
        from concavekit.geometry import core_complement_witness

        rng = make_rng(77)
        for trial in range(60):
            dim = 1 if trial % 2 == 0 else 2
            if dim == 1:
                K = Interval(*np.sort(rng.uniform(-2, 2, 2) + [0, 1.0]))
            else:
                lo = rng.uniform(-2, 0, 2)
                K = Box(lo, lo + rng.uniform(0.5, 2, 2))
            core = coupling_core(
                K,
                rng.uniform(-1, 1, dim),
                rng.uniform(-1, 1, dim),
                rng.uniform(0.5, 3),
                rng.uniform(0.5, 3),
                rng.uniform(0.3, 1.5),
                rng.uniform(0.1, 0.9),
            )
            y = core_complement_witness(K, core)
            assert K.is_interior(y)
            assert not core.contains(y, tol=0.0)

    def test_equal_times_use_the_shift(self):
        from concavekit.geometry import core_complement_witness

        core = coupling_core(Interval(0, 1), [0.0], [0.6], 1.3, 1.3, 1.0, 0.4)
        assert core.scale0 == pytest.approx(1.0) and core.scale1 == pytest.approx(1.0)
        y = core_complement_witness(Interval(0, 1), core)
        assert Interval(0, 1).is_interior(y)
        assert not core.contains(y)


class TestInteriorWitness:
    def test_shrunken_interval(self):
        y = interior_witness_outside(Interval(0, 1), 0.5, 0.0, [1.0])
        assert 0.5 < y[0] < 1.0

    def test_shifted_interval(self):
        y = interior_witness_outside(Interval(0, 1), 1.0, 0.25, [1.0])
        assert 0.75 < y[0] < 1.0

    def test_disc(self):
        y = interior_witness_outside(Ball([0.0, 0.0], 1.0), 0.9, 0.0, [1.0, 0.0])
        assert y @ np.array([1.0, 0.0]) > 0.9

    def test_identity_shift_rejected(self):
        with pytest.raises(ValueError):
            interior_witness_outside(Interval(0, 1), 1.0, 0.0, [1.0])

    def test_opposite_direction_branch(self):
        # shrinking toward a body living on the positive side of v forces the
        # gap to open at -v
        body = Interval(2.0, 3.0)
        y = interior_witness_outside(body, 0.5, 0.0, [1.0])
        assert body.is_interior(y)
        assert not body.contains((y + 0.0) / 0.5, tol=0.0)

    def test_randomized_contract(self):
        rng = make_rng(10)
        bodies = [Interval(-1, 2), Box([-1, 0], [1, 2]), Ball([0.3, -0.2], 1.5),
                  Polytope([[0, 0], [2, 0], [1, 2], [-1, 1]])]
        for body in bodies:
            for _ in range(25):
                s = rng.uniform(0.3, 1.0)
                mu = rng.uniform(0.0, 0.5)
                if s == 1.0 and mu == 0.0:
                    continue
                v = rng.normal(size=body.dim)
                v /= np.linalg.norm(v)
                y = interior_witness_outside(body, s, mu, v)
                assert body.is_interior(y)
                assert not body.contains((y + mu * v) / s, tol=0.0)


class TestRegions:
    def test_cone_region_is_product(self):
        cone = ConvexCone.orthant(1)
        E = time_scaled_region(cone, 1.0)
        assert E.contains([2.0], 5.0)
        assert not E.contains([-1.0], 5.0)
        # for a cone the region does not depend on t at all
        rng = make_rng(11)
        for _ in range(50):
            x = rng.uniform(-1, 1, 1)
            t0, t1 = rng.uniform(0.1, 10, 2)
            assert E.contains(x, t0) == E.contains(x, t1)

    def test_full_space_cone(self):
        E = time_scaled_region(ConvexCone.full_space(2), 0.7)
        assert E.contains([5.0, -3.0], 0.01)

    def test_body_region_ratio(self):
        E = time_scaled_region(Interval(0, 1), 1.0)
        assert E.contains([1.0], 2.0)
        assert not E.contains([3.0], 2.0)

    def test_chart_values(self):
        E = time_scaled_region(Interval(0, 1), 1.0)
        assert straightening_chart(E, [2.0], 2.0) == pytest.approx([1.0, 0.5])
        assert straightening_chart(E, [3.0], 1.0) == pytest.approx([3.0, 1.0])
        E0 = time_scaled_region(Interval(0, 1), 0.0)
        assert straightening_chart(E0, [3.0], math.e) == pytest.approx([3.0, 1.0])
        with pytest.raises(ValueError):
            straightening_chart(E0, [1.0], 0.5)

    def test_log_time_region_conjugation(self):
        # membership in the log-time region at (x, t) equals membership in
        # the linear-time region at (x, log t)
        A = Interval(-1, 1)
        E0 = time_scaled_region(A, 0.0, t_range=(1.5, 6.0))
        E1 = time_scaled_region(A, 1.0, t_range=(math.log(1.5), math.log(6.0)))
        rng = make_rng(12)
        for _ in range(200):
            x = rng.uniform(-3, 3, 1)
            t = rng.uniform(1.5, 6.0)
            assert E0.contains(x, t) == E1.contains(x, math.log(t))

    @pytest.mark.parametrize(
        "region",
        [
            time_scaled_region(Ball([0.0, 0.0], 1.0), 1.0),
            time_scaled_region(Box([-1.0], [1.0]), 1.0),
            time_scaled_region(Interval(-2, -0.5), 0.5),
            time_scaled_region(Interval(0.5, 2.0), 0.0),
            CylinderRegion(Ball([0.0, 0.0], 1.0), 0.5, 2.0, 0.5),
        ],
    )
    def test_convex_constructions_pass(self, region):
        rep = check_parabolic_convexity(region, samples=600, seed=21)
        assert rep.verdict == rep.chart_verdict == rep.direct_verdict == "pass"

    def test_disjoint_union_fails_with_witness(self):
        u = UnionRegion(
            [
                CylinderRegion(Interval(-2, -1), 0.5, 2.0, 0.5),
                CylinderRegion(Interval(1, 2), 0.5, 2.0, 0.5),
            ]
        )
        rep = check_parabolic_convexity(u, samples=600, seed=22)
        assert rep.verdict == "violation"
        w = rep.witness
        assert w is not None
        # the witness re-evaluates to a failure
        from concavekit.means import mean_p

        t = mean_p(u.alpha, w["t0"], w["t1"], w["lambda"])
        x = (1 - w["lambda"]) * np.array(w["x0"]) + w["lambda"] * np.array(w["x1"])
        assert not u.contains(x, float(t))

    def test_time_slices_of_convex_region_are_convex(self):
        # fixed-t slices of a region passing the parabolic check are convex:
        # same-time pairs combine with an unchanged time coordinate
        E = time_scaled_region(Ball([0.0, 0.0], 1.0), 1.0)
        assert check_parabolic_convexity(E, samples=400, seed=23).verdict == "pass"
        rng = make_rng(23)
        for t in (0.6, 1.0, 1.8):
            slice_pts = []
            while len(slice_pts) < 60:
                x = rng.uniform(E.x_lo, E.x_hi)
                if E.contains(x, t):
                    slice_pts.append(x)
            pts = np.array(slice_pts)
            lam = rng.uniform(0, 1, 60)
            other = pts[rng.permutation(60)]
            comb = (1 - lam)[:, None] * pts + lam[:, None] * other
            assert E.contains_many(comb, np.full(60, t)).all()


class TestPolytope3d:
    def test_octahedron_queries(self):
        verts = np.vstack([np.eye(3), -np.eye(3)])
        body = Polytope(verts)
        assert body.support([1.0, 0.0, 0.0]) == 1.0
        assert body.support(np.ones(3) / math.sqrt(3)) == pytest.approx(1 / math.sqrt(3))
        assert body.contains([0.2, 0.2, 0.2])
        assert not body.contains([0.5, 0.5, 0.5])
        assert body.volume() == pytest.approx(4.0 / 3.0, rel=1e-12)
        assert body.surface_area() == pytest.approx(4.0 * math.sqrt(3.0), rel=1e-12)
        pts = body.sample(make_rng(15), 200)
        assert body.contains_many(pts).all()


class TestPolytopeFacetPoints:
    def test_membership_does_not_depend_on_the_batch(self):
        # points on the facet planes of random hulls sit exactly where the
        # rounding of a_i.x decides membership at tol = 0; a point must get
        # the same answer alone as in a batch
        from scipy.spatial import ConvexHull

        rng = make_rng(37)
        for k in range(50):
            dim = 2 + k % 2
            poly = Polytope(rng.normal(size=(4 + 3 * dim, dim)))
            for simplex in ConvexHull(poly.vertices).simplices:
                pts = rng.dirichlet(np.ones(dim), size=8) @ poly.vertices[simplex]
                alone = [poly.contains(x, tol=0.0) for x in pts]
                assert poly.contains_many(pts, tol=0.0).tolist() == alone
                z = poly.interior_point()
                g = poly.gauge(pts, z)
                assert all(poly.gauge(x[None, :], z)[0] == gi for x, gi in zip(pts, g))


class TestHalfSpaceAndJson:
    def test_body_json_round_trip(self):
        bodies = [
            Interval(-1, 2),
            Box([-1, 0], [2, 3]),
            Ball([0.5, -0.5], 1.25),
            Polytope([[0, 0], [2, 0], [1, 2]]),
        ]
        rng = make_rng(13)
        for body in bodies:
            clone = body_from_json(body.to_json())
            pts = rng.uniform(-3, 3, size=(100, body.dim))
            assert (clone.contains_many(pts) == body.contains_many(pts)).all()

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            body_from_json({"kind": "torus"})


class TestSpaceTimeBox:
    def test_validation(self):
        with pytest.raises(ValueError):
            SpaceTimeBox(Interval(-1, 1), -0.5, 1.0)

    def test_sampling_stays_inside(self):
        stb = SpaceTimeBox(Interval(-1, 1), 0.5, 2.0)
        X, T = stb.sample(make_rng(1), 100)
        assert ((T >= 0.5) & (T <= 2.0)).all()
        assert ((X >= -1) & (X <= 1)).all()


def _bits(a):
    return np.asarray(a).view(np.uint64)


def _reduce_membership(body, p, tol):
    """Membership as the reduce expressions over axis 1 that contains_many replaced."""
    if isinstance(body, Interval):
        x = p[:, 0]
        return (x >= body.a - tol) & (x <= body.b + tol)
    if isinstance(body, Box):
        return ((p >= body.lo - tol) & (p <= body.hi + tol)).all(axis=1)
    if isinstance(body, Ball):
        return np.linalg.norm(p - body.center, axis=1) <= body.radius + tol
    if isinstance(body, Polytope):
        # facet values summed coordinate by coordinate, so no row's bits
        # depend on the batch it is tested in
        eq = body._equations
        dots = sum(p[:, j : j + 1] * eq[:, j] for j in range(body.dim))
        return (dots + eq[:, -1] <= tol).all(axis=1)
    return (p @ body.normals.T <= tol).all(axis=1)


def _near_boundary(boundary, normals, rng, spread):
    """Boundary points, shifted along each normal by 0, +-tol and +-2 tol, plus random points."""
    steps = _MEMBERSHIP_TOL * np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
    shifted = boundary[:, None, None, :] + steps[None, :, None, None] * normals[None, None, :, :]
    dim = boundary.shape[1]
    return np.vstack([shifted.reshape(-1, dim), rng.uniform(-spread, spread, (200, dim))])


def _regular_polygon(k, radius=1.0):
    ang = 2 * np.pi * np.arange(k) / k
    return radius * np.stack([np.cos(ang), np.sin(ang)], axis=1)


class TestRowKernels:
    """rowwise/row_norm give the bits of numpy's axis-1 reductions, at every width."""

    @staticmethod
    def data(rng, m, n):
        A = rng.standard_normal((m, n)) * 10.0 ** rng.uniform(-8, 8, (m, n))
        special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1e-310, -1e-310])
        hit = rng.uniform(size=A.shape) < 0.2
        A[hit] = rng.choice(special, hit.sum())
        A[:3] = -0.0
        return A

    @pytest.mark.parametrize("n", range(1, 11))
    @pytest.mark.parametrize("m", [1, 5, 4000])
    def test_matches_reduce(self, n, m):
        A = self.data(make_rng(70 + n), max(m, 3), n)[:m]
        with np.errstate(invalid="ignore", over="ignore"):
            for u in (np.maximum, np.minimum):
                assert np.array_equal(_bits(rowwise(u, A)), _bits(u.reduce(A, axis=1))), u
            # numpy's sum starts from +0.0: adding +0.0 maps only -0.0 to +0.0
            assert np.array_equal(_bits(rowwise(np.add, A) + 0.0), _bits(A.sum(axis=1)))
            assert np.array_equal(_bits(row_norm(A)), _bits(np.linalg.norm(A, axis=1)))
        B = A > 0
        assert np.array_equal(rowwise(np.logical_and, B), B.all(axis=1))

    def test_layouts(self):
        # a column view of a wider array and a Fortran-ordered copy
        A = self.data(make_rng(80), 500, 9)
        for view in (A[:, 2:5], np.asfortranarray(A[:, :4]), A[::3, :2]):
            with np.errstate(invalid="ignore", over="ignore"):
                assert np.array_equal(_bits(rowwise(np.add, view) + 0.0), _bits(view.sum(axis=1)))
                assert np.array_equal(_bits(row_norm(view)), _bits(np.linalg.norm(view, axis=1)))

    @pytest.mark.parametrize(
        "body",
        [
            Interval(-0.75, 1.25),
            Box([-1.0, 0.25], [0.5, 2.0]),
            Box(-np.arange(1, 10) / 3.0, np.arange(1, 10) / 2.0),
            Ball([0.3, -0.2], 0.8),
            Ball([0.1, 0.2, -0.3], 1.7),
            Polytope([[0.0, 0.0], [2.0, 0.0], [0.5, 1.5]]),
            Polytope(_regular_polygon(12, 1.3)),
            Polytope(np.vstack([np.eye(3), -np.eye(3)])),
            ConvexCone.orthant(2),
            ConvexCone.orthant(3, [1.0, -1.0, 1.0]),
            ConvexCone(2, -_regular_polygon(36)[:9]),
        ],
        ids=lambda b: type(b).__name__,
    )
    def test_contains_many_matches_reduce(self, body):
        rng = make_rng(90)
        dim = body.dim
        if isinstance(body, Interval):
            boundary, normals = np.array([[body.a], [body.b]]), np.ones((1, 1))
        elif isinstance(body, Box):
            mid = 0.5 * (body.lo + body.hi)
            axis = np.arange(dim)
            faces = [np.where(axis == i, side[i], mid) for side in (body.lo, body.hi) for i in axis]
            boundary, normals = np.vstack(faces + [body.lo, body.hi]), np.eye(dim)
        elif isinstance(body, Ball):
            u = rng.standard_normal((16, dim))
            u /= np.linalg.norm(u, axis=1, keepdims=True)
            boundary, normals = body.center + body.radius * np.vstack([u, np.eye(dim)]), np.eye(dim)
        elif isinstance(body, Polytope):
            v = body.vertices
            boundary = np.vstack([v, 0.5 * (v + np.roll(v, 1, axis=0))])
            normals = body._equations[:, :-1]
        else:
            boundary = np.vstack([np.zeros(dim), np.eye(dim), -np.eye(dim)])
            normals = np.vstack([np.eye(dim), body.normals])
        pts = _near_boundary(boundary, normals, rng, 2.5)
        for tol in (0.0, _MEMBERSHIP_TOL, -1e-9):
            got = body.contains_many(pts, tol)
            assert np.array_equal(got, _reduce_membership(body, pts, tol))
            # a point alone gets its row's answer: the optimizer filters its
            # starts in batches and bisects segments one point at a time
            assert [body.contains(x, tol) for x in pts] == got.tolist()
        assert 0 < got.sum() < len(pts)

    @pytest.mark.parametrize(
        "region",
        [
            SpaceTimeBox(Interval(-0.75, 1.25), 0.5, 2.0),
            SpaceTimeBox(Ball([0.3, -0.2], 0.8), 0.5, 2.0),
            HatRegion(Ball([0.3, -0.2], 0.8), 0.5),
            HatRegion(Polytope(_regular_polygon(12, 1.3)), 0.0),
            CylinderRegion(Ball([0.1, 0.2, -0.3], 1.7), 0.5, 2.0, 1.0),
            CylinderRegion(Polytope([[0.0, 0.0], [2.0, 0.0], [0.5, 1.5]]), 0.5, 2.0, 0.5),
        ],
        ids=lambda r: f"{type(r).__name__}-{type(getattr(r, 'body', getattr(r, 'base', None))).__name__}",
    )
    def test_space_time_point_alone_matches_its_row(self, region):
        # points on the base's boundary (scaled by f(t) for a hat region) and
        # at the end times, shifted by 0, +-tol and +-2 tol, plus random points
        rng = make_rng(91)
        body = region.body if isinstance(region, SpaceTimeBox) else region.base
        c = body.interior_point()
        d = rng.standard_normal((40, body.dim))
        d /= row_norm(d)[:, None]
        steps = _MEMBERSHIP_TOL * np.array([-2.0, -1.0, 0.0, 1.0, 2.0])
        edge = c + d / body.gauge(c + d, c)[:, None]
        U = (edge[:, None, :] + steps[None, :, None] * d[:, None, :]).reshape(-1, body.dim)
        T = np.concatenate([rng.uniform(region.t_lo, region.t_hi, len(U)),
                            np.repeat([region.t_lo, region.t_hi], 5) * (1.0 + np.tile(steps, 2))])
        U = np.vstack([U, np.tile(c, (10, 1))])
        if isinstance(region, HatRegion):
            U *= time_factor(T, region.alpha)[:, None]
        P = np.vstack([np.column_stack([U, T]), rng.uniform(-3.0, 4.0, (200, body.dim + 1))])
        got = region.contains_many(P[:, :-1], P[:, -1])
        # the optimizer's one-row test of a joint (x, t) point, and contains
        assert [region.contains_many(P[i : i + 1, :-1], P[i : i + 1, -1])[0] for i in range(len(P))] == got.tolist()
        assert [region.contains(p[:-1], p[-1]) for p in P] == got.tolist()
        assert 0 < got[:-200].sum() < len(P) - 200


def _bisect_gauge(body, P, z, steps=120):
    """Reference gauge: bisection on exact membership along each ray from z."""
    out = np.zeros(len(P))
    for i, x in enumerate(P):
        d = x - z
        if not d.any():
            continue
        lo, hi = 0.0, 1.0  # z + d/hi is inside, z + d/lo outside (lo = 0: at infinity)
        while not body.contains(z + d / hi, tol=0.0):
            lo, hi = hi, 2.0 * hi
        for _ in range(steps):
            mid = 0.5 * (lo + hi)
            if lo == 0.0 and mid == hi:
                break
            if body.contains(z + d / mid, tol=0.0):
                hi = mid
            else:
                lo = mid
        out[i] = hi
    return out


# (body, anchor z): every kind, off-centre anchors, 1-d and 3-d polytopes
GAUGE_CASES = [
    (Interval(-0.75, 1.25), [0.1]),
    (Box([-1.0, 0.25], [0.5, 2.0]), [-0.2, 1.0]),
    (Box([-1.0, -2.0, 0.0], [1.0, 0.5, 3.0]), [0.3, -0.4, 2.2]),
    (Ball([0.3, -0.2], 0.8), [0.3, -0.2]),
    (Ball([0.3, -0.2], 0.8), [0.65, 0.1]),
    (Ball([0.1, 0.2, -0.3], 1.7), [-0.9, 0.6, 0.4]),
    (Ball([0.5], 2.0), [-1.0]),
    (Polytope([[-0.5], [0.3], [1.5]]), [1.2]),
    (Polytope([[0.0, 0.0], [2.0, 0.0], [0.5, 1.5]]), [0.9, 0.4]),
    (Polytope(_regular_polygon(12, 1.3)), [-0.3, 0.5]),
    (Polytope(np.vstack([np.eye(3), -np.eye(3), [[0.4, 0.4, 0.4]]])), [0.1, 0.2, -0.3]),
]
GAUGE_IDS = [f"{type(b).__name__}{b.dim}d-{k}" for k, (b, _) in enumerate(GAUGE_CASES)]


class TestMidpointGrid:
    @given(
        bounds=st.integers(1, 3).flatmap(
            lambda n: st.lists(st.tuples(st.floats(-1e3, 1e3), st.floats(1e-6, 1e3)), min_size=n, max_size=n)
        ),
        ppa=st.integers(1, 64),
    )
    @settings(max_examples=80, deadline=None)
    def test_bytes_equal_the_meshgrid_construction(self, bounds, ppa):
        lo = np.array([a for a, _ in bounds])
        hi = lo + [w for _, w in bounds]
        pts, cell = midpoint_grid(lo, hi, ppa)
        mesh = np.meshgrid(*midpoint_axes(lo, hi, ppa), indexing="ij")
        ref = np.stack([m.reshape(-1) for m in mesh], axis=1)
        assert pts.shape == ref.shape and pts.tobytes() == ref.tobytes()
        assert cell == float(np.prod((hi - lo) / ppa))


@pytest.mark.parametrize("body, z", GAUGE_CASES, ids=GAUGE_IDS)
class TestGauge:
    def test_one_at_support_points(self, body, z):
        z = np.asarray(z, dtype=float)
        u = make_rng(31).standard_normal((40, body.dim))
        X = np.array([body.support_point(w) for w in u])
        assert np.allclose(body.gauge(X, z), 1.0, rtol=0.0, atol=1e-12)

    def test_positively_homogeneous(self, body, z):
        z = np.asarray(z, dtype=float)
        rng = make_rng(32)
        P = rng.uniform(-3.0, 3.0, (200, body.dim))
        # away from z, so that rounding z + s (x - z) moves x - z by few ulps
        P = P[row_norm(P - z) > 0.5]
        g = body.gauge(P, z)
        assert (g > 0).all() and body.gauge(z[None, :], z)[0] == 0.0
        for s in (0.125, 0.37, 2.5, 1e4):
            assert np.allclose(body.gauge(z + s * (P - z), z), s * g, rtol=1e-12, atol=0.0)

    def test_matches_bisection(self, body, z):
        z = np.asarray(z, dtype=float)
        P = make_rng(33).uniform(-2.5, 2.5, (60, body.dim))
        ref = _bisect_gauge(body, P, z)
        assert np.allclose(body.gauge(P, z), ref, rtol=1e-12, atol=0.0)


class TestGaugeFormulas:
    """Box, Interval and centred-ball gauges keep their earlier closed forms, bit for bit."""

    def test_interval(self):
        body, z = Interval(-0.75, 1.25), np.array([0.1])
        P = make_rng(34).uniform(-3, 3, (500, 1))
        x = P[:, 0]
        ref = np.maximum((x - z[0]) / (body.b - z[0]), (z[0] - x) / (z[0] - body.a))
        assert np.array_equal(_bits(body.gauge(P, z)), _bits(ref))

    @pytest.mark.parametrize("dim", [1, 2, 3, 9])
    def test_box(self, dim):
        rng = make_rng(35 + dim)
        lo = -rng.uniform(0.5, 2.0, dim)
        hi = rng.uniform(0.5, 2.0, dim)
        body, z = Box(lo, hi), rng.uniform(-0.4, 0.4, dim)
        P = rng.uniform(-3, 3, (500, dim))
        ref = np.maximum((P - z) / (hi - z), (z - P) / (z - lo)).max(axis=1)
        assert np.array_equal(_bits(body.gauge(P, z)), _bits(ref))

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_centred_ball(self, dim):
        rng = make_rng(40 + dim)
        body = Ball(rng.uniform(-1, 1, dim), 1.3)
        P = rng.uniform(-3, 3, (500, dim))
        ref = np.linalg.norm(P - body.center, axis=1) / body.radius
        assert np.array_equal(_bits(body.gauge(P, body.interior_point())), _bits(ref))


def _old_interval_queries(a, b, u, seed, k):
    """The queries of the former standalone Interval class, as it computed them."""
    return {
        "support": b * u if u >= 0 else a * u,
        "support_point": np.array([b if u >= 0 else a]),
        "sample": make_rng(seed).uniform(a, b, size=(k, 1)),
        "diameter": b - a,
        "volume": b - a,
        "bounding_box": (np.array([a]), np.array([b])),
        "interior_point": np.array([0.5 * (a + b)]),
    }


class TestIntervalIsBox:
    @staticmethod
    def queries(body, u, seed, k):
        return {
            "support": body.support(u),
            "support_point": body.support_point(u),
            "sample": body.sample(make_rng(seed), k),
            "diameter": body.diameter(),
            "volume": body.volume(),
            "bounding_box": body.bounding_box(),
            "interior_point": body.interior_point(),
        }

    @pytest.mark.parametrize("a, b", [(-0.75, 1.25), (0.0, 1.0), (1e-8, 3e-8), (-2e6, 1.5e7)])
    def test_queries_match_box_and_former_formulas(self, a, b):
        interval, box = Interval(a, b), Box([a], [b])
        pts = np.vstack([[[a], [b], [0.5 * (a + b)]], make_rng(50).uniform(2 * a - b, 2 * b - a, (200, 1))])
        for tol in (0.0, _MEMBERSHIP_TOL, -1e-9):
            got = interval.contains_many(pts, tol)
            assert np.array_equal(got, box.contains_many(pts, tol))
            x = pts[:, 0]
            assert np.array_equal(got, (x >= a - tol) & (x <= b + tol))
        for k, u in enumerate((1.0, -2.5, 3e-300, -7e-310)):
            mine, as_box = self.queries(interval, u, k, 7), self.queries(box, u, k, 7)
            former = _old_interval_queries(a, b, u, k, 7)
            for name, value in mine.items():
                assert type(value) is type(as_box[name])
                for p, q, r in zip(*(np.atleast_1d(v) for v in (value, as_box[name], former[name]))):
                    assert np.array_equal(_bits(p), _bits(q))
                    # the former support kept the sign of a zero result; numpy's sum drops it
                    assert np.array_equal(p, r) if name == "support" else np.array_equal(_bits(p), _bits(r))

    def test_validation(self):
        for a, b in ((1.0, 1.0), (2.0, 1.0), (0.0, math.nan)):
            with pytest.raises(ValueError):
                Interval(a, b)


class TestIntervalAlgebra:
    """Scaled, shifted and combined Intervals stay Intervals, with the same JSON and repr."""

    @pytest.mark.parametrize(
        "result, a, b",
        [
            (minkowski_combine(2.0, Interval(0, 1), 1.0, [0.5]), 0.5, 2.5),
            (minkowski_combine(-2.0, Interval(0, 1), 0.0, np.zeros(1)), -2.0, 0.0),
            (minkowski_combine(-2.0, Interval(0, 1), 0.0, Interval(0, 1)), -2.0, -0.0),
            (minkowski_combine(0.5, Interval(0, 1), 0.5, Interval(2, 4)), 1.0, 2.5),
            (minkowski_combine(1.0, Interval(0, 1), 1.0, Box([1.0], [2.0])), 1.0, 3.0),
            (minkowski_combine(1.0, Box([1.0], [2.0]), -1.0, Interval(0, 1)), 0.0, 2.0),
            (minkowski_combine(0.0, Box([5.0], [6.0]), 3.0, Interval(-1, 1)), -3.0, 3.0),
        ],
    )
    def test_stays_interval(self, result, a, b):
        assert type(result) is Interval
        assert repr(result) == f"Interval(a={a!r}, b={b!r})"
        assert result.to_json() == {"kind": "interval", "a": a, "b": b}
        clone = body_from_json(result.to_json())
        assert type(clone) is Interval and repr(clone) == repr(result)

    def test_one_dimensional_boxes_stay_boxes(self):
        r = minkowski_combine(1.0, Box([0.0], [1.0]), 2.0, Box([1.0], [2.0]))
        assert type(r) is Box and r.to_json() == {"kind": "box", "lo": [2.0], "hi": [5.0]}

    def test_with_polytope(self):
        r = minkowski_combine(1.0, Interval(0, 1), 1.0, Polytope([[-1.0], [0.5]]))
        assert isinstance(r, Polytope)
        assert r.bounding_box() == (np.array([-1.0]), np.array([1.5]))
        assert r.volume() == 2.5

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            minkowski_combine(1.0, Box([0.0, 0.0], [1.0, 1.0]), 1.0, Interval(0, 1))


def _hex(v):
    """Exact hex of a float, or of each float in an array or list."""
    a = np.asarray(v, dtype=float)
    return a.item().hex() if a.ndim == 0 else [float(u).hex() for u in a]


TIME_SCALE_ALPHAS = (0.0, 0.5, 1.0)

# two disjoint unions (violations at every seed), a cone and a cylinder
PINNED_REGIONS = {
    "union_alpha_half": lambda: UnionRegion(
        [CylinderRegion(Interval(-2, -1), 0.5, 2.0, 0.5),
         CylinderRegion(Interval(1, 2), 0.5, 2.0, 0.5)]
    ),
    "union_alpha0": lambda: UnionRegion(
        [time_scaled_region(Interval(-2, -1), 0.0), time_scaled_region(Interval(1, 2), 0.0)]
    ),
    "orthant_cone": lambda: time_scaled_region(ConvexCone.orthant(2), 0.7),
    "ball_cylinder": lambda: CylinderRegion(Ball([0.0, 0.0], 1.0), 0.5, 2.0, 0.5),
}


def _time_scale_table():
    """Region reports, chart values and coupling cores, every float as hex."""
    regions = {}
    for name, make in PINNED_REGIONS.items():
        for seed in range(4):
            rep = check_parabolic_convexity(make(), samples=1500, seed=seed).to_json()
            if rep["witness"] is not None:
                rep["witness"] = {k: _hex(v) for k, v in rep["witness"].items()}
            regions[f"{name}/seed{seed}"] = rep
    charts, cores = {}, {}
    for alpha in TIME_SCALE_ALPHAS:
        E = time_scaled_region(Ball([0.0, 0.0], 1.0), alpha)
        rng = make_rng(0)
        X, T = rng.uniform(-2, 2, (5, 2)), rng.uniform(1.5, 4.0, 5)
        rows = []
        for x, t in zip(X, T):
            w = straightening_chart(E, x, t)
            xp, tp = chart_preimage(E, w)
            rows.append({"x": _hex(x), "t": _hex(t), "chart": _hex(w),
                         "preimage_x": _hex(xp), "preimage_t": _hex(tp)})
        charts[str(alpha)] = rows
        rows = []
        for _ in range(3):
            x0, x1 = rng.uniform(-0.5, 0.5, (2, 2))
            t0, t1 = rng.uniform(1.5, 4.0, 2)
            lam = rng.uniform(0.1, 0.9)
            c = coupling_core(Ball([0.0, 0.0], 1.0), x0, x1, t0, t1, alpha, lam)
            rows.append({k: _hex(getattr(c, k))
                         for k in ("f0", "f1", "scale0", "shift0", "scale1", "shift1")})
        cores[str(alpha)] = rows
    return {"regions": regions, "charts": charts, "cores": cores}


class TestTimeFactor:
    def test_values(self):
        T = np.array([1.5, 2.0, 4.0])
        assert _bits(time_factor(T, 0.0)).tolist() == _bits(np.log(T)).tolist()
        assert time_factor(T, 0.5) == pytest.approx(np.sqrt(T), rel=1e-15)
        assert time_factor(T, 1.0).tolist() == T.tolist()
        assert time_factor(4.0, -1.0) == 0.25

    @pytest.mark.parametrize(
        "alpha, bad",
        [(0.0, 1.0), (0.0, 0.5), (0.0, -2.0), (0.5, 0.0), (1.0, -1.0), (0.5, math.nan)],
    )
    def test_refuses_times_outside_the_domain(self, alpha, bad):
        with pytest.raises(ValueError, match="needs times >"):
            time_factor(bad, alpha)
        with pytest.raises(ValueError, match="needs times >"):
            time_factor([2.0, bad, 3.0], alpha)

    def test_hat_region_excludes_those_times(self):
        # membership says no instead of refusing
        E = time_scaled_region(Interval(-1, 1), 0.0)
        assert E.contains_many(np.zeros((3, 1)), [0.5, 1.0, 2.0]).tolist() == [False, False, True]

    def test_region_needs_times_in_the_domain(self):
        with pytest.raises(ValueError):
            time_scaled_region(Interval(-1, 1), 0.0, t_range=(1.0, 2.0))
        with pytest.raises(ValueError):
            CylinderRegion(Interval(-1, 1), 0.0, 2.0, 0.5)


class TestChartBatch:
    @pytest.mark.parametrize("alpha", [0.0, 0.5, 0.7, 1.0, -0.3])
    def test_batch_equals_points(self, alpha):
        """Rows through the chart and its preimage give each point's bits."""
        E = time_scaled_region(Ball([0.0, 0.0], 1.0), alpha)
        rng = make_rng(5)
        X, T = rng.uniform(-2, 2, (300, 2)), rng.uniform(1.1, 6.0, 300)
        W = straightening_chart(E, X, T)
        assert W.shape == (300, 3)
        one = np.array([straightening_chart(E, x, t) for x, t in zip(X, T)])
        assert (_bits(W) == _bits(one)).all()
        Xp, Tp = chart_preimage(E, W)
        assert Xp.shape == (300, 2) and Tp.shape == (300,)
        pre = [chart_preimage(E, w) for w in W]
        assert (_bits(Xp) == _bits([p[0] for p in pre])).all()
        assert (_bits(Tp) == _bits([p[1] for p in pre])).all()
        assert Xp == pytest.approx(X, rel=1e-12) and Tp == pytest.approx(T, rel=1e-12)

    def test_one_point_keeps_its_shapes(self):
        E = time_scaled_region(Interval(0, 1), 0.5)
        w = straightening_chart(E, [2.0], 4.0)
        assert w.tolist() == [1.0, 0.5]
        x, t = chart_preimage(E, w)
        assert x.tolist() == [2.0] and np.ndim(t) == 0 and t == 4.0

    def test_refuses_a_batch_with_one_bad_row(self):
        E = time_scaled_region(Interval(0, 1), 0.0)
        with pytest.raises(ValueError):
            straightening_chart(E, np.ones((3, 1)), [2.0, 0.9, 3.0])
        with pytest.raises(ValueError):
            chart_preimage(E, [[1.0, 0.5], [1.0, 0.0]])


class TestPinnedTimeScale:
    GOLDEN = Path(__file__).resolve().parent / "golden" / "time_scale.json"

    def test_table_matches_golden(self):
        """Every value of tests/golden/time_scale.json, bit for bit.

        After an intended change of these values, regenerate the file with
        ``json.dumps(_time_scale_table(), indent=1, sort_keys=True)`` and
        review the diff.
        """
        assert _time_scale_table() == json.loads(self.GOLDEN.read_text())
