import math

import numpy as np
import pytest

from isotropy.geometry import (
    Ball,
    Cube,
    Ellipsoid,
    GeometryError,
    HPolytope,
    JohnDecomposition,
    Simplex,
    Truncated,
    canonical_john,
    isotropic_normalization,
    load_hpolytope,
    parse_hpolytope,
    regular_simplex_vertices,
)
from isotropy.samplers import RandomStream, direct_draws
from isotropy.symlin import SymMatrix, operator_norm

E1 = np.array([1.0, 0.0])


class TestMembership:
    def test_cube(self):
        assert Cube(halfwidth=1.0, n=3).membership(np.array([0.5, -0.5, 1.0]))

    def test_ball_outside(self):
        assert not Ball(radius=2.0, n=2).membership(np.array([2.1, 0.0]))

    def test_truncation_dominates(self):
        body = Truncated(base=Cube(halfwidth=np.sqrt(3), n=4), radius=1.0)
        x = np.full(4, 0.51)  # norm 1.02 > 1, inside the cube
        assert np.linalg.norm(x) > 1.0
        assert not body.membership(x)

    def test_dimension_mismatch(self):
        with pytest.raises(GeometryError):
            Cube(halfwidth=1.0, n=3).membership(np.zeros(2))

    def test_boundary_counts_as_inside(self):
        assert Ball(radius=2.0, n=2).membership(np.array([2.0, 0.0]))
        assert Cube(halfwidth=1.0, n=2).membership(np.array([1.0, -1.0]))


class TestChord:
    def test_cube_center(self):
        assert Cube(halfwidth=1.0, n=2).chord(np.zeros(2), E1) == (-1.0, 1.0)

    def test_ball_off_center(self):
        lo, hi = Ball(radius=2.0, n=2).chord(np.array([1.0, 0.0]), E1)
        assert (lo, hi) == pytest.approx((-3.0, 1.0), abs=1e-12)

    def test_hpolytope_by_hand(self):
        # x1 >= 0, x2 >= 0, x1 + x2 <= 1 from (0.25, 0.25) along e1:
        # the three inequalities give t >= -0.25 and t <= 0.5.
        poly = HPolytope(rows=np.array([[-1.0, 0.0], [0.0, -1.0], [1.0, 1.0]]), offsets=np.array([0.0, 0.0, 1.0]))
        lo, hi = poly.chord(np.array([0.25, 0.25]), E1)
        assert (lo, hi) == pytest.approx((-0.25, 0.5), abs=1e-12)

    def test_requires_interior_point(self):
        with pytest.raises(GeometryError):
            Ball(radius=1.0, n=2).chord(np.array([2.0, 0.0]), E1)

    def test_requires_unit_direction(self):
        with pytest.raises(GeometryError):
            Ball(radius=1.0, n=2).chord(np.zeros(2), np.array([1.0, 1.0]))

    def test_ellipsoid_quadratic(self):
        body = Ellipsoid(shape=SymMatrix(np.diag([4.0, 1.0])))
        lo, hi = body.chord(np.zeros(2), E1)
        assert (lo, hi) == pytest.approx((-2.0, 2.0), abs=1e-12)

    def test_unbounded_polytope_rejected(self):
        half_space = HPolytope(rows=np.array([[1.0, 0.0]]), offsets=np.array([1.0]))
        with pytest.raises(GeometryError):
            half_space.chord(np.zeros(2), E1)

    @pytest.mark.parametrize("make_body", [
        lambda: Cube(halfwidth=1.5, n=3),
        lambda: Ball(radius=2.0, n=3),
        lambda: isotropic_normalization("simplex", 3),
        lambda: Ellipsoid(shape=SymMatrix(np.diag([4.0, 1.0, 0.25]))),
        lambda: Truncated(base=Cube(halfwidth=2.0, n=3), radius=2.2),
    ])
    def test_endpoints_are_extremal(self, make_body):
        body = make_body()
        rng = RandomStream(seed=99, stream=0)
        for _ in range(25):
            x = direct_draws(Ball(radius=0.3, n=3), 1, rng)[0]
            d = rng.standard_normal(3)
            d /= np.linalg.norm(d)
            lo, hi = body.chord(x, d)
            assert lo <= 0.0 <= hi
            assert body.membership(x + lo * d) and body.membership(x + hi * d)
            assert not body.membership(x + (hi + 1e-6) * d)
            assert not body.membership(x + (lo - 1e-6) * d)


class TestIsotropicNormalization:
    def test_cube_halfwidth(self):
        body = isotropic_normalization("cube", 7)
        # 1-d marginal second moment: a^2 / 3 = 1 exactly at a = sqrt(3).
        assert body.halfwidth == pytest.approx(math.sqrt(3.0), abs=0)
        assert body.halfwidth**2 / 3.0 == pytest.approx(1.0, rel=1e-15)

    @pytest.mark.parametrize("n", [1, 2, 5, 16])
    def test_ball_radius(self, n):
        body = isotropic_normalization("ball", n)
        assert body.radius**2 / (n + 2.0) == pytest.approx(1.0, rel=1e-15)

    def test_ball_matches_cube_in_dimension_one(self):
        assert isotropic_normalization("ball", 1).radius == pytest.approx(math.sqrt(3.0), rel=1e-15)

    @pytest.mark.parametrize("n", [1, 2, 3, 6])
    def test_simplex_second_moment_identity(self, n):
        # Dirichlet(1) second moments give E[x x^T] =
        # (sum_i v_i v_i^T + (sum_i v_i)(sum_i v_i)^T) / ((n+1)(n+2)),
        # which must equal the identity for the normalized vertices.
        body = isotropic_normalization("simplex", n)
        v = body.vertices
        second = (v.T @ v + np.outer(v.sum(0), v.sum(0))) / ((n + 1.0) * (n + 2.0))
        assert operator_norm(SymMatrix.from_dense(second) - SymMatrix.identity(n)) <= 1e-10
        assert np.allclose(np.linalg.norm(v, axis=1), math.sqrt(n * (n + 2.0)), rtol=1e-12)

    @pytest.mark.parametrize("n", [2, 3])
    def test_simplex_normalization_monte_carlo(self, n):
        # Brute-force crosscheck of the closed-form constant.
        body = isotropic_normalization("simplex", n)
        pts = direct_draws(body, 200_000, RandomStream(seed=2024, stream=n))
        t = pts.T @ pts / pts.shape[0]
        assert np.abs(np.diag(t) - 1.0).max() < 0.03
        assert np.abs(t - np.diag(np.diag(t))).max() < 0.03

    def test_unsupported_variant(self):
        with pytest.raises(GeometryError):
            isotropic_normalization("ellipsoid", 3)


class TestRegularSimplexVertices:
    def test_geometry(self):
        for n in (1, 2, 4, 9):
            v = regular_simplex_vertices(n)
            assert v.shape == (n + 1, n)
            assert np.allclose(np.linalg.norm(v, axis=1), 1.0, atol=1e-12)
            gram = v @ v.T
            off = gram[~np.eye(n + 1, dtype=bool)]
            assert np.allclose(off, -1.0 / n, atol=1e-12)


class TestCanonicalJohn:
    FIXTURES = [
        ("cross-polytope", 2),
        ("cross-polytope", 8),
        ("cube-vertices", 2),
        ("cube-vertices", 4),
        ("simplex", 2),
        ("simplex", 4),
    ]

    @pytest.mark.parametrize("variant,n", FIXTURES)
    def test_defining_identities(self, variant, n):
        jd = canonical_john(variant, n)
        tol = 1e-10
        assert np.abs(np.linalg.norm(jd.points, axis=1) - 1.0).max() <= tol
        resolution = (jd.points.T * jd.weights) @ jd.points
        assert operator_norm(SymMatrix.from_dense(resolution) - SymMatrix.identity(n)) <= tol
        assert np.linalg.norm(jd.weights @ jd.points) <= tol
        assert abs(jd.weights.sum() - n) <= tol

    def test_cross_polytope_n2_exact(self):
        jd = canonical_john("cross-polytope", 2)
        assert len(jd.points) == 4
        assert np.all(jd.weights == 0.5)
        resolution = (jd.points.T * jd.weights) @ jd.points
        assert np.array_equal(resolution, np.eye(2))

    def test_cube_vertices_n2_sums(self):
        jd = canonical_john("cube-vertices", 2)
        assert len(jd.points) == 4
        assert np.all(jd.weights == 0.5)
        assert np.allclose(np.abs(jd.points), 1.0 / np.sqrt(2), atol=1e-15)
        assert np.linalg.norm(jd.weights @ jd.points) == 0.0

    def test_simplex_n2_three_unit_vectors_at_120_degrees(self):
        jd = canonical_john("simplex", 2)
        assert len(jd.points) == 3
        assert np.allclose(jd.weights, 2.0 / 3.0, atol=1e-15)
        gram = jd.points @ jd.points.T
        off = gram[~np.eye(3, dtype=bool)]
        assert np.allclose(off, -0.5, atol=1e-12)  # cos 120 degrees

    def test_count_bound_where_it_applies(self):
        # A minimal John decomposition needs at most (n+3)n/2 points; the
        # cross-polytope and simplex fixtures stay under that count.  The
        # cube-vertices fixture has 2^n points and exceeds it from n=4 on;
        # it is a valid decomposition, just not a minimal one.
        for variant, n in (("cross-polytope", 8), ("simplex", 7)):
            jd = canonical_john(variant, n)
            assert len(jd.points) <= (n + 3) * n / 2
        assert len(canonical_john("cube-vertices", 4).points) > (4 + 3) * 4 / 2

    def test_cube_vertices_cap(self):
        with pytest.raises(GeometryError):
            canonical_john("cube-vertices", 21)

    def test_invalid_decomposition_rejected(self):
        with pytest.raises(GeometryError):
            JohnDecomposition(points=np.eye(2), weights=np.array([1.0, 1.0]))  # sum c z != 0


class TestTruncated:
    def test_membership_is_conjunction(self):
        base = Cube(halfwidth=np.sqrt(3), n=4)
        trunc = Truncated(base=base, radius=1.8)
        rng = RandomStream(seed=5, stream=0)
        pts = rng.uniform(-2.2, 2.2, (300, 4))
        for p in pts:
            r = np.linalg.norm(p)
            if abs(r - 1.8) > 1e-9:  # skip knife-edge roundoff cases
                assert trunc.membership(p) == (base.membership(p) and r <= 1.8)

    def test_positive_radius_required(self):
        with pytest.raises(GeometryError):
            Truncated(base=Ball(radius=1.0, n=2), radius=0.0)


class TestBodyValidation:
    def test_cube_needs_positive_halfwidth(self):
        with pytest.raises(GeometryError):
            Cube(halfwidth=0.0, n=2)

    def test_simplex_must_contain_origin(self):
        shifted = regular_simplex_vertices(2) + np.array([5.0, 0.0])
        with pytest.raises(GeometryError):
            Simplex(vertices=shifted)

    def test_ellipsoid_needs_spd_shape(self):
        with pytest.raises(GeometryError):
            Ellipsoid(shape=SymMatrix(np.diag([1.0, -1.0])))

    def test_degenerate_simplex_rejected(self):
        with pytest.raises(GeometryError):
            Simplex(vertices=np.array([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]]))


class TestHPolytopeFormat:
    TEXT = "2 3\n-1 0 0.25\n0 -1 0.25\n1 1 1\n"

    def test_parse(self):
        poly = parse_hpolytope(self.TEXT)
        assert poly.n == 2 and poly.rows.shape == (3, 2)
        assert poly.membership(np.zeros(2))

    def test_load_roundtrip(self, tmp_path):
        path = tmp_path / "poly.txt"
        path.write_text(self.TEXT, encoding="utf-8")
        poly = load_hpolytope(path)
        assert np.array_equal(poly.offsets, [0.25, 0.25, 1.0])

    def test_bad_token_count(self):
        with pytest.raises(GeometryError):
            parse_hpolytope("2 2\n1 0 1\n")

    def test_bad_header(self):
        with pytest.raises(GeometryError):
            parse_hpolytope("two 3\n")

    def test_non_numeric_entry(self):
        with pytest.raises(GeometryError):
            parse_hpolytope("1 1\nx 1\n")
