import itertools
import math
import warnings

import numpy as np
import pytest

from isotropy.geometry import (
    MEMBERSHIP_TOL,
    Ball,
    Cube,
    HPolytope,
    JohnDecomposition,
    Simplex,
    Truncated,
    canonical_john,
    isotropic_normalization,
    regular_simplex_vertices,
)
from isotropy.harness import _chord_failure
from isotropy.johnsparse import ApproxJohn
from isotropy.samplers import direct_draws, random_stream
from isotropy.symlin import operator_norm

E1 = np.array([1.0, 0.0])

# One body of each kind, all containing the ball of radius 0.3 in R^3.
CHORD_BODIES = [
    lambda: Cube(halfwidth=1.5, n=3),
    lambda: Ball(radius=2.0, n=3),
    lambda: isotropic_normalization("simplex", 3),
    # The cross-polytope |x1| + |x2| + |x3| <= 1: every facet is slanted to the axes.
    lambda: HPolytope(rows=np.array(list(itertools.product((-1.0, 1.0), repeat=3))), offsets=np.ones(8)),
    lambda: Truncated(base=Cube(halfwidth=2.0, n=3), radius=2.2),
    lambda: HPolytope(rows=np.vstack([np.eye(3), -np.eye(3)]), offsets=np.ones(6)),
]


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
        with pytest.raises(ValueError, match="does not match body dimension"):
            Cube(halfwidth=1.0, n=3).membership(np.zeros(2))

    def test_boundary_counts_as_inside(self):
        assert Ball(radius=2.0, n=2).membership(np.array([2.0, 0.0]))
        assert Cube(halfwidth=1.0, n=2).membership(np.array([1.0, -1.0]))

    @pytest.mark.parametrize("make_body", CHORD_BODIES)
    def test_non_finite_points_are_not_members(self, make_body):
        # Alone or as rows among members, and without a warning.
        body = make_body()
        rows = np.full((10, 3), 0.1)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for k, (bad, i) in enumerate(itertools.product((math.nan, math.inf, -math.inf), range(3))):
                x = np.full(3, 0.1)
                x[i] = bad
                assert body.membership(x) is False
                rows[k + 1, i] = bad
            assert body.membership(rows).tolist() == [True] + [False] * 9


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
        with pytest.raises(ValueError, match="chord base point lies outside the body"):
            Ball(radius=1.0, n=2).chord(np.array([2.0, 0.0]), E1)

    def test_requires_unit_direction(self):
        with pytest.raises(ValueError, match="direction must be a finite unit vector"):
            Ball(radius=1.0, n=2).chord(np.zeros(2), np.array([1.0, 1.0]))

    def test_unbounded_polytope_rejected(self):
        # Membership asks for the chord along the first axis, so it raises too.
        half_space = HPolytope(rows=np.array([[1.0, 0.0]]), offsets=np.array([1.0]))
        with pytest.raises(ValueError, match="chord is unbounded"):
            half_space.chord(np.zeros(2), E1)
        with pytest.raises(ValueError, match="chord is unbounded"):
            half_space.membership(np.zeros(2))

    @pytest.mark.parametrize("make_body", CHORD_BODIES)
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_input(self, make_body, bad):
        body = make_body()
        e1 = np.array([1.0, 0.0, 0.0])
        for x, d in ((np.zeros(3), np.array([1.0, bad, 0.0])), (np.array([0.1, bad, 0.0]), e1)):
            with pytest.raises(ValueError, match="finite"):
                body.chord(x, d)

    @pytest.mark.parametrize("make_body", CHORD_BODIES)
    def test_rejection_messages(self, make_body):
        body = make_body()
        e1 = np.array([1.0, 0.0, 0.0])
        for x, d, message in (
            (np.zeros(2), e1, "point of dimension \\(2,\\) does not match body dimension 3"),
            (np.zeros(3), e1[:2], "point of dimension \\(2,\\) does not match body dimension 3"),
            (np.zeros(3), 2.0 * e1, "^direction must be a finite unit vector$"),
            (np.zeros(3), np.array([math.nan, 0.0, 0.0]), "^direction must be a finite unit vector$"),
            (np.array([0.1, math.inf, 0.0]), e1, "^chord base point must be finite$"),
            (np.array([5.0, 0.0, 0.0]), e1, "^chord base point lies outside the body$"),
            # |x|^2 overflows to inf, yet x is finite: it is outside, not non-finite.
            (np.array([1e200, 0.0, 0.0]), e1, "^chord base point lies outside the body$"),
        ):
            with pytest.raises(ValueError, match=message), warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                body.chord(x, d)

    @pytest.mark.parametrize("make_body", CHORD_BODIES)
    def test_one_bad_row_among_64_raises(self, make_body):
        # Each check reads a reduction over the rows: 63 good rows do not hide a bad last one.
        body = make_body()
        rng = random_stream(71, 3)
        xs = direct_draws(Ball(radius=0.3, n=3), 64, rng)
        ds = rng.standard_normal((64, 3))
        ds /= np.linalg.norm(ds, axis=1)[:, None]
        cases = [
            ([], [(63, math.nan)], "^direction must be a finite unit vector$"),
            ([], [(63, 1.0 + 1e-9)], "^direction must be a finite unit vector$"),
            ([], [(63, 1.0 - 1e-9)], "^direction must be a finite unit vector$"),
            ([(63, math.inf)], [], "^chord base point must be finite$"),
            ([(63, math.nan)], [], "^chord base point must be finite$"),
            # Row 62's squared norm overflows, so the finiteness test of the norms cannot settle it.
            ([(62, 1e200), (63, -math.inf)], [], "^chord base point must be finite$"),
            ([(63, 1e200)], [], "^chord base point lies outside the body$"),
            ([(63, 5.0)], [], "^chord base point lies outside the body$"),
        ]
        for x_edits, d_edits, message in cases:
            x, d = xs.copy(), ds.copy()
            for k, v in x_edits:
                x[k, 1] = v
            for k, v in d_edits:
                d[k] *= v
            with pytest.raises(ValueError, match=message), warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                body.chord(x, d)
        assert body.chord(xs, ds)[0].shape == (64,)

    def test_one_unbounded_row_among_64_raises(self):
        # The strip |x1| <= 1 cut by x2 <= 1 bounds every chord with d1 != 0; along -e2 it is open.
        strip = HPolytope(rows=np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]]), offsets=np.ones(3))
        d = np.tile([0.6, 0.8], (64, 1))
        lo, hi = strip.chord(np.zeros((64, 2)), d)
        assert np.isfinite(lo).all() and np.isfinite(hi).all()
        d[63] = [0.0, 1.0]
        with pytest.raises(ValueError, match="^chord is unbounded"), warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            strip.chord(np.zeros((64, 2)), d)

    @pytest.mark.parametrize("make_body", CHORD_BODIES)
    def test_endpoints_are_extremal(self, make_body):
        body = make_body()
        rng = random_stream(99, 0)
        for _ in range(25):
            x = direct_draws(Ball(radius=0.3, n=3), 1, rng)[0]
            d = rng.standard_normal(3)
            d /= np.linalg.norm(d)
            assert _chord_failure(body, x, d) is None

    @pytest.mark.parametrize("scale, failure", [(0.5, "interval not maximal"), (1.5, "endpoint outside")])
    def test_chord_failure_names_one_wrong_row(self, scale, failure):
        # The batched check reads every row: only the last of 20 chords is scaled.
        class Scaled(Cube):
            def chord(self, x, d):
                lo, hi = Cube.chord(self, x, d)
                lo[-1] *= scale
                return lo, hi

        rng = random_stream(97, 0)
        xs = direct_draws(Ball(radius=0.3, n=3), 20, rng)
        ds = rng.standard_normal((20, 3))
        ds /= np.linalg.norm(ds, axis=1)[:, None]
        assert _chord_failure(Cube(halfwidth=1.5, n=3), xs, ds) is None
        assert _chord_failure(Scaled(halfwidth=1.5, n=3), xs, ds) == failure


def slab_reference(slack, rate):
    """The slab chord of one point in Python floats: each column with rate r < 0 bounds t above
    by s / -r, each with r > 0 bounds it below; the first of equal bounds is kept."""
    t_lo, t_hi = -math.inf, math.inf
    for s, r in zip(slack, rate):
        if r < 0.0 and s / -r < t_hi:
            t_hi = s / -r
        elif r > 0.0 and s / -r > t_lo:
            t_lo = s / -r
    return t_lo, t_hi


def kernel(body, x, d):
    """The private chord kernel on the rows of x and d: (lo, hi, inside)."""
    x, d = np.atleast_2d(x), np.atleast_2d(d)
    return body._chord_impl(x, d, np.einsum("ij,ij->i", x, x))


class TestCubeChord:
    @staticmethod
    def slab_chord(cube, x, d):
        """The cube's chord as 2n slabs: slacks a - x, a + x at rates -d, d."""
        a = float(cube.halfwidth)
        xs, ds = x.tolist(), d.tolist()
        return slab_reference([a - v for v in xs] + [a + v for v in xs], [-v for v in ds] + ds)

    def assert_slab_bounds(self, cube, xs, ds):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            lo, hi, inside = kernel(cube, np.array(xs), np.array(ds))
        assert inside.all()
        for k, (x, d) in enumerate(zip(xs, ds)):
            assert [lo[k].hex(), hi[k].hex()] == [t.hex() for t in self.slab_chord(cube, x, d)], (k, x, d)

    @pytest.mark.parametrize("n", [1, 2, 3, 16])
    def test_one_pass_equals_the_slab_kernel_bit_for_bit(self, n):
        # Interior points, points on one or every face, and directions with exact zeros
        # (of either sign); float.hex tells -0.0 from 0.0.  Each row of the batched kernel
        # must equal the Python-float slab chord of its point.
        cube = Cube(halfwidth=math.sqrt(3.0), n=n)
        a = cube.halfwidth
        rng = random_stream(31, n)
        xs, ds = [], []
        for k in range(400):
            x = direct_draws(cube, 1, rng)[0]
            d = rng.standard_normal(n)
            if k % 4 in (1, 3):
                x[rng.integers(n)] = a if k % 8 < 4 else -a
            if k % 4 == 2:
                x = np.where(x > 0.0, a, -a)
            if k % 4 == 3 and n > 1:
                zeros = rng.permutation(n)[: n - 1]
                d[zeros[::2]] = 0.0
                d[zeros[1::2]] = -0.0
            xs.append(x)
            ds.append(d / np.linalg.norm(d))
        self.assert_slab_bounds(cube, xs, ds)
        # One coordinate on a face or on the edge of the membership tolerance, which is
        # relative above halfwidth 1 and absolute below it: inside, with the same bits.  Each
        # such point also moves along its face, with that coordinate of d 0.0 and then -0.0.
        for cube in (cube, Cube(halfwidth=0.5, n=n)):
            a = cube.halfwidth
            edge = a + MEMBERSHIP_TOL * max(1.0, a)
            xs, ds = [], []
            for i in range(n):
                for v in (a, -a, edge, -edge):
                    x = direct_draws(cube, 1, rng)[0]
                    x[i] = v
                    d = rng.standard_normal(n)
                    assert cube.membership(x), (a, x)
                    xs.append(x)
                    ds.append(d / np.linalg.norm(d))
                    for zero in (0.0, -0.0) if n > 1 else ():
                        d[i] = zero
                        xs.append(x)
                        ds.append(d / np.linalg.norm(d))
            self.assert_slab_bounds(cube, xs, ds)

    def test_outside_point_has_no_chord(self):
        cube = Cube(halfwidth=1.0, n=3)
        d = np.array([0.6, 0.0, -0.8])
        xs = np.array([[0.0, 1.01, 0.0], [-1.5, 0.2, 0.3], [2.0, 2.0, 2.0]])
        assert not kernel(cube, xs, np.tile(d, (3, 1)))[2].any()
        # One ulp past the tolerance's edge is neither a member nor has a chord.
        for a in (math.sqrt(3.0), 1.0, 0.5):
            cube = Cube(halfwidth=a, n=3)
            past = math.nextafter(a + MEMBERSHIP_TOL * max(1.0, a), math.inf)
            for i, v in itertools.product(range(3), (past, -past)):
                x = np.zeros(3)
                x[i] = v
                assert not cube.membership(x) and not kernel(cube, x, d)[2][0], (a, x)


class TestContainment:
    @pytest.mark.parametrize("make_body", CHORD_BODIES)
    def test_membership_is_having_a_chord(self, make_body):
        # Each body tests containment once, in its chord oracle: in every direction a point
        # has a chord exactly when it is a member.  The box reaches 1.25 times the body's
        # farthest axis chord from the origin, so it holds points inside and outside.
        body = make_body()
        reach = max(max(-lo, hi) for lo, hi in (body.chord(np.zeros(3), e) for e in np.eye(3)))
        rng = random_stream(47, 1)
        dirs = rng.standard_normal((3, 3))
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        xs = rng.uniform(-1.25 * reach, 1.25 * reach, (200, 3))
        member = body.membership(xs)
        for d in dirs:
            assert np.array_equal(kernel(body, xs, np.tile(d, (200, 1)))[2], member), d
        assert 0 < member.sum() < 200

    @pytest.mark.parametrize("offset", [0.5, 1.0, 2.0])
    def test_polytope_edge_is_fixed_at_construction(self, offset):
        # The slack bound is MEMBERSHIP_TOL * max(1, max |offsets|): absolute below offset 1,
        # relative above it.  The face x2 <= 0 has offset 0, so a point's slack on it is
        # exactly -x2.  At x2 = tol the point is a member with a chord; one ulp past it is neither.
        body = HPolytope(
            rows=np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]),
            offsets=np.array([offset, offset, 0.0, offset]),
        )
        tol = MEMBERSHIP_TOL * max(1.0, offset)
        d = np.array([0.6, -0.8])
        x = np.array([0.0, tol])
        assert body.membership(x)
        t_lo, t_hi = body.chord(x, d)
        assert t_lo <= 0.0 <= t_hi
        x = np.array([0.0, math.nextafter(tol, math.inf)])
        assert not body.membership(x)
        with pytest.raises(ValueError, match="chord base point lies outside the body"):
            body.chord(x, d)

    @pytest.mark.parametrize("n", [1, 3, 8])
    def test_simplex_is_the_polytope_of_its_barycentric_coordinates(self, n):
        body = isotropic_normalization("simplex", n)
        v = body.vertices
        system = np.vstack([v.T, np.ones(n + 1)])
        assert body._slacks.tobytes() == np.linalg.inv(system).tobytes()
        rng = random_stream(53, n)
        for x in direct_draws(body, 20, rng):
            xh = np.concatenate((x, [1.0]))
            assert np.allclose(body._slacks @ xh, np.linalg.solve(system, xh), rtol=0.0, atol=1e-12)
        # Its offsets, the origin's coordinates, are 1 / (n + 1), so its slack bound stays the
        # absolute 1e-9: past vertex k at (1 + s) v_k the other coordinates are -s / (n + 1).
        assert body._tol == MEMBERSHIP_TOL
        for k in range(n + 1):
            assert body.membership((1.0 + 0.9e-9 * (n + 1)) * v[k]), k
            assert not body.membership((1.0 + 1.1e-9 * (n + 1)) * v[k]), k


def _tolerance_edge_cases():
    """(body, points, members): the bodies of the two tolerance-edge tests, the points each puts
    on its edge and one ulp past it, and which of them are members."""
    cases = []
    for offset in (0.5, 1.0, 2.0):
        body = HPolytope(
            rows=np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]]),
            offsets=np.array([offset, offset, 0.0, offset]),
        )
        tol = MEMBERSHIP_TOL * max(1.0, offset)
        points = [[0.0, tol], [0.0, math.nextafter(tol, math.inf)], [offset, -offset], [0.0, 0.0]]
        cases.append(pytest.param(body, points, [True, False, True, True], id=f"polytope-{offset}"))
    for radius in (0.5, 1.0, 2.0):
        edge = radius + MEMBERSHIP_TOL * max(1.0, radius)
        past = math.nextafter(edge, math.inf)
        points = [[v, 0.0, 0.0] for v in (edge, -edge, past, -past)]
        for name, body in (("ball", Ball(radius=radius, n=3)), ("truncated-cube", Truncated(Cube(3.0, 3), radius))):
            cases.append(pytest.param(body, points, [True, True, False, False], id=f"{name}-{radius}"))
    return cases


class TestBatchedOracles:
    @staticmethod
    def assert_rows_answer_alone(body, xs):
        # Every row of one batched membership or chord call answers, bit for bit, as its
        # point alone, and no step of either warns.
        n = body.n
        rng = random_stream(61, n)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            member = body.membership(xs)
            assert member.dtype == bool and member.shape == (len(xs),)
            assert member.tolist() == [body.membership(x) for x in xs]
            inside = xs[member]
            # Axis directions (every other entry 0) and random ones, a few per point.
            dirs = np.vstack([np.eye(n), -np.eye(n), rng.standard_normal((2 * n, n))])
            dirs /= np.linalg.norm(dirs, axis=1)[:, None]
            rows = np.repeat(inside, len(dirs), axis=0)
            ds = np.tile(dirs, (len(inside), 1))
            lo, hi = body.chord(rows, ds)
            for k in range(len(rows)):
                assert [lo[k].hex(), hi[k].hex()] == [t.hex() for t in body.chord(rows[k], ds[k])], (rows[k], ds[k])
        return member

    @pytest.mark.parametrize("make_body", CHORD_BODIES)
    def test_batch_rows_answer_as_their_points_alone(self, make_body):
        # Points inside and outside, on the boundary (where the axis directions give
        # columns with d_i = 0 at slack 0), and a hair inside and outside it.
        body = make_body()
        rng = random_stream(67, 3)
        reach = max(max(-lo, hi) for lo, hi in (body.chord(np.zeros(3), e) for e in np.eye(3)))
        xs = [rng.uniform(-1.25 * reach, 1.25 * reach, (60, 3))]
        dirs = np.vstack([np.eye(3), rng.standard_normal((8, 3))])
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        for u in dirs:
            hi = body.chord(np.zeros(3), u)[1]
            xs.append([hi * u, (hi * (1 - 1e-12)) * u, (hi * (1 + 1e-12)) * u, (hi * (1 + 1e-6)) * u])
        member = self.assert_rows_answer_alone(body, np.vstack(xs))
        assert 0 < member.sum() < len(member)

    @pytest.mark.parametrize("body, points, members", _tolerance_edge_cases())
    def test_tolerance_edge_rows_answer_as_their_points_alone(self, body, points, members):
        assert self.assert_rows_answer_alone(body, np.array(points)).tolist() == members


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
        assert operator_norm(second - np.eye(n)) <= 1e-10
        assert np.allclose(np.linalg.norm(v, axis=1), math.sqrt(n * (n + 2.0)), rtol=1e-12)

    @pytest.mark.parametrize("n", [2, 3])
    def test_simplex_normalization_monte_carlo(self, n):
        # Brute-force crosscheck of the closed-form constant.
        body = isotropic_normalization("simplex", n)
        pts = direct_draws(body, 200_000, random_stream(2024, n))
        t = pts.T @ pts / pts.shape[0]
        assert np.abs(np.diag(t) - 1.0).max() < 0.03
        assert np.abs(t - np.diag(np.diag(t))).max() < 0.03

    def test_unsupported_variant(self):
        with pytest.raises(ValueError, match="no isotropic normalization"):
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
        assert operator_norm(resolution - np.eye(n)) <= tol
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
        with pytest.raises(ValueError, match="cube-vertices fixture capped"):
            canonical_john("cube-vertices", 21)

    def test_only_exact_names_resolve(self):
        # validate() admits only the exact names, so no other spelling is an alias.
        with pytest.raises(ValueError, match="unknown John fixture variant"):
            canonical_john("cross_polytope", 2)
        with pytest.raises(ValueError, match="no isotropic normalization"):
            isotropic_normalization("Cube", 2)

    def test_invalid_decomposition_rejected(self):
        with pytest.raises(ValueError, match="weighted point sum must vanish"):
            JohnDecomposition(points=np.eye(2), weights=np.array([1.0, 1.0]))  # sum c z != 0
        with pytest.raises(ValueError, match="contact points/weights must be finite"):
            JohnDecomposition(points=np.array([[1.0], [math.nan]]), weights=np.array([0.5, 0.5]))
        cross = np.vstack([np.eye(2), -np.eye(2)])
        with pytest.raises(ValueError, match="need one weight per point"):
            JohnDecomposition(points=cross, weights=np.full(3, 0.5))
        with pytest.raises(ValueError, match="weights must be positive"):
            JohnDecomposition(points=cross, weights=np.array([0.5, 0.5, 0.5, 0.0]))
        with pytest.raises(ValueError, match="contact points must be unit vectors"):
            JohnDecomposition(points=2.0 * cross, weights=np.full(4, 0.5))
        with pytest.raises(ValueError, match="weighted rank-one sum must resolve the identity"):
            JohnDecomposition(points=cross, weights=np.full(4, 0.25))
        # The resolution is (1 + 9e-11) id, within its 1e-10 tolerance, but the 16 weights
        # sum to 8 + 7.2e-10.
        cross8 = np.vstack([np.eye(8), -np.eye(8)])
        with pytest.raises(ValueError, match="weights must sum to the dimension"):
            JohnDecomposition(points=cross8, weights=np.full(16, 0.5 * (1.0 + 9e-11)))


class TestTruncated:
    def test_membership_is_conjunction(self):
        base = Cube(halfwidth=np.sqrt(3), n=4)
        trunc = Truncated(base=base, radius=1.8)
        rng = random_stream(5, 0)
        pts = rng.uniform(-2.2, 2.2, (300, 4))
        r = np.linalg.norm(pts, axis=1)
        clear = np.abs(r - 1.8) > 1e-9  # skip knife-edge roundoff cases
        assert clear.sum() > 250
        expect = base.membership(pts) & (r <= 1.8)
        assert np.array_equal(trunc.membership(pts)[clear], expect[clear])

    def test_positive_radius_required(self):
        with pytest.raises(ValueError, match="truncation radius must be positive"):
            Truncated(base=Ball(radius=1.0, n=2), radius=0.0)

    @pytest.mark.parametrize("radius", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize(
        "make",
        [lambda r: Ball(radius=r, n=3), lambda r: Truncated(base=Cube(halfwidth=3.0, n=3), radius=r)],
        ids=["ball", "truncated-cube"],
    )
    def test_radius_edge_is_fixed_at_construction(self, make, radius):
        # The bound on |x| is radius + MEMBERSHIP_TOL * max(1, radius): absolute below radius 1,
        # relative above it.  A point at exactly that norm (sqrt(v * v) == |v|) is a member with
        # a chord; one ulp past it is neither.
        body = make(radius)
        edge = radius + MEMBERSHIP_TOL * max(1.0, radius)
        d = np.array([0.0, 0.6, -0.8])
        for v in (edge, -edge):
            x = np.array([v, 0.0, 0.0])
            assert body.membership(x), (radius, v)
            t_lo, t_hi = body.chord(x, d)
            assert t_lo <= 0.0 <= t_hi
        for v in (math.nextafter(edge, math.inf), -math.nextafter(edge, math.inf)):
            x = np.array([v, 0.0, 0.0])
            assert not body.membership(x), (radius, v)
            with pytest.raises(ValueError, match="chord base point lies outside the body"):
                body.chord(x, d)

    @pytest.mark.parametrize(
        "base, radius",
        [(Cube(halfwidth=1.0, n=3), 1.3), (isotropic_normalization("simplex", 3), 2.0), (Ball(radius=1.0, n=3), 1.5)],
        ids=["cube", "simplex", "ball"],
    )
    def test_chord_is_the_base_chord_cut_by_its_ball(self, base, radius):
        # The truncated chord is the intersection of the base's chord and Ball(radius)'s, bit
        # for bit, and there is none exactly when either body has none.
        trunc, ball = Truncated(base=base, radius=radius), Ball(radius=radius, n=3)
        rng = random_stream(59, 3)
        dirs = rng.standard_normal((3, 3))
        dirs /= np.linalg.norm(dirs, axis=1)[:, None]
        xs = rng.uniform(-1.3 * radius, 1.3 * radius, (300, 3))
        seen = set()
        for d in np.repeat(dirs, 300, axis=0).reshape(3, 300, 3):
            (b_lo, b_hi, b_in), (s_lo, s_hi, s_in) = kernel(base, xs, d), kernel(ball, xs, d)
            lo, hi, inside = kernel(trunc, xs, d)
            assert np.array_equal(inside, b_in & s_in)
            for k in np.flatnonzero(inside):
                want = (max(b_lo[k], s_lo[k]), min(b_hi[k], s_hi[k]))
                assert np.array((lo[k], hi[k])).tobytes() == np.array(want).tobytes(), (xs[k], d[k])
            seen |= set(zip((~b_in).tolist(), (~s_in).tolist()))
        # Inside both, outside the base only, and outside the radius all occur.
        assert {(False, False), (True, False)} <= seen and any(s for _, s in seen)

    def test_chord_from_inside_the_radius_but_outside_the_base(self):
        trunc = Truncated(base=Cube(halfwidth=1.0, n=2), radius=5.0)
        with pytest.raises(ValueError, match="chord base point lies outside the body"):
            trunc.chord(np.array([2.0, 0.0]), E1)


class TestBodyValidation:
    def test_cube_needs_positive_halfwidth(self):
        with pytest.raises(ValueError, match="cube needs positive halfwidth"):
            Cube(halfwidth=0.0, n=2)

    def test_ball_needs_positive_radius(self):
        with pytest.raises(ValueError, match="ball needs positive radius"):
            Ball(radius=0.0, n=2)
        with pytest.raises(ValueError, match="ball needs positive radius"):
            Ball(radius=-1.0, n=2)

    @pytest.mark.parametrize("shape", [(2, 2), (4, 2), (3,)])
    def test_simplex_needs_n_plus_one_vertices(self, shape):
        with pytest.raises(ValueError, match=r"simplex needs n\+1 vertices in dimension n"):
            Simplex(vertices=np.ones(shape))

    def test_hpolytope_needs_one_offset_per_row(self):
        with pytest.raises(ValueError, match="need matching inequality rows and offsets"):
            HPolytope(rows=np.vstack([np.eye(2), -np.eye(2)]), offsets=np.ones(3))

    @pytest.mark.parametrize(
        "rows, offsets", [(np.empty((0, 2)), np.empty(0)), (np.empty((3, 0)), np.ones(3))], ids=["no-rows", "no-columns"]
    )
    def test_hpolytope_needs_a_row_and_a_column(self, rows, offsets):
        # Without a row or a column, membership and chord would fail in numpy's zero-size reductions.
        with pytest.raises(ValueError, match="polytope needs at least one inequality and one coordinate"):
            HPolytope(rows=rows, offsets=offsets)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: regular_simplex_vertices(0),
            lambda: isotropic_normalization("cube", 0),
            lambda: canonical_john("cross-polytope", 0),
        ],
        ids=["regular-simplex", "isotropic-normalization", "canonical-john"],
    )
    def test_dimension_below_one_rejected(self, make):
        with pytest.raises(ValueError, match="dimension must be >= 1"):
            make()

    def test_simplex_must_contain_origin(self):
        shifted = regular_simplex_vertices(2) + np.array([5.0, 0.0])
        with pytest.raises(ValueError, match="must contain the origin"):
            Simplex(vertices=shifted)

    @pytest.mark.parametrize(
        "make_body",
        [
            lambda: Cube(halfwidth=math.nan, n=3),
            lambda: Cube(halfwidth=math.inf, n=3),
            lambda: Ball(radius=math.inf, n=2),
            lambda: Truncated(base=Ball(radius=1.0, n=2), radius=math.nan),
            lambda: Simplex(vertices=np.vstack([[math.nan, 0.0], regular_simplex_vertices(2)[1:]])),
            lambda: HPolytope(rows=np.vstack([np.eye(2), -np.eye(2)]), offsets=np.array([1.0, 1.0, math.inf, 1.0])),
        ],
        ids=["cube-nan", "cube-inf", "ball-inf", "truncated-nan", "simplex-nan-vertex", "hpolytope-inf-offset"],
    )
    def test_non_finite_body_data_rejected(self, make_body):
        with pytest.raises(ValueError, match="must be finite"):
            make_body()

    def test_degenerate_simplex_rejected(self):
        with pytest.raises(ValueError, match="degenerate simplex vertices"):
            Simplex(vertices=np.array([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]]))


@pytest.mark.parametrize(
    "cls, kwargs",
    [
        (Simplex, {"vertices": regular_simplex_vertices(2)}),
        (HPolytope, {"rows": np.vstack([np.eye(2), -np.eye(2)]), "offsets": np.ones(4)}),
        (JohnDecomposition, {"points": np.vstack([np.eye(2), -np.eye(2)]), "weights": np.full(4, 0.5)}),
        (ApproxJohn, {"points": np.array([[1.0], [-1.0]]), "shift": np.zeros(1), "residual_norm": 0.0, "attempts": 1}),
    ],
    ids=["simplex", "hpolytope", "john", "approx-john"],
)
def test_value_objects_keep_and_freeze_the_given_arrays(cls, kwargs):
    obj = cls(**kwargs)
    arrays = {k: a for k, a in kwargs.items() if isinstance(a, np.ndarray)}
    for name, a in arrays.items():
        assert getattr(obj, name) is a, name
        assert not a.flags.writeable, name
        with pytest.raises(ValueError):
            a.flat[0] = 0.0


def test_value_objects_convert_list_input():
    approx = ApproxJohn(points=[[1.0], [-1.0]], shift=[0.0], residual_norm=0.0, attempts=1)
    assert approx.points.shape == (2, 1) and approx.points.dtype == np.float64
    assert not approx.points.flags.writeable and not approx.shift.flags.writeable


def test_finite_entries_whose_sum_overflows():
    # The sum that tests finiteness overflows to inf; the full test then accepts the entries.
    # The harness runs rows under np.errstate(over="raise").
    with np.errstate(all="raise"):
        approx = ApproxJohn(points=np.array([[1e308], [1e308]]), shift=np.zeros(1), residual_norm=0.0, attempts=1)
    assert approx.M == 2
