"""Convex body descriptions and canonical fixtures.

Bodies are origin-centered value objects exposing two oracles: membership
and chords (the maximal segment through a point along a direction).  The
module also carries the closed-form scalings that put the standard bodies
into isotropic position, and the canonical John decompositions used as
test fixtures throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .symlin import operator_norm

__all__ = [
    "Body",
    "Cube",
    "Ball",
    "Simplex",
    "HPolytope",
    "Truncated",
    "JohnDecomposition",
    "isotropic_normalization",
    "canonical_john",
    "regular_simplex_vertices",
]

# Boundary slack for membership tests: points computed to lie exactly on a
# face (e.g. chord endpoints) must not be rejected by roundoff.  Must stay
# far below the 1e-6 exterior probes used by the chord consistency checks.
MEMBERSHIP_TOL = 1e-9

CUBE_VERTEX_DIM_CAP = 20

_UNBOUNDED = "chord is unbounded; body data must describe a bounded set"


def _rows(x, n: int) -> np.ndarray:
    """x as a float (K, n) array of rows; one point of shape (n,) is one row."""
    x = np.asarray(x, dtype=float)
    if x.shape[-1:] != (n,) or x.ndim > 2:
        raise ValueError(f"point of dimension {x.shape} does not match body dimension {n}")
    return x if x.ndim == 2 else x.reshape(1, n)


def _frozen(a, what: str) -> np.ndarray:
    """The value-object ownership rule: keep a float64 array as given, check it, freeze it.

    Other input (lists, other dtypes) is converted once.  After this the
    owner and the caller share one read-only array.  The sum tests
    finiteness without a mask; when a huge finite array overflows it (under
    the harness's over="raise" too), the full test settles it.
    """
    a = np.asarray(a, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        total = float(a.sum())
    if not (math.isfinite(total) or np.isfinite(a).all()):
        raise ValueError(f"{what} must be finite")
    a.setflags(write=False)
    return a


class Body:
    """Bounded convex body with the origin strictly inside.

    Each body states its containment test once, in its private chord oracle:
    ``membership`` asks for the chord along the first axis and reads whether
    there is one.  A bounded body has a finite chord in every direction.
    Both oracles take one point of shape (n,) or K points as the rows of a
    (K, n) array, and answer each row as they would that point alone, bit for bit.
    """

    n: int

    def membership(self, x):
        """Whether x lies in the body, a bool per point (a (K,) array for rows); a non-finite point never does."""
        rows = _rows(x, self.n)
        xx = np.einsum("ij,ij->i", rows, rows)
        # A norm is finite whenever its row is, unless it overflows; the full test settles that case.
        finite = np.isfinite(xx)
        if not finite.all():  # the kernel sees a non-finite row as the origin, so it warns of nothing
            finite = np.isfinite(rows).all(axis=1)
            rows, xx = np.where(finite[:, None], rows, 0.0), np.where(finite, xx, 0.0)
        e1 = np.zeros_like(rows)
        e1[:, 0] = 1.0
        lo, hi, inside = self._chord_impl(rows, e1, xx)
        inside &= finite
        if not np.all(np.isfinite(lo) & np.isfinite(hi), where=inside):
            raise ValueError(_UNBOUNDED)
        return bool(inside[0]) if np.ndim(x) == 1 else inside

    def chord(self, x, d):
        """Maximal interval [t_lo, t_hi] with x + t*d inside for all t.

        Requires x finite and inside, and d a unit vector; the interval
        brackets 0.  One point and direction give two floats; (K, n) rows of
        each give the K rows' bounds as two (K,) arrays.  Each check reads a
        reduction over the rows, so one bad row fails it.
        """
        rows, dirs = _rows(x, self.n), _rows(d, self.n)
        if rows.shape != dirs.shape:
            raise ValueError("need one direction per point")
        # |d|^2 - 1 is exact near 1 and rises with |d|^2, so the extreme rows settle every
        # |(|d|^2 - 1)| <= 2e-10; a NaN norm makes both extremes NaN and fails the test too.
        dd = np.einsum("ij,ij->i", dirs, dirs)
        if not (dd.min() - 1.0 >= -2e-10 and dd.max() - 1.0 <= 2e-10):
            raise ValueError("direction must be a finite unit vector")
        # The largest squared norm is finite when every row is, unless one overflows.
        xx = np.einsum("ij,ij->i", rows, rows)
        if not (math.isfinite(xx.max()) or np.isfinite(rows).all()):
            raise ValueError("chord base point must be finite")
        lo, hi, inside = self._chord_impl(rows, dirs, xx)
        if not inside.all():
            raise ValueError("chord base point lies outside the body")
        # A chord longer than the largest float counts as unbounded too.
        if not np.isfinite(hi - lo).all():
            raise ValueError(_UNBOUNDED)
        # Roundoff can push a bound marginally across 0 when x sits on the
        # boundary; the contract is t_lo <= 0 <= t_hi.
        lo, hi = np.minimum(lo, 0.0), np.maximum(hi, 0.0)
        return (float(lo[0]), float(hi[0])) if np.ndim(x) == 1 else (lo, hi)

    def _chord_impl(self, x: np.ndarray, d: np.ndarray, xx: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per row of the finite (K, n) x and unit d, with xx the rows' squared norms: the chord's
        bounds (lo, hi) and whether x lies inside, which makes the bounds meaningful.

        The body's one containment test, which membership reads too.
        """
        raise NotImplementedError


@dataclass(frozen=True)
class Cube(Body):
    """Axis-aligned cube [-halfwidth, halfwidth]^n."""

    halfwidth: float
    n: int

    def __post_init__(self):
        if self.halfwidth <= 0 or self.n < 1:
            raise ValueError("cube needs positive halfwidth and dimension")
        if not math.isfinite(self.halfwidth):
            raise ValueError("cube halfwidth must be finite")
        # The membership bound on each |x_i|, which _chord_impl tests.
        object.__setattr__(self, "_limit", float(self.halfwidth + MEMBERSHIP_TOL * max(1.0, self.halfwidth)))

    def _chord_impl(self, x, d, xx):
        # With s = sign(d_i), coordinate i reaches the face ahead at t = (a - s x_i) / |d_i| and the
        # one behind at t = -(a + s x_i) / |d_i|: bit for bit the quotients (a - x_i) / d_i and
        # (a + x_i) / -d_i.  A zero d_i makes both a / 0 = inf, which bounds nothing.  Inside when
        # each |x_i| is at most the limit.  Coordinate-major copies, so the reductions over the
        # coordinates run across contiguous rows.
        xt, dt = x.T.copy(), d.T.copy()
        inside = np.abs(xt).max(axis=0) <= self._limit
        xt *= np.sign(dt)
        np.abs(dt, out=dt)
        with np.errstate(divide="ignore"):
            ahead = np.subtract(self.halfwidth, xt)
            ahead /= dt
            behind = np.add(self.halfwidth, xt, out=xt)
            behind /= dt
        return -behind.min(axis=0), ahead.min(axis=0), inside


@dataclass(frozen=True)
class Ball(Body):
    """Euclidean ball of given radius."""

    radius: float
    n: int

    def __post_init__(self):
        if self.radius <= 0 or self.n < 1:
            raise ValueError("ball needs positive radius and dimension")
        if not math.isfinite(self.radius):
            raise ValueError("ball radius must be finite")
        # The membership bound on |x| and the sphere chord's squared radius, which _chord_impl tests.
        object.__setattr__(self, "_limit", float(self.radius + MEMBERSHIP_TOL * max(1.0, self.radius)))
        object.__setattr__(self, "_radius_sq", float(self.radius**2))

    def _chord_impl(self, x, d, xx):
        b = np.einsum("ij,ij->i", x, d)
        # Only a row far outside (|x| past about 1e154) overflows b * b, and its bounds go unread.
        with np.errstate(over="ignore", invalid="ignore"):
            root = b * b
            root -= xx - self._radius_sq
            np.sqrt(np.maximum(root, 0.0, out=root), out=root)
        np.negative(b, out=b)
        return b - root, np.add(b, root, out=root), np.sqrt(xx) <= self._limit


@dataclass(frozen=True)
class HPolytope(Body):
    """Polytope {x : rows @ x <= offsets}, one inequality per row.

    Explicit polytope data need not be centered or bounded; a chord query
    whose chord is unbounded raises, and membership asks for the chord
    along the first axis, so it may raise too.
    """

    rows: np.ndarray
    offsets: np.ndarray
    n: int = field(init=False)

    def __post_init__(self):
        a = _frozen(self.rows, "polytope rows/offsets")
        b = _frozen(self.offsets, "polytope rows/offsets")
        if a.ndim != 2 or b.ndim != 1 or a.shape[0] != b.shape[0]:
            raise ValueError("need matching inequality rows and offsets")
        if a.size == 0:
            raise ValueError("polytope needs at least one inequality and one coordinate")
        object.__setattr__(self, "rows", a)
        object.__setattr__(self, "offsets", b)
        object.__setattr__(self, "n", a.shape[1])
        # [-rows | offsets]: a point's slacks are its product with (x, 1), a direction's rates with (d, 0).
        object.__setattr__(self, "_slacks", np.hstack((-a, b[:, None])))
        object.__setattr__(self, "_tol", float(MEMBERSHIP_TOL * max(1.0, float(np.max(np.abs(b))))))

    def _chord_impl(self, x, d, xx):
        # Slacks and rates with one row per facet, so each reduction over the facets is an elementwise
        # pass along contiguous rows.  einsum, not matmul: BLAS may round a row of a product
        # differently as the number of rows changes, and a row answers as its point alone.
        rows = self._slacks[:, :-1]
        slack = np.einsum("ij,kj->ki", x, rows) + self._slacks[:, -1:]
        rate = np.einsum("ij,kj->ki", d, rows)
        # slack + rate t >= 0 bounds t by slack / -rate, below where the rate is positive and above
        # where it is negative.  A facet of rate 0 bounds neither and is not divided.
        t = np.divide(slack, -rate, out=np.empty_like(slack), where=rate != 0.0)
        lo, hi = np.where(rate > 0.0, t, -np.inf).max(axis=0), np.where(rate < 0.0, t, np.inf).min(axis=0)
        return lo, hi, slack.min(axis=0) >= -self._tol


@dataclass(frozen=True)
class Simplex(HPolytope):
    """Simplex given by its n+1 vertices (rows): the polytope of nonnegative barycentric coordinates."""

    rows: np.ndarray = field(init=False, repr=False)
    offsets: np.ndarray = field(init=False, repr=False)
    vertices: np.ndarray

    def __post_init__(self):
        v = _frozen(self.vertices, "simplex vertices")
        if v.ndim != 2 or v.shape[0] != v.shape[1] + 1:
            raise ValueError(f"simplex needs n+1 vertices in dimension n, got shape {v.shape}")
        object.__setattr__(self, "vertices", v)
        n = v.shape[1]
        # B = inv([V^T; 1]) takes (x, 1) to x's barycentric coordinates, the slacks of
        # rows -B[:, :n] and offsets B[:, n] (those of the origin).
        try:
            bary = np.linalg.inv(np.vstack([v.T, np.ones(n + 1)]))
        except np.linalg.LinAlgError as exc:
            raise ValueError("degenerate simplex vertices") from exc
        object.__setattr__(self, "rows", -bary[:, :n])
        object.__setattr__(self, "offsets", bary[:, n])
        super().__post_init__()
        if np.min(self.offsets) <= 0.0:
            raise ValueError("simplex must contain the origin strictly inside")


@dataclass(frozen=True)
class Truncated(Body):
    """Intersection of a base body with the centered ball of given radius."""

    base: Body
    radius: float
    n: int = field(init=False)

    def __post_init__(self):
        if self.radius <= 0.0:
            raise ValueError("truncation radius must be positive")
        if not math.isfinite(self.radius):
            raise ValueError("truncation radius must be finite")
        object.__setattr__(self, "n", self.base.n)
        object.__setattr__(self, "_ball", Ball(radius=self.radius, n=self.n))

    def _chord_impl(self, x, d, xx):
        # Body.chord has checked x and d once, so the private oracles compose
        # directly; each chord tests its own body's containment.
        b_lo, b_hi, b_in = self.base._chord_impl(x, d, xx)
        s_lo, s_hi, s_in = self._ball._chord_impl(x, d, xx)
        return np.maximum(b_lo, s_lo), np.minimum(b_hi, s_hi), b_in & s_in


def regular_simplex_vertices(n: int) -> np.ndarray:
    """Vertices of the regular simplex on the unit sphere, rows of shape (n+1, n).

    Construction: reflect the centered standard-basis simplex in R^(n+1)
    so it lands in the first n coordinates, then rescale to unit norm.
    Pairwise inner products are exactly -1/n up to roundoff.
    """
    if n < 1:
        raise ValueError("dimension must be >= 1")
    m = n + 1
    eye = np.eye(m)
    w = np.ones(m) / np.sqrt(m) - eye[-1]
    denom = float(w @ w)
    # Reflect each centered basis vector with its own vector dot: one matrix product may
    # round those sums differently.
    verts = np.array([(v - (2.0 * float(w @ v) / denom) * w)[:n] for v in eye - np.ones(m) / m])
    norms = np.linalg.norm(verts, axis=1)
    return verts / norms[:, None]


def isotropic_normalization(variant: str, n: int) -> Body:
    """The standard body of a family scaled into isotropic position.

    Closed forms: cube halfwidth sqrt(3) (the 1-d marginal second moment
    a^2/3 must equal 1); ball radius sqrt(n+2) (marginal r^2/(n+2)); the
    regular simplex scaled so its vertices have norm sqrt(n(n+2)) (the
    Dirichlet second-moment identity gives a marginal of rho^2/(n(n+2))
    for vertex norm rho).
    """
    if n < 1:
        raise ValueError("dimension must be >= 1")
    if variant == "cube":
        return Cube(halfwidth=np.sqrt(3.0), n=n)
    if variant == "ball":
        return Ball(radius=np.sqrt(n + 2.0), n=n)
    if variant == "simplex":
        scale = np.sqrt(n * (n + 2.0))
        return Simplex(vertices=regular_simplex_vertices(n) * scale)
    raise ValueError(f"no isotropic normalization for variant {variant!r}")


@dataclass(frozen=True)
class JohnDecomposition:
    """Unit contact points z_i with positive weights c_i.

    Construction validates finite data and the defining identities:
    sum c_i z_i (x) z_i equals the identity, sum c_i z_i vanishes, and the
    weights add to n (all at 1e-10).
    """

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        z = _frozen(self.points, "contact points/weights")
        c = _frozen(self.weights, "contact points/weights")
        if z.ndim != 2 or c.ndim != 1 or z.shape[0] != c.shape[0]:
            raise ValueError("need one weight per point")
        if np.min(c, initial=np.inf) <= 0.0:
            raise ValueError("weights must be positive")
        n = z.shape[1]
        tol = 1e-10
        if np.max(np.abs(np.linalg.norm(z, axis=1) - 1.0)) > tol:
            raise ValueError("contact points must be unit vectors")
        resolution = (z.T * c) @ z
        if operator_norm(resolution - np.eye(n)) > tol:
            raise ValueError("weighted rank-one sum must resolve the identity")
        if np.linalg.norm(c @ z) > tol:
            raise ValueError("weighted point sum must vanish")
        if abs(float(np.sum(c)) - n) > tol:
            raise ValueError("weights must sum to the dimension")
        object.__setattr__(self, "points", z)
        object.__setattr__(self, "weights", c)

    @property
    def n(self) -> int:
        return self.points.shape[1]


def canonical_john(variant: str, n: int) -> JohnDecomposition:
    """Closed-form John decompositions for the standard fixtures.

    cross-polytope: the 2n signed basis vectors, weights 1/2.
    cube-vertices: all 2^n sign patterns scaled to the unit sphere,
    weights n/2^n (guarded against the exponential blow-up past n=20).
    simplex: the n+1 regular simplex vertices, weights n/(n+1).
    """
    if n < 1:
        raise ValueError("dimension must be >= 1")
    if variant == "cross-polytope":
        eye = np.eye(n)
        points = np.vstack([eye, -eye])
        weights = np.full(2 * n, 0.5)
    elif variant == "cube-vertices":
        if n > CUBE_VERTEX_DIM_CAP:
            raise ValueError(f"cube-vertices fixture capped at n={CUBE_VERTEX_DIM_CAP}")
        k = np.arange(2**n)
        signs = 1.0 - 2.0 * ((k[:, None] >> np.arange(n)) & 1)
        points = signs / np.sqrt(n)
        weights = np.full(2**n, n / 2.0**n)
    elif variant == "simplex":
        points = regular_simplex_vertices(n)
        weights = np.full(n + 1, n / (n + 1.0))
    else:
        raise ValueError(f"unknown John fixture variant {variant!r}")
    return JohnDecomposition(points=points, weights=weights)
