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


# Appended to a point (1) or a direction (0) to take barycentric coordinates in one product.
_ONE = np.ones(1)
_ZERO = np.zeros(1)


def _as_point(x, n: int) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (n,):
        raise ValueError(f"point of dimension {x.shape} does not match body dimension {n}")
    return x


def _is_finite(x: np.ndarray, xx: float) -> bool:
    """Whether every entry of x is finite, given xx = x.dot(x) or x.sum().

    Either is finite whenever x is, unless it overflows; the full test settles that case.
    """
    return math.isfinite(xx) or bool(np.isfinite(x).all())


def _frozen(a, what: str) -> np.ndarray:
    """The value-object ownership rule: keep a float64 array as given, check it, freeze it.

    Other input (lists, other dtypes) is converted once.  After this the
    owner and the caller share one read-only array.  The sum tests
    finiteness without a mask; when a huge finite array overflows it (under
    the harness's over="raise" too), _is_finite runs the full test.
    """
    a = np.asarray(a, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        total = float(a.sum())
    if not _is_finite(a, total):
        raise ValueError(f"{what} must be finite")
    a.setflags(write=False)
    return a


def _in_ball(xx: float, radius: float) -> bool:
    """Whether a point with squared norm xx lies in the centered ball of the given radius."""
    return bool(math.sqrt(xx) <= radius + MEMBERSHIP_TOL * max(1.0, radius))


class Body:
    """Bounded convex body with the origin strictly inside."""

    n: int

    def membership(self, x) -> bool:
        """Whether x lies in the body; a non-finite point never does."""
        x = _as_point(x, self.n)
        xx = float(x.dot(x))
        return _is_finite(x, xx) and self._contains(x, xx)

    def _contains(self, x: np.ndarray, xx: float) -> bool:
        """Membership of a finite point of the body's dimension with xx = x.dot(x)."""
        raise NotImplementedError

    def chord(self, x, d) -> tuple[float, float]:
        """Maximal interval [t_lo, t_hi] with x + t*d inside for all t.

        Requires x finite and inside, and d a unit vector; the interval
        brackets 0.
        """
        x = _as_point(x, self.n)
        d = _as_point(d, self.n)
        # Written so that a NaN or infinite direction fails the test too.
        if not abs(float(d.dot(d)) - 1.0) <= 2e-10:
            raise ValueError("direction must be a finite unit vector")
        xx = float(x.dot(x))
        if not _is_finite(x, xx):
            raise ValueError("chord base point must be finite")
        chord = self._chord_impl(x, d, xx)
        if chord is None:
            raise ValueError("chord base point lies outside the body")
        t_lo, t_hi = chord
        # Roundoff can push a bound marginally across 0 when x sits on the
        # boundary; the contract is t_lo <= 0 <= t_hi.
        return min(t_lo, 0.0), max(t_hi, 0.0)

    def _chord_impl(self, x: np.ndarray, d: np.ndarray, xx: float) -> tuple[float, float] | None:
        """The chord through a finite x with xx = x.dot(x), or None when x lies outside.

        Each body tests membership here, so the test's work serves the chord too.
        """
        raise NotImplementedError


def _slab_chord(slack: list[float], coef: list[float]) -> tuple[float, float]:
    """Maximal interval of t with coef * t <= slack in every row.

    The chord kernel of the simplex and the H-polytope (the cube takes its
    2n rows in one pass of its own).  A loop over Python
    floats beats numpy's masked reductions at these row counts, so the
    rows come as Python sequences.
    """
    t_lo, t_hi = -math.inf, math.inf
    for s, c in zip(slack, coef):
        if c > 0.0:
            t = s / c
            if t < t_hi:
                t_hi = t
        elif c < 0.0:
            t = s / c
            if t > t_lo:
                t_lo = t
    if not (math.isfinite(t_lo) and math.isfinite(t_hi)):
        raise ValueError("chord is unbounded; body data must describe a bounded set")
    return t_lo, t_hi


def _sphere_chord(x: np.ndarray, d: np.ndarray, radius: float, xx: float) -> tuple[float, float]:
    """Chord of the centered ball of the given radius through x (xx = x.dot(x)) along unit d."""
    b = float(x.dot(d))
    disc = b * b - (xx - radius**2)
    root = math.sqrt(disc) if disc > 0.0 else 0.0
    return -b - root, -b + root


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
        # The membership bound on each |x_i|, which _contains and _chord_impl both test.
        object.__setattr__(self, "_limit", self.halfwidth + MEMBERSHIP_TOL * max(1.0, self.halfwidth))

    def _contains(self, x, xx):
        return bool(max(map(abs, x.tolist())) <= self._limit)

    def _chord_impl(self, x, d, xx):
        # _contains's bound on each |v| and _slab_chord's rows (a - v, c) and (a + v, -c), in one
        # pass with the same comparisons and divisions: the same verdict and bounds, bit for bit.
        a, lim = float(self.halfwidth), self._limit
        t_lo, t_hi = -math.inf, math.inf
        for v, c in zip(x.tolist(), d.tolist()):
            if not -lim <= v <= lim:
                return None
            if c > 0.0:
                t = (a - v) / c
                if t < t_hi:
                    t_hi = t
                t = (a + v) / -c
                if t > t_lo:
                    t_lo = t
            elif c < 0.0:
                t = (a - v) / c
                if t > t_lo:
                    t_lo = t
                t = (a + v) / -c
                if t < t_hi:
                    t_hi = t
        if not (math.isfinite(t_lo) and math.isfinite(t_hi)):
            raise ValueError("chord is unbounded; body data must describe a bounded set")
        return t_lo, t_hi


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

    def _contains(self, x, xx):
        return _in_ball(xx, self.radius)

    def _chord_impl(self, x, d, xx):
        return _sphere_chord(x, d, self.radius, xx) if _in_ball(xx, self.radius) else None


@dataclass(frozen=True)
class Simplex(Body):
    """Simplex given by its n+1 vertices (rows)."""

    vertices: np.ndarray
    n: int = field(init=False)

    def __post_init__(self):
        v = _frozen(self.vertices, "simplex vertices")
        if v.ndim != 2 or v.shape[0] != v.shape[1] + 1:
            raise ValueError(f"simplex needs n+1 vertices in dimension n, got shape {v.shape}")
        object.__setattr__(self, "vertices", v)
        object.__setattr__(self, "n", v.shape[1])
        # Barycentric solve: [V^T; 1] lam = [x; 1].
        m = np.vstack([v.T, np.ones(self.n + 1)])
        try:
            object.__setattr__(self, "_bary_inv", np.linalg.inv(m))
        except np.linalg.LinAlgError as exc:
            raise ValueError("degenerate simplex vertices") from exc
        if np.min(self._barycentric(np.zeros(self.n))) <= 0.0:
            raise ValueError("simplex must contain the origin strictly inside")

    def _barycentric(self, x: np.ndarray) -> np.ndarray:
        return self._bary_inv @ np.concatenate((x, _ONE))

    def _contains(self, x, xx):
        return min(self._barycentric(x).tolist()) >= -MEMBERSHIP_TOL

    def _chord_impl(self, x, d, xx):
        # Barycentric coordinates along the line are lam + t * mu >= 0; x is inside when lam >= 0.
        lam = self._barycentric(x).tolist()
        if not min(lam) >= -MEMBERSHIP_TOL:
            return None
        mu = self._bary_inv @ np.concatenate((d, _ZERO))
        return _slab_chord(lam, [-c for c in mu.tolist()])


@dataclass(frozen=True)
class HPolytope(Body):
    """Polytope {x : rows @ x <= offsets}, one inequality per row."""

    rows: np.ndarray
    offsets: np.ndarray
    n: int = field(init=False)

    def __post_init__(self):
        a = _frozen(self.rows, "polytope rows/offsets")
        b = _frozen(self.offsets, "polytope rows/offsets")
        if a.ndim != 2 or b.ndim != 1 or a.shape[0] != b.shape[0]:
            raise ValueError("need matching inequality rows and offsets")
        # Unlike the canonical families, explicit polytope data may be
        # non-centered; boundedness is enforced lazily by chord queries.
        object.__setattr__(self, "rows", a)
        object.__setattr__(self, "offsets", b)
        object.__setattr__(self, "n", a.shape[1])

    def _contains(self, x, xx):
        scale = 1.0 + float(np.max(np.abs(self.offsets)))
        return bool(np.max(self.rows @ x - self.offsets) <= MEMBERSHIP_TOL * scale)

    def _chord_impl(self, x, d, xx):
        if not self._contains(x, xx):
            return None
        return _slab_chord((self.offsets - self.rows @ x).tolist(), (self.rows @ d).tolist())


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

    def _contains(self, x, xx):
        return _in_ball(xx, self.radius) and self.base._contains(x, xx)

    def _chord_impl(self, x, d, xx):
        # Body.chord has checked x and d once, so the private oracles compose
        # directly; the base chord tests base membership.
        if not _in_ball(xx, self.radius):
            return None
        base = self.base._chord_impl(x, d, xx)
        if base is None:
            return None
        lo_s, hi_s = _sphere_chord(x, d, self.radius, xx)
        return max(base[0], lo_s), min(base[1], hi_s)


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
