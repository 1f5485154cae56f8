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


# Appended to a point (1) or a direction (0) to take a polytope's slacks or their rates in one product.
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


def _fix_ball_bounds(body, radius: float) -> None:
    """Store the bounds a centered ball of the given radius tests, once: ``_limit`` on |x|
    (membership: |x| <= _limit) and the squared radius ``_radius_sq`` of its chord."""
    object.__setattr__(body, "_limit", float(radius + MEMBERSHIP_TOL * max(1.0, radius)))
    object.__setattr__(body, "_radius_sq", float(radius**2))


class Body:
    """Bounded convex body with the origin strictly inside.

    Each body states its containment test once, in its private chord oracle:
    ``membership`` asks for the chord along the first axis and reads whether
    there is one.  A bounded body has a finite chord in every direction.
    """

    n: int

    def membership(self, x) -> bool:
        """Whether x lies in the body; a non-finite point never does."""
        x = _as_point(x, self.n)
        xx = float(x.dot(x))
        if not _is_finite(x, xx):
            return False
        e1 = np.zeros(self.n)
        e1[0] = 1.0
        return self._chord_impl(x, e1, xx) is not None

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

        The body's one containment test, which membership reads too.
        """
        raise NotImplementedError


def _slab_chord(slack: list[float], rate: list[float]) -> tuple[float, float]:
    """Maximal interval of t with slack + rate * t >= 0 in every row.

    The chord kernel of the H-polytope (the cube takes its 2n rows in one
    pass of its own).  A loop over Python floats beats numpy's masked
    reductions at these row counts, so the rows come as Python sequences.
    """
    t_lo, t_hi = -math.inf, math.inf
    for s, r in zip(slack, rate):
        if r < 0.0:
            t = s / -r
            if t < t_hi:
                t_hi = t
        elif r > 0.0:
            t = s / -r
            if t > t_lo:
                t_lo = t
    if not (math.isfinite(t_lo) and math.isfinite(t_hi)):
        raise ValueError("chord is unbounded; body data must describe a bounded set")
    return t_lo, t_hi


def _sphere_chord(x: np.ndarray, d: np.ndarray, radius_sq: float, xx: float) -> tuple[float, float]:
    """Chord of the centered ball of squared radius radius_sq through x (xx = x.dot(x)) along unit d."""
    b = float(x.dot(d))
    disc = b * b - (xx - radius_sq)
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
        # The membership bound on each |x_i|, which _chord_impl tests.
        object.__setattr__(self, "_limit", float(self.halfwidth + MEMBERSHIP_TOL * max(1.0, self.halfwidth)))

    def _chord_impl(self, x, d, xx):
        # The bound on each |v| and _slab_chord's rows (a - v, -c) and (a + v, c), in one pass
        # with the same comparisons and divisions: the same bounds, bit for bit.
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
        _fix_ball_bounds(self, self.radius)

    def _chord_impl(self, x, d, xx):
        return _sphere_chord(x, d, self._radius_sq, xx) if math.sqrt(xx) <= self._limit else None


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
        # [-rows | offsets]: its product with (x, 1) is a point's slacks, with (d, 0) their rates.
        object.__setattr__(self, "_slacks", np.hstack((-a, b[:, None])))
        object.__setattr__(self, "_tol", float(MEMBERSHIP_TOL * max(1.0, float(np.max(np.abs(b))))))

    def _chord_impl(self, x, d, xx):
        slack = (self._slacks @ np.concatenate((x, _ONE))).tolist()
        if not min(slack) >= -self._tol:
            return None
        return _slab_chord(slack, (self._slacks @ np.concatenate((d, _ZERO))).tolist())


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
        _fix_ball_bounds(self, self.radius)

    def _chord_impl(self, x, d, xx):
        # Body.chord has checked x and d once, so the private oracles compose
        # directly; the base chord tests base membership.
        if not math.sqrt(xx) <= self._limit:
            return None
        base = self.base._chord_impl(x, d, xx)
        if base is None:
            return None
        lo_s, hi_s = _sphere_chord(x, d, self._radius_sq, xx)
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
