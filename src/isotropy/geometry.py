"""Convex body descriptions and canonical fixtures.

Bodies are origin-centered value objects exposing two oracles: membership
and chords (the maximal segment through a point along a direction).  The
module also carries the closed-form scalings that put the standard bodies
into isotropic position, and the canonical John decompositions used as
test fixtures throughout.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .symlin import SymMatrix, eigen, operator_norm

__all__ = [
    "GeometryError",
    "Body",
    "Cube",
    "Ball",
    "Simplex",
    "Ellipsoid",
    "HPolytope",
    "Truncated",
    "JohnDecomposition",
    "isotropic_normalization",
    "canonical_john",
    "regular_simplex_vertices",
    "load_hpolytope",
    "parse_hpolytope",
]

# Boundary slack for membership tests: points computed to lie exactly on a
# face (e.g. chord endpoints) must not be rejected by roundoff.  Must stay
# far below the 1e-6 exterior probes used by the chord consistency checks.
MEMBERSHIP_TOL = 1e-9

CUBE_VERTEX_DIM_CAP = 20


class GeometryError(ValueError):
    """Invalid body data or oracle misuse."""


def _as_point(x, n: int) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    if x.shape != (n,):
        raise GeometryError(f"point of dimension {x.shape} does not match body dimension {n}")
    return x


class Body:
    """Bounded convex body with the origin strictly inside."""

    n: int

    def membership(self, x) -> bool:
        raise NotImplementedError

    def chord(self, x, d) -> tuple[float, float]:
        """Maximal interval [t_lo, t_hi] with x + t*d inside for all t.

        Requires x inside and d a unit vector; the interval brackets 0.
        """
        x = _as_point(x, self.n)
        d = _as_point(d, self.n)
        if abs(float(np.dot(d, d)) - 1.0) > 2e-10:
            raise GeometryError("direction must be a unit vector")
        if not self.membership(x):
            raise GeometryError("chord base point lies outside the body")
        t_lo, t_hi = self._chord_impl(x, d)
        # Roundoff can push a bound marginally across 0 when x sits on the
        # boundary; the contract is t_lo <= 0 <= t_hi.
        return min(t_lo, 0.0), max(t_hi, 0.0)

    def _chord_impl(self, x: np.ndarray, d: np.ndarray) -> tuple[float, float]:
        raise NotImplementedError


def _interval_from_bounds(lowers, uppers) -> tuple[float, float]:
    t_lo = max(lowers) if lowers else -np.inf
    t_hi = min(uppers) if uppers else np.inf
    if not (np.isfinite(t_lo) and np.isfinite(t_hi)):
        raise GeometryError("chord is unbounded; body data must describe a bounded set")
    return float(t_lo), float(t_hi)


@dataclass(frozen=True)
class Cube(Body):
    """Axis-aligned cube [-halfwidth, halfwidth]^n."""

    halfwidth: float
    n: int

    def __post_init__(self):
        if self.halfwidth <= 0 or self.n < 1:
            raise GeometryError("cube needs positive halfwidth and dimension")

    def membership(self, x) -> bool:
        x = _as_point(x, self.n)
        return bool(np.max(np.abs(x)) <= self.halfwidth + MEMBERSHIP_TOL * max(1.0, self.halfwidth))

    def _chord_impl(self, x, d):
        lowers, uppers = [], []
        a = self.halfwidth
        for i in range(self.n):
            if d[i] == 0.0:
                continue
            b1 = (-a - x[i]) / d[i]
            b2 = (a - x[i]) / d[i]
            lo, hi = (b1, b2) if b1 <= b2 else (b2, b1)
            lowers.append(lo)
            uppers.append(hi)
        return _interval_from_bounds(lowers, uppers)


@dataclass(frozen=True)
class Ball(Body):
    """Euclidean ball of given radius."""

    radius: float
    n: int

    def __post_init__(self):
        if self.radius <= 0 or self.n < 1:
            raise GeometryError("ball needs positive radius and dimension")

    def membership(self, x) -> bool:
        x = _as_point(x, self.n)
        return bool(np.linalg.norm(x) <= self.radius + MEMBERSHIP_TOL * max(1.0, self.radius))

    def _chord_impl(self, x, d):
        b = float(np.dot(x, d))
        c = float(np.dot(x, x)) - self.radius**2
        disc = b * b - c
        if disc < 0.0:
            disc = 0.0
        root = np.sqrt(disc)
        return -b - root, -b + root


@dataclass(frozen=True)
class Simplex(Body):
    """Simplex given by its n+1 vertices (rows)."""

    vertices: np.ndarray
    n: int = field(init=False)

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=float)
        if v.ndim != 2 or v.shape[0] != v.shape[1] + 1:
            raise GeometryError(f"simplex needs n+1 vertices in dimension n, got shape {v.shape}")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "vertices", v)
        object.__setattr__(self, "n", v.shape[1])
        # Barycentric solve: [V^T; 1] lam = [x; 1].
        m = np.vstack([v.T, np.ones(self.n + 1)])
        try:
            object.__setattr__(self, "_bary_inv", np.linalg.inv(m))
        except np.linalg.LinAlgError as exc:
            raise GeometryError("degenerate simplex vertices") from exc
        if np.min(self.barycentric(np.zeros(self.n))) <= 0.0:
            raise GeometryError("simplex must contain the origin strictly inside")

    def barycentric(self, x) -> np.ndarray:
        x = _as_point(x, self.n)
        return self._bary_inv @ np.append(x, 1.0)

    def membership(self, x) -> bool:
        return bool(np.min(self.barycentric(x)) >= -MEMBERSHIP_TOL)

    def _chord_impl(self, x, d):
        lam = self.barycentric(x)
        mu = self._bary_inv @ np.append(d, 0.0)
        lowers, uppers = [], []
        for li, mi in zip(lam, mu):
            if mi == 0.0:
                continue
            bound = -li / mi
            if mi > 0.0:
                lowers.append(bound)
            else:
                uppers.append(bound)
        return _interval_from_bounds(lowers, uppers)


@dataclass(frozen=True)
class Ellipsoid(Body):
    """Ellipsoid {x : x^T shape^-1 x <= 1} for an SPD shape matrix.

    The shape matrix is the second-moment-like form of the body: the
    ellipsoid is the image of the unit ball under shape^(1/2).
    """

    shape: SymMatrix
    n: int = field(init=False)

    def __post_init__(self):
        dec = eigen(self.shape)
        if np.min(dec.eigenvalues) <= 0.0:
            raise GeometryError("ellipsoid shape matrix must be positive definite")
        q = dec.eigenvectors
        inv = (q / dec.eigenvalues) @ q.T
        half = (q * np.sqrt(dec.eigenvalues)) @ q.T
        object.__setattr__(self, "n", self.shape.n)
        object.__setattr__(self, "_inv", 0.5 * (inv + inv.T))
        object.__setattr__(self, "_half", 0.5 * (half + half.T))

    @property
    def half_map(self) -> np.ndarray:
        """Symmetric square root of the shape matrix (maps unit ball onto the body)."""
        return self._half

    def quadratic(self, x) -> float:
        x = _as_point(x, self.n)
        return float(x @ self._inv @ x)

    def membership(self, x) -> bool:
        return self.quadratic(x) <= 1.0 + MEMBERSHIP_TOL

    def _chord_impl(self, x, d):
        a = float(d @ self._inv @ d)
        b = float(x @ self._inv @ d)
        c = self.quadratic(x) - 1.0
        disc = b * b - a * c
        if disc <= 0.0:
            return 0.0, 0.0  # tangency: degenerate interval
        root = np.sqrt(disc)
        return (-b - root) / a, (-b + root) / a


@dataclass(frozen=True)
class HPolytope(Body):
    """Polytope {x : rows @ x <= offsets}, one inequality per row."""

    rows: np.ndarray
    offsets: np.ndarray
    n: int = field(init=False)

    def __post_init__(self):
        a = np.asarray(self.rows, dtype=float)
        b = np.asarray(self.offsets, dtype=float)
        if a.ndim != 2 or b.ndim != 1 or a.shape[0] != b.shape[0]:
            raise GeometryError("need matching inequality rows and offsets")
        if not (np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
            raise GeometryError("polytope data must be finite")
        # Unlike the canonical families, explicit polytope data may be
        # non-centered; boundedness is enforced lazily by chord queries.
        a = a.copy()
        b = b.copy()
        a.setflags(write=False)
        b.setflags(write=False)
        object.__setattr__(self, "rows", a)
        object.__setattr__(self, "offsets", b)
        object.__setattr__(self, "n", a.shape[1])

    def membership(self, x) -> bool:
        x = _as_point(x, self.n)
        scale = 1.0 + float(np.max(np.abs(self.offsets)))
        return bool(np.max(self.rows @ x - self.offsets) <= MEMBERSHIP_TOL * scale)

    def _chord_impl(self, x, d):
        slack = self.offsets - self.rows @ x
        coef = self.rows @ d
        lowers, uppers = [], []
        for sl, cf in zip(slack, coef):
            if cf == 0.0:
                continue
            bound = sl / cf
            if cf > 0.0:
                uppers.append(bound)
            else:
                lowers.append(bound)
        return _interval_from_bounds(lowers, uppers)


@dataclass(frozen=True)
class Truncated(Body):
    """Intersection of a base body with the centered ball of given radius."""

    base: Body
    radius: float
    n: int = field(init=False)

    def __post_init__(self):
        if self.radius <= 0.0:
            raise GeometryError("truncation radius must be positive")
        object.__setattr__(self, "n", self.base.n)

    def membership(self, x) -> bool:
        x = _as_point(x, self.n)
        ball_ok = np.linalg.norm(x) <= self.radius + MEMBERSHIP_TOL * max(1.0, self.radius)
        return bool(ball_ok) and self.base.membership(x)

    def _chord_impl(self, x, d):
        lo_b, hi_b = self.base.chord(x, d)
        lo_s, hi_s = Ball(self.radius, self.n).chord(x, d)
        return max(lo_b, lo_s), min(hi_b, hi_s)


def regular_simplex_vertices(n: int) -> np.ndarray:
    """Vertices of the regular simplex on the unit sphere, rows of shape (n+1, n).

    Construction: reflect the centered standard-basis simplex in R^(n+1)
    so it lands in the first n coordinates, then rescale to unit norm.
    Pairwise inner products are exactly -1/n up to roundoff.
    """
    if n < 1:
        raise GeometryError("dimension must be >= 1")
    m = n + 1
    u = np.ones(m) / np.sqrt(m)
    w = u - np.eye(m)[-1]
    denom = float(w @ w)
    verts = []
    for i in range(m):
        v = np.eye(m)[i] - np.ones(m) / m
        v = v - (2.0 * float(w @ v) / denom) * w
        verts.append(v[:n])
    verts = np.array(verts)
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
        raise GeometryError("dimension must be >= 1")
    key = variant.lower()
    if key == "cube":
        return Cube(halfwidth=np.sqrt(3.0), n=n)
    if key == "ball":
        return Ball(radius=np.sqrt(n + 2.0), n=n)
    if key == "simplex":
        scale = np.sqrt(n * (n + 2.0))
        return Simplex(vertices=regular_simplex_vertices(n) * scale)
    raise GeometryError(f"no isotropic normalization for variant {variant!r}")


@dataclass(frozen=True)
class JohnDecomposition:
    """Unit contact points z_i with positive weights c_i.

    Construction validates the defining identities: sum c_i z_i (x) z_i
    equals the identity, sum c_i z_i vanishes, and the weights add to n
    (all at 1e-10).
    """

    points: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        z = np.asarray(self.points, dtype=float)
        c = np.asarray(self.weights, dtype=float)
        if z.ndim != 2 or c.ndim != 1 or z.shape[0] != c.shape[0]:
            raise GeometryError("need one weight per point")
        if np.min(c, initial=np.inf) <= 0.0:
            raise GeometryError("weights must be positive")
        n = z.shape[1]
        tol = 1e-10
        if np.max(np.abs(np.linalg.norm(z, axis=1) - 1.0)) > tol:
            raise GeometryError("contact points must be unit vectors")
        resolution = (z.T * c) @ z
        if operator_norm(SymMatrix.from_dense(resolution) - SymMatrix.identity(n)) > tol:
            raise GeometryError("weighted rank-one sum must resolve the identity")
        if np.linalg.norm(c @ z) > tol:
            raise GeometryError("weighted point sum must vanish")
        if abs(float(np.sum(c)) - n) > tol:
            raise GeometryError("weights must sum to the dimension")
        z = z.copy()
        c = c.copy()
        z.setflags(write=False)
        c.setflags(write=False)
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
        raise GeometryError("dimension must be >= 1")
    key = variant.lower().replace("_", "-")
    if key == "cross-polytope":
        eye = np.eye(n)
        points = np.vstack([eye, -eye])
        weights = np.full(2 * n, 0.5)
    elif key == "cube-vertices":
        if n > CUBE_VERTEX_DIM_CAP:
            raise GeometryError(f"cube-vertices fixture capped at n={CUBE_VERTEX_DIM_CAP}")
        k = np.arange(2**n)
        signs = 1.0 - 2.0 * ((k[:, None] >> np.arange(n)) & 1)
        points = signs / np.sqrt(n)
        weights = np.full(2**n, n / 2.0**n)
    elif key == "simplex":
        points = regular_simplex_vertices(n)
        weights = np.full(n + 1, n / (n + 1.0))
    else:
        raise GeometryError(f"unknown John fixture variant {variant!r}")
    return JohnDecomposition(points=points, weights=weights)


def parse_hpolytope(text: str) -> HPolytope:
    """Parse the plain-text polytope format.

    First line: "n m".  Then m lines, each with n coefficients followed by
    one offset, whitespace separated, decimal notation.
    """
    tokens = text.split()
    if len(tokens) < 2:
        raise GeometryError("polytope text must start with 'n m'")
    try:
        n, m = int(tokens[0]), int(tokens[1])
    except ValueError as exc:
        raise GeometryError("polytope header must hold two integers") from exc
    need = 2 + m * (n + 1)
    if len(tokens) != need:
        raise GeometryError(f"expected {need} tokens for an {n}-dim polytope with {m} rows, got {len(tokens)}")
    try:
        data = np.array([float(t) for t in tokens[2:]]).reshape(m, n + 1)
    except ValueError as exc:
        raise GeometryError("polytope entries must be decimal numbers") from exc
    return HPolytope(rows=data[:, :n], offsets=data[:, n])


def load_hpolytope(path) -> HPolytope:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_hpolytope(fh.read())
