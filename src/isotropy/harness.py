"""Experiment orchestration: configs, one grid runner, and output writers.

Experiments are pure functions of (config, master seed).  Every kind runs
through the same grid runner: each config point and trial seed owns a
split random stream keyed by (experiment kind, point index, trial seed)
and yields one row, so results do not depend on execution order, a worker
pool can fan rows out safely, and rows come out in config order for any
worker count.  Science fields are serialized as CSV (or a mirroring JSON
array) with 17 significant digits; wall-clock time never enters the
output files.
"""

from __future__ import annotations

import hashlib
import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field

import numpy as np

from . import bernoulli as brn
from . import geometry as geo
from . import johnsparse as jsp
from . import moments as mom
from . import samplers as smp
from .moments import format_float
from .symlin import SymMatrix, eigen_batch, inv_sqrt, operator_norm

__all__ = [
    "ConfigError",
    "ExperimentError",
    "ExperimentConfig",
    "ExperimentResult",
    "parse_config",
    "load_config",
    "derive_stream",
    "make_draw",
    "run_check",
    "run_experiment",
    "render_csv",
    "render_json",
    "agg_output_path",
]

EXPERIMENT_KINDS = ("sweep", "whiten", "truncated", "john-sparsify", "bernoulli", "check")

SAMPLER_CHOICES = ("cube", "ball", "simplex")
FIXTURE_CHOICES = ("cross-polytope", "cube-vertices", "simplex")


class ConfigError(ValueError):
    """Bad configuration text or values; a usage-level error."""


class ExperimentError(RuntimeError):
    """An experiment failed at runtime."""


@dataclass
class ExperimentConfig:
    kind: str
    sampler: str = "cube"
    fixture: str = "cross-polytope"
    n: int = 8
    m: int = 100_000
    m_grid: list[int] = field(default_factory=lambda: [256, 1024, 4096, 16384])
    seeds: list[int] = field(default_factory=lambda: list(range(10)))
    eps: float = 0.1
    r: float = 1.0
    c: float = 2.0
    c0: float = 256.0
    trials: int = brn.DEFAULT_TRIALS
    max_attempts: int = jsp.DEFAULT_MAX_ATTEMPTS
    distortion: list[float] | None = None
    mode: str = "ratio"
    seed: int = 0
    workers: int = 1
    out: str | None = None
    format: str = "csv"

    def validate(self):
        if self.kind not in EXPERIMENT_KINDS:
            raise ConfigError(f"unknown experiment kind {self.kind!r}")
        if self.n < 1:
            raise ConfigError("n must be >= 1")
        if not self.m_grid:
            raise ConfigError("m_grid must be nonempty")
        if any(m < 3 for m in self.m_grid) or len(set(self.m_grid)) != len(self.m_grid):
            raise ConfigError("m_grid entries must be distinct and >= 3")
        if self.m < 1:
            raise ConfigError("m must be >= 1")
        if not self.seeds:
            raise ConfigError("seeds must be nonempty")
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigError("seeds must be distinct")
        if not 0.0 < self.eps < 1.0:
            raise ConfigError("eps must lie in (0, 1)")
        if not all(math.isfinite(v) and v > 0.0 for v in (self.r, self.c, self.c0)):
            raise ConfigError("r, c and c0 must be positive and finite")
        if self.trials < 1 or self.max_attempts < 1 or self.workers < 1:
            raise ConfigError("trials, max_attempts and workers must be >= 1")
        if self.mode not in ("ratio", "symmetrize"):
            raise ConfigError(f"unknown bernoulli mode {self.mode!r}")
        if self.format not in ("csv", "json"):
            raise ConfigError(f"unknown output format {self.format!r}")
        base, colon, sub = self.sampler.partition(":")
        if base not in SAMPLER_CHOICES + ("john",):
            raise ConfigError(f"unknown sampler {self.sampler!r}")
        sampler_fixture = sub if colon else self.fixture
        if base == "john" and sampler_fixture not in FIXTURE_CHOICES:
            raise ConfigError(f"unknown John fixture {sampler_fixture!r}")
        if self.fixture not in FIXTURE_CHOICES:
            raise ConfigError(f"unknown John fixture {self.fixture!r}")
        built = self.fixture if self.kind == "john-sparsify" else sampler_fixture if base == "john" else None
        if built == "cube-vertices" and self.n > geo.CUBE_VERTEX_DIM_CAP:
            raise ConfigError(f"cube-vertices fixture needs n <= {geo.CUBE_VERTEX_DIM_CAP}")
        if self.distortion is not None and (
            len(self.distortion) != self.n or not all(math.isfinite(d) for d in self.distortion)
        ):
            raise ConfigError("distortion must list one finite factor per coordinate")
        if self.kind == "truncated":
            if base not in SAMPLER_CHOICES:
                raise ConfigError("truncated sampling needs a body sampler (cube, ball or simplex)")
            truncated_sample_count(self.n, self.r, self.eps, self.c0)


_INT_KEYS = {"n", "m", "trials", "max_attempts", "seed", "workers"}
_FLOAT_KEYS = {"eps", "r", "c", "c0"}
_INT_LIST_KEYS = {"m_grid", "seeds"}
_FLOAT_LIST_KEYS = {"distortion"}
_STR_KEYS = {"kind", "sampler", "fixture", "mode", "out", "format"}


def parse_config(text: str, kind: str | None = None) -> ExperimentConfig:
    """Parse flat key=value config text (comma-separated list values).

    Blank lines and lines starting with '#' are skipped.  ``kind`` from
    the caller (the CLI subcommand) must agree with a kind key in the
    text, if present.
    """
    values: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {line!r}")
        key, _, val = line.partition("=")
        key = key.strip().lower()
        val = val.strip()
        try:
            if key in _INT_KEYS:
                values[key] = int(val)
            elif key in _FLOAT_KEYS:
                values[key] = float(val)
            elif key in _INT_LIST_KEYS:
                values[key] = [int(v) for v in val.split(",") if v.strip() != ""]
            elif key in _FLOAT_LIST_KEYS:
                values[key] = [float(v) for v in val.split(",") if v.strip() != ""]
            elif key in _STR_KEYS:
                values[key] = val
            else:
                raise ConfigError(f"line {lineno}: unknown key {key!r}")
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {val!r}") from exc
    if kind is not None:
        stated = values.get("kind")
        if stated is not None and stated != kind:
            raise ConfigError(f"config kind {stated!r} does not match subcommand {kind!r}")
        values["kind"] = kind
    if "kind" not in values:
        raise ConfigError("config must state an experiment kind")
    cfg = ExperimentConfig(**values)  # type: ignore[arg-type]
    cfg.validate()
    return cfg


def load_config(path, kind: str | None = None) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read(), kind=kind)


def derive_stream(kind: str, point: int, seed: int) -> int:
    """Stable 64-bit stream id for (experiment kind, config point, trial seed)."""
    digest = hashlib.blake2b(f"{kind}:{point}:{seed}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "little")


def make_draw(sampler: str, n: int, fixture: str = "cross-polytope"):
    """Resolve a sampler name to (label, draw) with draw(m, rng) -> (m, n) array."""
    base, _, sub = sampler.partition(":")
    if base == "john":
        jd = geo.canonical_john(sub or fixture, n)
        label = f"john:{sub or fixture}"
        return label, lambda m, rng: smp.john_draws(jd, m, rng)
    if base in SAMPLER_CHOICES:
        body = geo.isotropic_normalization(base, n)
        return base, lambda m, rng: smp.direct_draws(body, m, rng)
    raise ConfigError(f"unknown sampler {sampler!r}")


@dataclass
class ExperimentResult:
    header: list[str]
    rows: list[dict]
    agg_header: list[str] | None = None
    aggregates: list[dict] | None = None


def _format_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return format_float(float(v))
    return str(v)


def render_csv(header: list[str], rows: list[dict]) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_format_value(row[k]) for k in header))
    return "\n".join(lines) + "\n"


def _json_value(v):
    if isinstance(v, bool):
        return v
    if isinstance(v, (int, np.integer)):
        return int(v)
    if isinstance(v, (float, np.floating)):
        return float(v) if math.isfinite(v) else None
    return v


def render_json(header: list[str], rows: list[dict]) -> str:
    """RFC 8259 JSON array of row objects; non-finite floats become null."""
    payload = [{k: _json_value(row[k]) for k in header} for row in rows]
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


def agg_output_path(path: str) -> str:
    """Sibling path for aggregate rows: results.csv -> results.agg.csv."""
    stem, dot, ext = path.rpartition(".")
    if not dot:
        return path + ".agg"
    return f"{stem}.agg.{ext}"


def _run_grid(cfg: ExperimentConfig, row, points: list) -> list[dict]:
    """``row(point, seed, rng)`` for each point, then each seed, in config order.

    The row for the i-th point draws from the stream keyed by (kind, i, seed),
    so it does not depend on which worker computes it, and ``pool.map`` keeps
    config order for any ``cfg.workers``.
    """

    def one(task) -> dict:
        i, point, seed = task
        rng = smp.RandomStream(seed=cfg.seed, stream=derive_stream(cfg.kind, i, seed))
        return row(point, seed, rng)

    tasks = [(i, point, seed) for i, point in enumerate(points) for seed in cfg.seeds]
    if cfg.workers <= 1:
        return [one(task) for task in tasks]
    with ThreadPoolExecutor(max_workers=cfg.workers) as pool:
        return list(pool.map(one, tasks))


# Each experiment kind is a plan: plan(cfg) resolves the sampler, body or
# fixture once and returns (row, header, points), where row(M, seed, rng)
# computes one output row from that seed's stream.

SWEEP_HEADER = ["experiment", "n", "M", "seed", "sampler", "deviation", "log_moment", "rhs_shape", "ratio"]
SWEEP_AGG_HEADER = ["experiment", "n", "M", "sampler", "n_seeds", "mean_deviation", "normalized_deviation"]


def _plan_sweep(cfg: ExperimentConfig):
    """Deviation reports over an M grid of fresh batches."""
    label, draw = make_draw(cfg.sampler, cfg.n, cfg.fixture)

    def row(m: int, seed: int, rng: smp.RandomStream) -> dict:
        batch = smp.SampleBatch(vectors=draw(m, rng), sampler=label, seed=seed, stream=rng.stream)
        return {"experiment": cfg.kind, **asdict(mom.concentration_report(batch))}

    return row, SWEEP_HEADER, cfg.m_grid


def _sweep_aggregates(cfg: ExperimentConfig, rows: list[dict]) -> list[dict]:
    """Per-M seed-mean deviation and mean_deviation * sqrt(M / log M), the bound's decay shape."""
    aggregates = []
    for m in cfg.m_grid:
        devs = [r["deviation"] for r in rows if r["M"] == m]
        mean_dev = float(np.mean(devs))
        aggregates.append(
            {
                "experiment": cfg.kind,
                "n": cfg.n,
                "M": m,
                "sampler": rows[0]["sampler"],
                "n_seeds": len(devs),
                "mean_deviation": mean_dev,
                "normalized_deviation": mean_dev * math.sqrt(m) / math.sqrt(math.log(m)),
            }
        )
    return aggregates


WHITEN_HEADER = [
    "experiment",
    "n",
    "M",
    "seed",
    "eps",
    "deviation_raw",
    "deviation_whitened",
    "isotropic",
]


def default_distortion(n: int) -> list[float]:
    """The fixed diagonal distortion used by the whitening experiment."""
    d = [1.0] * n
    d[0] = 2.0
    d[-1] = 0.5
    return d


def _plan_whiten(cfg: ExperimentConfig):
    """Two-stage whitening round trip on a linearly distorted body.

    Stage one estimates T from M distorted samples and forms T^(-1/2);
    stage two applies that fixed map to M fresh distorted samples and
    checks the fresh empirical second moment for eps-isotropy, which holds
    exactly when its deviation is at most eps.
    """
    label, draw = make_draw(cfg.sampler, cfg.n, cfg.fixture)
    distortion = np.asarray(cfg.distortion if cfg.distortion is not None else default_distortion(cfg.n))

    def row(m: int, seed: int, rng: smp.RandomStream) -> dict:
        first = draw(m, rng) * distortion
        t_hat = mom.empirical_second_moment(
            smp.SampleBatch(vectors=first, sampler=label, seed=seed, stream=rng.stream)
        )
        w = mom.whitening_transform(t_hat)
        whitened = (draw(m, rng) * distortion) @ w.mat
        t2 = mom.empirical_second_moment(
            smp.SampleBatch(vectors=whitened, sampler=label, seed=seed, stream=rng.stream)
        )
        dev = mom.deviation(t2)
        return {
            "experiment": cfg.kind,
            "n": cfg.n,
            "M": m,
            "seed": seed,
            "eps": cfg.eps,
            "deviation_raw": mom.deviation(t_hat),
            "deviation_whitened": dev,
            "isotropic": dev <= cfg.eps,
        }

    return row, WHITEN_HEADER, [cfg.m]


TRUNCATED_HEADER = [
    "experiment",
    "n",
    "R",
    "eps",
    "c0",
    "M",
    "seed",
    "sampler",
    "deviation",
    "log_moment",
    "rhs_shape",
    "ratio",
    "isotropic",
]


def truncated_sample_count(n: int, r: float, eps: float, c0: float) -> int:
    """M per the truncated-sampling rule: ceil(c0 (R^2 n / eps^2) log(R^2 n / eps^2))."""
    x = r * r * n / (eps * eps)
    if x <= 1.0:
        raise ConfigError("R^2 n / eps^2 must exceed 1")
    return int(math.ceil(c0 * x * math.log(x)))


def _plan_truncated(cfg: ExperimentConfig):
    """Deviation and eps-isotropy (deviation <= eps) of samples from body intersect R sqrt(n) ball."""
    base = cfg.sampler.split(":", 1)[0]
    body = geo.isotropic_normalization(base, cfg.n)
    label = f"truncated:{base}"

    def row(m: int, seed: int, rng: smp.RandomStream) -> dict:
        try:
            vectors = smp.TruncatedSampler(body, cfg.r, rng).draw(m)
        except smp.TruncationError as exc:
            raise ExperimentError(f"seed {seed}: {exc}") from exc
        rep = mom.concentration_report(smp.SampleBatch(vectors=vectors, sampler=label, seed=seed, stream=rng.stream))
        return {
            "experiment": cfg.kind,
            "R": cfg.r,
            "eps": cfg.eps,
            "c0": cfg.c0,
            **asdict(rep),
            "isotropic": rep.deviation <= cfg.eps,
        }

    return row, TRUNCATED_HEADER, [truncated_sample_count(cfg.n, cfg.r, cfg.eps, cfg.c0)]


JOHN_HEADER = [
    "experiment",
    "fixture",
    "n",
    "eps",
    "C",
    "M",
    "seed",
    "accepted",
    "attempts",
    "residual_norm",
    "u_norm_sqrt_m",
    "centroid_norm",
    "deviation_failures",
    "point_sum_failures",
]


def _plan_john(cfg: ExperimentConfig):
    """Sparsify the configured John fixture once per seed and certify results."""
    jd = geo.canonical_john(cfg.fixture, cfg.n)

    def row(m: int, seed: int, rng: smp.RandomStream) -> dict:
        out = {
            "experiment": cfg.kind,
            "fixture": cfg.fixture,
            "n": cfg.n,
            "eps": cfg.eps,
            "C": cfg.c,
            "M": m,
            "seed": seed,
            "accepted": False,
            "attempts": cfg.max_attempts,
            "residual_norm": math.nan,
            "u_norm_sqrt_m": math.nan,
            "centroid_norm": math.nan,
            "deviation_failures": 0,
            "point_sum_failures": 0,
        }
        try:
            approx = jsp.sparsify(jd, cfg.eps, rng, C=cfg.c, max_attempts=cfg.max_attempts)
        except jsp.SparsifyRejectionError as exc:
            out["deviation_failures"] = exc.deviation_failures
            out["point_sum_failures"] = exc.point_sum_failures
            return out
        report = jsp.verify(approx)
        out.update(
            accepted=True,
            attempts=approx.attempts,
            residual_norm=report.residual_norm,
            u_norm_sqrt_m=report.shift_scaled,
            centroid_norm=report.centroid_norm,
        )
        return out

    return row, JOHN_HEADER, [jsp.choose_M(cfg.n, cfg.eps, cfg.c)]


BOUND_HEADER = ["experiment", "M", "n", "trials", "seed", "estimate", "Q", "base_norm", "bound_shape", "ratio"]
SYMMETRIZE_HEADER = ["experiment", "n", "M", "trials", "seed", "lhs", "rhs", "lhs_se", "rhs_se", "holds"]


def _plan_bernoulli(cfg: ExperimentConfig):
    """Signed rank-one sum experiments: bound ratios or symmetrization checks."""
    _, draw = make_draw(cfg.sampler, cfg.n, cfg.fixture)

    if cfg.mode == "ratio":

        def ratio_row(m: int, seed: int, rng: smp.RandomStream) -> dict:
            return {"experiment": cfg.kind, **asdict(brn.bound_ratio(draw(m, rng), cfg.trials, rng, seed=seed))}

        return ratio_row, BOUND_HEADER, cfg.m_grid

    def symmetrize_row(m: int, seed: int, rng: smp.RandomStream) -> dict:
        res = brn.symmetrization_check(draw, cfg.n, m, cfg.trials, rng)
        return {
            "experiment": cfg.kind,
            "n": cfg.n,
            "M": m,
            "seed": seed,
            **asdict(res),
            "holds": res.holds(),
        }

    return symmetrize_row, SYMMETRIZE_HEADER, [cfg.m]


_PLANS = {
    "sweep": _plan_sweep,
    "whiten": _plan_whiten,
    "truncated": _plan_truncated,
    "john-sparsify": _plan_john,
    "bernoulli": _plan_bernoulli,
}


# ---------------------------------------------------------------------------
# Invariant check suite (the `check` subcommand).

CHECK_HEADER = ["experiment", "check", "ok", "detail"]


@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str


def _check_rng_streams(rng: smp.RandomStream) -> CheckResult:
    a = smp.RandomStream(seed=rng.seed, stream=777).random(16)
    b = smp.RandomStream(seed=rng.seed, stream=777).random(16)
    c = smp.RandomStream(seed=rng.seed, stream=778).random(16)
    ok = bool(np.array_equal(a, b) and not np.array_equal(a, c))
    return CheckResult("rng-streams", ok, "identical keys reproduce, sibling streams differ")


def _check_eigen_reconstruction(rng: smp.RandomStream) -> CheckResult:
    worst = 0.0
    for n in range(2, 17):
        mats = rng.standard_normal((16, n, n))
        mats = (mats + mats.transpose(0, 2, 1)) / 2.0
        vals, vecs = eigen_batch(mats)
        recon = vecs @ (vals[:, :, None] * vecs.transpose(0, 2, 1))
        scale = 1.0 + np.abs(mats).max(axis=(1, 2))
        worst = max(worst, float((np.abs(recon - mats).max(axis=(1, 2)) / scale).max()))
        ortho = vecs.transpose(0, 2, 1) @ vecs - np.eye(n)
        worst = max(worst, float(np.abs(ortho).max()))
    return CheckResult("eigen-reconstruction", worst <= 1e-10, f"max residual {worst:.2e}")


def _check_inv_sqrt(rng: smp.RandomStream) -> CheckResult:
    worst = 0.0
    for _ in range(50):
        n = 2 + int(rng.random() * 10)
        g = rng.standard_normal((n, n))
        a = SymMatrix.from_dense(g @ g.T + 0.5 * np.eye(n), asym_tol=1e-8)
        w = inv_sqrt(a)
        err = operator_norm(SymMatrix.from_dense(w.mat @ a.mat @ w.mat, asym_tol=1e-6) - SymMatrix.identity(n))
        worst = max(worst, err)
    return CheckResult("inv-sqrt-roundtrip", worst <= 1e-9, f"max |W A W - id| = {worst:.2e}")


def _check_operator_norm(rng: smp.RandomStream) -> CheckResult:
    ok = True
    for _ in range(50):
        n = 2 + int(rng.random() * 6)
        g = rng.standard_normal((n, n))
        a = SymMatrix.from_dense((g + g.T) / 2.0)
        if abs(operator_norm(a) - operator_norm(-1.0 * a)) > 1e-12:
            ok = False
        y = rng.standard_normal(n)
        r1 = SymMatrix(np.outer(y, y))
        norm_y2 = float(y @ y)
        if abs(operator_norm(r1) - norm_y2) > 1e-12 * max(1.0, norm_y2):
            ok = False
    return CheckResult("operator-norm-identities", ok, "negation symmetry and rank-one norm")


def _check_john_fixtures(rng: smp.RandomStream) -> CheckResult:
    try:
        for variant, dims in (("cross-polytope", (2, 8)), ("cube-vertices", (2, 4)), ("simplex", (2, 4))):
            for n in dims:
                geo.canonical_john(variant, n)  # constructor enforces the identities
    except geo.GeometryError as exc:
        return CheckResult("john-fixtures", False, str(exc))
    return CheckResult("john-fixtures", True, "resolution, centering and trace identities at 1e-10")


def _check_john_sampler_exact(rng: smp.RandomStream) -> CheckResult:
    worst = 0.0
    for variant, n in (("cross-polytope", 2), ("cube-vertices", 3), ("simplex", 4)):
        jd = geo.canonical_john(variant, n)
        support, probs = smp.john_support(jd)
        second = (support.T * probs) @ support
        worst = max(worst, operator_norm(SymMatrix.from_dense(second) - SymMatrix.identity(n)))
        norms = np.linalg.norm(support, axis=1)
        worst = max(worst, float(np.abs(norms - math.sqrt(n)).max()))
    return CheckResult("john-sampler-exact", worst <= 1e-10, f"max enumeration residual {worst:.2e}")


def _check_sampler_support(rng: smp.RandomStream) -> CheckResult:
    bodies = [
        geo.isotropic_normalization("cube", 3),
        geo.isotropic_normalization("ball", 3),
        geo.isotropic_normalization("simplex", 3),
        geo.Ellipsoid(shape=SymMatrix(np.diag([4.0, 1.0, 0.25]))),
    ]
    for body in bodies:
        pts = smp.direct_draws(body, 2000, rng)
        if not all(body.membership(p) for p in pts):
            return CheckResult("sampler-support", False, f"{type(body).__name__} emitted an outside point")
    return CheckResult("sampler-support", True, "all direct samples pass membership")


def _check_trace_law(rng: smp.RandomStream) -> CheckResult:
    m = 20000
    details = []
    ok = True
    for variant, n in (("cube", 4), ("ball", 6), ("simplex", 3)):
        body = geo.isotropic_normalization(variant, n)
        pts = smp.direct_draws(body, m, rng)
        sq = np.einsum("ij,ij->i", pts, pts)
        mean = float(sq.mean())
        se = float(sq.std(ddof=1) / math.sqrt(m))
        if abs(mean - n) > 3.0 * se:
            ok = False
        details.append(f"{variant}: {mean:.3f} vs {n}")
    return CheckResult("trace-law", ok, "; ".join(details))


def _check_ball_radial_cdf(rng: smp.RandomStream) -> CheckResult:
    n, m = 3, 20000
    body = geo.isotropic_normalization("ball", n)
    pts = smp.direct_draws(body, m, rng)
    radii = np.linalg.norm(pts, axis=1) / body.radius
    ok = True
    for q in (0.5, 0.9):
        frac = float(np.mean(radii <= q))
        target = q**n
        se = math.sqrt(target * (1 - target) / m)
        if abs(frac - target) > 3.0 * se:
            ok = False
    return CheckResult("ball-radial-cdf", ok, "P(|x| <= qr) = q^n within 3 sigma for q in {0.5, 0.9}")


def _check_chords(rng: smp.RandomStream) -> CheckResult:
    bodies = [
        geo.Cube(halfwidth=1.5, n=3),
        geo.Ball(radius=2.0, n=3),
        geo.isotropic_normalization("simplex", 3),
        geo.Ellipsoid(shape=SymMatrix(np.diag([4.0, 1.0, 0.25]))),
        geo.Truncated(base=geo.Cube(halfwidth=2.0, n=3), radius=2.5),
    ]
    for body in bodies:
        for _ in range(20):
            x = smp.direct_draws(geo.Ball(radius=0.4, n=3), 1, rng)[0]
            d = rng.standard_normal(3)
            d /= np.linalg.norm(d)
            lo, hi = body.chord(x, d)
            if not (lo <= 0.0 <= hi):
                return CheckResult("chord-consistency", False, f"{type(body).__name__}: interval misses 0")
            if not (body.membership(x + lo * d) and body.membership(x + hi * d)):
                return CheckResult("chord-consistency", False, f"{type(body).__name__}: endpoint outside")
            if body.membership(x + (hi + 1e-6) * d) or body.membership(x + (lo - 1e-6) * d):
                return CheckResult("chord-consistency", False, f"{type(body).__name__}: interval not maximal")
    return CheckResult("chord-consistency", True, "endpoints inside, 1e-6 beyond outside, interval brackets 0")


def _check_truncated_membership(rng: smp.RandomStream) -> CheckResult:
    base = geo.Cube(halfwidth=np.sqrt(3.0), n=4)
    trunc = geo.Truncated(base=base, radius=1.8)
    pts = rng.uniform(-2.2, 2.2, (500, 4))
    for p in pts:
        expect = base.membership(p) and np.linalg.norm(p) <= 1.8 + 1e-12
        got = trunc.membership(p)
        if got != expect and abs(np.linalg.norm(p) - 1.8) > 1e-9:
            return CheckResult("truncated-membership", False, f"disagreement at radius {np.linalg.norm(p):.6f}")
    return CheckResult("truncated-membership", True, "conjunction of base membership and radius bound")


def _check_hit_and_run(rng: smp.RandomStream) -> CheckResult:
    theta = math.pi / 6.0
    rot = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
    rows = np.vstack([rot.T, -rot.T])
    body = geo.HPolytope(rows=rows, offsets=np.ones(4))
    pts = smp.sample_hit_and_run(body, np.zeros(2), burn_in=100, thin=2, rng=rng, count=200)
    ok = all(body.membership(p) for p in pts)
    return CheckResult("hit-and-run-support", ok, "all emitted states inside the rotated cube")


def _check_log_moment(rng: smp.RandomStream) -> CheckResult:
    vectors = rng.standard_normal((64, 5))
    batch = smp.SampleBatch(vectors=vectors, sampler="gauss", seed=0, stream=0)
    ps = [2.0, 4.0, math.log(64)]
    vals = [mom.log_moment(batch, p) for p in sorted(ps)]
    monotone = all(vals[i] <= vals[i + 1] * (1 + 1e-12) for i in range(len(vals) - 1))
    scaled = smp.SampleBatch(vectors=3.0 * vectors, sampler="gauss", seed=0, stream=0)
    homogeneous = abs(mom.log_moment(scaled, 4.0) - 3.0 * mom.log_moment(batch, 4.0)) <= 1e-12 * mom.log_moment(
        scaled, 4.0
    )
    return CheckResult("log-moment-properties", monotone and homogeneous, "monotone in p, degree-1 in scale")


def _check_self_whitening(rng: smp.RandomStream) -> CheckResult:
    vectors = rng.standard_normal((400, 5)) @ np.diag([3.0, 2.0, 1.0, 0.5, 0.25])
    batch = smp.SampleBatch(vectors=vectors, sampler="gauss", seed=0, stream=0)
    t = mom.empirical_second_moment(batch)
    white = mom.whiten(t, vectors)
    t2 = mom.empirical_second_moment(smp.SampleBatch(vectors=white, sampler="gauss", seed=0, stream=0))
    err = mom.deviation(t2)
    return CheckResult("self-whitening", err <= 1e-9, f"|T_whitened - id| = {err:.2e}")


def _check_sparsifier(rng: smp.RandomStream) -> CheckResult:
    jd = geo.canonical_john("cross-polytope", 2)
    approx = jsp.sparsify(jd, eps=0.5, rng=smp.RandomStream(seed=0, stream=0), C=2.0)
    rep = jsp.verify(approx)
    ok = (
        rep.residual_norm < 0.5
        and abs(rep.residual_norm - approx.residual_norm) <= 1e-12
        and rep.centroid_norm <= 1e-10 * math.sqrt(approx.M)
        and rep.shift_scaled <= 4.0
    )
    return CheckResult("sparsifier-smoke", ok, f"residual {rep.residual_norm:.4f}, centroid {rep.centroid_norm:.2e}")


def _check_rademacher_oracle(rng: smp.RandomStream) -> CheckResult:
    y = rng.standard_normal((8, 3))
    exact = brn.rademacher_exact(y)
    norms = brn.rademacher_trial_norms(y, 4000, rng)
    est = float(norms.mean())
    se = float(norms.std(ddof=1) / math.sqrt(norms.size))
    ok = abs(est - exact) <= 4.0 * se
    return CheckResult("rademacher-oracle", ok, f"MC {est:.4f} vs exact {exact:.4f} ({se:.1e} se)")


_CHECKS = (
    _check_rng_streams,
    _check_eigen_reconstruction,
    _check_inv_sqrt,
    _check_operator_norm,
    _check_john_fixtures,
    _check_john_sampler_exact,
    _check_sampler_support,
    _check_trace_law,
    _check_ball_radial_cdf,
    _check_chords,
    _check_truncated_membership,
    _check_hit_and_run,
    _check_log_moment,
    _check_self_whitening,
    _check_sparsifier,
    _check_rademacher_oracle,
)


def _check_row(check, seed: int, rng: smp.RandomStream) -> dict:
    try:
        res = check(rng)
    except Exception as exc:  # a crashed check is a failed check
        res = CheckResult(check.__name__.removeprefix("_check_"), False, f"raised {exc!r}")
    return {"experiment": "check", "check": res.name, "ok": res.ok, "detail": res.detail}


def run_check(seed: int = 0) -> ExperimentResult:
    """Run the invariant suite through the grid runner: the checks are the points, 0 the only trial seed."""
    rows = _run_grid(ExperimentConfig(kind="check", seed=seed, seeds=[0]), _check_row, list(_CHECKS))
    return ExperimentResult(CHECK_HEADER, rows)


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Validate ``cfg`` and run its experiment through the grid runner."""
    cfg.validate()
    if cfg.kind == "check":
        return run_check(seed=cfg.seed)
    row, header, points = _PLANS[cfg.kind](cfg)
    rows = _run_grid(cfg, row, points)
    if cfg.kind == "sweep":
        return ExperimentResult(header, rows, SWEEP_AGG_HEADER, _sweep_aggregates(cfg, rows))
    if cfg.kind == "john-sparsify" and not any(r["accepted"] for r in rows):
        raise ExperimentError(f"sparsifier failed on all {len(rows)} seeds (fixture {cfg.fixture}, n={cfg.n})")
    return ExperimentResult(header, rows)
