"""Experiment orchestration: configs, one grid runner, and output writers.

Experiments are pure functions of (config, master seed).  Every kind runs
through the same grid runner: each config point and trial seed owns a
random stream keyed by (experiment kind, point index, trial seed)
and yields one row, so results do not depend on execution order, a worker
pool can fan rows out safely, and rows come out in config order for any
worker count.  Science fields are serialized as CSV with 17 significant
digits, or as a mirroring JSON array of shortest round-trip floats;
wall-clock time never enters the output files.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields

import numpy as np

from . import bernoulli as brn
from . import geometry as geo
from . import johnsparse as jsp
from . import moments as mom
from . import samplers as smp
from .symlin import inv_sqrt, operator_norm

__all__ = [
    "ConfigError",
    "ExperimentError",
    "ExperimentConfig",
    "ExperimentResult",
    "parse_config",
    "load_config",
    "derive_stream",
    "run_check",
    "run_experiment",
    "render_csv",
    "render_json",
    "agg_output_path",
]

EXPERIMENT_KINDS = ("sweep", "whiten", "truncated", "john-sparsify", "bernoulli")

SAMPLER_CHOICES = ("cube", "ball", "simplex")
FIXTURE_CHOICES = ("cross-polytope", "cube-vertices", "simplex")
# The most float entries, M * n, that one row may draw.  Streamed, a larger M would run for
# hours or until killed; the largest shipped or benchmark row draws 306,763 x 16, about 2^22.
MAX_ROW_ENTRIES = 1 << 32
# The most trials a bernoulli row may run; a symmetrize row loops once per trial in Python.
# Shipped and benchmark configs run at most 400.
MAX_TRIALS = 1 << 16


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

    def validate(self):
        if self.kind not in EXPERIMENT_KINDS:
            raise ConfigError(f"unknown experiment kind {self.kind!r}")
        if self.n < 1:
            raise ConfigError("n must be >= 1")
        if not self.m_grid:
            raise ConfigError("m_grid must be nonempty")
        if not 1 <= self.trials <= MAX_TRIALS:
            raise ConfigError(f"trials must lie in [1, {MAX_TRIALS}]")
        if self.max_attempts < 1 or self.workers < 1:
            raise ConfigError("max_attempts and workers must be >= 1")
        # The largest M a row may draw; only the counts the kind reads are held to it.  A row
        # draws M x n points, and a ratio row trials x M signs, a symmetrize row trials batches.
        per_m = self.n
        if self.kind == "bernoulli":
            per_m = max(self.n, self.trials) if self.mode == "ratio" else self.n * self.trials
        cap = MAX_ROW_ENTRIES // per_m
        at = f"n = {self.n}" + (f" and trials = {self.trials}" if self.kind == "bernoulli" else "")
        grid_cap = cap if self.kind == "sweep" or (self.kind == "bernoulli" and self.mode == "ratio") else math.inf
        if not all(3 <= m <= grid_cap for m in self.m_grid) or len(set(self.m_grid)) != len(self.m_grid):
            raise ConfigError(f"m_grid entries must be distinct and lie in [3, {cap}] at {at}")
        m_cap = cap if self.kind == "whiten" or (self.kind == "bernoulli" and self.mode == "symmetrize") else math.inf
        if not 1 <= self.m <= m_cap:
            raise ConfigError(f"m must lie in [1, {cap}] at {at}")
        if not self.seeds:
            raise ConfigError("seeds must be nonempty")
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigError("seeds must be distinct")
        if not 0.0 < self.eps < 1.0:
            raise ConfigError("eps must lie in (0, 1)")
        if not all(math.isfinite(v) and v > 0.0 for v in (self.r, self.c, self.c0)):
            raise ConfigError("r, c and c0 must be positive and finite")
        if self.mode not in ("ratio", "symmetrize"):
            raise ConfigError(f"unknown bernoulli mode {self.mode!r}")
        base, _, sub = self.sampler.partition(":")
        if self.sampler not in SAMPLER_CHOICES and not (base == "john" and sub in FIXTURE_CHOICES):
            raise ConfigError(f"unknown sampler {self.sampler!r}; expected cube, ball, simplex or john:<fixture>")
        if self.fixture not in FIXTURE_CHOICES:
            raise ConfigError(f"unknown John fixture {self.fixture!r}")
        built = self.fixture if self.kind == "john-sparsify" else sub if base == "john" else None
        if built == "cube-vertices" and self.n > geo.CUBE_VERTEX_DIM_CAP:
            raise ConfigError(f"cube-vertices fixture needs n <= {geo.CUBE_VERTEX_DIM_CAP}")
        if self.kind == "whiten" and self.distortion is None:
            raise ConfigError("whiten needs a distortion: one finite factor per coordinate")
        if self.distortion is not None and (
            len(self.distortion) != self.n or not all(math.isfinite(d) for d in self.distortion)
        ):
            raise ConfigError("distortion must list one finite factor per coordinate")
        if self.kind == "truncated" and self.sampler not in SAMPLER_CHOICES:
            raise ConfigError("truncated sampling needs a body sampler (cube, ball or simplex)")
        if self.kind in ("truncated", "john-sparsify"):  # the plan's sample count, computed here first
            try:
                if self.kind == "truncated":
                    m = truncated_sample_count(self.n, self.r, self.eps, self.c0)
                else:
                    m = jsp.choose_M(self.n, self.eps, self.c)
            except ArithmeticError as exc:  # eps * eps can underflow to 0 as well as overflow
                raise ConfigError(f"the {self.kind} sample-count rule gives no finite M: {exc}") from exc
            if m > cap:
                raise ConfigError(f"the {self.kind} sample-count rule gives M = {m:.3g}, above {cap}; raise eps")


def _list_of(parse):
    """Parser of a comma-separated list; empty items are skipped."""
    return lambda val: [parse(v) for v in val.split(",") if v.strip() != ""]


# Each config key is parsed by the annotation of its ExperimentConfig field.
_PARSERS = {"int": int, "float": float, "str": str, "list[int]": _list_of(int), "list[float] | None": _list_of(float)}
_KEY_PARSERS = {f.name: _PARSERS[f.type] for f in fields(ExperimentConfig)}


def parse_config(text: str, kind: str | None = None) -> ExperimentConfig:
    """Parse flat key=value config text (comma-separated list values).

    Blank lines and lines starting with '#' are skipped; an unknown or
    repeated key is an error.  ``kind`` from the caller (the CLI
    subcommand) must agree with a kind key in the text, if present.
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
        if key not in _KEY_PARSERS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: repeated key {key!r}")
        try:
            values[key] = _KEY_PARSERS[key](val)
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
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text, kind=kind)


def derive_stream(kind: str, point: int, seed: int) -> int:
    """Stable 64-bit stream id for (experiment kind, config point, trial seed)."""
    digest = hashlib.blake2b(f"{kind}:{point}:{seed}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "little")


def _make_sampler(sampler: str, n: int) -> geo.Body | geo.JohnDecomposition:
    """Resolve a validated sampler name to what the samplers draw from: the isotropic body, or
    the John decomposition of ``john:<fixture>``."""
    base, _, sub = sampler.partition(":")
    return geo.canonical_john(sub, n) if base == "john" else geo.isotropic_normalization(sampler, n)


@dataclass
class ExperimentResult:
    header: list[str]
    rows: list[dict]
    agg_header: list[str] | None = None
    aggregates: list[dict] | None = None


def _fields(header: list[str], rows: list[dict]) -> list[list]:
    """Each row's values under ``header``, a numpy scalar as the Python scalar it holds (np.bool_ -> bool)."""
    return [[v.item() if isinstance(v, np.generic) else v for v in (row[k] for k in header)] for row in rows]


def _csv_field(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    return format(v, ".17g") if isinstance(v, float) else str(v)


def render_csv(header: list[str], rows: list[dict]) -> str:
    """RFC 4180 CSV of the header's fields only; a field with a comma or quote is quoted."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(map(_csv_field, fields) for fields in _fields(header, rows))
    return buf.getvalue()


def render_json(header: list[str], rows: list[dict]) -> str:
    """RFC 8259 JSON array of row objects; non-finite floats become null."""
    payload = [
        {k: None if isinstance(v, float) and not math.isfinite(v) else v for k, v in zip(header, fields)}
        for fields in _fields(header, rows)
    ]
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


def agg_output_path(path: str) -> str:
    """Sibling path for aggregate rows: results.csv -> results.agg.csv, runs.d/sweep -> runs.d/sweep.agg.

    Only the file name's extension counts; a dot in a directory name does not.
    """
    root, ext = os.path.splitext(path)
    return f"{root}.agg{ext}"


def _run_grid(row, points: list, kind: str, master_seed: int, seeds: list[int], workers: int = 1) -> list[dict]:
    """``row(point, seed, rng)`` for each point, then each seed, in config order.

    The row for the i-th point draws from the stream keyed by (kind, i, seed)
    under ``master_seed``, so it does not depend on which worker computes it,
    and ``pool.map`` keeps config order for any ``workers``.  This is the one
    place where a row's ValueError (every package error is one), floating-point
    overflow or refused allocation becomes an ``ExperimentError`` naming the seed.
    """

    def one(task) -> dict:
        i, point, seed = task
        rng = smp.random_stream(master_seed, derive_stream(kind, i, seed))
        try:
            with np.errstate(over="raise"):
                return row(point, seed, rng)
        except (ValueError, ArithmeticError, MemoryError) as exc:
            raise ExperimentError(f"seed {seed}: {exc}") from exc

    tasks = [(i, point, seed) for i, point in enumerate(points) for seed in seeds]
    workers = min(workers, len(tasks), os.cpu_count() or 1)  # validate() sets no upper bound; each worker is a thread
    if workers <= 1:
        return [one(task) for task in tasks]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(one, tasks))


# Each experiment kind is a plan: plan(cfg) resolves the sampler, body or
# fixture once and returns (row, points), where row(M, seed, rng) computes
# one output row from that seed's stream.  The row's keys, in order, are the
# kind's output columns: the provenance columns set here, then the columns
# the science function measured.


def _plan_sweep(cfg: ExperimentConfig):
    """Deviation reports over an M grid of fresh draws, each read as a stream of chunks."""
    sampler = _make_sampler(cfg.sampler, cfg.n)

    def row(m: int, seed: int, rng: np.random.Generator) -> dict:
        measured = mom.concentration_report(smp._draw_chunks(sampler, m, rng), m)
        return {"experiment": cfg.kind, "n": cfg.n, "M": m, "seed": seed, "sampler": cfg.sampler, **measured}

    return row, cfg.m_grid


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


def _plan_whiten(cfg: ExperimentConfig):
    """Whitening of a linearly distorted body, measured exactly.

    M samples of the isotropic body, distorted by A = diag(distortion), give
    T_hat and the map W = T_hat^(-1/2).  The whitened law's second moment is
    W A^2 W in closed form, since the body's is id, so its deviation is exact
    rather than one batch's estimate; the row is eps-isotropic when it is at
    most eps.  T_hat is summed over the distorted chunks of the draw's stream,
    so no (M, n) array forms.
    """
    sampler = _make_sampler(cfg.sampler, cfg.n)
    distortion = np.asarray(cfg.distortion)

    def row(m: int, seed: int, rng: np.random.Generator) -> dict:
        distorted = (np.multiply(chunk, distortion, out=chunk) for chunk in smp._draw_chunks(sampler, m, rng))
        t_hat = mom._streamed_second_moment(distorted, m)
        g = inv_sqrt(t_hat) * distortion  # W A, so g g^T = W A^2 W
        dev = mom.deviation(g @ g.T)
        return {
            "experiment": cfg.kind,
            "n": cfg.n,
            "M": m,
            "seed": seed,
            "eps": cfg.eps,
            "deviation_raw": mom.deviation(t_hat),
            "deviation_exact": dev,
            "isotropic": dev <= cfg.eps,
        }

    return row, [cfg.m]


def truncated_sample_count(n: int, r: float, eps: float, c0: float) -> int:
    """M per the truncated-sampling rule: ceil(c0 (R^2 n / eps^2) log(R^2 n / eps^2)), at least 3."""
    x = r * r * n / (eps * eps)
    if x <= 1.0:
        raise ConfigError("R^2 n / eps^2 must exceed 1")
    m = int(math.ceil(c0 * x * math.log(x)))
    if m < 3:
        raise ConfigError(f"the truncated sample-count rule gives M = {m}; it must give M >= 3")
    return m


def _plan_truncated(cfg: ExperimentConfig):
    """Deviation and eps-isotropy (deviation <= eps) of samples from body intersect R sqrt(n) ball."""
    body = geo.isotropic_normalization(cfg.sampler, cfg.n)
    label = f"truncated:{cfg.sampler}"

    def row(m: int, seed: int, rng: np.random.Generator) -> dict:
        measured = mom.concentration_report(smp.TruncatedSampler(body, cfg.r, rng).draw(m), m)
        return {
            "experiment": cfg.kind,
            "n": cfg.n,
            "R": cfg.r,
            "eps": cfg.eps,
            "c0": cfg.c0,
            "M": m,
            "seed": seed,
            "sampler": label,
            **measured,
            "isotropic": measured["deviation"] <= cfg.eps,
        }

    return row, [truncated_sample_count(cfg.n, cfg.r, cfg.eps, cfg.c0)]


def _plan_john(cfg: ExperimentConfig):
    """Sparsify the configured John fixture once per seed and certify results."""
    jd = geo.canonical_john(cfg.fixture, cfg.n)

    def row(m: int, seed: int, rng: np.random.Generator) -> dict:
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
        out.update(accepted=True, attempts=approx.attempts, **jsp.verify(approx))
        return out

    return row, [jsp.choose_M(cfg.n, cfg.eps, cfg.c)]


def _plan_bernoulli(cfg: ExperimentConfig):
    """Signed rank-one sum experiments: bound ratios or symmetrization checks."""
    sampler = _make_sampler(cfg.sampler, cfg.n)

    if cfg.mode == "ratio":

        def ratio_row(m: int, seed: int, rng: np.random.Generator) -> dict:
            measured = brn.bound_ratio(smp.direct_draws(sampler, m, rng), cfg.trials, rng)
            return {"experiment": cfg.kind, "M": m, "n": cfg.n, "trials": cfg.trials, "seed": seed, **measured}

        return ratio_row, cfg.m_grid

    def symmetrize_row(m: int, seed: int, rng: np.random.Generator) -> dict:
        measured = brn.symmetrization_check(lambda k, r: smp.direct_draws(sampler, k, r), cfg.n, m, cfg.trials, rng)
        return {"experiment": cfg.kind, "n": cfg.n, "M": m, "trials": cfg.trials, "seed": seed, **measured}

    return symmetrize_row, [cfg.m]


_PLANS = {
    "sweep": _plan_sweep,
    "whiten": _plan_whiten,
    "truncated": _plan_truncated,
    "john-sparsify": _plan_john,
    "bernoulli": _plan_bernoulli,
}


# ---------------------------------------------------------------------------
# Invariant check suite (the `check` subcommand).  Each _CHECKS entry is
# (name, invariant with its bound, fn), and fn(rng) returns (ok, measured).
# check.csv holds verdicts and invariants only; the measured text rides on
# the row as "detail", outside the header, for the CLI's status lines.

CHECK_HEADER = ["experiment", "check", "ok", "invariant"]


def _check_rng_streams(rng: np.random.Generator) -> tuple[bool, str]:
    seed = int(rng.integers(2**63))
    a = smp.random_stream(seed, 777).random(16)
    b = smp.random_stream(seed, 777).random(16)
    c = smp.random_stream(seed, 778).random(16)
    return np.array_equal(a, b) and not np.array_equal(a, c), ""


def _check_inv_sqrt(rng: np.random.Generator) -> tuple[bool, str]:
    worst = 0.0
    for _ in range(50):
        n = 2 + int(rng.random() * 10)
        g = rng.standard_normal((n, n))
        a = g @ g.T + 0.5 * np.eye(n)
        w = inv_sqrt(a)
        err = operator_norm(w @ a @ w - np.eye(n))
        worst = max(worst, err)
    return worst <= 1e-9, f"max |W A W - id| = {worst:.2e}"


def _check_operator_norm(rng: np.random.Generator) -> tuple[bool, str]:
    ok = True
    for _ in range(50):
        n = 2 + int(rng.random() * 6)
        g = rng.standard_normal((n, n))
        a = (g + g.T) / 2.0
        if abs(operator_norm(a) - operator_norm(-a)) > 1e-12:
            ok = False
        y = rng.standard_normal(n)
        r1 = np.outer(y, y)
        norm_y2 = float(y @ y)
        if abs(operator_norm(r1) - norm_y2) > 1e-12 * max(1.0, norm_y2):
            ok = False
    return ok, ""


def _check_john_fixtures(rng: np.random.Generator) -> tuple[bool, str]:
    for variant, dims in (("cross-polytope", (2, 8)), ("cube-vertices", (2, 4)), ("simplex", (2, 4))):
        for n in dims:
            geo.canonical_john(variant, n)  # the constructor raises unless the identities hold
    return True, ""


def _check_john_sampler_exact(rng: np.random.Generator) -> tuple[bool, str]:
    worst = 0.0
    for variant, n in (("cross-polytope", 2), ("cube-vertices", 3), ("simplex", 4)):
        jd = geo.canonical_john(variant, n)
        support, probs = smp.john_support(jd)
        second = (support.T * probs) @ support
        worst = max(worst, operator_norm(second - np.eye(n)))
        norms = np.linalg.norm(support, axis=1)
        worst = max(worst, float(np.abs(norms - math.sqrt(n)).max()))
    return worst <= 1e-10, f"max enumeration residual {worst:.2e}"


def _check_sampler_support(rng: np.random.Generator) -> tuple[bool, str]:
    bodies = [
        geo.isotropic_normalization("cube", 3),
        geo.isotropic_normalization("ball", 3),
        geo.isotropic_normalization("simplex", 3),
    ]
    for body in bodies:
        if not body.membership(smp.direct_draws(body, 2000, rng)).all():
            return False, f"{type(body).__name__} emitted an outside point"
    return True, ""


def _trace_law(pts: np.ndarray) -> tuple[float, float]:
    """Sample mean of |x|^2 over the rows of the (m, n) ``pts`` and its distance from n in
    standard errors; an isotropic distribution has E|x|^2 = n."""
    m, n = pts.shape
    sq = np.einsum("ij,ij->i", pts, pts)
    mean = float(sq.mean())
    return mean, (mean - n) / float(sq.std(ddof=1) / math.sqrt(m))


def _ball_radial_cdf(pts: np.ndarray, radius: float) -> float:
    """Largest distance, in binomial standard errors, of the share of rows with |x| <= q radius
    from q^n for q in {0.5, 0.9}; uniform points of the n-ball of that radius have P = q^n."""
    m, n = pts.shape
    radii = np.linalg.norm(pts, axis=1) / radius
    worst = 0.0
    for q in (0.5, 0.9):
        target = q**n
        worst = max(worst, abs(float(np.mean(radii <= q)) - target) / math.sqrt(target * (1 - target) / m))
    return worst


def _chord_failure(body: geo.Body, x: np.ndarray, d: np.ndarray) -> str | None:
    """Why a chord of ``body`` through a row of x along the unit row of d is wrong, or None: it
    must bracket 0, end inside the body, and be maximal (1e-6 beyond either end is outside).
    The first failing row names the failure.  One point and direction are one row; one chord
    call and one membership call serve every row."""
    x, d = np.atleast_2d(x), np.atleast_2d(d)
    lo, hi = body.chord(x, d)
    # Each row's two ends, then 1e-6 beyond each, as four blocks of rows.
    t = np.stack((lo, hi, hi + 1e-6, lo - 1e-6))[:, :, None]
    inside = body.membership((x + t * d).reshape(-1, x.shape[1])).reshape(4, len(x))
    for k in range(len(x)):
        if not (lo[k] <= 0.0 <= hi[k]):
            return "interval misses 0"
        if not (inside[0, k] and inside[1, k]):
            return "endpoint outside"
        if inside[2, k] or inside[3, k]:
            return "interval not maximal"
    return None


def _check_trace_law(rng: np.random.Generator) -> tuple[bool, str]:
    details = []
    ok = True
    for variant, n in (("cube", 4), ("ball", 6), ("simplex", 3)):
        mean, z = _trace_law(smp.direct_draws(geo.isotropic_normalization(variant, n), 20000, rng))
        ok = ok and abs(z) <= 3.0
        details.append(f"{variant}: {mean:.3f} vs {n}")
    return ok, "; ".join(details)


def _check_ball_radial_cdf(rng: np.random.Generator) -> tuple[bool, str]:
    body = geo.isotropic_normalization("ball", 3)
    worst = _ball_radial_cdf(smp.direct_draws(body, 20000, rng), body.radius)
    return worst <= 3.0, f"max {worst:.2f} se"


def _check_chords(rng: np.random.Generator) -> tuple[bool, str]:
    bodies = [
        geo.Cube(halfwidth=1.5, n=3),
        geo.Ball(radius=2.0, n=3),
        geo.isotropic_normalization("simplex", 3),
        geo.Truncated(base=geo.Cube(halfwidth=2.0, n=3), radius=2.5),
    ]
    for body in bodies:
        x = smp.direct_draws(geo.Ball(radius=0.4, n=3), 20, rng)
        d = rng.standard_normal((20, 3))
        failure = _chord_failure(body, x, d / np.linalg.norm(d, axis=1, keepdims=True))
        if failure is not None:
            return False, f"{type(body).__name__}: {failure}"
    return True, ""


def _check_truncated_membership(rng: np.random.Generator) -> tuple[bool, str]:
    base = geo.Cube(halfwidth=np.sqrt(3.0), n=4)
    trunc = geo.Truncated(base=base, radius=1.8)
    pts = rng.uniform(-2.2, 2.2, (500, 4))
    radii = np.linalg.norm(pts, axis=1)
    expect = base.membership(pts) & (radii <= 1.8 + 1e-12)
    wrong = np.flatnonzero((trunc.membership(pts) != expect) & (np.abs(radii - 1.8) > 1e-9))
    if len(wrong):
        return False, f"disagreement at radius {radii[wrong[0]]:.6f}"
    return True, ""


def _check_hit_and_run(rng: np.random.Generator) -> tuple[bool, str]:
    theta = math.pi / 6.0
    rot = np.array([[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]])
    rows = np.vstack([rot.T, -rot.T])
    body = geo.HPolytope(rows=rows, offsets=np.ones(4))
    pts = smp.sample_hit_and_run(body, np.zeros(2), burn_in=100, thin=2, rng=rng, count=200)
    return bool(body.membership(pts).all()), ""


def _check_log_moment(rng: np.random.Generator) -> tuple[bool, str]:
    vectors = rng.standard_normal((64, 5))

    def power_mean(y: np.ndarray, p: float) -> float:
        return mom._power_mean(smp._row_norms(y), p)

    vals = [power_mean(vectors, p) for p in sorted([2.0, 4.0, math.log(64)])]
    monotone = all(vals[i] <= vals[i + 1] * (1 + 1e-12) for i in range(len(vals) - 1))
    scaled = power_mean(3.0 * vectors, 4.0)
    homogeneous = abs(scaled - 3.0 * power_mean(vectors, 4.0)) <= 1e-12 * scaled
    return monotone and homogeneous, ""


def _check_self_whitening(rng: np.random.Generator) -> tuple[bool, str]:
    vectors = rng.standard_normal((400, 5)) @ np.diag([3.0, 2.0, 1.0, 0.5, 0.25])
    t = mom._streamed_second_moment([vectors], 400)
    t2 = mom._streamed_second_moment([vectors @ inv_sqrt(t)], 400)
    err = mom.deviation(t2)
    return err <= 1e-9, f"|T_whitened - id| = {err:.2e}"


def _check_sparsifier(rng: np.random.Generator) -> tuple[bool, str]:
    jd = geo.canonical_john("cross-polytope", 2)
    approx = jsp.sparsify(jd, eps=0.5, rng=rng, C=2.0)
    rep = jsp.verify(approx)
    residual, centroid = rep["residual_norm"], rep["centroid_norm"]
    ok = (
        residual < 0.5
        and abs(residual - approx.residual_norm) <= 1e-12
        and centroid <= 1e-10 * math.sqrt(approx.M)
        and rep["u_norm_sqrt_m"] <= 4.0
    )
    return ok, f"residual {residual:.4f}, centroid {centroid:.2e}"


def _check_rademacher_oracle(rng: np.random.Generator) -> tuple[bool, str]:
    y = rng.standard_normal((8, 3))
    exact = brn.rademacher_exact(y)
    norms = brn.rademacher_trial_norms(y, 4000, rng)
    est = float(norms.mean())
    se = float(norms.std(ddof=1) / math.sqrt(norms.size))
    return abs(est - exact) <= 4.0 * se, f"MC {est:.4f} vs exact {exact:.4f} ({se:.1e} se)"


_CHECKS = (
    ("rng-streams", "identical stream keys reproduce; sibling streams differ", _check_rng_streams),
    ("inv-sqrt-roundtrip", "|W A W - id| <= 1e-9 for W = inv_sqrt(A)", _check_inv_sqrt),
    (
        "operator-norm-identities",
        "|A| = |-A| and |y (x) y| = |y|^2 to 1e-12 (rank one: relative)",
        _check_operator_norm,
    ),
    ("john-fixtures", "John fixtures meet resolution, centering and trace identities at 1e-10", _check_john_fixtures),
    ("john-sampler-exact", "John support: |E x (x) x - id| and ||x| - sqrt n| <= 1e-10", _check_john_sampler_exact),
    ("sampler-support", "direct draws of cube, ball and simplex pass membership", _check_sampler_support),
    ("trace-law", "mean |x|^2 within 3 se of n for cube, ball and simplex draws", _check_trace_law),
    ("ball-radial-cdf", "P(|x| <= q r) within 3 se of q^n for q in {0.5, 0.9}", _check_ball_radial_cdf),
    ("chord-consistency", "chord brackets 0 and ends inside; 1e-6 beyond either end is outside", _check_chords),
    (
        "truncated-membership",
        "membership = base membership and |x| <= R, off a 1e-9 shell",
        _check_truncated_membership,
    ),
    ("hit-and-run-support", "every hit-and-run state lies inside the rotated cube", _check_hit_and_run),
    ("log-moment-properties", "log_moment monotone in p, degree-1 in scale, to 1e-12 relative", _check_log_moment),
    ("self-whitening", "|T - id| <= 1e-9 after whitening a batch by its own T", _check_self_whitening),
    (
        "sparsifier-smoke",
        "residual < eps = 0.5 and equal to its certificate to 1e-12; centroid <= 1e-10 sqrt M; |u| sqrt M <= 4",
        _check_sparsifier,
    ),
    ("rademacher-oracle", "MC mean of |sum eps_i y_i (x) y_i| within 4 se of its exact mean", _check_rademacher_oracle),
)


def _check_row(check, seed: int, rng: np.random.Generator) -> dict:
    name, invariant, fn = check
    try:
        ok, detail = fn(rng)
    except Exception as exc:  # a crashed check is a failed check
        ok, detail = False, f"raised {exc!r}"
    return {"experiment": "check", "check": name, "ok": bool(ok), "invariant": invariant, "detail": detail}


def run_check(seed: int = 0) -> ExperimentResult:
    """Run the invariant suite through the grid runner: the checks are the points, 0 the only trial seed."""
    rows = _run_grid(_check_row, list(_CHECKS), "check", seed, [0])
    return ExperimentResult(CHECK_HEADER, rows)


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Validate ``cfg`` and run its experiment through the grid runner."""
    cfg.validate()
    try:
        row, points = _PLANS[cfg.kind](cfg)
    except (ValueError, ArithmeticError, MemoryError) as exc:
        raise ExperimentError(str(exc)) from exc
    rows = _run_grid(row, points, cfg.kind, cfg.seed, cfg.seeds, cfg.workers)
    if cfg.kind == "sweep":
        aggregates = _sweep_aggregates(cfg, rows)
        return ExperimentResult(list(rows[0]), rows, list(aggregates[0]), aggregates)
    if cfg.kind == "john-sparsify" and not any(r["accepted"] for r in rows):
        raise ExperimentError(f"sparsifier failed on all {len(rows)} seeds (fixture {cfg.fixture}, n={cfg.n})")
    return ExperimentResult(list(rows[0]), rows)
