"""Output checks for one benchmark invocation.

Every check restates a property the experiment promises, computed here
from the config rather than compared against reference bytes: the last
digits move when the spectral kernel changes, and the draws move when a
sampler changes, while these properties must hold throughout.
"""

from __future__ import annotations

import csv
import math
from collections import Counter
from pathlib import Path

from workloads import Invocation

TEXT_FIELDS = {"experiment", "sampler", "fixture"}
BOOL_FIELDS = {"isotropic", "accepted", "holds"}
# Rejected John rows carry NaN in these fields by design.
JOHN_NAN_FIELDS = {"residual_norm", "u_norm_sqrt_m", "centroid_norm"}
BERNOULLI_RATIO_MAX = 8.0


def truncated_sample_count(n: int, r: float, eps: float, c0: float) -> int:
    """M = ceil(c0 x log x) with x = R^2 n / eps^2, the truncated-sampling rule."""
    x = r * r * n / (eps * eps)
    return int(math.ceil(c0 * x * math.log(x)))


def _read(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _parse_fields(row: dict, nan_ok: set[str]) -> tuple[dict, list[str]]:
    """Numbers and booleans of one row, plus the problems found parsing them."""
    values, problems = {}, []
    for key, raw in row.items():
        if key in TEXT_FIELDS:
            values[key] = raw
        elif key in BOOL_FIELDS:
            if raw not in ("true", "false"):
                problems.append(f"{key}={raw!r} is not a boolean")
            values[key] = raw == "true"
        else:
            try:
                x = float(raw)
            except (TypeError, ValueError):
                problems.append(f"{key}={raw!r} is not a number")
                continue
            if not math.isfinite(x) and not (key in nan_ok and math.isnan(x)):
                problems.append(f"{key}={raw} is not finite")
            values[key] = x
    return values, problems


def _expect_keys(rows: list[dict], keys: list[tuple], key_fields: tuple[str, ...]) -> list[str]:
    try:
        got = Counter(tuple(int(r[k]) for k in key_fields) for r in rows)
    except (KeyError, TypeError, ValueError) as exc:
        return [f"cannot read {key_fields} of every row: {exc!r}"]
    want = Counter(keys)
    if got != want:
        return [f"rows per {key_fields} differ from one per point and seed: got {sorted(got.items())[:4]}..."]
    return []


def check_invocation(inv: Invocation, cfg: dict, out: Path) -> list[str]:
    """Problems with the files one invocation wrote; empty when all checks pass."""
    if not out.is_file():
        return [f"{out.name} was not written"]
    rows = _read(out)
    seeds = cfg["seeds"]
    kind, mode = cfg["kind"], cfg.get("mode")
    grid = cfg.get("m_grid")
    problems: list[str] = []

    if kind == "sweep" or (kind == "bernoulli" and mode == "ratio"):
        problems += _expect_keys(rows, [(m, s) for m in grid for s in seeds], ("M", "seed"))
    else:
        problems += _expect_keys(rows, [(s,) for s in seeds], ("seed",))

    for row in rows:
        rejected_john = kind == "john-sparsify" and row.get("accepted") == "false"
        v, bad = _parse_fields(row, JOHN_NAN_FIELDS if rejected_john else set())
        problems += [f"seed {row.get('seed')}: {p}" for p in bad]
        if bad:
            continue
        tag = f"seed {int(v['seed'])}"
        if kind == "whiten" and not v["isotropic"]:
            problems.append(f"{tag}: whitened sample is not {cfg['eps']}-isotropic")
        elif kind == "truncated":
            want_m = truncated_sample_count(cfg["n"], cfg["r"], cfg["eps"], cfg["c0"])
            if v["M"] != want_m:
                problems.append(f"{tag}: M={v['M']:g}, the sample count rule gives {want_m}")
            radius = cfg["r"] * math.sqrt(cfg["n"])
            if v["log_moment"] > radius * (1 + 1e-9):
                problems.append(f"{tag}: log_moment {v['log_moment']} exceeds the truncation radius {radius}")
            if inv.truncated_mode == "rejection" and not v["isotropic"]:
                problems.append(f"{tag}: rejection-truncated sample is not {cfg['eps']}-isotropic")
        elif kind == "john-sparsify" and v["accepted"]:
            if not v["residual_norm"] < cfg["eps"]:
                problems.append(f"{tag}: residual {v['residual_norm']} is not below eps {cfg['eps']}")
            if v["centroid_norm"] > 1e-10 * math.sqrt(v["M"]):
                problems.append(f"{tag}: centroid {v['centroid_norm']} exceeds 1e-10 sqrt(M)")
            if v["u_norm_sqrt_m"] > 4.0:
                problems.append(f"{tag}: |u| sqrt(M) = {v['u_norm_sqrt_m']} exceeds 4")
        elif kind == "bernoulli" and mode == "ratio" and v["ratio"] > BERNOULLI_RATIO_MAX:
            problems.append(f"{tag}: signed-sum ratio {v['ratio']} exceeds {BERNOULLI_RATIO_MAX}")
        elif kind == "bernoulli" and mode == "symmetrize" and not v["holds"]:
            problems.append(f"{tag}: symmetrization inequality does not hold")

    if kind == "sweep":
        agg = out.with_name(out.stem + ".agg.csv")
        if not agg.is_file():
            return problems + [f"{agg.name} was not written"]
        agg_rows = _read(agg)
        problems += _expect_keys(agg_rows, [(m,) for m in grid], ("M",))
        for row in agg_rows:
            v, bad = _parse_fields(row, set())
            problems += [f"aggregate M={row.get('M')}: {p}" for p in bad]
            if not bad and v["n_seeds"] != len(seeds):
                problems.append(f"aggregate M={row['M']}: n_seeds {v['n_seeds']:g}, expected {len(seeds)}")
    return problems
