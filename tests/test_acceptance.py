"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` (or just `pytest`).  All
Monte Carlo checks use pinned seeds so the suite is deterministic; bands
come from the stated tolerances, with pilot-calibrated constants noted
inline where a criterion delegates them.
"""

import math
import subprocess
import sys

import numpy as np
import pytest

from isotropy import bernoulli as brn
from isotropy import geometry as geo
from isotropy import johnsparse as jsp
from isotropy import moments as mom
from isotropy import samplers as smp
from isotropy.harness import (
    ExperimentConfig,
    _trace_law,
    derive_stream,
    run_experiment,
)
from isotropy.symlin import inv_sqrt, operator_norm


def report(num: int, name: str, ok: bool, detail: str):
    print(f"ACCEPTANCE {num:02d} {'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def test_01_exact_identity_suite():
    fixtures = [
        ("cross-polytope", 2),
        ("cross-polytope", 8),
        ("cube-vertices", 2),
        ("cube-vertices", 4),
        ("simplex", 2),
        ("simplex", 4),
    ]
    tol = 1e-10
    worst = 0.0
    for variant, n in fixtures:
        jd = geo.canonical_john(variant, n)
        resolution = (jd.points.T * jd.weights) @ jd.points
        worst = max(worst, operator_norm(resolution - np.eye(n)))
        worst = max(worst, float(np.linalg.norm(jd.weights @ jd.points)))
        worst = max(worst, abs(float(jd.weights.sum()) - n))
        worst = max(worst, float(np.abs(np.linalg.norm(jd.points, axis=1) - 1.0).max()))
        # Sampler second moment by exhaustive enumeration, not sampling.
        support, probs = smp.john_support(jd)
        second = (support.T * probs) @ support
        worst = max(worst, operator_norm(second - np.eye(n)))
    report(1, "exact-identity-suite", worst <= tol, f"max identity residual {worst:.2e} (tol {tol:.0e})")


def test_02_trace_law():
    m = 100_000
    n = 8
    details = []
    ok = True
    for i, variant in enumerate(("cube", "ball", "simplex")):
        body = geo.isotropic_normalization(variant, n)
        rng = smp.random_stream(0, derive_stream("acc-trace", 0, i))
        _, z = _trace_law(smp.direct_draws(body, m, rng))
        ok = ok and abs(z) <= 3.0
        details.append(f"{variant} z={z:+.2f}")
    jd = geo.canonical_john("cross-polytope", n)
    pts = smp.direct_draws(jd, m, smp.random_stream(0, derive_stream("acc-trace", 0, 4)))
    sq = np.einsum("ij,ij->i", pts, pts)
    exact = bool(np.abs(sq - n).max() <= 1e-10)
    ok = ok and exact
    details.append(f"john exact per draw: {exact}")
    report(2, "trace-law", ok, "; ".join(details))


def test_03_deviation_decay_shape():
    cfg = ExperimentConfig(
        kind="sweep", sampler="cube", n=8, m_grid=[2**8, 2**10, 2**12, 2**14], seeds=list(range(10)), seed=0
    )
    res = run_experiment(cfg)
    means = [a["mean_deviation"] for a in res.aggregates]
    normalized = [a["normalized_deviation"] for a in res.aggregates]
    decreasing = all(a > b for a, b in zip(means, means[1:]))
    spread = max(normalized) / min(normalized)
    ok = decreasing and spread <= 2.0
    report(
        3,
        "deviation-decay-shape",
        ok,
        f"mean deviations {[f'{d:.4f}' for d in means]} strictly decreasing={decreasing}, "
        f"normalized spread x{spread:.2f} (<= 2)",
    )


def test_04_whitening_round_trip():
    cfg = ExperimentConfig(
        kind="whiten",
        sampler="cube",
        n=8,
        m=100_000,
        eps=0.1,
        distortion=[2.0, 1, 1, 1, 1, 1, 1, 0.5],
        seeds=list(range(10)),
        seed=0,
    )
    res = run_experiment(cfg)
    passes = sum(1 for r in res.rows if r["isotropic"])
    worst = max(r["deviation_exact"] for r in res.rows)
    report(4, "whitening-round-trip", passes >= 9, f"{passes}/10 seeds eps-isotropic at 0.1 (worst dev {worst:.4f})")


def test_05_john_sparsifier():
    ok = True
    details = []
    for fixture, n in (("simplex", 4), ("cross-polytope", 8)):
        jd = geo.canonical_john(fixture, n)
        successes = 0
        cert_ok = True
        for seed in range(100):
            rng = smp.random_stream(0, derive_stream("acc-john", 0, seed))
            try:
                a = jsp.sparsify(jd, eps=0.25, rng=rng, C=2.0, max_attempts=16)
            except jsp.SparsifyRejectionError:
                continue
            successes += 1
            rep = jsp.verify(a)
            cert_ok = cert_ok and (
                rep["residual_norm"] < 0.25
                and rep["centroid_norm"] <= 1e-10 * math.sqrt(a.M)
                and rep["u_norm_sqrt_m"] <= 4.0
            )
        ok = ok and successes >= 95 and cert_ok
        details.append(f"{fixture} n={n}: {successes}/100 ok, certificates valid={cert_ok}")
    report(5, "john-sparsifier", ok, "; ".join(details))


def test_06_truncated_sampling():
    # c0 = 128 is the pilot-calibrated constant: the truncated cube's true
    # per-coordinate second moment is 0.8248, so the noise floor must sit
    # well inside the 0.0248 margin above 1 - eps.
    cfg = ExperimentConfig(
        kind="truncated", sampler="cube", n=16, r=1.0, eps=0.2, c0=128.0, seeds=list(range(5)), seed=0
    )
    res = run_experiment(cfg)
    verdicts = [r["isotropic"] for r in res.rows]
    devs = [r["deviation"] for r in res.rows]
    report(
        6,
        "truncated-sampling",
        all(verdicts),
        f"{sum(verdicts)}/5 seeds eps-isotropic at 0.2 with M={res.rows[0]['M']} "
        f"(deviations {[f'{d:.3f}' for d in devs]})",
    )


def test_07_oracle_equivalence():
    gen = smp.random_stream(42, 0)
    worst_z = 0.0
    ok = True
    for k in range(20):
        m = 3 + int(gen.random() * 10)  # 3..12
        n = 2 + int(gen.random() * 3)  # 2..4
        pts = gen.standard_normal((m, n))
        exact = brn.rademacher_exact(pts)
        norms = brn.rademacher_trial_norms(pts, 10_000, smp.random_stream(100 + k, 0))
        se = norms.std(ddof=1) / math.sqrt(norms.size)
        z = abs(float(norms.mean()) - exact) / se
        worst_z = max(worst_z, z)
        ok = ok and z <= 4.0
    report(7, "oracle-equivalence", ok, f"20 point sets, worst |MC - exact| = {worst_z:.2f} se (<= 4)")


def test_08_signed_sum_bound():
    # Two oracles for the signed sum Z = sum eps_i y_i (x) y_i over isotropic
    # cube points, on one grid of (n, M) cells.
    #
    # Envelope: E|Z| <= C sqrt(log M) max|y_i| |sum y_i (x) y_i|^(1/2) with
    # C = 8 (Rudelson's lemma, the paper's shape).  The lemma is one-sided:
    # at fixed n, E|Z| grows like sqrt(M log 2n), not sqrt(M log M), so the
    # ratio to this shape drifts like sqrt(log 2n / log M) and falls with M
    # (its M-spread is about 2.1 at n = 2).  That spread is printed, not
    # asserted.
    #
    # Khintchine: E|Z| <= sqrt(2 v log 2n) with v = |sum |y_i|^2 y_i (x) y_i|
    # and constant 1 (noncommutative Khintchine; Tropp 2015, Thm 4.1.1).
    # This shape tracks the true growth in both M and n, so the 3-seed means
    # of E|Z| / sqrt(2 v log 2n) must also vary by at most a factor 2 across
    # M at each n.  Biased signs break both Khintchine clauses.
    grid_m = [8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096]
    seeds = (0, 1, 2)
    trials = 400
    max_ratio = 0.0
    max_khintchine = 0.0
    ok = True
    details = []
    for n in (2, 4, 8, 16):
        body = geo.isotropic_normalization("cube", n)
        mean_ratios = []
        mean_khintchine = []
        for i, m in enumerate(grid_m):
            cell = []
            kh_cell = []
            for s in seeds:
                rng = smp.random_stream(0, derive_stream("acc-bound", i, 1000 * n + s))
                pts = smp.direct_draws(body, m, rng)
                rep = brn.bound_ratio(pts, trials, rng)
                sq = np.einsum("ij,ij->i", pts, pts)
                v = float(np.linalg.eigvalsh((pts.T * sq) @ pts)[-1])
                khintchine = rep["estimate"] / math.sqrt(2.0 * v * math.log(2 * n))
                ok = ok and rep["ratio"] <= 8.0 and khintchine <= 1.0
                max_ratio = max(max_ratio, rep["ratio"])
                max_khintchine = max(max_khintchine, khintchine)
                cell.append(rep["ratio"])
                kh_cell.append(khintchine)
            mean_ratios.append(float(np.mean(cell)))
            mean_khintchine.append(float(np.mean(kh_cell)))
        spread = max(mean_khintchine) / min(mean_khintchine)
        paper_spread = max(mean_ratios) / min(mean_ratios)
        ok = ok and spread <= 2.0
        details.append(f"n={n}: x{spread:.2f} (paper shape x{paper_spread:.2f})")
    report(
        8,
        "signed-sum-bound",
        ok,
        f"max ratio {max_ratio:.3f} (<= 8); max Khintchine ratio {max_khintchine:.3f} (<= 1); "
        "M-spread of 3-seed Khintchine means per n (<= 2): " + ", ".join(details),
    )


def test_09_symmetrization():
    ok = True
    details = []
    for n in (4, 8):
        body = geo.isotropic_normalization("cube", n)
        draw = lambda m, rng: smp.direct_draws(body, m, rng)
        rng = smp.random_stream(0, derive_stream("acc-symm", 0, n))
        res = brn.symmetrization_check(draw, n, 256, 200, rng)
        holds = res["holds"]
        ok = ok and holds
        details.append(f"n={n}: lhs {res['lhs']:.4f} <= rhs {res['rhs']:.4f} (3-se slack): {holds}")
    report(9, "symmetrization-inequality", ok, "; ".join(details))


def test_10_numerics():
    rng = np.random.default_rng(2718)
    worst_inv = 0.0
    for _ in range(200):
        n = 2 + int(rng.integers(0, 15))
        g = rng.standard_normal((n, n))
        a = g @ g.T + 0.3 * np.eye(n)
        w = inv_sqrt(a)
        err = operator_norm(w @ a @ w - np.eye(n))
        worst_inv = max(worst_inv, err)
    report(10, "numerics", worst_inv <= 1e-9, f"200 inv-sqrt residuals max {worst_inv:.2e} (<= 1e-9)")


def test_11_cli_determinism(tmp_path):
    configs = {
        "sweep": "kind=sweep\nsampler=cube\nn=4\nm_grid=64,256\nseeds=0,1,2\nseed=0\n",
        "john-sparsify": "kind=john-sparsify\nfixture=simplex\nn=4\neps=0.25\nc=2\nseeds=0,1,2\nseed=0\n",
    }
    ok = True
    details = []
    for command, text in configs.items():
        cfg = tmp_path / f"{command}.cfg"
        cfg.write_text(text, encoding="utf-8")
        outputs = []
        for run in (1, 2):
            out = tmp_path / f"{command}-{run}.csv"
            proc = subprocess.run(
                [sys.executable, "-m", "isotropy.cli", command, "--config", str(cfg), "--out", str(out)],
                capture_output=True,
            )
            assert proc.returncode == 0, proc.stderr.decode()
            outputs.append(out.read_bytes())
        same = outputs[0] == outputs[1]
        ok = ok and same
        details.append(f"{command}: byte-identical={same}")
    report(11, "cli-determinism", ok, "; ".join(details))
