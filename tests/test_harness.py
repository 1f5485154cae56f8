import csv
import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from isotropy import bernoulli as brn
from isotropy import cli, harness
from isotropy import johnsparse as jsp
from isotropy import moments as mom
from isotropy.geometry import canonical_john, isotropic_normalization
from isotropy.harness import (
    ConfigError,
    ExperimentConfig,
    ExperimentError,
    agg_output_path,
    derive_stream,
    load_config,
    parse_config,
    render_csv,
    render_json,
    run_check,
    run_experiment,
    truncated_sample_count,
)
from isotropy.samplers import direct_draws, john_draws, random_stream


def strict_json_loads(text):
    """json.loads that refuses the non-RFC 8259 constants NaN and Infinity."""

    def reject_constant(name):
        raise ValueError(f"non-RFC 8259 constant {name}")

    return json.loads(text, parse_constant=reject_constant)


CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"
# The subcommand each shipped config runs under; symmetrize.cfg is the bernoulli mode=symmetrize run.
SHIPPED_CONFIG_COMMANDS = {
    "bernoulli.cfg": "bernoulli",
    "john.cfg": "john-sparsify",
    "sweep.cfg": "sweep",
    "symmetrize.cfg": "bernoulli",
    "truncated.cfg": "truncated",
    "whiten.cfg": "whiten",
}

# The column contract: each output's header, in order, keyed by the output's name.
COLUMNS = {
    "bernoulli": ["experiment", "M", "n", "trials", "seed", "estimate", "Q", "base_norm", "bound_shape", "ratio"],
    "check": ["experiment", "check", "ok", "invariant"],
    "john": [
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
    ],
    "sweep": ["experiment", "n", "M", "seed", "sampler", "deviation", "log_moment", "rhs_shape", "ratio"],
    "sweep.agg": ["experiment", "n", "M", "sampler", "n_seeds", "mean_deviation", "normalized_deviation"],
    "symmetrize": ["experiment", "n", "M", "trials", "seed", "lhs", "rhs", "lhs_se", "rhs_se", "holds"],
    "truncated": [
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
    ],
    "whiten": ["experiment", "n", "M", "seed", "eps", "deviation_raw", "deviation_exact", "isotropic"],
}

# The sha256 of each shipped output (the six configs at their default seed, and
# `check --out`).  The pins hold for numpy 2.4.6 on OpenBLAS; a change that moves
# an output's bytes announces it and re-records the pin.
SHIPPED_SHA256 = {
    "bernoulli": "b5809e6792af52cafa9f3f5e9783112006775e8452ab2a2f437f1bd26493e698",
    "check": "e039d893122aa45fe1498f228aad963e56e4f41dea28a76565e9f9b4f9e765c7",
    "john": "a7c8156449dc2b9774729b7ba077e70a2162cf1c2ab731dfa1fba15382c89ec0",
    "sweep": "ac8aaed9a5a3a9ad4cf06f619a0c2824b772de8f6fb399d744e7871ad72db1c3",
    "sweep.agg": "a6e4f64bee075ecb3ecdbf73114c9270b511f89ab3bca93a0780c625a3c326fa",
    "symmetrize": "05429f3486730bf14aabbd657102c8ba22867dbfde850bec985953877aca2fd7",
    "truncated": "761c56c179522831e1fe1e29ede14937691d859ea0223aac55baab7ff775daeb",
    "whiten": "bd158772459ae64f7829c43bd21ab78489cba83ee3d049d1a91d035bca14268e",
}

SWEEP_TEXT = """
# comment lines and blanks are skipped
kind=sweep
sampler=cube
n=4
m_grid=64,256
seeds=0,1,2
seed=0
"""


class TestConfigParsing:
    def test_round_trip(self):
        cfg = parse_config(SWEEP_TEXT)
        assert cfg.kind == "sweep" and cfg.n == 4
        assert cfg.m_grid == [64, 256] and cfg.seeds == [0, 1, 2]

    def test_readme_config_block_names_every_field_in_order(self):
        # The first code block under README's "## Config format" heading shows one key per line.
        readme = (CONFIG_DIR.parent / "README.md").read_text(encoding="utf-8")
        block = readme.split("\n## Config format\n", 1)[1].split("```\n", 2)[1]
        keys = [line.split("=", 1)[0] for line in block.splitlines()]
        assert keys == [f.name for f in dataclasses.fields(ExperimentConfig)]

    def test_kind_from_subcommand(self):
        cfg = parse_config("n=4\nm_grid=8\nseeds=0\n", kind="sweep")
        assert cfg.kind == "sweep"

    def test_kind_mismatch(self):
        with pytest.raises(ConfigError):
            parse_config("kind=whiten\n", kind="sweep")

    def test_missing_kind(self):
        with pytest.raises(ConfigError):
            parse_config("n=4\n")

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="^line 2: unknown key 'bogus'$"):
            parse_config("kind=sweep\nbogus=1\n")

    def test_repeated_key(self):
        # Keys are case-insensitive, so N repeats n too.
        with pytest.raises(ConfigError, match="^line 3: repeated key 'n'$"):
            parse_config("kind=sweep\nn=4\nn=8\nN=16\n")

    def test_bad_value(self):
        with pytest.raises(ConfigError):
            parse_config("kind=sweep\nn=four\n")

    def test_missing_equals(self):
        with pytest.raises(ConfigError):
            parse_config("kind sweep\n")

    @pytest.mark.parametrize(
        "text",
        [
            "kind=sweep\neps=1.5\n",
            "kind=sweep\nseeds=1,1\n",
            "kind=sweep\nm_grid=\n",
            "kind=sweep\nsampler=torus\n",
            "kind=bernoulli\nmode=unknown\n",
            "kind=whiten\nn=4\ndistortion=1,2\n",
            "kind=sweep\nm_grid=64,64\n",
            "kind=sweep\nm_grid=2\n",
            "kind=truncated\nr=nan\n",
            "kind=truncated\nsampler=john\n",
            "kind=john-sparsify\nfixture=cube-vertices\nn=21\n",
            "kind=sweep\nsampler=john:cube-vertices\nn=21\nm_grid=64\n",
            "kind=whiten\nn=2\ndistortion=1,nan\n",
            "kind=whiten\nn=4\n",
            "kind=sweep\nsampler=cube:bogus\n",
            # The truncated rule gives M = 2 here, below the M >= 3 every report needs.
            "kind=truncated\nsampler=simplex\nn=1\nr=0.5\neps=0.4\nc0=2\n",
            # The output path and format are CLI flags only; check is a subcommand, not a config kind.
            "kind=sweep\nformat=json\n",
            "kind=sweep\nout=x.csv\n",
            "kind=check\n",
            "kind=sweep\nn=0\n",
            "kind=sweep\nseeds=\n",
            "kind=bernoulli\ntrials=0\n",
            "kind=john-sparsify\nmax_attempts=0\n",
            "kind=sweep\nworkers=0\n",
            "kind=john-sparsify\nfixture=bogus\n",
        ],
    )
    def test_validation_failures(self, text):
        with pytest.raises(ConfigError):
            parse_config(text)

    def test_truncated_needs_a_body_sampler(self):
        # A valid John sampler passes the name check, so this rule alone rejects it.
        with pytest.raises(ConfigError, match="^truncated sampling needs a body sampler"):
            parse_config("kind=truncated\nsampler=john:cross-polytope\n")

    @pytest.mark.parametrize(
        "text, message",
        [
            (f"kind=whiten\nn=2\nm={2**70}\ndistortion=1,1\n", "^m must lie in "),
            (f"kind=whiten\nn=2\nm={2**63}\ndistortion=1,1\n", "^m must lie in "),
            (f"kind=sweep\nm_grid=64,{2**63}\n", "^m_grid entries must "),
            (f"kind=bernoulli\nm_grid={2**70}\n", "^m_grid entries must "),
            # Each rule gives a finite M near 1e306 here, past any index.
            ("kind=truncated\nsampler=cube\nn=8\neps=1e-150\n", "^the truncated sample-count rule gives M = "),
            ("kind=john-sparsify\nn=8\neps=1e-150\n", "^the john-sparsify sample-count rule gives M = "),
        ],
        ids=["whiten-2^70", "whiten-2^63", "sweep", "bernoulli", "truncated", "john-sparsify"],
    )
    def test_huge_sample_count_is_a_config_error(self, text, message):
        with pytest.raises(ConfigError, match=message):
            parse_config(text)

    def test_largest_sample_count_validates(self):
        # A row may draw at most MAX_ROW_ENTRIES = 2^32 floats, M * n, in each count its kind reads.
        cap = harness.MAX_ROW_ENTRIES // 2
        assert parse_config(f"kind=whiten\nn=2\nm={cap}\ndistortion=1,1\n").m == cap
        assert parse_config(f"kind=sweep\nn=2\nm_grid=3,{cap}\n").m_grid == [3, cap]
        assert parse_config(f"kind=bernoulli\nmode=symmetrize\nn=2\nm={cap}\ntrials=1\n").m == cap
        with pytest.raises(ConfigError, match="^m must lie in "):
            parse_config(f"kind=whiten\nn=2\nm={cap + 1}\ndistortion=1,1\n")
        with pytest.raises(ConfigError, match="^m_grid entries must "):
            parse_config(f"kind=sweep\nn=2\nm_grid=3,{cap + 1}\n")
        with pytest.raises(ConfigError, match="^m must lie in "):
            parse_config(f"kind=bernoulli\nmode=symmetrize\nn=2\nm={cap + 1}\ntrials=1\n")
        # The bound scales with n: (2^32 / 16) x 16 fits, one more row does not.
        assert parse_config(f"kind=whiten\nn=16\nm={2**28}\ndistortion={','.join(['1'] * 16)}\n").m == 2**28
        with pytest.raises(ConfigError, match="^m must lie in "):
            parse_config(f"kind=whiten\nn=16\nm={2**28 + 1}\ndistortion={','.join(['1'] * 16)}\n")

    def test_trials_and_what_they_draw_are_bounded(self):
        # At most MAX_TRIALS = 2^16 trials.  A symmetrize row draws a fresh M x n batch per
        # trial, trials * M * n <= 2^32; a ratio row draws trials * M signs, each at most 2^32.
        top = harness.MAX_TRIALS
        assert parse_config(f"kind=bernoulli\ntrials={top}\nm_grid=3\n").trials == top
        with pytest.raises(ConfigError, match=f"^trials must lie in \\[1, {top}\\]$"):
            parse_config(f"kind=bernoulli\ntrials={top + 1}\nm_grid=3\n")
        cap = harness.MAX_ROW_ENTRIES // (4 * 1000)
        assert parse_config(f"kind=bernoulli\nmode=symmetrize\nn=4\nm={cap}\ntrials=1000\n").m == cap
        with pytest.raises(ConfigError, match=f"^m must lie in \\[1, {cap}\\] at n = 4 and trials = 1000$"):
            parse_config(f"kind=bernoulli\nmode=symmetrize\nn=4\nm={cap + 1}\ntrials=1000\n")
        cap = harness.MAX_ROW_ENTRIES // top
        assert parse_config(f"kind=bernoulli\nn=4\nm_grid=3,{cap}\ntrials={top}\n").m_grid == [3, cap]
        with pytest.raises(ConfigError, match=f"^m_grid entries must be distinct and lie in \\[3, {cap}\\]"):
            parse_config(f"kind=bernoulli\nn=4\nm_grid=3,{cap + 1}\ntrials={top}\n")

    @pytest.mark.parametrize(
        "text",
        [
            f"kind=sweep\nn=2\nm={2**62}\n",
            f"kind=whiten\nn=2\nm_grid=3,{2**62}\ndistortion=1,1\n",
            f"kind=bernoulli\nmode=ratio\nn=2\nm={2**62}\n",
            f"kind=bernoulli\nmode=symmetrize\nn=2\nm_grid=3,{2**62}\n",
            f"kind=truncated\nn=2\nm={2**62}\nm_grid=3,{2**62}\n",
            f"kind=john-sparsify\nn=2\nm={2**62}\nm_grid=3,{2**62}\n",
        ],
        ids=["sweep", "whiten", "ratio", "symmetrize", "truncated", "john-sparsify"],
    )
    def test_unread_sample_counts_are_not_bounded(self, text):
        # Only the counts a kind reads are held to M * n <= 2^32; one it does not read is
        # checked for its lower limit only.
        parse_config(text)

    def test_load_config(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text(SWEEP_TEXT, encoding="utf-8")
        assert load_config(path).n == 4

    @pytest.mark.parametrize("path", sorted(CONFIG_DIR.glob("*.cfg")), ids=lambda p: p.name)
    def test_shipped_config_loads(self, path):
        command = SHIPPED_CONFIG_COMMANDS[path.name]
        assert load_config(path, kind=command).kind == command


class TestStreams:
    def test_derive_stream_is_stable_and_distinct(self):
        a = derive_stream("sweep", 0, 0)
        assert a == derive_stream("sweep", 0, 0)
        others = {derive_stream("sweep", 0, 1), derive_stream("sweep", 1, 0), derive_stream("whiten", 0, 0)}
        assert a not in others and len(others) == 3


class TestRenderers:
    def test_csv_formatting(self):
        rows = [{"a": 1, "b": 1.0 / 3.0, "c": True, "d": "x"}, {"a": 2, "b": 0.5, "c": False, "d": "x,y"}]
        text = render_csv(["a", "b", "c", "d"], rows)
        assert text == 'a,b,c,d\n1,0.33333333333333331,true,x\n2,0.5,false,"x,y"\n'

    def test_floats_have_17_significant_digits(self):
        values = [1.0 / 3.0, 0.1, np.float64(2.0 / 3.0), 1e-300, -math.pi]
        fields = render_csv(["x"], [{"x": v} for v in values]).splitlines()[1:]
        assert fields[0] == "0.33333333333333331"
        assert [float(f) for f in fields] == [float(v) for v in values]

    def test_json_mirrors_fields(self):
        rows = [{"a": 1, "b": 0.5, "c": False, "d": "x"}, {"a": 2, "b": math.nan, "c": True, "d": "y"}]
        payload = strict_json_loads(render_json(["a", "b", "c", "d"], rows))
        assert payload == [{"a": 1, "b": 0.5, "c": False, "d": "x"}, {"a": 2, "b": None, "c": True, "d": "y"}]

    def test_numpy_scalars_render_like_python_ones(self):
        # A verdict computed from numpy values is an np.bool_, which is not a bool.
        rows = [{"a": np.bool_(True), "b": np.float64(0.5), "c": np.bool_(False), "d": np.int64(3)}]
        assert render_csv(["a", "b", "c", "d"], rows) == "a,b,c,d\ntrue,0.5,false,3\n"
        [payload] = strict_json_loads(render_json(["a", "b", "c", "d"], rows))
        assert payload == {"a": True, "b": 0.5, "c": False, "d": 3}
        assert payload["a"] is True and payload["c"] is False

    def test_agg_path(self):
        assert agg_output_path("results.csv") == "results.agg.csv"
        assert agg_output_path("noext") == "noext.agg"
        assert agg_output_path("runs.d/sweep") == "runs.d/sweep.agg"
        assert agg_output_path("./res") == "./res.agg"
        assert agg_output_path("runs.d/sweep.csv") == "runs.d/sweep.agg.csv"


class TestRunSweep:
    def test_row_and_aggregate_counts(self):
        cfg = parse_config(SWEEP_TEXT)
        res = run_experiment(cfg)
        assert res.header == COLUMNS["sweep"] and res.agg_header == COLUMNS["sweep.agg"]
        assert len(res.rows) == 2 * 3 and len(res.aggregates) == 2
        keys = {(r["M"], r["seed"]) for r in res.rows}
        assert len(keys) == 6  # one row per (config point, seed)

    def test_aggregates_recomputable(self):
        cfg = parse_config(SWEEP_TEXT)
        res = run_experiment(cfg)
        for agg in res.aggregates:
            devs = [r["deviation"] for r in res.rows if r["M"] == agg["M"]]
            assert agg["mean_deviation"] == pytest.approx(float(np.mean(devs)), abs=1e-12)
            expected = agg["mean_deviation"] * math.sqrt(agg["M"]) / math.sqrt(math.log(agg["M"]))
            assert agg["normalized_deviation"] == pytest.approx(expected, abs=1e-12)

    def test_full_grid_row_counting(self):
        # 7 M values x 10 seeds gives 70 rows plus 7 aggregate rows.
        grid = ",".join(str(2**k) for k in range(8, 15))
        seeds = ",".join(str(s) for s in range(10))
        cfg = parse_config(f"kind=sweep\nsampler=cube\nn=8\nm_grid={grid}\nseeds={seeds}\n")
        res = run_experiment(cfg)
        assert len(res.rows) == 70 and len(res.aggregates) == 7

    def test_john_sampler_rows_have_exact_log_moment(self):
        cfg = parse_config("kind=sweep\nsampler=john:cross-polytope\nn=4\nm_grid=64\nseeds=0,1\n")
        res = run_experiment(cfg)
        for row in res.rows:
            assert row["log_moment"] == pytest.approx(2.0, rel=1e-12)

    def test_workers_do_not_change_results(self):
        # Every kind, with a seed list out of ascending order: rows come in
        # config order (points, then seeds) and the CSV bytes do not move.
        # M = 5000 streams the sweep and whiten draws in two chunks.
        texts = [
            "kind=sweep\nsampler=cube\nn=4\nm_grid=64,256,5000",
            "kind=whiten\nsampler=cube\nn=4\nm=5000\ndistortion=2,1,1,0.5",
            "kind=truncated\nsampler=cube\nn=4\nr=2.0\neps=0.3\nc0=0.12",
            # A thin cut: each seed runs the hit-and-run chain, 1,224 steps over two blocks.
            "kind=truncated\nsampler=cube\nn=2\nr=0.0138\neps=0.01\nc0=60",
            "kind=john-sparsify\nfixture=simplex\nn=4\neps=0.25\nc=2",
            "kind=bernoulli\nmode=ratio\nsampler=cube\nn=4\nm_grid=16,64\ntrials=50",
            "kind=bernoulli\nmode=symmetrize\nsampler=cube\nn=4\nm=64\ntrials=20",
        ]
        seeds = [5, 3, 4]
        for text in texts:
            cfg = parse_config(f"{text}\nseeds=5,3,4\n")
            seq = run_experiment(cfg)
            cfg.workers = 2
            par = run_experiment(cfg)
            assert [r["seed"] for r in seq.rows] == seeds * (len(seq.rows) // len(seeds)), text
            assert render_csv(seq.header, seq.rows) == render_csv(par.header, par.rows), text
            if seq.aggregates is not None:
                assert render_csv(seq.agg_header, seq.aggregates) == render_csv(par.agg_header, par.aggregates)

    def test_pool_threads_are_capped(self, monkeypatch):
        # validate() accepts any workers >= 1, and a pool starts up to max_workers threads;
        # a stand-in pool records the request and maps in the calling thread.
        requested = []

        class InlinePool:
            def __init__(self, max_workers):
                requested.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return list(map(fn, tasks))

        text = "kind=sweep\nsampler=cube\nn=2\nm_grid=8\nseeds=" + ",".join(map(str, range(64))) + "\n"
        serial = run_experiment(parse_config(text))
        monkeypatch.setattr(harness, "ThreadPoolExecutor", InlinePool)
        capped = run_experiment(parse_config(text + "workers=100000\n"))
        assert all(w <= (os.cpu_count() or 1) for w in requested), requested
        assert render_csv(capped.header, capped.rows) == render_csv(serial.header, serial.rows)


    @pytest.mark.parametrize("sampler", ["cube", "simplex"])
    def test_row_holds_no_batch(self, sampler, traced_peak_mb):
        # One (M, 16) draw at M = 2^20 is 128 MiB; the streamed row holds the 8 MiB (M,)
        # norms and one chunk at a time.
        m = 2**20
        row, _ = harness._plan_sweep(parse_config(f"kind=sweep\nsampler={sampler}\nn=16\nm_grid={m}\nseeds=0\n"))
        assert traced_peak_mb(lambda: row(m, 0, random_stream(0, 0))) < 12


class TestDrawStream:
    # Sweep and whiten rows read their m draws as a stream of row chunks.

    @pytest.mark.parametrize("m", [3, 4096, 4097, 4098, 8193, 65536])
    @pytest.mark.parametrize("sampler", ["cube", "ball", "simplex", "john:cross-polytope"])
    def test_chunks_are_one_whole_draw(self, sampler, m):
        # Every sampler's chunks read the random stream as one whole draw does.
        rng, whole_rng = random_stream(1, 2), random_stream(1, 2)
        chunks = list(harness._make_stream(sampler, 4)(m, rng))
        assert np.array_equal(np.concatenate(chunks), harness._make_draw(sampler, 4)(m, whole_rng))
        assert np.array_equal(rng.random(8), whole_rng.random(8))
        sizes = [len(c) for c in chunks]
        assert max(sizes) <= 4097 and 1 not in sizes[1:], sizes

    def test_recorded_ball_stream(self):
        # Pins the points of a streamed ball draw, and with them the order in which each
        # chunk reads its normals and radii.
        pts = np.concatenate(list(harness._make_stream("ball", 8)(10_000, random_stream(1, 2))))
        assert hashlib.sha256(pts.tobytes()).hexdigest() == (
            "6787ea25bc91a3a7a6f062958e5f2f46e8060f45cbb2e8420da1c6c9e3f575df"
        )


class TestRunWhiten:
    def test_round_trip_rows(self):
        cfg = parse_config("kind=whiten\nsampler=cube\nn=4\nm=20000\neps=0.15\nseeds=0,1\ndistortion=2,1,1,0.5\n")
        res = run_experiment(cfg)
        assert res.header == COLUMNS["whiten"]
        for row in res.rows:
            assert row["deviation_raw"] > 1.0  # the distortion is far from isotropic
            assert row["deviation_exact"] < 0.15
            assert row["isotropic"] is True

    @pytest.mark.parametrize("m", [40, 2000])
    @pytest.mark.parametrize("sampler", ["cube", "ball", "simplex", "john:cross-polytope"])
    def test_deviation_is_exact(self, sampler, m):
        # The whitened law's second moment W A^2 W has the spectrum of T_x^(-1), where
        # T_x is the second moment of the row's undistorted points x_i = A^(-1) y_i:
        # with G = W A, G G^T = W A^2 W and G^T G = A (A T_x A)^(-1) A = T_x^(-1).
        # The points are replayed from the row's stream and the oracle uses only numpy.
        n, distortion = 4, "2,1,1,0.5"
        cfg = parse_config(f"kind=whiten\nsampler={sampler}\nn={n}\nm={m}\ndistortion={distortion}\nseeds=0,1,2\n")
        for row in run_experiment(cfg).rows:
            rng = random_stream(cfg.seed, derive_stream("whiten", 0, row["seed"]))
            if sampler.startswith("john:"):
                x = john_draws(canonical_john(sampler.removeprefix("john:"), n), m, rng)
            else:
                x = direct_draws(isotropic_normalization(sampler, n), m, rng)
            oracle = np.linalg.norm(np.linalg.inv(x.T @ x / m) - np.eye(n), 2)
            assert abs(row["deviation_exact"] - oracle) <= 1e-9 * max(1.0, oracle), (row["seed"], oracle)

    def test_row_holds_no_batch(self, traced_peak_mb):
        # One (M, 8) draw at M = 10^6 is 61 MiB; the streamed row holds one chunk at a time.
        m = 10**6
        cfg = parse_config(f"kind=whiten\nsampler=cube\nn=8\nm={m}\ndistortion=2,1,1,1,1,1,1,0.5\nseeds=0\n")
        row, _ = harness._plan_whiten(cfg)
        assert traced_peak_mb(lambda: row(m, 0, random_stream(0, 0))) < 2


class TestRunTruncated:
    def test_sample_count_formula(self):
        x = 16.0 / 0.04
        assert truncated_sample_count(16, 1.0, 0.2, 1.0) == math.ceil(x * math.log(x))
        with pytest.raises(ConfigError):
            truncated_sample_count(1, 0.1, 0.9, 1.0)

    def test_vacuous_truncation_matches_sweep_statistics(self):
        # R sqrt(n) covers the whole cube, so rows follow the same
        # distribution as a plain sweep at the same M; compare seed-mean
        # deviations within 3 combined standard errors.
        trunc_cfg = parse_config("kind=truncated\nsampler=cube\nn=4\nr=2.0\neps=0.3\nc0=0.12\nseeds=0,1,2,3,4\n")
        m = truncated_sample_count(4, 2.0, 0.3, 0.12)
        res_t = run_experiment(trunc_cfg)
        sweep_cfg = parse_config(f"kind=sweep\nsampler=cube\nn=4\nm_grid={m}\nseeds=0,1,2,3,4\n")
        res_s = run_experiment(sweep_cfg)
        dev_t = np.array([r["deviation"] for r in res_t.rows])
        dev_s = np.array([r["deviation"] for r in res_s.rows])
        se = math.hypot(dev_t.std(ddof=1), dev_s.std(ddof=1)) / math.sqrt(len(dev_t))
        assert abs(dev_t.mean() - dev_s.mean()) <= 3.0 * se
        assert res_t.header == COLUMNS["truncated"]

    def test_degenerate_radius_is_a_config_error(self):
        # R^2 n / eps^2 <= 1 leaves the sample-count rule undefined.
        with pytest.raises(ConfigError):
            run_experiment(parse_config("kind=truncated\nsampler=cube\nn=2\nr=0.0001\neps=0.2\nc0=1\nseeds=0\n"))

    def test_infeasible_truncation_is_an_experiment_error(self):
        # Valid sample-count rule, but the ball keeps ~2e-7 of the cube.
        cfg = parse_config("kind=truncated\nsampler=cube\nn=8\nr=0.15\neps=0.2\nc0=1\nseeds=0\n")
        with pytest.raises(ExperimentError):
            run_experiment(cfg)


class TestRunJohn:
    def test_rows_and_attempt_bounds(self):
        cfg = parse_config("kind=john-sparsify\nfixture=simplex\nn=4\neps=0.25\nc=2\nseeds=0,1,2,3\n")
        res = run_experiment(cfg)
        assert res.header == COLUMNS["john"]
        for row in res.rows:
            assert row["attempts"] <= cfg.max_attempts
            assert row["accepted"] is True
            assert row["residual_norm"] < 0.25

    def test_rejected_and_accepted_rows_share_columns(self):
        # The header is the first row's keys, and here the first row is a rejected seed.
        cfg = parse_config(
            "kind=john-sparsify\nfixture=cross-polytope\nn=8\neps=0.3\nc=1.5\nmax_attempts=1\nseeds=0,1,2,3,4,5\n"
        )
        res = run_experiment(cfg)
        assert not res.rows[0]["accepted"] and any(r["accepted"] for r in res.rows)
        assert res.header == COLUMNS["john"]
        assert all(list(row) == res.header for row in res.rows)

    def test_all_seeds_failed(self):
        cfg = parse_config("kind=john-sparsify\nfixture=cross-polytope\nn=8\neps=0.05\nc=0.01\nmax_attempts=2\nseeds=0,1\n")
        with pytest.raises(ExperimentError):
            run_experiment(cfg)


class TestRunBernoulli:
    def test_ratio_rows(self):
        cfg = parse_config("kind=bernoulli\nmode=ratio\nsampler=cube\nn=4\nm_grid=16,64\nseeds=0,1\ntrials=100\n")
        res = run_experiment(cfg)
        assert res.header == COLUMNS["bernoulli"]
        assert len(res.rows) == 4
        assert all(r["ratio"] <= 8.0 for r in res.rows)

    def test_symmetrize_rows(self):
        cfg = parse_config("kind=bernoulli\nmode=symmetrize\nsampler=cube\nn=4\nm=128\ntrials=100\nseeds=0,1\n")
        res = run_experiment(cfg)
        assert res.header == COLUMNS["symmetrize"]
        assert all(r["holds"] for r in res.rows)

    def test_symmetrize_row_holds_one_block_of_matrices(self, traced_peak_mb):
        # Two whole (trials, n, n) stacks and operator_norm's symmetry check on one of them
        # peaked at 48.8 MiB here; blocks of 2^19 / n^2 = 128 trials peak at 12.8 MiB.
        cfg = parse_config("kind=bernoulli\nmode=symmetrize\nsampler=cube\nn=64\nm=3\ntrials=512\nseeds=0\n")
        assert traced_peak_mb(lambda: run_experiment(cfg)) < 20

    @pytest.mark.parametrize("stack_entries", [16, 7 * 16])
    def test_symmetrize_blocks_keep_the_row_bytes(self, monkeypatch, stack_entries):
        # At n = 4 the default block holds all 100 trials; blocks of 1 or 7 trials (the last one
        # short) draw and reduce the same matrices in the same order.
        cfg = parse_config("kind=bernoulli\nmode=symmetrize\nsampler=cube\nn=4\nm=16\ntrials=100\nseeds=0,1\n")
        whole = run_experiment(cfg)
        monkeypatch.setattr(brn, "_STACK_ENTRIES", stack_entries)
        blocked = run_experiment(cfg)
        assert render_csv(blocked.header, blocked.rows) == render_csv(whole.header, whole.rows)


class TestRunCheck:
    def test_all_checks_pass(self):
        res = run_check(seed=0)
        failures = [r["check"] for r in res.rows if not r["ok"]]
        assert failures == []

    def test_sparsifier_uses_the_check_stream(self):
        def detail(seed):
            return next(r["detail"] for r in run_check(seed=seed).rows if r["check"] == "sparsifier-smoke")

        assert detail(0) != detail(1)

    @pytest.mark.parametrize(
        "module, attr, name",
        [
            (harness, "_chord_failure", "chord-consistency"),
            (mom, "_power_mean", "log-moment-properties"),
            (mom, "_streamed_second_moment", "self-whitening"),
            (jsp, "sparsify", "sparsifier-smoke"),
        ],
    )
    def test_crashed_check_keeps_its_table_name(self, monkeypatch, module, attr, name):
        def crash(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(module, attr, crash)
        rows = run_check(seed=0).rows
        assert [r["check"] for r in rows] == [entry[0] for entry in harness._CHECKS]
        assert [r["check"] for r in rows if not r["ok"]] == [name]
        assert next(r["detail"] for r in rows if r["check"] == name) == "raised RuntimeError('boom')"

    def test_check_csv_moves_only_with_verdicts(self, monkeypatch):
        # A last-bit change in inv_sqrt moves the measured residual but no verdict.
        def residual(res):
            return next(r["detail"] for r in res.rows if r["check"] == "inv-sqrt-roundtrip")

        base = run_check(seed=0)
        exact = harness.inv_sqrt
        monkeypatch.setattr(harness, "inv_sqrt", lambda a: exact(a) * (1 + 2**-50))
        moved = run_check(seed=0)
        assert residual(moved) != residual(base)
        assert render_csv(moved.header, moved.rows) == render_csv(base.header, base.rows)


def run_cli(args):
    return cli.main(args)


class TestCli:
    def test_check_exits_zero(self, capsys):
        assert run_cli(["check"]) == 0
        out = capsys.readouterr().out
        assert "all" in out and "PASS" in out

    def test_failed_check_exits_one_and_still_writes_out(self, monkeypatch, capsys, tmp_path):
        def crash(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(harness, "_chord_failure", crash)
        out = tmp_path / "check.csv"
        assert run_cli(["check", "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert "FAIL chord-consistency: raised RuntimeError('boom')\n" in captured.out
        assert captured.err == f"1 of {len(harness._CHECKS)} checks failed\n"
        with open(out, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == COLUMNS["check"] and len(rows) == 1 + len(harness._CHECKS)
        assert [row[1] for row in rows[1:] if row[2] == "false"] == ["chord-consistency"]

    def test_missing_config_is_usage_error(self, capsys):
        assert run_cli(["sweep", "--config", "does-not-exist.cfg"]) == 2

    def test_unreadable_config_is_usage_error(self, tmp_path, capsys):
        # Undecodable bytes and a directory take the same path as a missing file.
        path = tmp_path / "bytes.cfg"
        path.write_bytes(b"kind=sweep\nn=\xff\n")
        for config in (path, tmp_path):
            assert run_cli(["sweep", "--config", str(config)]) == 2, config
            err = capsys.readouterr().err
            assert err.startswith("error: cannot read config ") and err.count("error:") == 1, config
            assert "Traceback" not in err, config

    def test_unknown_subcommand_exits_two(self):
        with pytest.raises(SystemExit) as err:
            run_cli(["bogus"])
        assert err.value.code == 2

    def test_unknown_flag_exits_two(self):
        with pytest.raises(SystemExit) as err:
            run_cli(["sweep", "--nope"])
        assert err.value.code == 2

    def test_bad_config_value_is_usage_error(self, tmp_path, capsys):
        cases = [
            ("sweep", "eps=2.0\n"),
            ("john-sparsify", "fixture=cube-vertices\nn=21\n"),
            ("bernoulli", "sampler=john:cube-vertices\nn=21\nm_grid=16\n"),
            ("whiten", "n=2\ndistortion=1,nan\n"),
            ("whiten", "n=2\nm=100\nseeds=0\n"),
            ("sweep", "sampler=cube:bogus\nn=2\nm_grid=16\nseeds=0\n"),
            ("truncated", "sampler=simplex\nn=1\nr=0.5\neps=0.4\nc0=2\n"),
            # A John sampler names its fixture; the fixture key is read by john-sparsify only.
            ("sweep", "sampler=john\nfixture=simplex\nn=2\nm_grid=16\nseeds=0\n"),
            ("sweep", "n=2\nm_grid=16\nn=3\nseeds=0\n"),
        ]
        for i, (command, text) in enumerate(cases):
            path = tmp_path / f"bad{i}.cfg"
            path.write_text(text, encoding="utf-8")
            assert run_cli([command, "--config", str(path)]) == 2, text
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("error:") == 1 and "Traceback" not in err, text

    def test_infeasible_truncation_is_usage_error(self, tmp_path, capsys):
        # R^2 n / eps^2 <= 1 is caught by validate(), not raised mid-run.
        path = tmp_path / "trunc.cfg"
        path.write_text("kind=truncated\nsampler=cube\nn=2\nr=0.0001\neps=0.2\nc0=1\nseeds=0\n", encoding="utf-8")
        assert run_cli(["truncated", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: R^2 n / eps^2 must exceed 1\n") and "Traceback" not in err

    @pytest.mark.parametrize(
        "command, text",
        [
            ("john-sparsify", "fixture=cross-polytope\nn=2\neps=1e-9\nc=1e300\nseeds=0\n"),
            ("truncated", "sampler=cube\nn=16\nr=1\neps=1e-10\nc0=1e300\nseeds=0\n"),
            ("john-sparsify", "fixture=cross-polytope\nn=4\neps=1e-170\nseeds=0\n"),
            ("truncated", "sampler=cube\nn=8\neps=1e-300\nseeds=0\n"),
        ],
        ids=["john-sparsify", "truncated", "john-sparsify-eps-underflow", "truncated-eps-underflow"],
    )
    def test_infinite_sample_count_is_usage_error(self, tmp_path, capsys, command, text):
        # Each sample-count rule gives an infinite float here, which has no integer ceiling;
        # in the last two cases eps * eps underflows to 0 and the rule divides by it.
        path = tmp_path / "huge.cfg"
        path.write_text(text, encoding="utf-8")
        assert run_cli([command, "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("error:") == 1 and "Traceback" not in err

    @pytest.mark.parametrize(
        "command, text",
        [
            ("whiten", f"n=2\nm={2**70}\ndistortion=1,1\nseeds=0\n"),
            ("whiten", f"n=2\nm={2**62}\ndistortion=1,1\nseeds=0\n"),
            ("sweep", f"n=2\nm_grid=64,{2**70}\nseeds=0\n"),
            ("truncated", "sampler=cube\nn=8\neps=1e-150\nseeds=0\n"),
            ("john-sparsify", "fixture=cross-polytope\nn=8\neps=1e-150\nseeds=0\n"),
            # The rule's M is at least n + 1, so M * n passes 2^32 long before a fixture is too large to build.
            ("john-sparsify", "fixture=cross-polytope\nn=10000000\nseeds=0\n"),
            # Two (trials, n, n) stacks and one Python loop per trial: about 6 minutes at 2^24.
            ("bernoulli", f"mode=symmetrize\nn=2\nm=3\ntrials={2**24}\nseeds=0\n"),
        ],
        ids=["whiten", "whiten-2^62", "sweep", "truncated", "john-sparsify", "john-sparsify-n-10^7", "symmetrize-2^24"],
    )
    def test_huge_sample_count_exits_two(self, tmp_path, command, text):
        # A whiten M of 2^70, or of 2^62 (which numpy can index), streamed its draws until
        # killed, and the rules' M of about 1e306 ended in "Python int too large to convert
        # to C long".  The child's timeout makes a regression fail rather than hang the suite.
        path = tmp_path / f"{command}.cfg"
        path.write_text(text, encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, "-m", "isotropy.cli", command, "--config", str(path)],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 2 and "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: ") and proc.stderr.count("error:") == 1, proc.stderr

    def test_rejected_seeds_give_valid_json(self, tmp_path):
        path = tmp_path / "john.cfg"
        path.write_text(
            "kind=john-sparsify\nfixture=cross-polytope\nn=8\neps=0.25\nc=1\nmax_attempts=1\nseeds=0,1,2,3,4,5\n",
            encoding="utf-8",
        )
        out = tmp_path / "john.json"
        assert run_cli(["john-sparsify", "--config", str(path), "--out", str(out), "--format", "json"]) == 0
        rows = strict_json_loads(out.read_text(encoding="utf-8"))
        rejected = [r for r in rows if not r["accepted"]]
        assert rejected and all(r["residual_norm"] is None for r in rejected)

    def test_experiment_failure_exits_one(self, tmp_path, capsys):
        path = tmp_path / "john.cfg"
        path.write_text(
            "kind=john-sparsify\nfixture=cross-polytope\nn=8\neps=0.05\nc=0.01\nmax_attempts=2\nseeds=0,1\n",
            encoding="utf-8",
        )
        assert run_cli(["john-sparsify", "--config", str(path)]) == 1

    def test_certificate_failure_exits_one(self, tmp_path, capsys):
        # With c = 0.01 (M = 3) the sample count is too small for the residual certificate,
        # and an accepted draw fails it on some streams.  The failing seed is the first s >= 0
        # whose row, on the stream the runner derives for it under master seed 0, raises.
        jd = canonical_john("cross-polytope", 2)

        def row_fails(seed: int) -> bool:
            rng = random_stream(0, derive_stream("john-sparsify", 0, seed))
            try:
                jsp.sparsify(jd, 0.9, rng, C=0.01)
            except jsp.SparsifyRejectionError:
                return False  # a rejected row is reported in the CSV, not as an error
            except ValueError:
                return True
            return False

        failing = next(s for s in range(64) if row_fails(s))
        seeds = ",".join(str(s) for s in range(failing + 2))
        path = tmp_path / "john.cfg"
        text = f"kind=john-sparsify\nfixture=cross-polytope\nn=2\neps=0.9\nc=0.01\nseeds={seeds}\nseed=0\n"
        path.write_text(text, encoding="utf-8")
        assert run_cli(["john-sparsify", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: seed {failing}: certificate failed") and err.count("error:") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "command, text, prefix",
        [
            ("whiten", "n=2\nm=100\ndistortion=1e200,1\nseeds=0\n", "error: seed 0: "),
            ("truncated", "sampler=cube\nn=1073741824\nr=1\neps=0.5\nc0=3e-11\nseeds=0\n", "error: seed 0: "),
            ("sweep", "sampler=cube\nn=4194304\nm_grid=3\nseeds=0\n", "error: seed 0: "),
            ("sweep", "sampler=simplex\nn=10000000\nm_grid=3\nseeds=0\n", "error: Unable to allocate"),
            (
                "bernoulli",
                # One trial keeps trials * M * n = 3e7 under the row bound, so the config validates.
                "mode=symmetrize\nsampler=john:cross-polytope\nn=10000000\nm=3\ntrials=1\nseeds=0\n",
                "error: Unable to allocate",
            ),
        ],
        ids=["whiten", "truncated", "sweep", "plan-sweep-simplex", "plan-symmetrize-john"],
    )
    def test_validated_run_failure_is_one_error_line(self, tmp_path, command, text, prefix):
        # Each config passes validate(), M * n <= 2^32 included.  whiten: the second moment of
        # the distorted draws overflows mid-run.  truncated (M = 3 at n = 2^30): the pilot's
        # first 4,096-row chunk needs 32 TiB; sweep (M = 3 at n = 2^22): the (n, n) Gram
        # product of the first chunk needs 128 TiB; numpy refuses both.  plan-*:
        # the plan builds an n = 10^7 body or fixture before any row starts, and its
        # (n + 1, n) or (n, n) array needs 728 TiB, so no seed is named.
        path = tmp_path / f"{command}.cfg"
        path.write_text(text, encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, "-m", "isotropy.cli", command, "--config", str(path)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1 and "Traceback" not in proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith(prefix), proc.stderr

    def test_every_output_is_valid_csv(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("ISOTROPY_SEED", raising=False)  # the pins are of the default seeds
        outs = [tmp_path / "check.csv"]
        assert run_cli(["check", "--out", str(outs[0])]) == 0
        for path in sorted(CONFIG_DIR.glob("*.cfg")):
            out = tmp_path / f"{path.stem}.csv"
            assert run_cli([SHIPPED_CONFIG_COMMANDS[path.name], "--config", str(path), "--out", str(out)]) == 0
            outs.append(out)
        outs.append(tmp_path / "sweep.agg.csv")
        for out in outs:
            with open(out, newline="", encoding="utf-8") as fh:
                header, *rows = csv.reader(fh)
            assert header == COLUMNS[out.name.removesuffix(".csv")], out.name
            assert rows and all(len(row) == len(header) for row in rows), out.name
            digest = hashlib.sha256(out.read_bytes()).hexdigest()
            assert digest == SHIPPED_SHA256[out.name.removesuffix(".csv")], out.name

    @pytest.mark.parametrize("name", ["bernoulli", "sweep", "symmetrize", "whiten"])
    def test_two_workers_keep_the_shipped_pins(self, name):
        cfg = load_config(CONFIG_DIR / f"{name}.cfg")
        cfg.workers = 2
        res = run_experiment(cfg)
        outputs = {name: (res.header, res.rows)}
        if res.aggregates is not None:
            outputs[f"{name}.agg"] = (res.agg_header, res.aggregates)
        for out, (header, rows) in outputs.items():
            assert hashlib.sha256(render_csv(header, rows).encode()).hexdigest() == SHIPPED_SHA256[out], out

    def test_deterministic_csv(self, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(SWEEP_TEXT, encoding="utf-8")
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(["sweep", "--config", str(cfg), "--out", str(out1)]) == 0
        assert run_cli(["sweep", "--config", str(cfg), "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert (tmp_path / "a.agg.csv").read_bytes() == (tmp_path / "b.agg.csv").read_bytes()
        header = out1.read_text(encoding="utf-8").splitlines()[0]
        assert header == ",".join(COLUMNS["sweep"])

    def test_seed_flag_changes_output(self, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(SWEEP_TEXT, encoding="utf-8")
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(["sweep", "--config", str(cfg), "--out", str(out1), "--seed", "1"]) == 0
        assert run_cli(["sweep", "--config", str(cfg), "--out", str(out2), "--seed", "2"]) == 0
        assert out1.read_bytes() != out2.read_bytes()

    def test_env_seed_overrides_flag(self, tmp_path, monkeypatch):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(SWEEP_TEXT, encoding="utf-8")
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        monkeypatch.setenv("ISOTROPY_SEED", "7")
        assert run_cli(["sweep", "--config", str(cfg), "--out", str(out1), "--seed", "1"]) == 0
        monkeypatch.delenv("ISOTROPY_SEED")
        assert run_cli(["sweep", "--config", str(cfg), "--out", str(out2), "--seed", "7"]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_seed_env_override(self, tmp_path, monkeypatch, capsys):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(SWEEP_TEXT, encoding="utf-8")
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        monkeypatch.setenv("ISOTROPY_SEED", "12345")
        assert run_cli(["sweep", "--config", str(cfg), "--out", str(out1), "--seed", "42"]) == 0
        monkeypatch.delenv("ISOTROPY_SEED")
        assert run_cli(["sweep", "--config", str(cfg), "--out", str(out2), "--seed", "12345"]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        monkeypatch.setenv("ISOTROPY_SEED", "not-a-number")
        for args in (["sweep", "--config", str(cfg)], ["check"]):
            assert run_cli(args) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: ISOTROPY_SEED must be a decimal integer, got 'not-a-number'\n"), args
            assert err.count("error:") == 1 and "Traceback" not in err, args

    @pytest.mark.parametrize(
        "command, text",
        [
            ("sweep", SWEEP_TEXT),
            ("whiten", "sampler=cube\nn=2\nm=200\neps=0.1\ndistortion=2,0.5\nseeds=0,1\n"),
            ("truncated", "sampler=cube\nn=2\nr=1\neps=0.5\nc0=1\nseeds=0,1\n"),
            ("john-sparsify", "fixture=cross-polytope\nn=8\neps=0.25\nc=1\nmax_attempts=1\nseeds=0,1,2,3,4,5\n"),
            ("bernoulli", "mode=ratio\nsampler=cube\nn=4\nm_grid=16,64\ntrials=50\nseeds=0,1\n"),
            ("bernoulli", "mode=symmetrize\nsampler=cube\nn=4\nm=128\ntrials=50\nseeds=0,1\n"),
        ],
        ids=["sweep", "whiten", "truncated", "john-sparsify", "bernoulli-ratio", "bernoulli-symmetrize"],
    )
    def test_json_output_mirrors_csv(self, tmp_path, command, text):
        # Every JSON field equals its CSV field: numbers by float(), booleans as true/false, null as nan.
        cfg = tmp_path / "c.cfg"
        cfg.write_text(text, encoding="utf-8")
        assert run_cli([command, "--config", str(cfg), "--out", str(tmp_path / "a.csv")]) == 0
        assert run_cli([command, "--config", str(cfg), "--out", str(tmp_path / "a.json"), "--format", "json"]) == 0
        for stem in ("a", "a.agg"):
            if not (tmp_path / f"{stem}.csv").exists():
                continue
            with open(tmp_path / f"{stem}.csv", newline="", encoding="utf-8") as fh:
                header, *lines = csv.reader(fh)
            rows = strict_json_loads((tmp_path / f"{stem}.json").read_text(encoding="utf-8"))
            assert [list(row) for row in rows] == [header] * len(lines) and rows, stem
            for row, line in zip(rows, lines):
                for key, field in zip(header, line):
                    value = row[key]
                    if isinstance(value, bool):
                        assert field == ("true" if value else "false"), (stem, key)
                    elif value is None:
                        assert field == "nan", (stem, key)
                    elif isinstance(value, (int, float)):
                        assert float(field) == value, (stem, key)
                    else:
                        assert field == value and field.lower() not in ("true", "false", "nan"), (stem, key)

    def test_out_without_extension(self, tmp_path, monkeypatch):
        # Only the file name's extension counts: runs.d/sweep -> runs.d/sweep.agg.
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(SWEEP_TEXT, encoding="utf-8")
        (tmp_path / "runs.d").mkdir()
        monkeypatch.chdir(tmp_path)
        for out in ("runs.d/sweep", "./res"):
            assert run_cli(["sweep", "--config", str(cfg), "--out", out]) == 0, out
            assert (tmp_path / out).is_file() and (tmp_path / f"{out}.agg").is_file(), out
        header = (tmp_path / "res.agg").read_text(encoding="utf-8").splitlines()[0]
        assert header == ",".join(COLUMNS["sweep.agg"])

    @pytest.mark.parametrize("command", ["sweep", "check"])
    def test_unwritable_out_exits_one(self, tmp_path, capsys, command):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(SWEEP_TEXT, encoding="utf-8")
        out = tmp_path / "nodir" / "x.csv"
        args = ["--config", str(cfg)] if command == "sweep" else []
        assert run_cli([command, *args, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {out}: ") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_stdout_output(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(SWEEP_TEXT, encoding="utf-8")
        assert run_cli(["sweep", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert out.startswith(",".join(COLUMNS["sweep"]))

    def test_installed_entry_point(self, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(SWEEP_TEXT, encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, "-m", "isotropy.cli", "sweep", "--config", str(cfg)],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("experiment,n,M,seed")


TRACED_RUN = """
import json, sys
sys.path.insert(0, sys.argv[1])
from tracer import Tracer
tracer = Tracer()
tracer.install()
from isotropy import cli
rc = cli.main(["truncated", "--config", sys.argv[2], "--out", sys.argv[3]])
metrics = tracer.layer_metrics()
print(json.dumps({
    "rc": rc,
    "chord_calls": metrics["geometry.chord_calls"],
    "hitrun_steps": metrics["samplers.hitrun_steps"],
    "modes": [mode for _, mode, _ in tracer.truncated],
}))
"""


class TestBenchTracer:
    @pytest.mark.parametrize(
        "body",
        # The benchmark's two thin cuts, with a small c0.
        ["sampler=cube\nn=16\nr=0.5\neps=0.5\nc0=1", "sampler=simplex\nn=8\nr=0.25\neps=0.5\nc0=4"],
        ids=["cube16", "simplex8"],
    )
    def test_tracer_binds_one_chord_call_per_hit_and_run_step(self, tmp_path, body):
        # The bench tracer wraps the body oracles and samplers by name; run it in a
        # child interpreter so its monkeypatching stays out of this process.
        bench = Path(__file__).resolve().parents[1] / "bench"
        cfg = tmp_path / "trunc.cfg"
        cfg.write_text(f"kind=truncated\n{body}\nseeds=0\n", encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, "-c", TRACED_RUN, str(bench), str(cfg), str(tmp_path / "out.csv")],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        res = json.loads(proc.stdout)
        assert res["rc"] == 0 and res["modes"] == ["hit-and-run"]
        assert res["hitrun_steps"] > 0
        assert res["chord_calls"] == res["hitrun_steps"]
