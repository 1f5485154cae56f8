import json
import math
import subprocess
import sys

import numpy as np
import pytest

from isotropy import cli
from isotropy.harness import (
    JOHN_HEADER,
    BOUND_HEADER,
    SWEEP_AGG_HEADER,
    SWEEP_HEADER,
    SYMMETRIZE_HEADER,
    TRUNCATED_HEADER,
    WHITEN_HEADER,
    ConfigError,
    ExperimentConfig,
    ExperimentError,
    agg_output_path,
    default_distortion,
    derive_stream,
    load_config,
    parse_config,
    render_csv,
    render_json,
    run_check,
    run_experiment,
    truncated_sample_count,
)


def strict_json_loads(text):
    """json.loads that refuses the non-RFC 8259 constants NaN and Infinity."""

    def reject_constant(name):
        raise ValueError(f"non-RFC 8259 constant {name}")

    return json.loads(text, parse_constant=reject_constant)


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
        with pytest.raises(ConfigError):
            parse_config("kind=sweep\nbogus=1\n")

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
        ],
    )
    def test_validation_failures(self, text):
        with pytest.raises(ConfigError):
            parse_config(text)

    def test_load_config(self, tmp_path):
        path = tmp_path / "c.cfg"
        path.write_text(SWEEP_TEXT, encoding="utf-8")
        assert load_config(path).n == 4


class TestStreams:
    def test_derive_stream_is_stable_and_distinct(self):
        a = derive_stream("sweep", 0, 0)
        assert a == derive_stream("sweep", 0, 0)
        others = {derive_stream("sweep", 0, 1), derive_stream("sweep", 1, 0), derive_stream("whiten", 0, 0)}
        assert a not in others and len(others) == 3


class TestRenderers:
    def test_csv_formatting(self):
        rows = [{"a": 1, "b": 1.0 / 3.0, "c": True, "d": "x"}]
        text = render_csv(["a", "b", "c", "d"], rows)
        assert text == "a,b,c,d\n1,0.33333333333333331,true,x\n"

    def test_json_mirrors_fields(self):
        rows = [{"a": 1, "b": 0.5, "c": False, "d": "x"}, {"a": 2, "b": math.nan, "c": True, "d": "y"}]
        payload = strict_json_loads(render_json(["a", "b", "c", "d"], rows))
        assert payload == [{"a": 1, "b": 0.5, "c": False, "d": "x"}, {"a": 2, "b": None, "c": True, "d": "y"}]

    def test_agg_path(self):
        assert agg_output_path("results.csv") == "results.agg.csv"
        assert agg_output_path("noext") == "noext.agg"


class TestRunSweep:
    def test_row_and_aggregate_counts(self):
        cfg = parse_config(SWEEP_TEXT)
        res = run_experiment(cfg)
        assert res.header == SWEEP_HEADER and res.agg_header == SWEEP_AGG_HEADER
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
        texts = [
            "kind=sweep\nsampler=cube\nn=4\nm_grid=64,256",
            "kind=whiten\nsampler=cube\nn=4\nm=2000",
            "kind=truncated\nsampler=cube\nn=4\nr=2.0\neps=0.3\nc0=0.12",
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


class TestRunWhiten:
    def test_default_distortion_shape(self):
        assert default_distortion(8) == [2.0, 1, 1, 1, 1, 1, 1, 0.5]

    def test_round_trip_rows(self):
        cfg = parse_config("kind=whiten\nsampler=cube\nn=4\nm=20000\neps=0.15\nseeds=0,1\ndistortion=2,1,1,0.5\n")
        res = run_experiment(cfg)
        assert res.header == WHITEN_HEADER
        for row in res.rows:
            assert row["deviation_raw"] > 1.0  # the distortion is far from isotropic
            assert row["deviation_whitened"] < 0.15
            assert row["isotropic"] is True


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
        assert res_t.header == TRUNCATED_HEADER

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
        assert res.header == JOHN_HEADER
        for row in res.rows:
            assert row["attempts"] <= cfg.max_attempts
            assert row["accepted"] is True
            assert row["residual_norm"] < 0.25

    def test_all_seeds_failed(self):
        cfg = parse_config("kind=john-sparsify\nfixture=cross-polytope\nn=8\neps=0.05\nc=0.01\nmax_attempts=2\nseeds=0,1\n")
        with pytest.raises(ExperimentError):
            run_experiment(cfg)


class TestRunBernoulli:
    def test_ratio_rows(self):
        cfg = parse_config("kind=bernoulli\nmode=ratio\nsampler=cube\nn=4\nm_grid=16,64\nseeds=0,1\ntrials=100\n")
        res = run_experiment(cfg)
        assert res.header == BOUND_HEADER
        assert len(res.rows) == 4
        assert all(r["ratio"] <= 8.0 for r in res.rows)

    def test_symmetrize_rows(self):
        cfg = parse_config("kind=bernoulli\nmode=symmetrize\nsampler=cube\nn=4\nm=128\ntrials=100\nseeds=0,1\n")
        res = run_experiment(cfg)
        assert res.header == SYMMETRIZE_HEADER
        assert all(r["holds"] for r in res.rows)


class TestRunCheck:
    def test_all_checks_pass(self):
        res = run_check(seed=0)
        failures = [r["check"] for r in res.rows if not r["ok"]]
        assert failures == []


def run_cli(args):
    return cli.main(args)


class TestCli:
    def test_check_exits_zero(self, capsys):
        assert run_cli(["check"]) == 0
        out = capsys.readouterr().out
        assert "all" in out and "PASS" in out

    def test_missing_config_is_usage_error(self, capsys):
        assert run_cli(["sweep", "--config", "does-not-exist.cfg"]) == 2

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
        ]
        for i, (command, text) in enumerate(cases):
            path = tmp_path / f"bad{i}.cfg"
            path.write_text(text, encoding="utf-8")
            assert run_cli([command, "--config", str(path)]) == 2, text
            err = capsys.readouterr().err
            assert err.startswith("error: ") and "Traceback" not in err, text

    def test_infeasible_truncation_is_usage_error(self, tmp_path, capsys):
        # R^2 n / eps^2 <= 1 is caught by validate(), not raised mid-run.
        path = tmp_path / "trunc.cfg"
        path.write_text("kind=truncated\nsampler=cube\nn=2\nr=0.0001\neps=0.2\nc0=1\nseeds=0\n", encoding="utf-8")
        assert run_cli(["truncated", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: R^2 n / eps^2 must exceed 1\n") and "Traceback" not in err

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

    def test_deterministic_csv(self, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(SWEEP_TEXT, encoding="utf-8")
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run_cli(["sweep", "--config", str(cfg), "--out", str(out1)]) == 0
        assert run_cli(["sweep", "--config", str(cfg), "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert (tmp_path / "a.agg.csv").read_bytes() == (tmp_path / "b.agg.csv").read_bytes()
        header = out1.read_text(encoding="utf-8").splitlines()[0]
        assert header == ",".join(SWEEP_HEADER)

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

    def test_json_output_mirrors_csv(self, tmp_path):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(SWEEP_TEXT, encoding="utf-8")
        out_csv, out_json = tmp_path / "a.csv", tmp_path / "a.json"
        assert run_cli(["sweep", "--config", str(cfg), "--out", str(out_csv)]) == 0
        assert run_cli(["sweep", "--config", str(cfg), "--out", str(out_json), "--format", "json"]) == 0
        rows = json.loads(out_json.read_text(encoding="utf-8"))
        lines = out_csv.read_text(encoding="utf-8").splitlines()
        assert list(rows[0].keys()) == lines[0].split(",")
        assert len(rows) == len(lines) - 1
        first_csv = lines[1].split(",")
        assert rows[0]["deviation"] == float(first_csv[5])

    def test_stdout_output(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.cfg"
        cfg.write_text(SWEEP_TEXT, encoding="utf-8")
        assert run_cli(["sweep", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert out.startswith(",".join(SWEEP_HEADER))

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
