"""Command-line interface.

Subcommands: sweep, whiten, truncated, john-sparsify, bernoulli, check.
Experiment subcommands read a flat key=value config file; `check` runs
the built-in invariant suite.  ISOTROPY_SEED, when set, overrides
--seed.  Exit codes: 0 on success, 1 when an experiment or check fails,
2 for usage errors (unknown flags or subcommands, a missing, unreadable
or invalid config, an ISOTROPY_SEED that is not a decimal integer).
"""

from __future__ import annotations

import argparse
import os
import sys

from . import harness


def _seed_from_env(default: int) -> int:
    """The seed: ISOTROPY_SEED when it is set, else ``default``."""
    raw = os.environ.get("ISOTROPY_SEED")
    if raw is None:
        return default
    try:
        return int(raw, 10)
    except ValueError as exc:
        raise harness.ConfigError(f"ISOTROPY_SEED must be a decimal integer, got {raw!r}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="isotropy",
        description="Monte Carlo experiments on empirical second-moment concentration.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in harness.EXPERIMENT_KINDS:
        p = sub.add_parser(name, help=f"run the {name} experiment")
        p.add_argument("--config", required=True, help="flat key=value config file")
        p.add_argument("--seed", type=int, default=None, help="master seed (ISOTROPY_SEED wins if set)")
        p.add_argument("--out", default=None, help="output file (default: stdout)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
    p = sub.add_parser("check", help="run the invariant suite")
    p.add_argument("--seed", type=int, default=None, help="master seed (ISOTROPY_SEED wins if set)")
    p.add_argument("--out", default=None, help="also write the check report here")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    return parser


def _emit(result: harness.ExperimentResult, out: str | None, fmt: str) -> int:
    """Write the rows (and aggregates beside them); 1 with a one-line error if a file cannot be written."""
    render = harness.render_csv if fmt == "csv" else harness.render_json
    text = render(result.header, result.rows)
    if out is None or out == "-":
        sys.stdout.write(text)
        return 0
    files = [(out, text)]
    if result.aggregates is not None:
        files.append((harness.agg_output_path(out), render(result.agg_header, result.aggregates)))
    for path, body in files:
        try:
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.write(body)
        except OSError as exc:
            print(f"error: cannot write {path}: {exc.strerror or exc}", file=sys.stderr)
            return 1
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.command == "check":
        try:
            seed = _seed_from_env(args.seed if args.seed is not None else 0)
        except harness.ConfigError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        result = harness.run_check(seed=seed)
        for row in result.rows:
            status = "PASS" if row["ok"] else "FAIL"
            print(f"{status} {row['check']}: {row['detail'] or row['invariant']}")
        if args.out and _emit(result, args.out, args.format):
            return 1
        failures = sum(1 for row in result.rows if not row["ok"])
        if failures:
            print(f"{failures} of {len(result.rows)} checks failed", file=sys.stderr)
            return 1
        print(f"all {len(result.rows)} checks passed")
        return 0

    try:
        cfg = harness.load_config(args.config, kind=args.command)
        if args.seed is not None:
            cfg.seed = args.seed
        cfg.seed = _seed_from_env(cfg.seed)
    except harness.ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(parser.format_usage(), end="", file=sys.stderr)
        return 2

    try:
        result = harness.run_experiment(cfg)
    except harness.ExperimentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return _emit(result, args.out, args.format)


if __name__ == "__main__":
    sys.exit(main())
