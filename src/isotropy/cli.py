"""Command-line interface.

Subcommands: sweep, whiten, truncated, john-sparsify, bernoulli, check.
Experiment subcommands read a flat key=value config file; `check` runs
the built-in invariant suite.  The seed is ISOTROPY_SEED, else --seed,
else the config's seed, else 0.  Exit codes: 0 on success, 1 when an
experiment or check fails, 2 for usage errors (unknown flags or
subcommands, a missing, unreadable or invalid config, an ISOTROPY_SEED
that is not a decimal integer).
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

from . import harness


def _seed(flag: int | None, default: int) -> int:
    """ISOTROPY_SEED when it is set, else ``flag`` when given, else ``default``."""
    raw = os.environ.get("ISOTROPY_SEED")
    if raw is None:
        return default if flag is None else flag
    try:
        return int(raw, 10)
    except ValueError as exc:
        raise harness.ConfigError(f"ISOTROPY_SEED must be a decimal integer, got {raw!r}") from exc


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="isotropy",
        description="Monte Carlo experiments on empirical second-moment concentration.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in (*harness.EXPERIMENT_KINDS, "check"):
        check = name == "check"
        p = sub.add_parser(name, help="run the invariant suite" if check else f"run the {name} experiment")
        if not check:
            p.add_argument("--config", required=True, help="flat key=value config file")
        out = "also write the check report here" if check else "output file (default: stdout)"
        p.add_argument("--seed", type=int, default=None, help="master seed (ISOTROPY_SEED wins if set)")
        p.add_argument("--out", default=None, help=out)
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
    check = args.command == "check"
    try:
        cfg = None if check else harness.load_config(args.config, kind=args.command)
        seed = _seed(args.seed, 0 if cfg is None else cfg.seed)
    except harness.ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(parser.format_usage(), end="", file=sys.stderr)
        return 2
    if not check:
        cfg.seed = seed
        try:
            result = harness.run_experiment(cfg)
        except harness.ExperimentError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        return _emit(result, args.out, args.format)

    result = harness.run_check(seed=seed)
    for row in result.rows:
        print(f"{'PASS' if row['ok'] else 'FAIL'} {row['check']}: {row['detail'] or row['invariant']}")
    if args.out and _emit(result, args.out, args.format):
        return 1
    failures = sum(not row["ok"] for row in result.rows)
    if failures:
        print(f"{failures} of {len(result.rows)} checks failed", file=sys.stderr)
        return 1
    print(f"all {len(result.rows)} checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
