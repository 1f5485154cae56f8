"""Benchmark for the `isotropy` package.

Usage, from the repository root (no install needed; it imports ./src):

    python3 bench/run.py --workload concentration --seed 1 --seconds 25 --trace 0

Workloads are defined in workloads.py.  One run generates the workload's
configs from --seed, then starts fresh interpreters one after another (a
closed loop with one client, `workers=1`, BLAS at its default thread
count):

- one warm-up child that is not counted (bytecode and file cache);
- set-up children, each timed from spawn until `isotropy` is imported and
  every config is parsed and validated (`setup_s`, median of all children);
- pass children, each running the whole invocation list through
  `isotropy.cli.main`, started while the next one is expected to end
  within --seconds (at least three).  `wall_s` is the median pass time
  after set-up; `peak_rss_mb` the median of the passes' `ru_maxrss`.

With --trace 1 every second pass is traced (see tracer.py); the run reports
the per-layer metrics, the tracing overhead (traced minus untraced pass
time) and a layer table.  Every invocation's output is checked (checks.py),
and every pass must write the same bytes as the first one, traced or not.
The last line of stdout is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from checks import check_invocation
from workloads import WORKLOADS, config_text, generate

BENCH_DIR = Path(__file__).resolve().parent
SETUP_SAMPLES = 7
MIN_PASSES = 3
RUN_LIMIT_S = 170  # a child still running this long after the run began is killed
NOT_MEASURED = {
    "cold_file_cache": "not measured: the page cache stays warm, since dropping it needs system privileges",
    "cpu_pinning_or_isolation": "not measured: children run on unpinned CPUs that other processes may share",
    "hardware_counters": "not measured: no hardware performance counters are read",
}


class BenchError(RuntimeError):
    """A child process failed; the run cannot produce a result."""


def source_identity(root: Path) -> dict:
    """The commit when the checkout is a git repository, and a hash of src/ always."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    commit = "unavailable: not a git checkout"
    if (root / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10, check=True
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {"commit": commit, "src_sha256": digest.hexdigest()}


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


class Runner:
    """Starts children for one workload run and checks what they write."""

    def __init__(self, root: Path, work: Path, invocations: list):
        self.root = root
        self.work = work
        self.invocations = invocations  # [(Invocation, config dict, config path)]
        self.env = dict(os.environ)
        self.env.pop("ISOTROPY_SEED", None)  # it would override every config's seed
        self.env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.reference: Path | None = None  # the first pass's output directory
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def child(self, tag: str, run: bool, trace: bool = False, environment: bool = False) -> dict:
        out = self.work / tag
        out.mkdir()
        plan = {
            "src": str(self.root / "src"),
            "configs": [[inv.command, str(path)] for inv, _, path in self.invocations],
            "invocations": [
                [inv.command, "--config", str(path), "--out", str(out / f"{inv.name}.csv")]
                for inv, _, path in self.invocations
            ]
            if run
            else [],
            "trace": trace,
            "environment": environment,
            "result": str(out / "result.json"),
        }
        plan_path = out / "plan.json"
        plan_path.write_text(json.dumps(plan), encoding="utf-8")
        log_path = out / "child.log"
        with open(log_path, "wb") as log:
            spawned = time.monotonic_ns()
            try:
                proc = subprocess.run(
                    [sys.executable, str(BENCH_DIR / "child.py"), str(plan_path)],
                    cwd=self.root,
                    env=self.env,
                    stdout=log,
                    stderr=subprocess.STDOUT,
                    timeout=max(1.0, self.deadline - time.monotonic()),
                )
            except subprocess.TimeoutExpired as exc:
                raise BenchError(f"{tag}: killed, the run exceeded {RUN_LIMIT_S} s") from exc
        if proc.returncode != 0:
            tail = log_path.read_text(encoding="utf-8", errors="replace")[-2000:]
            raise BenchError(f"{tag}: child exited with {proc.returncode}\n{tail}")
        result = json.loads((out / "result.json").read_text(encoding="utf-8"))
        result["setup_s"] = (result["ready_ns"] - spawned) / 1e9
        return result

    def check_pass(self, tag: str, result: dict) -> None:
        """Count failed invocations: non-zero exit, bad output, or bytes unlike the first pass."""
        out = self.work / tag
        for i, (inv, cfg, _) in enumerate(self.invocations):
            problems = []
            if result["codes"][i] != 0:
                problems.append(f"exit code {result['codes'][i]}")
            else:
                problems += check_invocation(inv, cfg, out / f"{inv.name}.csv")
            if self.reference is not None:
                for ref in sorted(self.reference.glob(f"{inv.name}.*")):
                    mine = out / ref.name
                    if not mine.is_file() or mine.read_bytes() != ref.read_bytes():
                        problems.append(f"{ref.name} differs from the first pass")
            if "truncated" in result and inv.truncated_mode is not None:
                modes = [mode for j, mode, _ in result["truncated"] if j == i]
                if modes != [inv.truncated_mode] * inv.n_seeds:
                    problems.append(f"truncated sampler modes {modes}, expected {inv.truncated_mode}")
            self.attempted += 1
            if problems:
                self.failed += 1
                self.problems += [f"{tag} {inv.name}: {p}" for p in problems]
        if self.reference is None:
            self.reference = out
        else:
            shutil.rmtree(out)


def layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith("_gflops"):
        return "GFLOP/s"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith(("_ratio", "_acceptance")):
        return "ratio"
    return "count"


def summarize(label: str, values: list[float], unit: str) -> str:
    return (
        f"  {label:<14} median {statistics.median(values):.4f} {unit}  (n={len(values)}: "
        + " ".join(f"{v:.4f}" for v in values)
        + ")"
    )


def layer_table(layers: dict, traced_wall: float, untraced_wall: float, invocations: list, inv_layers: dict) -> str:
    names = [k[: -len(".self_s")] for k in layers if k.endswith(".self_s")]
    lines = [f"  {'layer':<11} {'self_s':>9} {'share':>7}"]
    for name in sorted(names, key=lambda n: -layers[f"{n}.self_s"]):
        s = layers[f"{name}.self_s"]
        lines.append(f"  {name:<11} {s:9.4f} {s / traced_wall:7.1%}")
    rest = traced_wall - sum(layers[f"{n}.self_s"] for n in names)
    lines.append(f"  {'(outside)':<11} {rest:9.4f} {rest / traced_wall:7.1%}")
    lines.append(f"  traced wall {traced_wall:.4f} s, untraced {untraced_wall:.4f} s, "
                 f"tracing overhead {traced_wall - untraced_wall:+.4f} s")
    lines.append("  per invocation, largest self times:")
    for i, (inv, _, _) in enumerate(invocations):
        selfs = inv_layers.get(str(i), {})
        top = sorted(selfs.items(), key=lambda kv: -kv[1])[:3]
        lines.append(f"    {inv.name:<28} " + "  ".join(f"{k} {v:.3f}" for k, v in top))
    return "\n".join(lines)


def run(args, root: Path, work: Path) -> dict:
    workload = WORKLOADS[args.workload]
    (work / "configs").mkdir(parents=True)
    invocations = []
    for inv, cfg in generate(workload, args.seed):
        path = work / "configs" / f"{inv.name}.cfg"
        path.write_text(config_text(cfg), encoding="utf-8")
        invocations.append((inv, cfg, path))
    runner = Runner(root, work, invocations)

    first = runner.child("warmup", run=False, environment=True)
    setups = [runner.child(f"setup-{k}", run=False)["setup_s"] for k in range(SETUP_SAMPLES)]
    untraced, traced = [], []
    begin = time.monotonic()
    longest = 0.0
    # Start a pass only while it is expected to end within --seconds.
    while time.monotonic() - begin + longest <= args.seconds or len(untraced) + len(traced) < MIN_PASSES:
        trace = args.trace == 1 and len(untraced) > len(traced)
        tag = f"pass-{len(untraced) + len(traced)}"
        started = time.monotonic()
        result = runner.child(tag, run=True, trace=trace)
        longest = max(longest, time.monotonic() - started)
        runner.check_pass(tag, result)
        (traced if trace else untraced).append(result)
    setups += [r["setup_s"] for r in untraced + traced]

    env = {"nproc": os.cpu_count(), "cpu_model": cpu_model(), **first["environment"]}
    env.update(source_identity(root), workload=args.workload, workload_seed=args.seed, not_measured=NOT_MEASURED)
    print(f"environment: {json.dumps(env)}")
    print(f"workload {args.workload}: {workload.why}")
    for inv, cfg, _ in invocations:
        print(f"  {inv.name}: {config_text(cfg).strip().replace(chr(10), ' ')}")
    wall = statistics.median(r["wall_s"] for r in untraced)
    cpu = statistics.median(r["cpu_s"] for r in untraced)
    print("untraced passes (closed loop, one client, workers=1):")
    print(summarize("wall_s", [r["wall_s"] for r in untraced], "s"))
    print(summarize("setup_s", setups, "s"))
    print(summarize("peak_rss_mb", [r["maxrss_kb"] / 1024 for r in untraced], "MB"))
    print(summarize("cpu_s", [r["cpu_s"] for r in untraced], "s") + "  (user+sys of the child, ungated)")
    print(f"  failed_share   {runner.failed}/{runner.attempted} = {runner.failed / runner.attempted:.4f}")
    for problem in runner.problems[:20]:
        print(f"FAILED {problem}", file=sys.stderr)

    if args.trace == 0:
        metrics = {
            "wall_s": (wall, "s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (statistics.median(r["maxrss_kb"] / 1024 for r in untraced), "MB"),
        }
    else:
        layers = {k: statistics.median(r["layers"][k] for r in traced) for k in traced[0]["layers"]}
        traced_wall = statistics.median(r["wall_s"] for r in traced)
        print(f"layer table, traced pass median of {len(traced)}:")
        print(layer_table(layers, traced_wall, wall, invocations, traced[0]["invocation_layers"]))
        metrics = {k: (v, layer_unit(k)) for k, v in layers.items()}
        metrics["trace.wall_s"] = (traced_wall, "s")
        metrics["trace.overhead_s"] = (traced_wall - wall, "s")
        metrics["process.cpu_s"] = (cpu, "s")
    return {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    root = Path.cwd()
    if not (root / "src" / "isotropy" / "__init__.py").is_file():
        print("error: src/isotropy not found; run from the repository root", file=sys.stderr)
        return 2
    work = root / ".bench_run" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        result = run(args, root, work)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run still uses it
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
