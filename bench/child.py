"""One benchmark pass in a fresh interpreter.

Usage: python3 bench/child.py PLAN.json

The plan names the source tree to import `isotropy` from, the configs to
parse and validate during set-up, the CLI invocations to run through
`isotropy.cli.main` one after another, whether to trace them, and where to
write the result JSON.  A plan without invocations measures set-up only.
"""

from __future__ import annotations

import ctypes
import json
import os
import platform
import re
import resource
import sys
import time
import traceback


def invoke(cli, argv: list[str]):
    """Exit code of one CLI invocation; "raised" when it raised."""
    try:
        return cli.main(argv)
    except SystemExit as exc:  # argparse reports usage errors this way
        return exc.code if isinstance(exc.code, int) else 1
    except Exception:
        traceback.print_exc()
        return "raised"


def blas_threads():
    """(thread count, runtime config) of the loaded OpenBLAS, asked from the library itself."""
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted({p for p in re.findall(r"(/\S+\.so\S*)", fh.read()) if "openblas" in p.lower()})
    for path in libs:
        lib = ctypes.CDLL(path)
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                fn = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    config = getattr(lib, f"{prefix}_get_config{suffix}")
                    config.restype = ctypes.c_char_p
                    return fn(), config().decode()
    return "not measured: no OpenBLAS library is loaded", None


def environment() -> dict:
    import numpy as np

    deps = np.show_config(mode="dicts")["Build Dependencies"]
    threads, runtime = blas_threads()
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: deps["blas"].get(k) for k in ("name", "version", "openblas configuration")},
        "lapack": {k: deps["lapack"].get(k) for k in ("name", "version")},
        "blas_runtime": runtime,
        "blas_threads": threads,
        "thread_env": {k: os.environ.get(k) for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")},
    }


def main(plan_path: str) -> int:
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    src = plan["src"]
    sys.path.insert(0, src)
    import isotropy
    from isotropy import cli, harness

    if not os.path.abspath(isotropy.__file__).startswith(src + os.sep):
        print(f"error: isotropy imported from {isotropy.__file__}, not from {src}", file=sys.stderr)
        return 2
    for command, path in plan["configs"]:
        harness.load_config(path, kind=command)  # parses and validates
    result = {"ready_ns": time.monotonic_ns()}

    if plan["invocations"]:
        tracer = None
        if plan["trace"]:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
        codes, seconds = [], []
        start = time.perf_counter()
        for i, argv in enumerate(plan["invocations"]):
            if tracer is not None:
                tracer.current[0] = i
            t = time.perf_counter()
            codes.append(invoke(cli, argv))
            seconds.append(time.perf_counter() - t)
        result["wall_s"] = time.perf_counter() - start
        result["codes"] = codes
        result["invocation_s"] = seconds
        if tracer is not None:
            result["layers"] = tracer.layer_metrics()
            result["invocation_layers"] = tracer.invocation_self_s()
            result["truncated"] = tracer.truncated

    usage = resource.getrusage(resource.RUSAGE_SELF)
    result["cpu_s"] = usage.ru_utime + usage.ru_stime
    result["maxrss_kb"] = usage.ru_maxrss
    if plan["environment"]:
        result["environment"] = environment()
    with open(plan["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
