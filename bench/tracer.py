"""Span tracing of the `isotropy` layers, installed from outside the package.

`Tracer.install` replaces every public function of each layer module with a
wrapper that records a span: function, start, end, parent span and the
benchmark invocation it belongs to.  Modules import each other's functions
by name (`from .symlin import operator_norm`), so every module attribute
bound to the same function object is rebound.  The body oracles
(`Body.chord` and each body's `membership`) and `TruncatedSampler` are
wrapped on their classes.  Spans stay in flat arrays until `layer_metrics`
reduces them; a layer's self time is its spans' durations minus the time
their child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
import types
from array import array

import numpy as np

LAYERS = ("symlin", "moments", "samplers", "geometry", "johnsparse", "bernoulli", "harness", "cli")

# The per-value float formatter runs once per CSV field; its time belongs to
# rendering (harness.render_s), not to the moments layer.
UNTRACED = {"moments.format_float"}
SIGNED_SUM_FUNCTIONS = (
    "bernoulli.rademacher_trial_norms",
    "bernoulli.rademacher_exact",
    "bernoulli.symmetrization_check",
)


def _rows(x) -> int:
    """Vectors in a sampler's return value."""
    if isinstance(x, np.ndarray):
        return x.shape[0] if x.ndim == 2 else 1
    m = getattr(x, "M", None)
    return m if isinstance(m, int) else 0


# Counters take (function, args, kwargs, outcome), where the outcome is the
# return value or the exception raised, and return the span's counts.


def _matrices(fn, args, kwargs, outcome) -> dict:
    a = args[0] if args else next(iter(kwargs.values()), None)
    return {"matrices": a.shape[0] if isinstance(a, np.ndarray) and a.ndim == 3 else 1}


def _draws(fn, args, kwargs, outcome) -> dict:
    return {"draws": _rows(outcome)}


def _bound(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _hitrun(fn, args, kwargs, outcome) -> dict:
    a = _bound(fn, args, kwargs)
    return {"draws": _rows(outcome), "steps": a["burn_in"] + a["thin"] * a["count"]}


def _second_moment(fn, args, kwargs, outcome) -> dict:
    m, n = (args[0] if args else kwargs["batch"]).vectors.shape
    return {"rows": m, "flops": 2 * m * n * n}


def _trial_norms(fn, args, kwargs, outcome) -> dict:
    a = _bound(fn, args, kwargs)
    m, n = np.shape(a["points"])
    return {"signed_sums": a["trials"], "flops": 2 * a["trials"] * m * n * n}


def _exact(fn, args, kwargs, outcome) -> dict:
    m, n = np.shape(args[0] if args else kwargs["points"])
    sums = 2 ** (m - 1) + 1  # every pattern with the first sign fixed, plus one flip check
    return {"signed_sums": sums, "flops": 2 * sums * m * n * n}


def _symmetrization(fn, args, kwargs, outcome) -> dict:
    a = _bound(fn, args, kwargs)
    return {"signed_sums": a["trials"], "flops": 2 * a["trials"] * a["M"] * a["n"] ** 2}


def _sparsify(fn, args, kwargs, outcome) -> dict:
    attempts = getattr(outcome, "attempts", None)
    if not isinstance(attempts, int):
        return {}
    return {"attempts": attempts, "accepted": 0 if isinstance(outcome, BaseException) else 1}


def _experiment_rows(fn, args, kwargs, outcome) -> dict:
    if isinstance(outcome, BaseException):
        return {}
    return {"rows": len(outcome.rows) + len(outcome.aggregates or ())}


def _render(fn, args, kwargs, outcome) -> dict:
    return {} if isinstance(outcome, BaseException) else {"bytes": len(outcome.encode())}


class Tracer:
    """Flat span store plus the wrappers that fill it."""

    def __init__(self):
        self.names: list[str] = []  # function id -> "layer.qualname"
        self.fn_layer: list[int] = []  # function id -> index into LAYERS
        self.fid = array("l")
        self.parent = array("l")
        self.invocation = array("l")
        self.start = array("q")
        self.end = array("q")
        self.values: dict[int, dict] = {}  # span id -> counts taken from arguments and results
        self.current = [-1]  # the invocation id new spans are tagged with
        self.truncated: list[tuple[int, str, float]] = []  # (invocation, mode, acceptance)
        self._stack = [-1]

    def _wrap(self, fn, layer: str, name: str, counter=None):
        fid = len(self.names)
        self.names.append(f"{layer}.{name}")
        self.fn_layer.append(LAYERS.index(layer))
        fids, parents, invs, starts, ends = self.fid, self.parent, self.invocation, self.start, self.end
        stack, values, current, clock = self._stack, self.values, self.current, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(starts)
            fids.append(fid)
            parents.append(stack[-1])
            invs.append(current[0])
            ends.append(0)
            stack.append(sid)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                ends[sid] = clock()
                stack.pop()
                if counter is not None:
                    values[sid] = counter(fn, args, kwargs, exc)
                raise
            ends[sid] = clock()
            stack.pop()
            if counter is not None:
                values[sid] = counter(fn, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        counters = {
            "moments.empirical_second_moment": _second_moment,
            "samplers.sample_hit_and_run": _hitrun,
            "johnsparse.sparsify": _sparsify,
            "bernoulli.rademacher_trial_norms": _trial_norms,
            "bernoulli.rademacher_exact": _exact,
            "bernoulli.symmetrization_check": _symmetrization,
            "harness.run_experiment": _experiment_rows,
            "harness.render_csv": _render,
            "harness.render_json": _render,
        }
        wrapped: dict[types.FunctionType, types.FunctionType] = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"isotropy.{layer}")
            public = getattr(mod, "__all__", None) or [n for n in vars(mod) if not n.startswith("_")]
            for name in public:
                fn = getattr(mod, name)
                qual = f"{layer}.{name}"
                if not isinstance(fn, types.FunctionType) or fn.__module__ != mod.__name__ or qual in UNTRACED:
                    continue
                counter = counters.get(qual) or {"symlin": _matrices, "samplers": _draws}.get(layer)
                wrapped[fn] = self._wrap(fn, layer, name, counter)
        for modname, mod in list(sys.modules.items()):
            if modname == "isotropy" or modname.startswith("isotropy."):
                for attr, val in list(vars(mod).items()):
                    if isinstance(val, types.FunctionType) and val in wrapped:
                        setattr(mod, attr, wrapped[val])

        geo = sys.modules["isotropy.geometry"]
        geo.Body.chord = self._wrap(geo.Body.chord, "geometry", "Body.chord")
        for cls in vars(geo).values():
            if isinstance(cls, type) and issubclass(cls, geo.Body) and "membership" in vars(cls):
                cls.membership = self._wrap(cls.membership, "geometry", f"{cls.__name__}.membership")

        ts = sys.modules["isotropy.samplers"].TruncatedSampler
        init = ts.__init__

        def init_and_record(sampler, *args, **kwargs):
            init(sampler, *args, **kwargs)
            self.truncated.append((self.current[0], sampler.mode, float(sampler.acceptance)))

        ts.__init__ = self._wrap(init_and_record, "samplers", "TruncatedSampler.__init__")
        ts.draw = self._wrap(ts.draw, "samplers", "TruncatedSampler.draw", _draws)

    def _spans(self):
        """Per span: function id, parent, invocation, duration, layer and self time."""
        fid = np.asarray(self.fid, dtype=np.int64)
        parent = np.asarray(self.parent, dtype=np.int64)
        dur = (np.asarray(self.end, dtype=np.int64) - np.asarray(self.start, dtype=np.int64)) / 1e9
        layer = np.asarray(self.fn_layer, dtype=np.int64)[fid]
        has_parent = parent >= 0
        self_s = dur - np.bincount(parent[has_parent], weights=dur[has_parent], minlength=dur.size)
        return fid, parent, np.asarray(self.invocation, dtype=np.int64), dur, layer, self_s

    def layer_metrics(self) -> dict:
        """Per-layer metrics, named `<layer>.<metric>`, from the recorded spans."""
        fid, parent, _, dur, layer, self_s = self._spans()
        has_parent = parent >= 0
        parent_layer = np.where(has_parent, layer[np.where(has_parent, parent, 0)], -1)
        entry = parent_layer != layer  # the span enters its layer from outside
        lid = {name: i for i, name in enumerate(LAYERS)}
        layer_self = {name: float(self_s[layer == i].sum()) for name, i in lid.items()}

        def spans(match) -> np.ndarray:
            return np.isin(fid, [i for i, name in enumerate(self.names) if match(name)])

        def total(key, mask) -> float:
            return float(sum(self.values.get(int(s), {}).get(key, 0) for s in np.flatnonzero(mask)))

        def ratio(a, b) -> float:
            return a / b if b > 0 else 0.0

        out = {f"{name}.self_s": layer_self[name] for name in LAYERS}

        sym = entry & (layer == lid["symlin"])
        out["symlin.calls"] = float(sym.sum())
        out["symlin.matrices"] = total("matrices", sym)
        out["symlin.batch_mean"] = ratio(out["symlin.matrices"], out["symlin.calls"])
        out["symlin.matrices_per_s"] = ratio(out["symlin.matrices"], layer_self["symlin"])

        out["moments.calls"] = float((entry & (layer == lid["moments"])).sum())
        second = spans(lambda n: n == "moments.empirical_second_moment")
        out["moments.rows"] = total("rows", second)
        out["moments.gemm_gflops"] = ratio(total("flops", second), layer_self["moments"]) / 1e9

        out["samplers.draws"] = total("draws", entry & (layer == lid["samplers"]))
        out["samplers.draws_per_s"] = ratio(out["samplers.draws"], layer_self["samplers"])
        acceptance = [a for _, _, a in self.truncated]
        out["samplers.truncated_acceptance"] = float(np.mean(acceptance)) if acceptance else 0.0
        hitrun = spans(lambda n: n == "samplers.sample_hit_and_run")
        out["samplers.hitrun_steps"] = total("steps", hitrun)
        out["samplers.hitrun_steps_per_s"] = ratio(out["samplers.hitrun_steps"], float(dur[hitrun].sum()))

        out["geometry.chord_calls"] = float(spans(lambda n: n == "geometry.Body.chord").sum())
        out["geometry.membership_calls"] = float(
            spans(lambda n: n.startswith("geometry.") and n.endswith(".membership") and n.count(".") == 2).sum()
        )
        oracle_calls = out["geometry.chord_calls"] + out["geometry.membership_calls"]
        out["geometry.oracle_calls_per_s"] = ratio(oracle_calls, layer_self["geometry"])

        sparsify = spans(lambda n: n == "johnsparse.sparsify")
        out["johnsparse.sparsify_calls"] = float(sparsify.sum())
        out["johnsparse.attempts"] = total("attempts", sparsify)
        out["johnsparse.accept_ratio"] = ratio(total("accepted", sparsify), out["johnsparse.attempts"])

        signed = spans(lambda n: n in SIGNED_SUM_FUNCTIONS)
        out["bernoulli.signed_sums"] = total("signed_sums", signed)
        out["bernoulli.signed_sums_per_s"] = ratio(out["bernoulli.signed_sums"], layer_self["bernoulli"])
        out["bernoulli.construct_gflops"] = ratio(total("flops", signed), layer_self["bernoulli"]) / 1e9

        out["harness.rows"] = total("rows", spans(lambda n: n == "harness.run_experiment"))
        render = spans(lambda n: n in ("harness.render_csv", "harness.render_json"))
        out["harness.render_s"] = float(dur[render].sum())
        out["harness.render_bytes"] = total("bytes", render)

        out["cli.invocations"] = float(spans(lambda n: n == "cli.main").sum())
        return out

    def invocation_self_s(self) -> dict[int, dict[str, float]]:
        """Self time per layer for each invocation id."""
        _, _, inv, _, layer, self_s = self._spans()
        return {
            int(i): {name: float(self_s[(inv == i) & (layer == j)].sum()) for j, name in enumerate(LAYERS)}
            for i in np.unique(inv)
        }
