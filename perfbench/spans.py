"""Outside-in tracing of the rvpp layers, and the per-layer metrics it yields.

`install` replaces every public function of every `rvpp` module (and the
scipy backend's methods, and `scipy.optimize.milp` itself) with a wrapper
that records one span per call: ``[id, parent id, name, start, end, attrs]``.
Spans stay in memory; the sweep runner writes them once when it exits.  No
program file is edited.  Times come from `time.perf_counter`, which on Linux
reads the system-wide monotonic clock, so spans recorded in forked pool
workers line up with the parent's.

`layer_metrics` turns the spans of one sweep into the benchmark's per-layer
metrics.  A span's self time is its duration minus its child spans.  Hashing
each model for `milp.distinct_models` is the benchmark's own work, so it is
taken out of every layer time that contains it; only the traced sweep's wall
time (`trace.sweep_s`, the tracing overhead) keeps it.

Every metric is reported for every sweep.  A layer the workload never
enters (storage and sizing on a case-2 sweep) reads as zero calls and zero
seconds, which is what was measured; for that reason the metrics are counts
and times, and the only ratios are over quantities every sweep has (cells,
solves, the sweep's wall time).
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import os
import statistics
import time
from collections import defaultdict

MODULES = (
    "backends",
    "cli",
    "datasets",
    "domain",
    "milp",
    "oracle",
    "scenario_io",
    "scheduler",
    "sizing",
    "storage",
)

# Per-layer metrics that count work rather than time it: they must repeat
# exactly on every traced sweep of the same input.
EXACT_COUNTS = (
    "milp.solve_calls",
    "milp.distinct_models",
    "storage.build_calls",
    "scheduler.build_calls",
    "scheduler.cols",
    "scheduler.rows",
    "scheduler.nnz",
    "scheduler.binaries",
    "sizing.fleet_probes",
    "sizing.infeasible_probes",
    "backends.highs_nodes",
    "backends.nonoptimal",
    "oracle.replay_calls",
    "scenario_io.bytes_written",
)


class Tracer:
    """Span recorder for one process (forked pool workers inherit a copy)."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.root_pid = os.getpid()
        self._stack: list[list] = []
        self._count = 0

    def open(self, name: str) -> list:
        self._count += 1
        parent = self._stack[-1][0] if self._stack else None
        span = [f"{os.getpid()}:{self._count}", parent, name, time.perf_counter(), None, {}]
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: list) -> None:
        span[4] = time.perf_counter()
        self._stack.pop()


def _wrap(tracer: Tracer, name: str, fn, after=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(span)
        if after is not None:
            after(span[5], result)
        return result

    return wrapper


def _model_shape(attrs: dict, model) -> None:
    attrs["cols"] = len(model.variables)
    attrs["rows"] = len(model.constraints)
    attrs["nnz"] = sum(len(con.expr.terms) for con in model.constraints)
    attrs["binaries"] = model.binary_count()


def _solve_status(attrs: dict, solution) -> None:
    attrs["status"] = solution.status


def _bytes_written(attrs: dict, paths) -> None:
    attrs["bytes"] = sum(os.path.getsize(p) for p in paths)


AFTER = {
    "scheduler.build_deterministic_rvpp": _model_shape,
    "scheduler.build_robust_rvpp": _model_shape,
    "milp.solve": _solve_status,
    "scenario_io.write_results": _bytes_written,
}


def _model_digest(c, kwargs: dict) -> str:
    """Digest of the arrays handed to HiGHS: identical models hash equal."""
    import numpy as np

    h = hashlib.blake2b(digest_size=16)

    def feed(array) -> None:
        h.update(np.ascontiguousarray(array, dtype=float).tobytes())
        h.update(b"|")

    feed(c)
    feed(kwargs["integrality"])
    feed(kwargs["bounds"].lb)
    feed(kwargs["bounds"].ub)
    for con in kwargs["constraints"]:
        a = con.A
        for part in (a.data, a.indices, a.indptr, a.shape, con.lb, con.ub):
            feed(part)
    h.update(repr(sorted(kwargs["options"].items())).encode())
    return h.hexdigest()


def install(tracer: Tracer) -> None:
    """Route every traced call through `tracer`; call before `rvpp.cli.main`."""
    from scipy import optimize

    rvpp = importlib.import_module("rvpp")
    modules = {short: importlib.import_module(f"rvpp.{short}") for short in MODULES}

    wrapped = {}
    for short, mod in modules.items():
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                continue
            name = f"{short}.{attr}"
            wrapped[obj] = _wrap(tracer, name, obj, AFTER.get(name))
    # `from .milp import solve` and friends bind the function in each
    # importing module, so every binding is replaced, not just the home one.
    for mod in (rvpp, *modules.values()):
        for attr, obj in list(vars(mod).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                setattr(mod, attr, wrapped[obj])

    backend = modules["backends"].ScipyHighsBackend
    for method in ("load", "optimize", "values"):
        setattr(backend, method, _wrap(tracer, f"backends.{method}", getattr(backend, method)))

    highs = optimize.milp

    def traced_milp(c, **kwargs):
        span = tracer.open("backends.highs")
        try:
            result = highs(c, **kwargs)
        finally:
            tracer.close(span)
        span[5]["status"] = int(result.status)
        span[5]["nodes"] = int(getattr(result, "mip_node_count", 0) or 0)
        digest = tracer.open("bench.digest")
        span[5]["digest"] = _model_digest(c, kwargs)
        tracer.close(digest)
        return result

    optimize.milp = traced_milp

    # Pool workers run `run_cell` in another process: each cell's spans ride
    # back inside its result and the parent's pool map takes them out again.
    cli = modules["cli"]
    traced_cell = cli.run_cell

    @functools.wraps(traced_cell)
    def run_cell(task):
        mark = len(tracer.spans)
        out = traced_cell(task)
        if os.getpid() != tracer.root_pid:
            out["_trace"] = tracer.spans[mark:]
            del tracer.spans[mark:]
        return out

    cli.run_cell = run_cell

    class HarvestingPool(cli.ProcessPoolExecutor):
        def map(self, fn, *iterables, **kwargs):
            for out in super().map(fn, *iterables, **kwargs):
                if "_trace" not in out:
                    raise RuntimeError("pool worker returned no spans; workers must be forked")
                tracer.spans.extend(out.pop("_trace"))
                yield out

    cli.ProcessPoolExecutor = HarvestingPool


def layer_metrics(spans: list[list], sweep_s: float, jobs: int) -> dict[str, float]:
    """Per-layer metrics of one traced sweep."""
    by_id = {s[0]: s for s in spans}
    children = defaultdict(list)
    for s in spans:
        children[s[1]].append(s)

    def dur(s) -> float:
        return s[4] - s[3]

    def self_time(s) -> float:
        return dur(s) - sum(dur(c) for c in children[s[0]])

    def ancestors(s):
        p = by_id.get(s[1])
        while p is not None:
            yield p
            p = by_id.get(p[1])

    def named(name: str) -> list:
        return [s for s in spans if s[2] == name]

    def outermost(prefix: str) -> list:
        # A build function that calls another one counts once.
        return [
            s
            for s in spans
            if s[2].startswith(prefix) and not any(a[2].startswith(prefix) for a in ancestors(s))
        ]

    # Seconds of model hashing inside each span (see the module docstring).
    digest_s: dict[str, float] = defaultdict(float)
    for s in named("bench.digest"):
        for a in ancestors(s):
            digest_s[a[0]] += dur(s)

    def net(s) -> float:
        return dur(s) - digest_s[s[0]]

    def total(group) -> float:
        return sum(net(s) for s in group)

    def attr_sum(group, key: str) -> float:
        return sum(s[5].get(key, 0) for s in group)

    cells = sorted(net(s) for s in named("cli.run_cell"))
    loads = outermost("scenario_io.load_scenario")
    writes = named("scenario_io.write_results")
    builds = outermost("scheduler.build_")
    decodes = named("scheduler.extract_rvpp_schedule")
    es_builds = outermost("storage.build_")
    es_decodes = named("storage.extract_es_schedule")
    solves = named("milp.solve")
    highs = named("backends.highs")
    optimizes = named("backends.optimize")
    replays = outermost("oracle.replay_")
    audits = outermost("oracle.audit_robust_feasibility")
    gaps = named("sizing.aggregation_gap")
    sizings = named("sizing.size_es_to_match")
    probes = [s for s in solves if any(a[2] == "sizing.size_es_to_match" for a in ancestors(s))]

    # A sweep whose cells all failed still yields numbers; run.py reports
    # the failure itself.
    cells = cells or [0.0]
    distinct = len({s[5]["digest"] for s in highs})
    return {
        "cli.cell_p50_s": statistics.median(cells),
        "cli.cell_max_s": cells[-1],
        "cli.pool_busy_ratio": sum(cells) / (jobs * sweep_s),
        "scenario_io.load_s": total(loads),
        "scenario_io.write_s": total(writes),
        "scenario_io.bytes_written": attr_sum(writes, "bytes"),
        "scheduler.build_calls": len(builds),
        "scheduler.build_s": total(builds),
        **{f"scheduler.{key}": attr_sum(builds, key) for key in ("cols", "rows", "nnz", "binaries")},
        "scheduler.decode_s": total(decodes),
        "storage.build_calls": len(es_builds),
        "storage.build_s": total(es_builds),
        "storage.decode_s": total(es_decodes),
        "milp.solve_calls": len(solves),
        "milp.solve_s": total(solves),
        "milp.check_s": sum(self_time(s) for s in solves),
        "milp.distinct_models": distinct,
        "milp.distinct_ratio": distinct / max(len(solves), 1),
        "backends.highs_s": total(highs),
        "backends.highs_nodes": attr_sum(highs, "nodes"),
        "backends.nonoptimal": sum(1 for s in highs if s[5]["status"] != 0),
        "backends.assembly_s": sum(self_time(s) for s in optimizes),
        "oracle.replay_s": total(replays),
        "oracle.replay_calls": len(replays),
        "oracle.audit_s": total(audits),
        "sizing.gap_s": total(gaps),
        "sizing.size_s": total(sizings),
        "sizing.fleet_probes": len(probes),
        "sizing.infeasible_probes": sum(1 for s in probes if s[5].get("status") != "optimal"),
    }
