"""Command-line sweeps over the four case-study shapes.

Case 1 schedules the full portfolio per season (deterministic and optimistic
robust) and emits unit-level dispatch and reserve curves.  Case 2 sweeps the
regime/strategy grid and reports traded energy and reserves.  Case 3 measures
aggregation gaps, class ablations, and flexible-demand capacity scaling, and
sizes the matching storage fleet.  Case 4 emits the sized fleet's flows and
state of charge.  Both take the sized fleet from `sizing.sized_from_module`,
which replays and re-prices it before a sizing column is written.

What a sweep runs defaults to what the scenario file holds: its seasons, its
first listed regime (case 2: every listed regime), and all four cases, less
case 4 when the file has no `es_module` to size.

A sweep runs as a flat solve plan.  Each cell lists the solves it needs as
`sizing.Solve` keys, planned by `sizing.gap_solves` and `sizing.module_solve`
as the library's `aggregation_gap` and `size_es_to_match` plan them; the
storage module's key is its storage-only portfolio, solved like any other.
Each distinct key is solved once, heaviest kind first, on up to --jobs worker
processes (default: every usable CPU, capped at the number of distinct
solves); a key carries its market scenario, so a worker needs nothing else.
The cells then assemble their rows by arithmetic on the shared results
(`sizing.GapReport.of`, `sizing.sized_from_module`): sizing takes its module
count from the one-module solve, so case 4 shares every solve with case 3.

Every --jobs value runs the plan on one pool of forked worker processes (the
platform's default start method off Linux); the parent itself never solves.
When a worker process dies, each key left without a result runs once more,
alone, in a fresh one-worker pool; a key whose worker dies again fails with
"worker process died while solving <label>", so each key runs at most twice.

Every schedule is replayed and audited before anything is written; a failed
solve fails the cells that need it while the remaining cells still produce
results.  Exit codes: 0 all cells succeeded, 1 at least one cell failed, 2 bad
configuration (a flag, the scenario file or --out), found before any solve.
"""

from __future__ import annotations

import argparse
import json
import math
import multiprocessing
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace
from pathlib import Path

from .backends import session_options
from .datasets import default_scenario_path
from .domain import REGIMES, SEASONS, STRATEGIES, Portfolio, strategy_budgets
from .oracle import nominal_profit
from .scenario_io import (
    ResultRow,
    ResultsTable,
    ScenarioFormatError,
    SeriesRow,
    cell_order,
    load_scenario,
    scale_flexible_demand,
    write_results,
)
from .sizing import LAYERS, GapReport, Solve, gap_solves, module_solve, sized_from_module

CASES = (1, 2, 3, 4)
ABLATIONS = ("no_drs", "no_ndrs", "no_csp", "no_fd")
CONFIG_CHOICES = ("full",) + ABLATIONS
DEFAULT_FD_SCALES = (0.0, 50.0, 100.0, 150.0)
GAP_COLUMNS = ("rvpp_profit", "sum_individual", "gap")  # how a GapReport unpacks


class CellError(RuntimeError):
    """A sweep cell could not produce an audited result."""


def _isolated(fn, *args):
    """(fn(*args), None), or (None, the error it raised)."""
    try:
        return fn(*args), None
    except Exception as exc:  # noqa: BLE001 - cell isolation boundary
        return None, f"{type(exc).__name__}: {exc}"


def _drop_class(portfolio: Portfolio, config: str) -> Portfolio:
    """The portfolio without the unit class an ablation ("no_fd", ...) names."""
    return replace(portfolio, **{config.removeprefix("no_"): ()})


def run_cell(key: Solve) -> dict:
    """Run one solve of the plan: its schedule or its error, its seconds, and
    their split by layer (RvppSchedule.layer_seconds; empty on an error).

    Runs in a pool worker process, so the key and the returned dict stay
    picklable.
    """
    started = time.perf_counter()
    schedule, error = _isolated(key.run)
    seconds = time.perf_counter() - started
    return {"schedule": schedule, "error": error, "seconds": seconds, "layers": getattr(schedule, "layer_seconds", {})}


# Forked workers inherit the loaded HiGHS binding; off Linux, the default.
_POOL_CONTEXT = multiprocessing.get_context("fork") if sys.platform == "linux" else None


def _solve_all(keys: list[Solve], workers: int) -> dict:
    """{key: run_cell(key)} from a pool of `workers` processes, for the keys
    in order up to the first one a dead worker left without a result."""
    results = {}
    with ProcessPoolExecutor(max_workers=workers, mp_context=_POOL_CONTEXT) as pool:
        try:
            for key, res in zip(keys, pool.map(run_cell, keys)):
                results[key] = res
        except BrokenProcessPool:
            pass  # a worker died; the caller retries the keys it left
    return results


def _fd_label(pct: float) -> str:
    """The configuration label of a case-3 flexible-demand scale in percent."""
    return f"fd_{int(pct):03d}"


def _variants(task: dict, portfolio: Portfolio) -> list[tuple[str, Portfolio]]:
    """(configuration label, portfolio) of each configuration a cell runs:
    "full" first, then in case 3 its ablations and flexible-demand scales."""
    variants = [("full", portfolio)]
    if task["case"] == 3:
        variants += [(c, _drop_class(portfolio, c)) for c in task["configs"] if c != "full"]
        scales = [pct for pct in task["fd_scales"] if pct != 100.0]
        variants += [(_fd_label(pct), scale_flexible_demand(portfolio, pct / 100.0)) for pct in scales]
    return variants


def _drop_empty_configs(tasks: list[dict], bundle, args) -> None:
    """Take the configurations that leave no units out of each case-3 task;
    one named on the command line (a flag in args.explicit) raises SystemExit2."""
    for task in tasks:
        if task["case"] != 3:
            continue
        portfolio, _ = bundle.cell(task["season"], task["regime"])
        empty = {config for config, sub in _variants(task, portfolio) if sub.is_empty()}
        for key, flag, label in (("configs", "config", str), ("fd_scales", "fd_scale", _fd_label)):
            dropped = [v for v in task[key] if label(v) in empty]
            if dropped and flag in args.explicit:
                raise SystemExit2(f"configuration {label(dropped[0])} leaves no units in {args.scenario}")
            task[key] = tuple(v for v in task[key] if label(v) not in empty)


def _plan_cell(task: dict, bundle) -> dict:
    """The solves one cell needs.

    Per configuration (_variants): its portfolio solve and, in cases 3 and 4,
    one stand-alone solve per unit.  In cases 3 and 4 also the storage
    module's one-module solve, which sizing scales.
    """
    portfolio, scenario = bundle.cell(task["season"], task["regime"])
    case, strategy = task["case"], task["strategy"]
    configs = []
    for config, sub in _variants(task, portfolio):
        budgets = None if strategy == "deterministic" else strategy_budgets(strategy, sub)
        if case in (3, 4):
            configs.append((config, *gap_solves(sub, scenario, budgets)))
        else:
            configs.append((config, Solve(scenario, sub, budgets), ()))
    module = bundle.es_module
    es = None
    if case in (3, 4) and module is not None:
        es = module_solve(module, scenario, strategy_budgets(strategy, portfolio))
    return {"configs": configs, "module": es}


def _needs(plan: dict) -> list[Solve]:
    keys = [k for _, key, units in plan["configs"] for k in (key, *units)]
    return keys + ([plan["module"]] if plan["module"] is not None else [])


def _snap(v: float) -> float:
    return 0.0 if abs(v) < 1e-9 else float(v)


def _market_totals(traded, r_up, r_dn, dt: float) -> dict[str, float]:
    """Energy sold and bought and the reserve totals of a market position."""
    return {
        "sold_mwh": _snap(sum(v for v in traded if v > 0) * dt),
        "bought_mwh": _snap(-sum(v for v in traded if v < 0) * dt),
        "r_up_total_mw": _snap(sum(r_up)),
        "r_dn_total_mw": _snap(sum(r_dn)),
    }


def _market_values(schedule, key: Solve) -> dict[str, float]:
    return {
        "objective": schedule.objective_value,
        "nominal_profit": nominal_profit(schedule, key.subject, key.scenario),
        **_market_totals(schedule.p_da, schedule.r_up, schedule.r_dn, key.scenario.grid.delta_t),
    }


def _series(key: dict, kind: str, device: str, values) -> SeriesRow:
    return SeriesRow(kind=kind, device=device, values=tuple(_snap(v) for v in values), **key)


def _market_series(key: dict, schedule, include_units: bool) -> list[SeriesRow]:
    rows = [
        _series(key, "traded", "market", schedule.p_da),
        _series(key, "reserve_up", "market", schedule.r_up),
        _series(key, "reserve_dn", "market", schedule.r_dn),
    ]
    if include_units:
        for name, disp in sorted(schedule.dispatch.items()):
            rows.append(_series(key, "traded", name, disp))
        for name, r in sorted(schedule.reserve_up.items()):
            rows.append(_series(key, "reserve_up", name, r))
        for name, r in sorted(schedule.reserve_dn.items()):
            rows.append(_series(key, "reserve_dn", name, r))
        for name, soc in sorted(schedule.ts_soc.items()):
            rows.append(_series(key, "soc", f"{name}_store", soc))
    return rows


def _cell_rows(task: dict, plan: dict, solved) -> tuple[list, list]:
    """A cell's result rows and series, by arithmetic on its solved schedules."""
    case = task["case"]
    key = dict(case=str(case), season=task["season"], regime=task["regime"], strategy=task["strategy"])
    _, full, units = plan["configs"][0]
    if case in (1, 2):
        schedule = solved(full)
        kf = dict(key, configuration="full")
        return [ResultRow(values=_market_values(schedule, full), **kf)], _market_series(kf, schedule, case == 1)

    report = GapReport.of(solved, full, units)
    sized = None
    if plan["module"] is not None:
        sized = sized_from_module(report.gap, solved(plan["module"]), plan["module"])
    if case == 3:
        values = dict(zip(GAP_COLUMNS, report))
        values.update((f"unit_{name}", profit) for name, profit in report.per_unit)
        if sized is not None:
            values.update(
                module_count=float(sized.module_count),
                fleet_e_max_mwh=sized.fleet_e_max,
                es_objective=sized.es_objective,
                sizing_iterations=float(sized.iterations),
            )
        rows = [ResultRow(values=values, **dict(key, configuration="full"))]
        for config, sub, sub_units in plan["configs"][1:]:
            values = dict(zip(GAP_COLUMNS, GapReport.of(solved, sub, sub_units)))
            rows.append(ResultRow(values=values, **dict(key, configuration=config)))
        return rows, []

    kf = dict(key, configuration="sized_es")
    es = sized.schedule
    row = ResultRow(
        values={
            "lower_bound_profit": report.gap,
            "module_count": float(sized.module_count),
            "fleet_e_max_mwh": sized.fleet_e_max,
            "es_objective": es.objective_value,
            **_market_totals(es.p_da, es.r_up, es.r_dn, full.scenario.grid.delta_t),
        },
        **kf,
    )
    (soc,) = es.ts_soc.values()  # the fleet is the one storage unit
    flows = (("traded", es.p_da), ("reserve_up", es.r_up), ("reserve_dn", es.r_dn), ("soc", soc))
    return [row], [_series(kf, kind, "es_fleet", vec) for kind, vec in flows]


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


class SystemExit2(Exception):
    """Configuration error carrying the exit-2 message."""


def _expand_tasks(args) -> list[dict]:
    """The sweep's cells.  Seasons default to those of the scenario file
    (args.file_seasons), regimes to its first (args.file_regimes) and in
    case 2 to all of them, and cases to all four, less case 4 when the file
    has no storage module (args.file_module).  A season or regime the file
    lacks, or case 4 asked for without a module, raises SystemExit2."""
    tasks = []
    has_module = args.file_module is not None
    for case in args.case or [c for c in CASES if c != 4 or has_module]:
        if case == 4 and not has_module:
            raise SystemExit2(f"case 4 runs es_module, which {args.scenario} lacks")
        seasons = args.season or list(args.file_seasons)
        regimes = args.regime or list(args.file_regimes if case == 2 else args.file_regimes[:1])
        strategies = args.strategy or (["deterministic", "optimistic"] if case == 1 else list(STRATEGIES))
        for kind, names, known in (("season", seasons, args.file_seasons), ("regime", regimes, args.file_regimes)):
            for name in names:
                if name not in known:
                    raise SystemExit2(f"case {case} runs {kind} {name!r}, which {args.scenario} lacks")
        for season in seasons:
            for regime in regimes:
                for strategy in strategies:
                    if case in (3, 4) and strategy == "deterministic":
                        raise SystemExit2(f"case {case} does not take the deterministic strategy")
                    tasks.append(
                        {
                            "case": case,
                            "season": season,
                            "regime": regime,
                            "strategy": strategy,
                            "configs": tuple(args.config),
                            "fd_scales": tuple(args.fd_scale),
                        }
                    )
    tasks.sort(key=lambda t: cell_order(t["case"], t["season"], t["regime"], t["strategy"]))
    return tasks


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rvpp",
        description="Portfolio and storage market-scheduling sweeps.",
    )
    parser.add_argument("--case", type=int, action="append", choices=CASES, default=None,
                        help="case number; repeat for several (default: all four; case 4 needs an es_module)")
    parser.add_argument("--season", action="append", choices=SEASONS, default=None,
                        help="season filter; repeatable (default: the scenario file's seasons)")
    parser.add_argument("--regime", action="append", choices=REGIMES, default=None,
                        help="regime filter; repeatable (default: the file's first regime; case 2 all of them)")
    parser.add_argument("--strategy", action="append",
                        choices=("deterministic",) + STRATEGIES, default=None,
                        help="strategy filter; repeatable")
    parser.add_argument("--config", action="append", choices=CONFIG_CHOICES, default=None,
                        help="case-3 configuration; repeatable (default: full plus ablations)")
    parser.add_argument("--fd-scale", type=float, action="append", default=None,
                        help="case-3 flexible-demand capacity scale in percent; repeatable")
    parser.add_argument("--scenario", default=None, help="scenario YAML path (default: shipped dataset)")
    parser.add_argument("--out", default="results", help="output directory")
    parser.add_argument("--jobs", type=int, default=None,
                        help="worker processes for the plan's solves (default: every usable CPU); "
                             "never more than the distinct solves")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    args.explicit = {flag for flag in ("config", "fd_scale") if getattr(args, flag) is not None}
    # A repeated filter value runs once, where it first appears.
    defaults = {"case": (), "config": CONFIG_CHOICES, "season": (), "regime": (), "strategy": ()}
    for flag, default in defaults.items():
        setattr(args, flag, list(dict.fromkeys(getattr(args, flag) or default)))
    args.fd_scale = args.fd_scale if args.fd_scale is not None else list(DEFAULT_FD_SCALES)
    args.scenario = str(args.scenario or default_scenario_path())
    if args.jobs is not None and args.jobs < 1:
        print("error: --jobs must be at least 1", file=sys.stderr)
        return 2
    fd_labels: dict[str, float] = {}
    for pct in args.fd_scale:
        if not 0 <= pct < math.inf:
            print(f"error: --fd-scale {pct} must be a finite number of at least 0", file=sys.stderr)
            return 2
        if pct == 100.0:  # the full configuration; it adds no fd_NNN row
            continue
        label = _fd_label(pct)
        if label in fd_labels:
            print(f"error: --fd-scale {fd_labels[label]} and {pct} would share the label {label}",
                  file=sys.stderr)
            return 2
        fd_labels[label] = pct

    try:
        bundle = load_scenario(args.scenario)
        args.file_seasons, args.file_regimes, args.file_module = bundle.seasons, bundle.regimes, bundle.es_module
        tasks = _expand_tasks(args)
        _drop_empty_configs(tasks, bundle, args)
    except (ScenarioFormatError, SystemExit2) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"error: --out {out_dir}: {exc.strerror or exc}", file=sys.stderr)
        return 2

    started = time.perf_counter()
    plans = [_isolated(_plan_cell, t, bundle) for t in tasks]
    # Each distinct solve once, heaviest kind first; the sort is stable.
    order = list(dict.fromkeys(k for plan, _ in plans if plan for k in _needs(plan)))
    order.sort(key=Solve.weight)
    jobs = max(1, min(args.jobs or _usable_cpus(), len(order)))
    # The parent runs no solve, so the pool forks no solver state.
    results = _solve_all(order, jobs)
    for key in [k for k in order if k not in results]:  # left by a dead worker; each runs once more, alone
        error = f"worker process died while solving {key.label()}"
        results[key] = _solve_all([key], 1).get(key, {"schedule": None, "error": error, "seconds": 0.0, "layers": {}})

    def solved(key: Solve):
        res = results[key]
        if res["error"] is not None:
            raise CellError(f"solve of {key.label()} failed: {res['error']}")
        return res["schedule"]

    table = ResultsTable()
    manifest_cells = []
    failed = 0
    for t, (plan, error) in zip(tasks, plans):
        seconds = 0.0
        if plan is not None:
            # Solve seconds the cell rests on, shared solves counted in full.
            seconds = sum(results[k]["seconds"] for k in set(_needs(plan)))
            out, error = _isolated(_cell_rows, t, plan, solved)
        entry = {
            "case": t["case"],
            "season": t["season"],
            "regime": t["regime"],
            "strategy": t["strategy"],
            "status": "ok" if error is None else "failed",
            "seconds": round(seconds, 3),
        }
        if error is not None:
            failed += 1
            entry["error"] = error
        else:
            table.rows.extend(out[0])
            table.series.extend(out[1])
        manifest_cells.append(entry)

    written = []
    if table.rows:
        written = [str(p) for p in write_results(table, out_dir)]
    manifest = {
        "scenario": args.scenario,
        "highs_options": session_options(),
        "jobs": jobs,
        "cells_total": len(tasks),
        "cells_failed": failed,
        "wall_seconds": round(time.perf_counter() - started, 3),
        # Summed over the distinct solves, whichever worker ran them.
        "layer_seconds": {x: round(sum(results[k]["layers"].get(x, 0.0) for k in order), 3) for x in LAYERS},
        "result_files": written,
        "cells": manifest_cells,
    }
    with open(out_dir / "run_manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")

    for entry in manifest_cells:
        line = f"case {entry['case']} {entry['season']}/{entry['regime']}/{entry['strategy']}: {entry['status']} ({entry['seconds']}s)"
        print(line)
    if failed:
        print(f"{failed} of {len(tasks)} cells failed; see run_manifest.json", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
