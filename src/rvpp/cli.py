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

A sweep runs as a flat solve plan.  Each cell is one record (`_Cell`) from
expansion to its rows and manifest entry: its case, season, regime, strategy
and, per configuration, the `sizing.Solve` keys it needs, planned by
`sizing.gap_solves` and `sizing.module_solve` as the library's
`aggregation_gap` and `size_es_to_match` plan them, with its strategy's
budgets (the deterministic strategy's are ZERO_BUDGETS); the storage module's
key is its storage-only portfolio.  `_expand_tasks` plans every cell before
--out is made and leaves out the configurations without units.
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
configuration (a flag, the scenario file or --out), raised as SystemExit2 or
ScenarioFormatError before any solve and reported by `main` in one place.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace
from pathlib import Path
from typing import NamedTuple

from .backends import HIGHS_VERSION, session_options
from .datasets import default_scenario_path
from .domain import REGIMES, SEASONS, STRATEGIES, strategy_budgets, validate_budgets
from .oracle import nominal_profit
from .scenario_io import (
    RESULT_FILES,
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
CONFIG_CHOICES = ("full", "no_drs", "no_ndrs", "no_csp", "no_fd")  # "no_<class>": the portfolio without that class
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


class _Cell(NamedTuple):
    """One sweep cell and the solves it needs."""

    case: int
    season: str
    regime: str
    strategy: str
    configs: tuple[tuple[str, Solve, tuple[Solve, ...]], ...]  # (label, portfolio key, stand-alone unit keys)
    module: Solve | None  # cases 3 and 4: the storage module's one-module key, which sizing scales

    def needs(self) -> list[Solve]:
        keys = [k for _, key, units in self.configs for k in (key, *units)]
        return keys + ([self.module] if self.module is not None else [])


def _plan(args, case: int, season: str, regime: str, strategy: str) -> _Cell:
    """The cell and the solves it needs: per configuration ("full" first,
    then in case 3 its ablations and flexible-demand scales, labelled fd_NNN
    in percent), its portfolio key and, in cases 3 and 4, one stand-alone key
    per unit.  A configuration that leaves no units is left out; one named on
    the command line (a flag in args.explicit) raises SystemExit2, as do
    budgets beyond the file's period count, which would fail the build of
    every solve of their strategy."""
    bundle = args.bundle
    portfolio, scenario = bundle.cell(season, regime)
    budgets = strategy_budgets(strategy, portfolio)  # gap_solves drops entries of units a variant lacks
    if validate_budgets(budgets, bundle.grid):
        T = bundle.grid.period_count
        raise SystemExit2(f"case {case}: {strategy} budgets exceed the {T} periods of {args.scenario}")
    variants = [("full", portfolio)]
    if case == 3:
        variants += [(c, replace(portfolio, **{c.removeprefix("no_"): ()})) for c in args.config if c != "full"]
        scales = [pct for pct in args.fd_scale if pct != 100.0]
        variants += [(f"fd_{int(pct):03d}", scale_flexible_demand(portfolio, pct / 100.0)) for pct in scales]
    configs = []
    for config, sub in variants:
        if sub.is_empty():
            if ("config" if config in CONFIG_CHOICES else "fd_scale") in args.explicit:
                raise SystemExit2(f"configuration {config} leaves no units in {args.scenario}")
            continue
        key, units = gap_solves(sub, scenario, budgets)
        configs.append((config, key, units if case in (3, 4) else ()))
    module = None
    if case in (3, 4) and bundle.es_module is not None:
        module = module_solve(bundle.es_module, scenario, budgets)
    return _Cell(case, season, regime, strategy, tuple(configs), module)


def _snap(v: float) -> float:
    return 0.0 if abs(v) < 1e-9 else float(v)


def _market_totals(schedule, dt: float) -> dict[str, float]:
    """Energy sold and bought and the reserve totals of a market position."""
    return {
        "sold_mwh": _snap(sum(v for v in schedule.p_da if v > 0) * dt),
        "bought_mwh": _snap(-sum(v for v in schedule.p_da if v < 0) * dt),
        "r_up_total_mw": _snap(sum(schedule.r_up)),
        "r_dn_total_mw": _snap(sum(schedule.r_dn)),
    }


def _series_row(key: dict, kind: str, device: str, values) -> SeriesRow:
    return SeriesRow(kind=kind, device=device, values=tuple(_snap(v) for v in values), **key)


def _market_series(key: dict, schedule, device: str = "market", include_units: bool = False) -> list[SeriesRow]:
    """The market position's series under device and, with include_units, each
    unit's, kind by kind, then each store's state of charge."""
    flows = (
        ("traded", schedule.p_da, schedule.dispatch),
        ("reserve_up", schedule.r_up, schedule.reserve_up),
        ("reserve_dn", schedule.r_dn, schedule.reserve_dn),
    )
    rows = [_series_row(key, kind, device, market) for kind, market, _ in flows]
    if include_units:
        for kind, _, per_unit in flows:
            rows += [_series_row(key, kind, name, values) for name, values in sorted(per_unit.items())]
        rows += [_series_row(key, "soc", f"{name}_store", soc) for name, soc in sorted(schedule.ts_soc.items())]
    return rows


def _cell_rows(cell: _Cell, solved) -> tuple[list, list]:
    """A cell's result rows and series, by arithmetic on its solved schedules."""
    key = dict(case=str(cell.case), season=cell.season, regime=cell.regime, strategy=cell.strategy)
    _, full, units = cell.configs[0]
    if cell.case in (1, 2):
        schedule = solved(full)
        kf = dict(key, configuration="full")
        values = {
            "objective": schedule.objective_value,
            "nominal_profit": nominal_profit(schedule, full.subject, full.scenario),
            **_market_totals(schedule, full.scenario.grid.delta_t),
        }
        return [ResultRow(values=values, **kf)], _market_series(kf, schedule, include_units=cell.case == 1)

    report = GapReport.of(solved, full, units)
    sized = None
    if cell.module is not None:
        sized = sized_from_module(report.gap, solved(cell.module), cell.module)
        fleet = {
            "module_count": float(sized.module_count),
            "fleet_e_max_mwh": sized.fleet_e_max,
            "es_objective": sized.schedule.objective_value,
        }
    if cell.case == 3:
        values = dict(zip(GAP_COLUMNS, report))
        values.update((f"unit_{name}", profit) for name, profit in report.per_unit)
        if sized is not None:
            # sizing_iterations counts the one module solve; the column stays for CSV compatibility.
            values.update(fleet, sizing_iterations=1.0)
        rows = [ResultRow(values=values, **dict(key, configuration="full"))]
        for config, sub, sub_units in cell.configs[1:]:
            values = dict(zip(GAP_COLUMNS, GapReport.of(solved, sub, sub_units)))
            rows.append(ResultRow(values=values, **dict(key, configuration=config)))
        return rows, []

    kf = dict(key, configuration="sized_es")
    es = sized.schedule
    row = ResultRow(
        values={
            "lower_bound_profit": report.gap,
            **fleet,
            **_market_totals(es, full.scenario.grid.delta_t),
        },
        **kf,
    )
    (soc,) = es.ts_soc.values()  # the fleet is the one storage unit
    return [row], _market_series(kf, es, "es_fleet") + [_series_row(kf, "soc", "es_fleet", soc)]


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


class SystemExit2(Exception):
    """Configuration error carrying the exit-2 message."""


def _expand_tasks(args) -> list[_Cell]:
    """The sweep's cells in cell_order, each planned by _plan.  Seasons default
    to those of the scenario file (args.bundle), regimes to its first and in
    case 2 to all of them, and cases to all four, less case 4 when the file
    has no storage module.  A season or regime the file lacks, case 4 without
    a module, or case 3 or 4 with the deterministic strategy raises SystemExit2."""
    bundle = args.bundle
    picked = []
    has_module = bundle.es_module is not None
    for case in args.case or [c for c in CASES if c != 4 or has_module]:
        if case == 4 and not has_module:
            raise SystemExit2(f"case 4 runs es_module, which {args.scenario} lacks")
        seasons = args.season or list(bundle.seasons)
        regimes = args.regime or list(bundle.regimes if case == 2 else bundle.regimes[:1])
        # Case 1: deterministic against optimistic; the others: the robust strategies.
        strategies = args.strategy or list(STRATEGIES[:2] if case == 1 else STRATEGIES[1:])
        for kind, names, known in (("season", seasons, bundle.seasons), ("regime", regimes, bundle.regimes)):
            for name in names:
                if name not in known:
                    raise SystemExit2(f"case {case} runs {kind} {name!r}, which {args.scenario} lacks")
        if case in (3, 4) and "deterministic" in strategies:
            raise SystemExit2(f"case {case} does not take the deterministic strategy")
        picked += [(case, s, r, strategy) for s in seasons for r in regimes for strategy in strategies]
    picked.sort(key=lambda cell: cell_order(*cell))
    return [_plan(args, *cell) for cell in picked]


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
                        choices=STRATEGIES, default=None,
                        help="strategy filter; repeatable")
    parser.add_argument("--config", action="append", choices=CONFIG_CHOICES, default=None,
                        help="case-3 configuration; repeatable (default: full plus ablations)")
    parser.add_argument("--fd-scale", type=float, action="append", default=None,
                        help="case-3 flexible-demand capacity scale, a whole percent; repeatable")
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
    defaults = {"case": (), "config": CONFIG_CHOICES, "fd_scale": DEFAULT_FD_SCALES, "season": (), "regime": (), "strategy": ()}
    for flag, default in defaults.items():
        setattr(args, flag, list(dict.fromkeys(getattr(args, flag) or default)))
    try:
        for flag in ("scenario", "out"):
            if getattr(args, flag) == "":  # else "" would read the shipped dataset, or write into "."
                raise SystemExit2(f"--{flag} must not be empty")
        args.scenario = str(args.scenario or default_scenario_path())
        if args.jobs is not None and args.jobs < 1:
            raise SystemExit2("--jobs must be at least 1")
        for pct in args.fd_scale:
            if pct < 0 or not pct.is_integer():  # so that its fd_NNN label names it; refuses nan and inf
                raise SystemExit2(f"--fd-scale {pct} must be a whole percent of at least 0")
        args.bundle = load_scenario(args.scenario)
        cells = _expand_tasks(args)
        out_dir = Path(args.out)
        try:
            out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise SystemExit2(f"--out {out_dir}: {exc.strerror or exc}") from exc
    except (ScenarioFormatError, SystemExit2) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    started = time.perf_counter()
    # Each distinct solve once, heaviest kind first; the sort is stable.
    order = list(dict.fromkeys(k for cell in cells for k in cell.needs()))
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
    for cell in cells:
        # Solve seconds the cell rests on, shared solves counted in full.
        seconds = sum(results[k]["seconds"] for k in set(cell.needs()))
        out, error = _isolated(_cell_rows, cell, solved)
        entry = {
            "case": cell.case,
            "season": cell.season,
            "regime": cell.regime,
            "strategy": cell.strategy,
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
    else:  # so that no earlier run's results sit beside this run's manifest
        for name in RESULT_FILES:
            (out_dir / name).unlink(missing_ok=True)
    manifest = {
        "scenario": args.scenario,
        "highs_version": HIGHS_VERSION,
        "highs_options": session_options(),
        "jobs": jobs,
        "start_method": (_POOL_CONTEXT or multiprocessing).get_start_method(),
        "cells_total": len(cells),
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
        print(f"{failed} of {len(cells)} cells failed; see run_manifest.json", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
