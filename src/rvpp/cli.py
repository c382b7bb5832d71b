"""Command-line sweeps over the four case-study shapes.

Case 1 schedules the full portfolio per season (deterministic and optimistic
robust) and emits unit-level dispatch and reserve curves.  Case 2 sweeps the
regime/strategy grid and reports traded energy and reserves.  Case 3 measures
aggregation gaps, class ablations, and flexible-demand capacity scaling, and
sizes the matching storage fleet.  Case 4 takes the sized fleet's schedule,
which sizing scales from its one-module solve, replays it against the sized
fleet and emits its state of charge; it solves no storage model of its own.
When the same sweep runs the case-3 cell of its season, regime and strategy,
case 4 runs after it and takes over its gap and sizing.

Every schedule is replayed and audited before anything is written; a failed
cell keeps its error in the run manifest while the remaining cells still
produce results.  Exit codes: 0 all cells succeeded, 1 at least one cell
failed, 2 bad configuration.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from functools import lru_cache
from pathlib import Path

from .backends import ScipyHighsBackend
from .domain import REGIMES, SEASONS, STRATEGIES, Portfolio, strategy_budgets
from .milp import relaxation_probe, solve
from .oracle import audit_robust_feasibility, replay_schedule
from .scenario_io import (
    ResultRow,
    ResultsTable,
    ScenarioFormatError,
    SeriesRow,
    default_scenario_path,
    load_scenario,
    scale_flexible_demand,
    write_results,
)
from .scheduler import build_deterministic_rvpp, build_robust_rvpp, extract_rvpp_schedule
from .sizing import aggregation_gap, individual_profit, size_es_to_match

CASES = (1, 2, 3, 4)
ABLATIONS = ("no_drs", "no_ndrs", "no_csp", "no_fd")
CONFIG_CHOICES = ("full",) + ABLATIONS
DEFAULT_FD_SCALES = (0.0, 50.0, 100.0, 150.0)
RESIDUAL_TOL = 1e-6


class CellError(RuntimeError):
    """A sweep cell could not produce an audited result."""


@lru_cache(maxsize=4)
def _bundle(path: str):
    return load_scenario(path)


def _drop_class(portfolio: Portfolio, config: str) -> Portfolio:
    if config == "full":
        return portfolio
    if config == "no_drs":
        return Portfolio(ndrs=portfolio.ndrs, csp=portfolio.csp, fd=portfolio.fd)
    if config == "no_ndrs":
        return Portfolio(drs=portfolio.drs, csp=portfolio.csp, fd=portfolio.fd)
    if config == "no_csp":
        return Portfolio(drs=portfolio.drs, ndrs=portfolio.ndrs, fd=portfolio.fd)
    if config == "no_fd":
        return Portfolio(drs=portfolio.drs, ndrs=portfolio.ndrs, csp=portfolio.csp)
    raise CellError(f"unknown configuration {config!r}")


def _solved_schedule(portfolio, scenario, budgets, switches):
    """Build, solve, decode, replay, and audit one portfolio schedule."""
    if budgets is None:
        m = build_deterministic_rvpp(portfolio, scenario, literal_3c=switches["literal_3c"])
    else:
        m = build_robust_rvpp(portfolio, scenario, budgets, literal_3c=switches["literal_3c"])
    sol = solve(m, ScipyHighsBackend())
    if sol.status != "optimal":
        detail = ""
        if sol.status == "infeasible":
            blame = relaxation_probe(m, ScipyHighsBackend)
            if blame:
                worst = max(blame, key=blame.get)
                detail = f"; largest irreducible conflict at {worst} (slack {blame[worst]:.4g})"
        raise CellError(f"solve ended {sol.status}{detail}")
    schedule = extract_rvpp_schedule(m, sol, portfolio)
    report = replay_schedule(schedule, portfolio, scenario, literal_3c=switches["literal_3c"])
    worst = max(report.values()) if report else 0.0
    if worst > RESIDUAL_TOL:
        raise CellError(f"replay residual {worst:.3g} above {RESIDUAL_TOL}")
    if budgets is not None:
        violations = audit_robust_feasibility(schedule, portfolio, scenario, budgets, exhaustive_cap=0)
        if violations:
            raise CellError("robust audit failed: " + violations[0])
    return schedule


def _replayed_es(sized, module, scenario, switches):
    """The sized fleet's schedule, replayed against the fleet it was scaled to."""
    report = replay_schedule(
        sized.schedule,
        sized.fleet(module),
        scenario,
        symmetric_sigma_margins=switches["symmetric_sigma_margins"],
    )
    worst = max(report.values()) if report else 0.0
    if worst > RESIDUAL_TOL:
        raise CellError(f"storage replay residual {worst:.3g} above {RESIDUAL_TOL}")
    return sized.schedule


def _gap_and_sizing(task, module, portfolio, scenario, budgets):
    """Aggregation gap and, given a storage module, the fleet that covers it."""
    gap = aggregation_gap(portfolio, scenario, budgets, literal_3c=task["literal_3c"])
    if module is None:
        return gap, None
    sized = size_es_to_match(
        gap.gap,
        module,
        scenario,
        budgets,
        max_modules=task["max_modules"],
        symmetric_sigma_margins=task["symmetric_sigma_margins"],
    )
    return gap, sized


def _snap(v: float) -> float:
    return 0.0 if abs(v) < 1e-9 else float(v)


def _market_values(schedule, dt: float) -> dict[str, float]:
    sold = sum(v for v in schedule.p_da if v > 0) * dt
    bought = -sum(v for v in schedule.p_da if v < 0) * dt
    return {
        "objective": schedule.objective_value,
        "nominal_profit": schedule.nominal_profit,
        "sold_mwh": _snap(sold),
        "bought_mwh": _snap(bought),
        "r_up_total_mw": _snap(sum(schedule.r_up)),
        "r_dn_total_mw": _snap(sum(schedule.r_dn)),
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


def run_cell(task: dict) -> dict:
    """Execute one sweep cell; returns rows/series plus a manifest entry.

    Runs in a worker process under --jobs > 1, so the payload and the return
    value stay picklable.
    """
    started = time.perf_counter()
    out = {"task": task, "status": "ok", "error": None, "rows": [], "series": []}
    try:
        bundle = _bundle(task["scenario"])
        portfolio, scenario = bundle.cell(task["season"], task["regime"])
        switches = {
            "literal_3c": task["literal_3c"],
            "symmetric_sigma_margins": task["symmetric_sigma_margins"],
        }
        strategy = task["strategy"]
        budgets = None if strategy == "deterministic" else strategy_budgets(strategy, portfolio)
        key = {
            "case": str(task["case"]),
            "season": task["season"],
            "regime": task["regime"],
            "strategy": strategy,
        }
        dt = scenario.grid.delta_t
        case = task["case"]

        if case in (1, 2):
            schedule = _solved_schedule(portfolio, scenario, budgets, switches)
            kf = dict(key, configuration="full")
            out["rows"].append(ResultRow(values=_market_values(schedule, dt), **kf))
            out["series"].extend(_market_series(kf, schedule, include_units=(case == 1)))

        elif case == 3:
            if budgets is None:
                raise CellError("case 3 needs a robust strategy")
            full, sized = _gap_and_sizing(task, bundle.es_module, portfolio, scenario, budgets)
            kf = dict(key, configuration="full")
            values = {
                "rvpp_profit": full.rvpp_profit,
                "sum_individual": full.sum_individual,
                "gap": full.gap,
            }
            for name, profit in full.per_unit:
                values[f"unit_{name}"] = profit
            if sized is not None:
                values.update(
                    module_count=float(sized.module_count),
                    fleet_e_max_mwh=sized.fleet_e_max,
                    es_objective=sized.es_objective,
                    sizing_iterations=float(sized.iterations),
                )
            out["rows"].append(ResultRow(values=values, **kf))

            # Ablations, then flexible-demand scales; a unit of the full
            # portfolio keeps its stand-alone profit, a rescaled one is solved.
            memo = {u: v for u, (_, v) in zip(portfolio.all_units(), full.per_unit)}
            variants = [(c, _drop_class(portfolio, c)) for c in task["configs"] if c != "full"]
            variants += [
                (f"fd_{int(pct):03d}", scale_flexible_demand(portfolio, pct / 100.0))
                for pct in task["fd_scales"]
                if pct != 100.0
            ]
            solved = []
            for config, sub in variants:
                if sub.is_empty():
                    raise CellError(f"configuration {config} leaves no units")
                bsub = strategy_budgets(strategy, sub)
                # Scaling flexible demand to zero leaves the no_fd portfolio.
                sched = next((m for p, m in solved if p == sub), None)
                if sched is None:
                    sched = _solved_schedule(sub, scenario, bsub, switches)
                    solved.append((sub, sched))
                total = sum(
                    memo[u]
                    if u in memo
                    else individual_profit(u, scenario, bsub, literal_3c=task["literal_3c"])
                    for u in sub.all_units()
                )
                out["rows"].append(
                    ResultRow(
                        values={
                            "rvpp_profit": sched.objective_value,
                            "sum_individual": total,
                            "gap": sched.objective_value - total,
                        },
                        **dict(key, configuration=config),
                    )
                )
            # Handed to the case-4 cell of the same season, regime and strategy.
            out["handoff"] = {"gap": full, "sizing": sized}

        elif case == 4:
            if budgets is None:
                raise CellError("case 4 needs a robust strategy")
            if bundle.es_module is None:
                raise CellError("scenario file ships no storage module")
            if "gap" in task:
                full, sized = task["gap"], task["sizing"]
            else:
                full, sized = _gap_and_sizing(task, bundle.es_module, portfolio, scenario, budgets)
            es = _replayed_es(sized, bundle.es_module, scenario, switches)
            kf = dict(key, configuration="sized_es")
            sold = _snap(sum(v for v in es.net if v > 0) * dt)
            bought = _snap(-sum(v for v in es.net if v < 0) * dt)
            out["rows"].append(
                ResultRow(
                    values={
                        "lower_bound_profit": full.gap,
                        "module_count": float(sized.module_count),
                        "fleet_e_max_mwh": sized.fleet_e_max,
                        "es_objective": es.objective_value,
                        "sold_mwh": sold,
                        "bought_mwh": bought,
                        "r_up_total_mw": _snap(sum(es.r_up)),
                        "r_dn_total_mw": _snap(sum(es.r_dn)),
                    },
                    **kf,
                )
            )
            out["series"].extend(
                _series(kf, kind, "es_fleet", values)
                for kind, values in (
                    ("traded", es.net),
                    ("reserve_up", es.r_up),
                    ("reserve_dn", es.r_dn),
                    ("soc", es.soc),
                )
            )
        else:
            raise CellError(f"unknown case {case}")
    except Exception as exc:  # noqa: BLE001 - cell isolation boundary
        out["status"] = "failed"
        out["error"] = f"{type(exc).__name__}: {exc}"
        out["trace"] = traceback.format_exc()
        out["rows"] = []
        out["series"] = []
    out["seconds"] = time.perf_counter() - started
    return out


def _twin_key(task: dict) -> tuple:
    return (task["season"], task["regime"], task["strategy"])


def _cell_key(task: dict) -> tuple:
    season_order = {s: i for i, s in enumerate(SEASONS)}
    regime_order = {r: i for i, r in enumerate(REGIMES)}
    strat_order = {"deterministic": 0, "optimistic": 1, "balanced": 2, "pessimistic": 3}
    return (
        task["case"],
        season_order.get(task["season"], 99),
        regime_order.get(task["regime"], 99),
        strat_order.get(task["strategy"], 99),
    )


class SystemExit2(Exception):
    """Configuration error carrying the exit-2 message."""


def _expand_tasks(args) -> list[dict]:
    tasks = []
    for case in args.case:
        seasons = args.season or list(SEASONS)
        if case == 1:
            regimes = args.regime or ["favorable"]
            strategies = args.strategy or ["deterministic", "optimistic"]
        elif case == 2:
            regimes = args.regime or list(REGIMES)
            strategies = args.strategy or list(STRATEGIES)
        else:
            regimes = args.regime or ["favorable"]
            strategies = args.strategy or list(STRATEGIES)
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
                            "scenario": args.scenario,
                            "configs": tuple(args.config),
                            "fd_scales": tuple(args.fd_scale),
                            "max_modules": args.max_modules,
                            "literal_3c": args.literal_3c,
                            "symmetric_sigma_margins": args.symmetric_sigma_margins,
                        }
                    )
    tasks.sort(key=_cell_key)
    return tasks


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rvpp",
        description="Portfolio and storage market-scheduling sweeps.",
    )
    parser.add_argument("--case", type=int, action="append", choices=CASES, default=None,
                        help="case number; repeat for several (default: all four)")
    parser.add_argument("--season", action="append", choices=SEASONS, default=None,
                        help="season filter; repeatable")
    parser.add_argument("--regime", action="append", choices=REGIMES, default=None,
                        help="regime filter; repeatable")
    parser.add_argument("--strategy", action="append",
                        choices=("deterministic",) + STRATEGIES, default=None,
                        help="strategy filter; repeatable")
    parser.add_argument("--config", action="append", choices=CONFIG_CHOICES, default=None,
                        help="case-3 configuration; repeatable (default: full plus ablations)")
    parser.add_argument("--fd-scale", type=float, action="append", default=None,
                        help="case-3 flexible-demand capacity scale in percent; repeatable")
    parser.add_argument("--scenario", default=None, help="scenario YAML path (default: shipped dataset)")
    parser.add_argument("--out", default="results", help="output directory")
    parser.add_argument("--max-modules", type=int, default=2000,
                        help="cap on the storage fleet sizing may return; a larger need fails the cell")
    parser.add_argument("--jobs", type=int, default=1, help="parallel sweep cells")
    parser.add_argument("--literal-3c", action=argparse.BooleanOptionalAction, default=False,
                        help="keep the daily energy cap's reserve term unscaled by the period length")
    parser.add_argument("--symmetric-sigma-margins", action=argparse.BooleanOptionalAction,
                        default=True,
                        help="use the down-reserve share for both storage margin rows")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    args.case = args.case or list(CASES)
    args.config = args.config or list(CONFIG_CHOICES)
    args.fd_scale = args.fd_scale if args.fd_scale is not None else list(DEFAULT_FD_SCALES)
    args.scenario = str(args.scenario or default_scenario_path())
    for flag, value in (("--jobs", args.jobs), ("--max-modules", args.max_modules)):
        if value < 1:
            print(f"error: {flag} must be at least 1", file=sys.stderr)
            return 2
    for pct in args.fd_scale:
        if pct < 0:
            print(f"error: --fd-scale {pct} is negative", file=sys.stderr)
            return 2

    try:
        _bundle(args.scenario)
        tasks = _expand_tasks(args)
    except (ScenarioFormatError, SystemExit2) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    started = time.perf_counter()
    # A case-4 cell waits for its case-3 twin and takes over its gap and sizing.
    twins = {_twin_key(t) for t in tasks if t["case"] == 3}
    ready, waiting = [], []
    for t in tasks:
        (waiting if t["case"] == 4 and _twin_key(t) in twins else ready).append(t)
    with ProcessPoolExecutor(max_workers=args.jobs) if args.jobs > 1 else nullcontext() as pool:
        run = map if pool is None else pool.map
        results = list(run(run_cell, ready))
        handoff = {_twin_key(r["task"]): r["handoff"] for r in results if "handoff" in r}
        results += run(run_cell, [dict(t, **handoff.get(_twin_key(t), {})) for t in waiting])
    results.sort(key=lambda r: _cell_key(r["task"]))

    table = ResultsTable()
    manifest_cells = []
    failed = 0
    for res in results:
        t = res["task"]
        entry = {
            "case": t["case"],
            "season": t["season"],
            "regime": t["regime"],
            "strategy": t["strategy"],
            "status": res["status"],
            "seconds": round(res["seconds"], 3),
        }
        if "gap" in t:
            entry["sizing_from"] = "case 3"
        if res["status"] != "ok":
            failed += 1
            entry["error"] = res["error"]
        manifest_cells.append(entry)
        table.rows.extend(res["rows"])
        table.series.extend(res["series"])

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    if table.rows:
        written = [str(p) for p in write_results(table, out_dir)]
    manifest = {
        "scenario": args.scenario,
        "switches": {
            "literal_3c": args.literal_3c,
            "symmetric_sigma_margins": args.symmetric_sigma_margins,
        },
        "jobs": args.jobs,
        "cells_total": len(tasks),
        "cells_failed": failed,
        "wall_seconds": round(time.perf_counter() - started, 3),
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
