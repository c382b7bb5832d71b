"""Release gate: one test per acceptance criterion.

The terminal summary prints one PASS/FAIL line per test here (see
conftest.py). Criteria that concern sweep output share a single full
command-line run; the rest solve models directly. Expected to stay under
ten minutes end to end on one core.
"""

from __future__ import annotations

import csv
import json
import time
from itertools import combinations
from pathlib import Path
from types import SimpleNamespace

import pytest

from rvpp import (
    BudgetSet,
    Portfolio,
    audit_robust_feasibility,
    cli,
    nominal_profit,
    price_only_budgets,
    replay_schedule,
    strategy_budgets,
    worst_case_profit,
)
from rvpp.sizing import aggregation_gap, size_es_to_match
from toys import market, solve_es, solve_rvpp, wind_only

LADDER = ("optimistic", "balanced", "pessimistic")
SEASONS = ("winter", "spring", "summer", "autumn")
TOL = 1e-6
SOLVE_LIMIT_S = 60.0
SWEEP_LIMIT_S = 1800.0
GOLDEN = Path(__file__).parent / "golden"

# results.csv stores six significant digits, so sums and comparisons
# reconstructed from it carry up to 5e-7 relative rounding per value.
def _csv_tol(*values: float) -> float:
    return 1e-6 * max(1.0, *(abs(v) for v in values))


@pytest.fixture(scope="module")
def sweep(tmp_path_factory):
    """Full default sweep, all cases and seasons, shared by several criteria."""
    out = tmp_path_factory.mktemp("sweep")
    t0 = time.perf_counter()
    code = cli.main(["--jobs", "4", "--out", str(out)])
    wall = time.perf_counter() - t0
    with open(out / "results.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    manifest = json.loads((out / "run_manifest.json").read_text())
    return SimpleNamespace(code=code, wall=wall, out=out, rows=rows, manifest=manifest)


@pytest.fixture(scope="module")
def winter_cell(bundle):
    return bundle.cell("winter", "favorable")


@pytest.fixture(scope="module")
def robust_rvpp(winter_cell):
    """One optimal robust schedule per strategy on the shipped winter cell."""
    portfolio, scenario = winter_cell
    out = {}
    for strat in LADDER:
        budgets = strategy_budgets(strat, portfolio)
        out[strat] = (solve_rvpp(portfolio, scenario, budgets), budgets)
    return out


@pytest.fixture(scope="module")
def es_ladder(bundle):
    """Fixed two-module fleet solved per season and strategy."""
    fleet = Portfolio(es=(bundle.es_module.scaled(2),))
    out = {}
    for season in SEASONS:
        portfolio, scenario = bundle.cell(season, "favorable")
        cells = []
        for strat in LADDER:
            budgets = price_only_budgets(strategy_budgets(strat, portfolio))
            cells.append((strat, budgets, scenario, solve_rvpp(fleet, scenario, budgets)))
        out[season] = cells
    return fleet, out


def test_zero_budget_robust_matches_deterministic(winter_cell, bundle):
    """With every budget at zero the robust model is the deterministic one:
    on the shipped winter cell and on a two-module fleet its objective is
    the schedule's nominal profit and its worst case under no budget, its
    price duals cost nothing, and each solve stays under a minute.  The
    winter objective is the deterministic one of the golden sweep."""
    portfolio, scenario = winter_cell
    objectives = []
    for subject in (portfolio, Portfolio(es=(bundle.es_module.scaled(2),))):
        t0 = time.perf_counter()
        sched = solve_rvpp(subject, scenario, BudgetSet())
        assert time.perf_counter() - t0 < SOLVE_LIMIT_S
        assert abs(sched.objective_value - nominal_profit(sched, subject, scenario)) <= TOL
        assert abs(sched.objective_value - worst_case_profit(sched, subject, scenario, BudgetSet())[0]) <= TOL
        assert sum(sched.price_penalty.values()) == 0.0
        objectives.append(sched.objective_value)

    with open(GOLDEN / "results.csv", newline="") as fh:
        cell = ("1", "winter", "favorable", "deterministic", "full")
        (golden,) = [r for r in csv.DictReader(fh) if tuple(r.values())[:5] == cell]
    assert f"{objectives[0]:.6g}" == golden["objective"]


def test_budget_ladder_orders_objectives(sweep, es_ladder):
    """Optimistic >= balanced >= pessimistic for the aggregator in both
    regimes and for a fixed storage fleet, 24 comparisons in total."""
    case2 = {}
    for r in sweep.rows:
        if r["case"] == "2":
            case2.setdefault((r["season"], r["regime"]), {})[r["strategy"]] = float(
                r["objective"]
            )
    assert len(case2) == 8
    comparisons = 0
    for objs in case2.values():
        seq = [objs[s] for s in LADDER]
        for a, b in zip(seq, seq[1:]):
            assert b <= a + _csv_tol(a, b)
            comparisons += 1

    _, ladder = es_ladder
    for cells in ladder.values():
        seq = [sched.objective_value for _, _, _, sched in cells]
        for a, b in zip(seq, seq[1:]):
            assert b <= a + 1e-9
            comparisons += 1
    assert comparisons == 24


def test_aggregation_gap_never_negative(sweep):
    """Joint scheduling never earns less than the units traded alone, across
    every configuration and demand scale of the coordination sweep."""
    gaps = [float(r["gap"]) for r in sweep.rows if r["case"] == "3" and r["gap"]]
    assert len(gaps) == 96
    assert min(gaps) >= -TOL


def test_robust_objective_equals_worst_case_replay(robust_rvpp, winter_cell, es_ladder):
    # Per price stream, the model's dual penalty is the oracle's worst loss.
    portfolio, scenario = winter_cell
    for sched, budgets in robust_rvpp.values():
        wc, worst = worst_case_profit(sched, portfolio, scenario, budgets)
        assert abs(sched.objective_value - wc) <= TOL
        for stream, (_, loss) in worst.items():
            assert abs(sched.price_penalty[stream] - loss) <= TOL, stream

    fleet, ladder = es_ladder
    _, budgets, scenario_w, es_sched = ladder["winter"][1]
    wc, worst = worst_case_profit(es_sched, fleet, scenario_w, budgets)
    assert abs(es_sched.objective_value - wc) <= TOL
    for stream, (_, loss) in worst.items():
        assert abs(es_sched.price_penalty[stream] - loss) <= TOL, stream

    # Small enough to enumerate: the closed form must agree with brute force
    # over every two-period price subset.
    prices = [14.0, 22.0, 9.0, 30.0, 17.0, 25.0]
    devs = [3.0, 5.0, 1.0, 7.0, 2.0, 4.0]
    toy_p, toy_s = wind_only(6, upper=8.0, dev=0.0, dam=prices, dam_down=devs)
    toy_b = BudgetSet(gamma_dam=2)
    toy = solve_rvpp(toy_p, toy_s, toy_b)
    wc, _ = worst_case_profit(toy, toy_p, toy_s, toy_b)
    losses = [devs[t] * toy.p_da[t] for t in range(6)]
    subsets = list(combinations(range(6), 2))
    assert len(subsets) == 15
    brute = nominal_profit(toy, toy_p, toy_s) - max(sum(losses[t] for t in sub) for sub in subsets)
    assert wc == pytest.approx(brute, abs=1e-12)
    assert toy.objective_value == pytest.approx(brute, abs=1e-9)


def test_robust_schedules_survive_adversarial_audit(robust_rvpp, winter_cell):
    portfolio, scenario = winter_cell
    for sched, budgets in robust_rvpp.values():
        violations = audit_robust_feasibility(
            sched, portfolio, scenario, budgets
        )
        assert violations == []

    # Deviations concentrated in exactly gamma periods: the dominant
    # realization holds every deviation, so the audit must come back clean.
    sp_p, sp_s = wind_only(6, upper=20.0, dev=[0.0, 5.0, 0.0, 0.0, 5.0, 0.0], dam=10.0)
    sp_b = BudgetSet(gamma_per_unit={"wf": 2})
    sp = solve_rvpp(sp_p, sp_s, sp_b)
    assert audit_robust_feasibility(sp, sp_p, sp_s, sp_b) == []

    ft_p, ft_s = wind_only(5, upper=10.0, dev=2.0, dam=10.0)
    ft_b = BudgetSet(gamma_per_unit={"wf": 5})
    ft = solve_rvpp(ft_p, ft_s, ft_b)
    assert audit_robust_feasibility(ft, ft_p, ft_s, ft_b) == []

    # A deterministic schedule sells the full forecast, so large forecast
    # deviations must trip the audit.
    cx_p, cx_s = wind_only(24, upper=10.0, dev=8.0, dam=10.0)
    cx = solve_rvpp(cx_p, cx_s)
    cx_b = strategy_budgets("pessimistic", cx_p)
    violations = audit_robust_feasibility(cx, cx_p, cx_s, cx_b)
    assert len(violations) >= 1


def test_storage_sizing_minimal_and_monotone(sweep, winter_cell, bundle):
    """The sized fleet covers the coordination gap, one module fewer does
    not, and sizes grow as budgets tighten.  The library's gap and fleet are
    the ones the sweep writes."""
    portfolio, scenario = winter_cell
    budgets = strategy_budgets("optimistic", portfolio)
    gap = aggregation_gap(portfolio, scenario, budgets)
    sized = size_es_to_match(gap.gap, bundle.es_module, scenario, budgets)
    row = {
        (r["case"], r["configuration"]): r
        for r in sweep.rows
        if (r["season"], r["regime"], r["strategy"]) == ("winter", "favorable", "optimistic")
    }
    assert abs(gap.gap - float(row["3", "full"]["gap"])) <= _csv_tol(gap.gap)
    assert sized.module_count == int(float(row["4", "sized_es"]["module_count"]))
    price_b = price_only_budgets(budgets)
    at_n = solve_es(bundle.es_module.scaled(sized.module_count), scenario, price_b)
    assert at_n.objective_value >= gap.gap - 1e-9
    # 464 modules, so one fewer is a fleet too; solved on its own, it falls short.
    assert sized.module_count == 464
    below = solve_es(bundle.es_module.scaled(sized.module_count - 1), scenario, price_b)
    assert below.objective_value < gap.gap

    counts = {}
    for r in sweep.rows:
        if r["case"] == "4" and r["configuration"] == "sized_es":
            counts.setdefault(r["season"], {})[r["strategy"]] = int(float(r["module_count"]))
    assert len(counts) == 4
    for per_season in counts.values():
        seq = [per_season[s] for s in LADDER]
        assert seq == sorted(seq)


def test_storage_physics_and_arbitrage_closed_form(es_ladder, bundle):
    fleet, ladder = es_ladder
    (name,) = fleet.unit_names()
    for cells in ladder.values():
        for _, _, scenario, sched in cells:
            assert abs(sched.ts_soc[name][0] - sched.ts_soc[name][-1]) <= TOL
            for ch, dis in zip(sched.ts_charge[name], sched.ts_discharge[name]):
                assert min(ch, dis) == 0.0
            report = replay_schedule(sched, fleet, scenario)
            assert max(report.values()) <= TOL

    # Buy one full charge cheap, sell it dear: profit is fixed by the
    # usable capacity and the round-trip efficiency alone.
    mod = bundle.es_module
    toy = solve_es(mod.scaled(1), market(2, dam=[5.0, 200.0]))
    stored = min(mod.charge_p_max * mod.charge_eff, mod.e_max - mod.e_min)
    delivered = stored * mod.discharge_eff
    closed_form = 200.0 * delivered - 5.0 * stored / mod.charge_eff - mod.op_cost * delivered
    assert abs(toy.objective_value - closed_form) <= TOL


def test_flexible_demand_scaling_concave_gap(sweep):
    """The coordination gap rises with demand scale but with diminishing
    returns: both second differences stay negative in every season."""
    for season in SEASONS:
        by_cfg = {
            r["configuration"]: float(r["gap"])
            for r in sweep.rows
            if r["case"] == "3" and r["season"] == season and r["strategy"] == "optimistic"
        }
        seq = [by_cfg["fd_000"], by_cfg["fd_050"], by_cfg["full"], by_cfg["fd_150"]]
        first = [b - a for a, b in zip(seq, seq[1:])]
        assert all(d > 0 for d in first), (season, seq)
        second = [b - a for a, b in zip(first, first[1:])]
        assert all(d < 0 for d in second), (season, second)


def test_default_sweep_matches_the_golden_results(sweep):
    """Every cell of results.csv, as printed, equals the committed golden
    (tests/golden/results.csv, a default sweep of the same formulation)."""
    with open(GOLDEN / "results.csv", newline="") as fh:
        golden = list(csv.reader(fh))
    with open(sweep.out / "results.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == len(golden)
    diffs = [
        (r, golden[0][c], got, want)
        for r, (row, gold) in enumerate(zip(rows, golden))
        for c, (got, want) in enumerate(zip(row, gold))
        if got != want
    ]
    assert diffs == [], f"{len(diffs)} cells differ, first (row, column, got, golden): {diffs[:5]}"


def test_repeat_runs_byte_identical(tmp_path):
    outs = []
    for name in ("first", "second"):
        out = tmp_path / name
        assert cli.main(["--case", "1", "--season", "winter", "--out", str(out)]) == 0
        outs.append(out)
    for csv_name in ("results.csv", "plot_traded_energy.csv", "plot_reserves.csv", "plot_soc.csv"):
        assert (outs[0] / csv_name).read_bytes() == (outs[1] / csv_name).read_bytes(), csv_name


def test_default_sweep_completes_in_budget(sweep):
    assert sweep.code == 0
    assert sweep.manifest["cells_total"] == 56
    assert sweep.manifest["cells_failed"] == 0
    assert sweep.wall < SWEEP_LIMIT_S
