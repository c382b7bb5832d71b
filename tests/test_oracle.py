"""Solver-free worst-case evaluation, feasibility audits, schedule replay."""

from __future__ import annotations

import copy
import math
from itertools import combinations

import numpy as np
import pytest

from rvpp import (
    BudgetSet,
    CspUnit,
    DrsUnit,
    FdUnit,
    Portfolio,
    ThermalStoreParams,
    audit_robust_feasibility,
    nominal_profit,
    replay_schedule,
    strategy_budgets,
    worst_case_profit,
)
from rvpp.milp import FEASIBILITY_TOL
from rvpp.scheduler import RvppSchedule, dominant_subset
from rvpp import ScipyHighsBackend, build_robust_rvpp, extract_rvpp_schedule, oracle, solve
from test_scheduler import mixed_toy
from toys import battery, market, solve_rvpp, wind, wind_only


# A portfolio without units: its schedules earn from market positions only.
NO_UNITS = Portfolio()


def fake_schedule(p_da, r_up=None, r_dn=None) -> RvppSchedule:
    """A bare schedule carrying only market positions (enough for pricing)
    and zero price penalties."""
    p_da = np.asarray(p_da, dtype=float)
    zeros = np.zeros(len(p_da))
    r_up = zeros.copy() if r_up is None else np.asarray(r_up, dtype=float)
    r_dn = zeros.copy() if r_dn is None else np.asarray(r_dn, dtype=float)
    penalty = {"dam": 0.0, "sr_up": 0.0, "sr_dn": 0.0}
    return RvppSchedule(p_da, r_up, r_dn, {}, {}, {}, {}, {}, {}, {}, {}, {}, {}, {}, {}, {}, 0.0, penalty)


def test_worst_case_picks_the_largest_loss():
    # Losses 10/20/30; one degradable period means period 3 goes first.
    scenario = market(3, dam=50.0, dam_down=10.0)
    sched = fake_schedule([1.0, 2.0, 3.0])
    wc, worst = worst_case_profit(sched, NO_UNITS, scenario, BudgetSet(gamma_dam=1))
    assert worst["dam"] == ((2,), pytest.approx(30.0))
    assert wc == pytest.approx(300.0 - 30.0)


def test_ties_break_toward_earlier_periods():
    scenario = market(3, dam=50.0, dam_down=10.0)
    sched = fake_schedule([2.0, 2.0, 2.0])
    _, worst = worst_case_profit(sched, NO_UNITS, scenario, BudgetSet(gamma_dam=2))
    assert worst["dam"][0] == (0, 1)


def test_zero_budgets_return_the_nominal_profit():
    scenario = market(3, dam=50.0, dam_down=10.0)
    sched = fake_schedule([2.0, 2.0, 2.0])
    wc, worst = worst_case_profit(sched, NO_UNITS, scenario, BudgetSet())
    assert wc == nominal_profit(sched, NO_UNITS, scenario) == 300.0
    assert worst == {"dam": ((), 0.0), "sr_up": ((), 0.0), "sr_dn": ((), 0.0)}


def test_buying_periods_lose_on_the_upward_deviation():
    scenario = market(2, dam=30.0, dam_down=5.0, dam_up=8.0)
    sched = fake_schedule([4.0, -4.0])
    wc, worst = worst_case_profit(sched, NO_UNITS, scenario, BudgetSet(gamma_dam=2))
    # Selling 4 loses 4*5, buying 4 loses 4*8; at nominal prices the two trades cancel.
    assert worst["dam"][1] == pytest.approx(52.0)
    assert wc == pytest.approx(-52.0)


def test_closed_form_matches_brute_force_over_subsets():
    rng = np.random.default_rng(99)
    T = 6
    scenario = market(
        T,
        dam=30.0,
        dam_down=rng.uniform(1, 8, T).round(2),
        dam_up=rng.uniform(1, 8, T).round(2),
    )
    p_da = rng.uniform(-5, 5, T).round(2)
    sched = fake_schedule(p_da)
    wc, _ = worst_case_profit(sched, NO_UNITS, scenario, BudgetSet(gamma_dam=2))
    dn = np.asarray(scenario.dam_price_down_dev)
    up = np.asarray(scenario.dam_price_up_dev)
    losses = dn * np.maximum(p_da, 0.0) + up * np.maximum(-p_da, 0.0)
    worst = max(losses[list(S)].sum() for S in combinations(range(T), 2))
    assert wc == pytest.approx(30.0 * p_da.sum() - worst, abs=1e-12)


def test_dominant_subset_matches_enumeration_everywhere():
    rng = np.random.default_rng(5)
    for _ in range(25):
        T = int(rng.integers(1, 9))
        losses = rng.uniform(0.0, 10.0, size=T).round(3)
        for gamma in range(T + 1):
            pick = dominant_subset(losses, gamma)
            assert len(pick) == gamma
            best = max(
                (losses[list(S)].sum() for S in combinations(range(T), gamma)), default=0.0
            )
            assert losses[list(pick)].sum() == pytest.approx(best, abs=1e-12)


def test_model_objective_is_the_worst_case_profit():
    """Dualization is tight for the optimum and for forced feasible points."""
    T = 8
    prices = [12, 25, 8, 30, 22, 14, 28, 9]
    portfolio, scenario = wind_only(T=T, upper=20.0, dam=prices, dam_down=4.0)
    budgets = BudgetSet(gamma_dam=3)

    m = build_robust_rvpp(portfolio, scenario, budgets)
    free = extract_rvpp_schedule(m, solve(m, ScipyHighsBackend()))
    wc, _ = worst_case_profit(free, portfolio, scenario, budgets)
    assert free.objective_value == pytest.approx(wc, abs=1e-7)

    m2 = build_robust_rvpp(portfolio, scenario, budgets)
    idle = m2.variable("pda_t01")
    m2.add_rows(1, [("force_idle", "<=", 0.0, [(idle.index, 1.0)])])
    forced = extract_rvpp_schedule(m2, solve(m2, ScipyHighsBackend()))
    wc_forced, _ = worst_case_profit(forced, portfolio, scenario, budgets)
    assert forced.objective_value == pytest.approx(wc_forced, abs=1e-7)
    assert forced.objective_value < free.objective_value


def test_audit_passes_when_deviations_fit_inside_the_budget():
    # Deviations live on exactly two periods and the budget covers two, so
    # the dominant realization is every deviation there is: no subset of
    # the 15 breaks the schedule.
    T = 6
    dev = [0.0, 5.0, 0.0, 0.0, 5.0, 0.0]
    portfolio, scenario = wind_only(T=T, upper=20.0, dev=dev, dam=30.0)
    budgets = BudgetSet(gamma_per_unit={"wf": 2})
    sched = solve_rvpp(portfolio, scenario, budgets)
    assert math.comb(T, 2) == 15
    assert audit_robust_feasibility(sched, portfolio, scenario, budgets) == []
    np.testing.assert_allclose(sched.dispatch["wf"], [20, 15, 20, 20, 15, 20], atol=1e-8)


def test_audit_flags_a_deterministic_schedule_under_budgets():
    portfolio, scenario = wind_only(T=24, upper=10.0, dev=8.0, dam=20.0)
    det = solve_rvpp(portfolio, scenario)
    pessimistic = strategy_budgets("pessimistic", portfolio)
    violations = audit_robust_feasibility(det, portfolio, scenario, pessimistic)
    assert len(violations) >= 1
    assert all(v.startswith("wf:") for v in violations)
    assert any("period 1" in v for v in violations)


def test_audit_replays_the_dominant_realization():
    # Flat deviations: every period is breakable, and the dominant
    # realization degrades exactly the Gamma earliest ones.
    portfolio, scenario = wind_only(T=6, upper=10.0, dev=4.0, dam=20.0)
    det = solve_rvpp(portfolio, scenario)
    for gamma in (1, 2, 3, 6):
        budgets = BudgetSet(gamma_per_unit={"wf": gamma})
        violations = audit_robust_feasibility(det, portfolio, scenario, budgets)
        assert len(violations) == gamma
        for t, v in enumerate(violations):
            assert v.endswith(f"at period {t + 1} (dominant realization)")


def test_audit_full_budget_schedule_survives_the_single_realization():
    portfolio, scenario = wind_only(T=5, upper=10.0, dev=2.0, dam=20.0)
    budgets = BudgetSet(gamma_per_unit={"wf": 5})
    sched = solve_rvpp(portfolio, scenario, budgets)
    assert sched.dispatch["wf"][0] == pytest.approx(8.0, abs=1e-8)
    assert audit_robust_feasibility(sched, portfolio, scenario, budgets) == []


def test_replay_is_clean_then_catches_injected_faults():
    portfolio, scenario = mixed_toy()
    sched = solve_rvpp(portfolio, scenario)
    clean = replay_schedule(sched, portfolio, scenario)
    assert max(clean.values()) <= 1e-9

    sched.dispatch["h1"] = sched.dispatch["h1"] + 1.0
    broken = replay_schedule(sched, portfolio, scenario)
    assert broken["balance_id"] == pytest.approx(1.0, abs=1e-9)
    violations = audit_robust_feasibility(sched, portfolio, scenario, BudgetSet())
    assert any(v.startswith("energy balance off by 1.000e+00 at period ") for v in violations)

    fresh = solve_rvpp(portfolio, scenario)
    fresh.dispatch["ld"] = np.maximum(fresh.dispatch["ld"] - 1.0, 0.0)
    broken = replay_schedule(fresh, portfolio, scenario)
    assert broken["fd_envelope"] >= 1.0 - 1e-9


def every_class_toy():
    """One unit of each class: hydro with two-period min windows and a daily
    energy limit, wind, a CSP block, flexible demand and a battery."""
    T = 8
    hydro = DrsUnit("h1", 8.0, 2.0, 10.0, 5.0, 3.0, min_up=2, min_down=2, daily_energy_limit=30.0)
    csp = CspUnit(
        "cs", 10.0, 2.0, 0.4, 0.1, 1.0,
        sf_upper=(0.0, 10.0, 20.0, 25.0, 25.0, 15.0, 5.0, 0.0),
        sf_deviation=(0.0,) * T,
        store=ThermalStoreParams(0.0, 40.0, 15.0, 15.0, 0.95, 0.95),
    )
    load = FdUnit("ld", profiles=((3.0,) * T, (2.0,) * T), deviation=(0.3,) * T, p_min=1.0, p_max=6.0)
    portfolio = Portfolio(
        drs=(hydro,), ndrs=(wind(T, upper=6.0, dev=1.0),), csp=(csp,), fd=(load,), es=(battery("bt"),)
    )
    scenario = market(T, dam=[10, 12, 30, 14, 20, 45, 18, 25], sr_up=3.0, sr_dn=2.0)
    return portfolio, scenario


def shifted(field: str, name: str | None = None, by: float = 1.0):
    """A tamper adding by to a schedule field: a market array, or one unit's entry."""

    def tamper(s: RvppSchedule) -> None:
        if name is None:
            setattr(s, field, getattr(s, field) + by)
        else:
            getattr(s, field)[name] = getattr(s, field)[name] + by

    return tamper


def committed(pattern):
    """A tamper giving hydro the on pattern, with the starts and stops it implies."""

    def tamper(s: RvppSchedule) -> None:
        on = np.array(pattern)
        prev = np.concatenate(([0], on[:-1]))
        s.on["h1"], s.start["h1"], s.stop["h1"] = on, on & (1 - prev), prev & (1 - on)

    return tamper


def both(*tampers):
    """The tampers, one after the other."""

    def tamper(s: RvppSchedule) -> None:
        for t in tampers:
            t(s)

    return tamper


def set_entry(field: str, name: str, value: float):
    """A tamper setting every entry of one unit's schedule field to value."""

    def tamper(s: RvppSchedule) -> None:
        getattr(s, field)[name] = np.full_like(getattr(s, field)[name], value)

    return tamper


# Per replay family, a tamper that breaks that family whatever the solve returned.
TAMPERS = {
    "balance_id": shifted("p_da"),
    "balance_up": shifted("r_up"),
    "balance_dn": shifted("r_dn"),
    "nonnegativity": set_entry("reserve_dn", "wf", -1.0),
    "commitment_logic": set_entry("stop", "h1", 1),  # no stop fits period 1, as every unit starts off
    "min_up": committed([1, 0, 0, 0, 0, 0, 0, 0]),  # on for one period
    "min_down": committed([1, 0, 1, 1, 1, 1, 1, 1]),  # off for one period
    "drs_envelope": shifted("dispatch", "h1", 9.0),
    "drs_daily_energy": shifted("reserve_up", "h1", 10.0),
    "ndrs_envelope": shifted("dispatch", "wf", 7.0),
    "csp_thermal_balance": shifted("sf_power", "cs"),
    "csp_envelope": shifted("reserve_up", "cs", 11.0),
    "ts_recursion": shifted("ts_charge", "cs"),
    "ts_bounds": shifted("ts_soc", "cs", 41.0),
    "fd_envelope": shifted("reserve_dn", "ld", 7.0),
    "mode_exclusivity": both(set_entry("ts_charge", "bt", 0.2), set_entry("ts_discharge", "bt", 0.2)),
    "charge_envelope": both(set_entry("mode", "bt", 1), shifted("ts_charge", "bt", 1.5)),
    "discharge_envelope": both(set_entry("mode", "bt", 0), shifted("ts_discharge", "bt", 1.5)),
    "soc_recursion": shifted("ts_discharge", "bt", 0.1),
    "soc_bounds": shifted("ts_soc", "bt", 1.0),
    "reserve_energy_up": shifted("reserve_up", "bt", 1.0),
    "reserve_energy_dn": shifted("reserve_dn", "bt", 1.0),
    "soc_margins": set_entry("sigma", "bt", 0.9),  # both margins of 0.9 span cannot fit in one span
    "sigma_range": set_entry("sigma", "bt", 1.5),
}


def test_replay_reports_every_family_and_each_tamper_breaks_its_own():
    portfolio, scenario = every_class_toy()
    sched = solve_rvpp(portfolio, scenario)
    clean = replay_schedule(sched, portfolio, scenario)
    assert list(clean) == list(oracle._FAMILIES) == list(TAMPERS)
    assert max(clean.values()) <= FEASIBILITY_TOL
    for family, tamper in TAMPERS.items():
        broken = copy.deepcopy(sched)
        tamper(broken)
        residual = replay_schedule(broken, portfolio, scenario)[family]
        assert residual > FEASIBILITY_TOL, family
