"""Solver-free worst-case evaluation, feasibility audits, schedule replay."""

from __future__ import annotations

import math
from itertools import combinations

import numpy as np
import pytest

from rvpp import (
    BudgetSet,
    Portfolio,
    audit_robust_feasibility,
    nominal_profit,
    replay_schedule,
    strategy_budgets,
    worst_case_profit,
)
from rvpp.milp import LinearExpression
from rvpp.scheduler import RvppSchedule, dominant_subset
from rvpp import ScipyHighsBackend, build_robust_rvpp, extract_rvpp_schedule, solve
from test_scheduler import mixed_toy
from toys import market, solve_rvpp, wind_only


# A portfolio without units: its schedules earn from market positions only.
NO_UNITS = Portfolio()


def fake_schedule(p_da, r_up=None, r_dn=None) -> RvppSchedule:
    """A bare schedule carrying only market positions (enough for pricing)."""
    p_da = np.asarray(p_da, dtype=float)
    zeros = np.zeros(len(p_da))
    r_up = zeros.copy() if r_up is None else np.asarray(r_up, dtype=float)
    r_dn = zeros.copy() if r_dn is None else np.asarray(r_dn, dtype=float)
    return RvppSchedule(p_da, r_up, r_dn, {}, {}, {}, {}, {}, {}, {}, {}, {}, {}, {}, {}, {}, 0.0)


def test_worst_case_picks_the_largest_loss():
    # Losses 10/20/30; one degradable period means period 3 goes first.
    scenario = market(3, dam=50.0, dam_down=10.0)
    sched = fake_schedule([1.0, 2.0, 3.0])
    wc, realization = worst_case_profit(sched, NO_UNITS, scenario, BudgetSet(gamma_dam=1))
    assert realization.dam_subset == (2,)
    assert realization.dam_loss == pytest.approx(30.0)
    assert wc == pytest.approx(300.0 - 30.0)


def test_ties_break_toward_earlier_periods():
    scenario = market(3, dam=50.0, dam_down=10.0)
    sched = fake_schedule([2.0, 2.0, 2.0])
    _, realization = worst_case_profit(sched, NO_UNITS, scenario, BudgetSet(gamma_dam=2))
    assert realization.dam_subset == (0, 1)


def test_zero_budgets_return_the_nominal_profit():
    scenario = market(3, dam=50.0, dam_down=10.0)
    sched = fake_schedule([2.0, 2.0, 2.0])
    wc, realization = worst_case_profit(sched, NO_UNITS, scenario, BudgetSet())
    assert wc == nominal_profit(sched, NO_UNITS, scenario) == 300.0
    assert realization.dam_subset == ()
    assert realization.price_loss_total() == 0.0


def test_buying_periods_lose_on_the_upward_deviation():
    scenario = market(2, dam=30.0, dam_down=5.0, dam_up=8.0)
    sched = fake_schedule([4.0, -4.0])
    wc, realization = worst_case_profit(sched, NO_UNITS, scenario, BudgetSet(gamma_dam=2))
    # Selling 4 loses 4*5, buying 4 loses 4*8; at nominal prices the two trades cancel.
    assert realization.dam_loss == pytest.approx(52.0)
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
    m2.add_constraint("force_idle", LinearExpression(((idle.index, 1.0),)), "<=", 0.0)
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

