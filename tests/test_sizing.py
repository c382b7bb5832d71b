"""Aggregation gap and minimal storage-fleet sizing."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

import rvpp.sizing as sizing
from rvpp import (
    BudgetSet,
    DrsUnit,
    FdUnit,
    Portfolio,
    ScheduleError,
    SizingError,
    ZERO_BUDGETS,
    aggregation_gap,
    price_only_budgets,
    size_es_to_match,
    strategy_budgets,
)
from rvpp.domain import validate_portfolio
from toys import (
    battery,
    lifting_to_the_nominal_ceiling,
    market,
    nan_in_hydro_dispatch,
    solve_es,
    unscale_dam_penalty,
    wind,
)


def spiky_market(T: int = 6):
    return market(T, dam=[10, 30, 20, 40, 15, 25], dam_down=4.0, sr_up=2.0, sr_up_dev=0.5)


def test_singleton_portfolio_has_zero_gap():
    portfolio = Portfolio(ndrs=(wind(6, upper=12.0, dev=3.0),))
    budgets = BudgetSet(gamma_dam=2, gamma_sr_up=1, gamma_per_unit={"wf": 2})
    report = aggregation_gap(portfolio, spiky_market(), budgets)
    assert report.gap == pytest.approx(0.0, abs=1e-8)
    rvpp_profit, sum_individual, gap = report
    assert (rvpp_profit, sum_individual, gap) == (report.rvpp_profit, report.sum_individual, report.gap)
    assert dict(report.per_unit).keys() == {"wf"}


def test_uncoupled_generators_add_up_exactly():
    portfolio = Portfolio(ndrs=(wind(6, upper=12.0, name="w1"), wind(6, upper=7.0, name="w2")))
    report = aggregation_gap(portfolio, spiky_market(), ZERO_BUDGETS)
    assert report.gap == pytest.approx(0.0, abs=1e-8)


def test_flexible_demand_alone_pays_for_energy():
    load = FdUnit("ld", profiles=((3.0,) * 6,), deviation=(0.2,) * 6)
    report = aggregation_gap(Portfolio(fd=(load,)), spiky_market(), ZERO_BUDGETS)
    assert dict(report.per_unit)["ld"] < 0.0


def test_individual_profit_arithmetic():
    # 24 periods x 40 MW x 10 EUR/MWh.
    report = aggregation_gap(Portfolio(ndrs=(wind(24, upper=40.0),)), market(24), ZERO_BUDGETS)
    assert dict(report.per_unit)["wf"] == pytest.approx(9600.0)


def test_gap_is_never_negative_randomized():
    rng = np.random.default_rng(2207)
    T = 6
    for trial in range(5):
        prices = rng.uniform(5.0, 45.0, size=T).round(2)
        hydro = DrsUnit("h1", 8.0, 2.0, 10.0, 5.0, 3.0, min_up=2)
        load = FdUnit("ld", profiles=((3.0,) * T, (2.5,) * T), deviation=(0.3,) * T)
        portfolio = Portfolio(drs=(hydro,), ndrs=(wind(T, upper=9.0, dev=2.0),), fd=(load,))
        scenario = market(
            T, dam=prices, dam_down=3.0, dam_up=2.0, sr_up=2.0, sr_up_dev=0.6, sr_dn=1.5, sr_dn_dev=0.5
        )
        budgets = BudgetSet(
            gamma_dam=int(rng.integers(0, T + 1)),
            gamma_sr_up=int(rng.integers(0, T + 1)),
            gamma_sr_down=int(rng.integers(0, T + 1)),
            gamma_per_unit={"wf": int(rng.integers(0, T + 1)), "ld": int(rng.integers(0, 3))},
        )
        report = aggregation_gap(portfolio, scenario, budgets)
        assert report.gap >= -1e-6, f"trial {trial}: {tuple(report)}"


def double_cycle_market():
    return market(4, dam=[0.0, 70.0, 0.0, 70.0])


def test_sizing_finds_the_two_module_fleet():
    # One module earns at most 2 * 31.5875 = 63.175 over the two cycles, so
    # a 70 EUR target needs exactly two modules.
    result = size_es_to_match(70.0, battery(), double_cycle_market(), ZERO_BUDGETS)
    assert result.module_count == 2
    assert result.fleet_e_max == pytest.approx(2.0)
    assert result.schedule.objective_value == pytest.approx(2 * 63.175, abs=1e-6)
    p1 = solve_es(battery(), double_cycle_market(), ZERO_BUDGETS).objective_value
    assert (result.module_count - 1) * p1 < 70.0 <= result.module_count * p1


def test_zero_gap_needs_a_single_module():
    result = size_es_to_match(0.0, battery(), double_cycle_market(), ZERO_BUDGETS)
    assert result.module_count == 1
    assert result.schedule.objective_value == pytest.approx(63.175, abs=1e-6)


def min_power_module(op_cost: float = 0.0):
    return replace(battery(op_cost=op_cost), charge_p_min=0.1, discharge_p_min=0.15)


def count_fleet_solves(monkeypatch) -> list[str]:
    calls: list[str] = []
    real = sizing.solve

    def counting(model, backend):
        calls.append(model.name)
        return real(model, backend)

    monkeypatch.setattr(sizing, "solve", counting)
    return calls


def linear_walk(target, module, scenario, budgets):
    """Reference sizing: the first count whose N-fleet solve reaches the target."""
    for count in range(1, 101):
        profit = solve_es(module.scaled(count), scenario, budgets).objective_value
        if profit >= target:
            return count, profit
    raise AssertionError(f"no fleet of up to 100 modules covers {target}")


def test_closed_form_matches_a_linear_walk(monkeypatch):
    s = double_cycle_market()
    cases = [(battery(), s, ZERO_BUDGETS, t) for t in (10.0, 70.0, 200.0, 63.175 * 5 - 1e-6)]
    price_budgets = BudgetSet(gamma_dam=1, gamma_sr_up=1)
    cases += [(min_power_module(), spiky_market(), price_budgets, t) for t in (10.0, 30.0, 100.0)]
    calls = count_fleet_solves(monkeypatch)
    for module, scenario, budgets, target in cases:
        count, profit = linear_walk(target, module, scenario, budgets)
        calls.clear()
        result = size_es_to_match(target, module, scenario, budgets)
        assert result.module_count == count
        assert result.schedule.objective_value == pytest.approx(profit, rel=1e-9)
        assert len(calls) == 1
        one = solve_es(module, scenario, budgets)
        assert (count - 1) * one.objective_value < target <= count * one.objective_value
        # The returned schedule is the one-module optimum scaled to the count.
        for field in ("p_da", "r_up", "r_dn"):
            np.testing.assert_array_equal(getattr(result.schedule, field), count * getattr(one, field))
        np.testing.assert_array_equal(result.schedule.ts_soc["mod"], count * one.ts_soc["mod"])


def around_multiples(p1, k):
    """Targets k * p1 and its two float neighbours, with the counts they need."""
    target = k * p1
    above = float(np.nextafter(target, np.inf))
    below = float(np.nextafter(target, -np.inf))
    return ((target, k), (above, k + 1), (below, k))


def test_count_follows_exact_arithmetic_at_multiples_of_p1(monkeypatch):
    s = double_cycle_market()
    p1 = size_es_to_match(0.0, battery(), s, ZERO_BUDGETS).schedule.objective_value
    # Next to a multiple of p1 the rounded quotient gap / p1 can put ceil()
    # one module off (at this p1, k = 11 and k = 257 among others).
    for k in range(1, 1001):
        for gap, expected in around_multiples(p1, k):
            assert sizing._module_count(gap, p1, battery()) == expected, (k, gap)
    calls = count_fleet_solves(monkeypatch)
    for k in (2, 11, 257):
        for gap, expected in around_multiples(p1, k):
            calls.clear()
            result = size_es_to_match(gap, battery(), s, ZERO_BUDGETS)
            assert result.module_count == expected, (k, gap)
            assert (expected - 1) * p1 < gap <= expected * p1
            assert len(calls) == 1
    # Under a solver-tolerance profit floor 5 modules met 5 * p1 + 1e-9.
    assert size_es_to_match(5 * p1 + 1e-9, battery(), s, ZERO_BUDGETS).module_count == 6


def test_non_finite_gap_is_named():
    for gap in (float("nan"), float("inf"), float("-inf")):
        with pytest.raises(SizingError, match=f"gap {gap} is not finite"):
            sizing._module_count(gap, 3.0, battery())


def test_losing_module_fails_after_one_solve(monkeypatch):
    calls = count_fleet_solves(monkeypatch)
    with pytest.raises(SizingError, match="per-module value -"):
        size_es_to_match(5.0, min_power_module(op_cost=30.0), market(4, dam=10.0), ZERO_BUDGETS)
    assert len(calls) == 1


def test_unschedulable_module_names_its_rows():
    # Valid ratings, but 5 MW minimum flows cannot fit a 1 MWh store in either mode.
    module = replace(battery(charge=10.0, discharge=10.0, e_min=0.0), charge_p_min=5.0, discharge_p_min=5.0)
    assert validate_portfolio(Portfolio(es=(module,)), market(2)) == []
    # Equal-cost relaxations may tie, so only the row family is pinned.
    named = r"solve ended infeasible; relaxing these rows restores feasibility: es_\w+ \(slack "
    with pytest.raises(ScheduleError, match=named):
        size_es_to_match(1.0, module, market(2), BudgetSet(gamma_dam=1))


def test_module_count_grows_with_price_budget():
    s = market(4, dam=[0.0, 70.0, 0.0, 70.0], dam_down=[0.0, 20.0, 0.0, 20.0])
    counts = []
    for gamma in (0, 1, 2):
        res = size_es_to_match(60.0, battery(), s, BudgetSet(gamma_dam=gamma))
        counts.append(res.module_count)
    assert counts == sorted(counts)
    assert counts[-1] > counts[0]


def test_sized_fleet_is_audited_through_its_price_duals(monkeypatch):
    # The library twin of the CLI's case-3/4 audit: two modules, and a
    # one-module energy-price penalty that is not 0.
    unscale_dam_penalty(monkeypatch)
    s = market(4, dam=[0.0, 70.0, 0.0, 70.0], dam_down=[0.0, 20.0, 0.0, 20.0])
    with pytest.raises(ScheduleError, match="sized fleet objective .* price duals"):
        size_es_to_match(60.0, battery(), s, BudgetSet(gamma_dam=1))


def test_sizing_cap_exhausted_raises(monkeypatch):
    monkeypatch.setattr(sizing, "MAX_MODULES", 3)
    with pytest.raises(SizingError, match="up to 3 modules"):
        size_es_to_match(1.0e9, battery(), double_cycle_market(), ZERO_BUDGETS)


def test_price_only_budgets_drop_unit_entries():
    b = BudgetSet(2, 1, 1, {"wf": 3})
    stripped = price_only_budgets(b)
    assert stripped.gamma_per_unit == ()
    assert (stripped.gamma_dam, stripped.gamma_sr_up, stripped.gamma_sr_down) == (2, 1, 1)


def test_gap_accepts_budgets_naming_only_portfolio_units():
    # Budgets may carry entries for units that a caller already removed from
    # the portfolio; the gap computation filters instead of failing.
    portfolio = Portfolio(ndrs=(wind(6, upper=12.0),))
    budgets = BudgetSet(gamma_dam=1, gamma_per_unit={"wf": 1, "ld": 2})
    report = aggregation_gap(portfolio, spiky_market(), budgets)
    assert report.gap == pytest.approx(0.0, abs=1e-8)


def test_a_nan_in_the_schedule_fails_the_replay_gate(bundle, monkeypatch):
    """The replay keeps a NaN residual, and the gate names its family rather
    than let it compare false with the tolerance."""
    portfolio, scenario = bundle.cell("winter", "favorable")
    hydro = Portfolio(drs=portfolio.drs[:1])
    monkeypatch.setattr(sizing, "extract_rvpp_schedule", nan_in_hydro_dispatch(sizing.extract_rvpp_schedule))
    with pytest.raises(ScheduleError, match=r"^replay residual nan in \w+ above 1e-06$"):
        sizing.audited_schedule(hydro, scenario, ZERO_BUDGETS)


def test_a_schedule_outside_its_dominant_realization_fails_the_robust_audit(bundle, monkeypatch):
    portfolio, scenario = bundle.cell("winter", "favorable")
    wind_farm = next(u for u in portfolio.ndrs if u.name == "wind_farm")
    alone = Portfolio(ndrs=(wind_farm,))
    budgets = strategy_budgets("optimistic", alone)
    lifting = lifting_to_the_nominal_ceiling(sizing.extract_rvpp_schedule, wind_farm, budgets.unit_budget("wind_farm"))
    monkeypatch.setattr(sizing, "extract_rvpp_schedule", lifting)
    with pytest.raises(ScheduleError) as err:
        sizing.audited_schedule(alone, scenario, budgets)
    message = f"{type(err.value).__name__}: {err.value}"
    assert message.startswith(
        "ScheduleError: robust audit failed: wind_farm: dispatch plus upward reserve exceeds the degraded limit"
    ), message
