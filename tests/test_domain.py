"""Data-type invariants, validation messages, budget ladders."""

from __future__ import annotations

import copy
import math
import re
from dataclasses import fields, replace
from functools import reduce
from operator import getitem

import numpy as np
import pytest

from rvpp import (
    STRATEGIES,
    ZERO_BUDGETS,
    BudgetSet,
    DrsUnit,
    FdUnit,
    NdrsUnit,
    PeriodGrid,
    Portfolio,
    ScenarioFormatError,
    load_scenario,
    save_scenario,
    strategy_budgets,
    validate_budgets,
    validate_portfolio,
    validate_scenario,
)
from rvpp.domain import SOLAR
from toys import battery, market, series, wind


def hydro_like(name: str = "hydro", **overrides) -> DrsUnit:
    params = dict(
        name=name,
        p_max=50.0,
        p_min=10.0,
        startup_cost=100.0,
        shutdown_cost=50.0,
        op_cost=12.5,
        min_up=1,
        min_down=0,
    )
    params.update(overrides)
    return DrsUnit(**params)


def test_consistent_portfolio_has_no_violations():
    T = 6
    portfolio = Portfolio(
        drs=(hydro_like(), hydro_like(name="biomass", p_max=10.0, p_min=2.0, min_up=3, min_down=3)),
        ndrs=(wind(T, upper=30.0, dev=5.0),),
        fd=(FdUnit("load", profiles=((4.0,) * T, (6.0,) * T), deviation=(0.5,) * T),),
    )
    assert validate_portfolio(portfolio, market(T)) == []


def test_validate_is_pure():
    T = 4
    portfolio = Portfolio(ndrs=(wind(T),))
    scenario = market(T)
    first = validate_portfolio(portfolio, scenario)
    assert validate_portfolio(portfolio, scenario) == first == []


def test_inverted_drs_bounds_reported():
    portfolio = Portfolio(drs=(hydro_like(p_min=60.0),))
    out = validate_portfolio(portfolio, market(4))
    assert len(out) == 1
    assert "p_min <= p_max" in out[0] and out[0].startswith("hydro")


def test_deviation_above_forecast_names_period():
    T = 8
    dev = [0.0] * T
    dev[5] = 31.0
    portfolio = Portfolio(ndrs=(wind(T, upper=30.0, dev=dev),))
    out = validate_portfolio(portfolio, market(T))
    assert len(out) == 1
    assert "period 6" in out[0]
    assert "forecast_deviation" in out[0]


def test_duplicate_and_malformed_names():
    T = 4
    portfolio = Portfolio(ndrs=(wind(T, name="a1"), wind(T, name="a1"), wind(T, name="2bad")))
    out = validate_portfolio(portfolio, market(T))
    assert any("duplicate" in v for v in out)
    assert any(v.startswith("'2bad'") for v in out)


def test_unknown_technology_rejected():
    T = 4
    u = NdrsUnit("tidal1", "tidal", 0.0, 0.0, series(5.0, T), series(0.0, T))
    out = validate_portfolio(Portfolio(ndrs=(u,)), market(T))
    assert len(out) == 1
    assert out[0] == "tidal1: technology: expected one of ['wind', 'solar'], got 'tidal'"


def test_series_length_mismatch_reported():
    portfolio = Portfolio(ndrs=(wind(T=4),))
    out = validate_portfolio(portfolio, market(6))
    assert "wf: forecast_upper: expected 6 entries, got 4; grid.period_count is 6" in out


def test_fd_profile_outside_bounds():
    T = 3
    u = FdUnit("load", profiles=((5.0, 5.0, 5.0),), deviation=(0.0,) * T, p_min=1.0, p_max=4.0)
    out = validate_portfolio(Portfolio(fd=(u,)), market(T))
    assert any("outside" in v and "profile 0" in v for v in out)


def test_fd_margin_range_checked():
    T = 3
    u = FdUnit("load", profiles=((5.0,) * T,), deviation=(0.0,) * T, flexibility_margin=1.0)
    out = validate_portfolio(Portfolio(fd=(u,)), market(T))
    assert any("flexibility_margin" in v for v in out)


def test_fd_bounds_derived_from_profiles():
    u = FdUnit("load", profiles=((10.0, 20.0),), deviation=(0.0, 0.0))
    assert u.p_min == pytest.approx(9.0)
    assert u.p_max == pytest.approx(22.0)
    explicit = FdUnit("load", profiles=((10.0, 20.0),), deviation=(0.0, 0.0), p_min=0.0, p_max=30.0)
    assert explicit.p_min == 0.0 and explicit.p_max == 30.0


def test_fd_without_profiles_flagged():
    u = FdUnit("load", profiles=(), deviation=(0.0, 0.0))
    out = validate_portfolio(Portfolio(fd=(u,)), market(2))
    assert "load: profiles: expected a non-empty list" in out
    assert any("not derivable" in v for v in out)


@pytest.mark.parametrize(
    "owner, keys, index, bad",
    [
        ("scenario", ("sr_up_price",), "[3]", lambda v: [*v[:3], -1.0, *v[4:]]),
        ("wind_farm", ("technology",), "", lambda v: "tidal"),
        ("wind_farm", ("forecast_upper", "winter"), "", lambda v: v[:23]),
        ("industrial_load", ("profiles",), "", lambda v: []),
        ("industrial_load", ("profiles",), "[0]", lambda v: [[], *v[1:]]),
    ],
    ids=["negative_price", "tidal", "short_forecast", "no_profiles", "empty_profile"],
)
def test_loader_and_library_state_a_rule_alike(tmp_path, bundle, owner, keys, index, bad):
    """A bad value breaks the same rule in the same words whether a file or
    the library gives it; only the prefix saying where differs: the YAML
    path, or the owner and field."""
    raw = copy.deepcopy(bundle.raw)
    if owner == "scenario":
        block, at = raw["prices"]["winter"], "prices.winter"
    else:
        (i,) = [i for i, u in enumerate(raw["units"]) if u["name"] == owner]
        block, at = raw["units"][i], f"units[{i}]"
    parent = reduce(getitem, keys[:-1], block)
    parent[keys[-1]] = bad(parent[keys[-1]])
    save_scenario(raw, tmp_path / "bad.yaml")
    with pytest.raises(ScenarioFormatError) as loaded:
        load_scenario(tmp_path / "bad.yaml")
    yaml_prefix = f"{'.'.join((at, *keys))}{index}: "
    assert str(loaded.value).startswith(yaml_prefix)

    portfolio, scenario = bundle.cell("winter", "favorable")
    if owner == "scenario":
        scenario = replace(scenario, **{keys[0]: bad(getattr(scenario, keys[0]))})
    else:
        portfolio = Portfolio(**{
            f.name: tuple(replace(u, **{keys[0]: bad(getattr(u, keys[0]))}) if u.name == owner else u
                          for u in getattr(portfolio, f.name))
            for f in fields(Portfolio)
        })
    library_prefix = f"{owner}: {keys[0]}{index}: "
    (library,) = [v for v in validate_portfolio(portfolio, scenario) if v.startswith(library_prefix)]
    assert str(loaded.value).removeprefix(yaml_prefix) == library.removeprefix(library_prefix)


@pytest.mark.parametrize(
    "owner, keys, bad, index, text",
    [
        ("hydro", ("p_max",), lambda v: "50", "", "expected a number, got '50'"),
        ("hydro", ("p_max",), lambda v: math.inf, "", "expected a number, got inf"),
        ("hydro", ("p_max",), lambda v: math.nan, "", "expected a number, got nan"),
        ("hydro", ("p_max",), lambda v: True, "", "expected a number, got True"),
        ("hydro", ("p_max",), lambda v: None, "", "expected a number, got None"),
        ("biomass", ("min_up",), lambda v: 2.5, "", "expected an integer, got 2.5"),
        ("grid", ("period_count",), lambda v: 24.5, "", "expected an integer, got 24.5"),
        (
            "wind_farm", ("forecast_upper", "winter"), lambda v: [*v[:3], "7", *v[4:]], "[3]",
            "expected a number, got '7'",
        ),
    ],
    ids=["string", "infinite", "nan", "boolean", "none", "fractional_int", "fractional_grid", "string_in_series"],
)
def test_library_names_a_value_of_the_wrong_kind_as_the_loader_does(tmp_path, bundle, owner, keys, bad, index, text):
    """validate_portfolio and validate_scenario name a value of the wrong
    kind, neither raising nor letting it through, in load_scenario's words."""
    raw = copy.deepcopy(bundle.raw)
    portfolio, scenario = bundle.cell("winter", "favorable")
    if owner == "grid":
        block, at = raw["grid"], "grid"
        scenario = replace(scenario, grid=replace(scenario.grid, **{keys[0]: bad(scenario.grid.period_count)}))
        assert f"grid: {keys[0]}{index}: {text}" in validate_scenario(scenario)
    else:
        (i,) = [i for i, u in enumerate(raw["units"]) if u["name"] == owner]
        block, at = raw["units"][i], f"units[{i}]"
        portfolio = Portfolio(**{
            f.name: tuple(replace(u, **{keys[0]: bad(getattr(u, keys[0]))}) if u.name == owner else u
                          for u in getattr(portfolio, f.name))
            for f in fields(Portfolio)
        })
    assert f"{owner}: {keys[0]}{index}: {text}" in validate_portfolio(portfolio, scenario)
    parent = reduce(getitem, keys[:-1], block)
    parent[keys[-1]] = bad(parent[keys[-1]])
    save_scenario(raw, tmp_path / "bad.yaml")
    with pytest.raises(ScenarioFormatError, match=f"^{re.escape('.'.join((at, *keys)) + index)}: {re.escape(text)}$"):
        load_scenario(tmp_path / "bad.yaml")


def test_sequences_and_numpy_numbers_build_equal_hashable_units():
    T = 3
    plain = NdrsUnit("wf", "wind", 0.0, 1.0, (5.0, 6.0, 7.0), (1.0, 1.0, 0.0))
    alike = [
        NdrsUnit("wf", "wind", 0, 1, [5, 6, 7], [1.0, 1.0, 0.0]),
        NdrsUnit("wf", "wind", np.float64(0), np.int64(1), np.array([5.0, 6.0, 7.0]), np.array([1, 1, 0])),
        NdrsUnit("wf", "wind", 0.0, 1.0, [np.float64(5), np.int64(6), 7], (x for x in (1.0, 1.0, 0.0))),
    ]
    for unit in alike:
        assert unit == plain and hash(unit) == hash(plain)
        assert type(unit.p_min) is float and all(type(x) is float for x in unit.forecast_upper)
    load = FdUnit("ld", profiles=np.array([[4.0] * T, [6.0] * T]), deviation=[0] * T)
    assert load == FdUnit("ld", profiles=((4.0,) * T, (6.0,) * T), deviation=(0.0,) * T)
    assert hash(load) and (load.p_min, load.p_max) == pytest.approx((3.6, 6.6))
    grid = PeriodGrid(np.int64(24), 1)
    assert grid == PeriodGrid(24.0, 1.0) and type(grid.period_count) is int and hash(grid)


# --- budgets ---------------------------------------------------------------


def ladder_portfolio(T: int = 12) -> Portfolio:
    pv = NdrsUnit("pv", SOLAR, 0.0, 0.0, series(20.0, T), series(0.0, T))
    load = FdUnit("load", profiles=((4.0,) * T,), deviation=(0.5,) * T)
    return Portfolio(ndrs=(wind(T, name="wf"), pv), fd=(load,))


def test_strategy_budget_rows():
    portfolio = ladder_portfolio()
    rows = {
        "deterministic": (0, 0),
        "optimistic": (3, 2),
        "balanced": (6, 4),
        "pessimistic": (9, 6),
    }
    for strategy, (full, reduced) in rows.items():
        b = strategy_budgets(strategy, portfolio)
        assert (b.gamma_dam, b.gamma_sr_up, b.gamma_sr_down) == (full, full, full)
        assert b.unit_budget("wf") == full
        assert b.unit_budget("pv") == reduced
        assert b.unit_budget("load") == reduced
    assert tuple(rows) == STRATEGIES
    assert strategy_budgets("deterministic", portfolio) == ZERO_BUDGETS


def test_strategy_budgets_unknown_strategy():
    with pytest.raises(ValueError, match="unknown strategy"):
        strategy_budgets("reckless", ladder_portfolio())


def test_strategy_budgets_validate_on_random_portfolios():
    rng = np.random.default_rng(7)
    for _ in range(20):
        T = int(rng.integers(9, 30))
        n_wind = int(rng.integers(0, 3))
        n_pv = int(rng.integers(0, 3))
        ndrs = tuple(wind(T, name=f"w{i}") for i in range(n_wind)) + tuple(
            NdrsUnit(f"s{i}", SOLAR, 0.0, 0.0, series(9.0, T), series(0.0, T)) for i in range(n_pv)
        )
        portfolio = Portfolio(drs=(hydro_like(),), ndrs=ndrs)
        for strategy in ("optimistic", "balanced", "pessimistic"):
            b = strategy_budgets(strategy, portfolio)
            assert validate_budgets(b, PeriodGrid(T), portfolio) == []
            # Wind always carries at least the solar budget.
            for i in range(min(n_wind, 1)):
                for j in range(min(n_pv, 1)):
                    assert b.unit_budget(f"w{i}") >= b.unit_budget(f"s{j}")


def test_budgetset_accepts_dict_and_defaults_to_zero():
    b = BudgetSet(1, 2, 3, {"b": 4, "a": 5})
    assert b.gamma_per_unit == (("a", 5), ("b", 4))
    assert b.unit_budget("a") == 5
    assert b.unit_budget("missing") == 0
    # The tuple form is sorted by unit name too, so one model has one key.
    assert BudgetSet(1, 2, 3, (("b", 4), ("a", 5))) == b
    # So is the list of lists a JSON or YAML reader gives, and it hashes.
    listed = BudgetSet(1, 2, 3, [["b", 4], ["a", 5]])
    assert listed == b and hash(listed) == hash(b)


def test_validate_budgets_bounds_and_names():
    grid = PeriodGrid(6)
    portfolio = ladder_portfolio(6)
    assert validate_budgets(BudgetSet(6, 0, 0), grid) == []
    out = validate_budgets(BudgetSet(7, -1, 0, {"ghost": 2}), grid, portfolio)
    assert any("gamma_dam=7" in v for v in out)
    assert any("gamma_sr_up=-1" in v for v in out)
    assert any("unknown unit 'ghost'" in v for v in out)
    out = validate_budgets(BudgetSet(gamma_dam=2.0), grid)
    assert any("gamma_dam" in v for v in out)
    # A unit given twice or more is named once, whatever order its budgets came in.
    twice = BudgetSet(gamma_per_unit=(("wf", 5), ("b", 1), ("wf", 1), ("b", 2), ("wf", 2)))
    named = ["budgets: gamma names unit 'b' 2 times", "budgets: gamma names unit 'wf' 3 times"]
    assert validate_budgets(twice, grid) == named
    # A dispatchable unit, like a storage unit, has no quantity stream.
    drs = Portfolio(drs=(hydro_like(),), es=(battery(),))
    refused = validate_budgets(BudgetSet(gamma_per_unit={"hydro": 3, "mod": 1}), grid, drs)
    assert refused == [
        "budgets: gamma names dispatchable unit 'hydro', which takes price budgets only",
        "budgets: gamma names storage unit 'mod', which takes price budgets only",
    ]


def test_validate_budgets_rejects_booleans():
    """bool is an int in Python, but True is no budget: without this check
    the builder would run a one-period budget."""
    grid = PeriodGrid(6)
    portfolio = ladder_portfolio(6)
    out = validate_budgets(BudgetSet(gamma_dam=True, gamma_per_unit={"wf": False}), grid, portfolio)
    assert out == ["budgets: gamma_dam=True is outside [0, 6]", "budgets: gamma[wf]=False is outside [0, 6]"]
    for label in ("gamma_sr_up", "gamma_sr_down"):
        assert validate_budgets(BudgetSet(**{label: False}), grid) == [f"budgets: {label}=False is outside [0, 6]"]
    assert validate_budgets(BudgetSet(gamma_dam=1, gamma_per_unit={"wf": 0}), grid, portfolio) == []
