"""The arrays HiGHS receives for shipped models, pinned by their digests.

Together the models reach every builder branch: committed units with and
without a daily energy limit and minimum up/down windows, quantity streams
with and without a budget, the energy-price loss max(down*dt*p, -up*dt*p)
written as two dual rows per period, the three price duals, and a storage
unit's rows.  A refactor of the builders must leave every digest as it is.  A
deliberate change of formulation or of HiGHS options changes them; update
the literals in the same change and say why.
"""

from __future__ import annotations

import csv
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from rvpp import (
    Portfolio,
    ScipyHighsBackend,
    build_deterministic_rvpp,
    build_robust_rvpp,
    solve,
    strategy_budgets,
)
from rvpp import backends
from rvpp.sizing import price_only_budgets, stand_alone

DIGESTS = {
    "winter_deterministic": "5b7e901222a50de0329bf0200525ce8e",
    "spring_optimistic": "d2e5077ae57ed8c4d0c3c9f68cdf4d83",
    "hydro": "543129590dfc89f089993fc9e5b52bb7",
    "biomass": "323c9007367c41d7b1d71383cdbd03a2",
    "wind_farm": "eb78af5aabd20df34683a3f9a057de36",
    "pv_plant": "1a341fd0796996ca7e5c403061e785de",
    "csp_plant": "085c5fbe79ef8617c850ee2c5393c4b5",
    "industrial_load": "d866844e31f0e2113215d2d8d4616df7",
    "storage_module": "dc87e203b7fe212146e3d33fa53c0997",
    "storage_module_deterministic": "642917db37f9b973252abca022983dba",
}


def _digest(model) -> str:
    backend = ScipyHighsBackend()
    assert solve(model, backend).status == "optimal"
    return backend.last_run.digest


@pytest.fixture(scope="module")
def digests(bundle):
    winter, winter_market = bundle.cell("winter", "favorable")
    spring, spring_market = bundle.cell("spring", "favorable")
    optimistic = strategy_budgets("optimistic", spring)
    out = {
        "winter_deterministic": _digest(build_deterministic_rvpp(winter, winter_market)),
        "spring_optimistic": _digest(build_robust_rvpp(spring, spring_market, optimistic)),
    }
    for unit in spring.all_units():
        alone, budgets = stand_alone(unit, optimistic)
        out[unit.name] = _digest(build_robust_rvpp(alone, spring_market, budgets))
    module = Portfolio(es=(bundle.es_module,))
    out["storage_module"] = _digest(build_robust_rvpp(module, spring_market, price_only_budgets(optimistic)))
    out["storage_module_deterministic"] = _digest(build_deterministic_rvpp(module, spring_market))
    return out


@pytest.mark.parametrize("name", list(DIGESTS))
def test_shipped_model_arrays_are_pinned(digests, name):
    assert digests[name] == DIGESTS[name]


def test_the_read_views_count_what_highs_receives(bundle, monkeypatch):
    """The model's read views (what the benchmark's trace reads for a
    model's shape) count the columns, rows, nonzeros and binaries handed to
    HiGHS.  The record is made before HiGHS runs, so no solve is waited for."""
    portfolio, scenario = bundle.cell("winter", "unfavorable")
    model = build_robust_rvpp(portfolio, scenario, strategy_budgets("balanced", portfolio))
    monkeypatch.setattr(backends, "SOLVE_TIME_LIMIT_S", 1e-9)
    backend = ScipyHighsBackend()
    solve(model, backend)
    run = backend.last_run
    views = (
        len(model.variables),
        len(model.constraints),
        sum(len(con.expr.terms) for con in model.constraints),
        model.binary_count(),
    )
    assert views == (run.cols, run.rows, run.nnz, run.binaries) == (894, 794, 3014, 219)


# The LP-relaxation optimum of the six slowest case-2 models (unfavorable
# regime), by (season, strategy).  Unlike node and iteration counts it does
# not move with column order, so it measures how tight a formulation is; a
# change that loosens one of these bounds says so where it lands.
LP_BOUNDS = {
    ("autumn", "pessimistic"): 18199.3236,
    ("summer", "pessimistic"): 14400.3658,
    ("winter", "balanced"): 32243.2395,
    ("winter", "pessimistic"): 26572.6656,
    ("autumn", "balanced"): 23430.1433,
    ("summer", "balanced"): 19370.0705,
}
GOLDEN = Path(__file__).resolve().parent / "golden" / "results.csv"


def lp_bound(model) -> float:
    """The optimum of the model's LP relaxation: Model.arrays() with the
    integrality dropped, solved in a session set up with session_options()."""
    arrays = model.arrays()
    relaxed = arrays._replace(integrality=np.zeros_like(arrays.integrality))
    backend = ScipyHighsBackend()
    backend.load(SimpleNamespace(name=model.name, direction=model.direction, arrays=lambda: relaxed))
    backend.optimize()
    assert backend.status() == "optimal"
    return backend.objective_value()


@pytest.mark.parametrize("season, strategy", list(LP_BOUNDS))
def test_lp_relaxation_bounds_are_pinned(bundle, season, strategy):
    portfolio, scenario = bundle.cell(season, "unfavorable")
    bound = lp_bound(build_robust_rvpp(portfolio, scenario, strategy_budgets(strategy, portfolio)))
    assert bound == pytest.approx(LP_BOUNDS[season, strategy], rel=1e-6)
    with open(GOLDEN, newline="") as fh:
        (row,) = [r for r in csv.DictReader(fh) if (r["case"], r["season"], r["regime"], r["strategy"])
                  == ("2", season, "unfavorable", strategy)]
    assert bound >= float(row["objective"])
