"""The arrays HiGHS receives for shipped models, pinned by their digests.

Together the models reach every builder branch: committed units with and
without a daily energy limit and minimum up/down windows, quantity streams
with and without a budget, the energy-price loss max(down*dt*p, -up*dt*p)
written as two dual rows per period, the three price duals, and a storage
unit's rows.  A refactor of the builders must leave every digest as it is.  A
deliberate change of formulation or of HiGHS options changes them; update
the literals in the same change and say why.

Every distinct model a bare `rvpp` sweep plans is pinned too, in plan order,
by tests/golden/digests.txt.  A deliberate change regenerates that file with

    PYTHONPATH=src python tests/test_model_arrays.py
"""

from __future__ import annotations

import csv
import tempfile
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from rvpp import (
    ZERO_BUDGETS,
    BudgetSet,
    Portfolio,
    ScipyHighsBackend,
    build_robust_rvpp,
    solve,
    strategy_budgets,
    validate_budgets,
)
from rvpp import backends, cli
from rvpp.sizing import Solve, price_only_budgets, stand_alone

DIGESTS = {
    "winter_deterministic": "c0809012c4349772fa453e646ed0936c",
    "spring_optimistic": "94a73fcda077be6b1ed727c6d27c0f35",
    "hydro": "543129590dfc89f089993fc9e5b52bb7",
    "biomass": "323c9007367c41d7b1d71383cdbd03a2",
    "wind_farm": "eb78af5aabd20df34683a3f9a057de36",
    "pv_plant": "1a341fd0796996ca7e5c403061e785de",
    "csp_plant": "085c5fbe79ef8617c850ee2c5393c4b5",
    "industrial_load": "04aef631b65beea88d969b1b8aa04178",
    "storage_module": "83353083433eb7ac37fa16465e3bead0",
    "storage_module_deterministic": "0a99a5ab49fb8a030662aa8eefdc26a9",
}


def _digest(model) -> str:
    """The digest a solve of model records (SolveRecord.digest), taken
    without running HiGHS: ScipyHighsBackend.optimize's arrays, hashed as it
    hashes them."""
    arrays = model.arrays()
    matrix = (*backends._csc(arrays), (len(arrays.row_lower), len(arrays.lower)))
    return backends._digest(
        -arrays.cost + 0.0, arrays.integrality, arrays.lower, arrays.upper, *matrix, arrays.row_lower, arrays.row_upper
    )


@pytest.fixture(scope="module")
def digests(bundle):
    winter, winter_market = bundle.cell("winter", "favorable")
    spring, spring_market = bundle.cell("spring", "favorable")
    optimistic = strategy_budgets("optimistic", spring)
    out = {
        "winter_deterministic": _digest(build_robust_rvpp(winter, winter_market, ZERO_BUDGETS)),
        "spring_optimistic": _digest(build_robust_rvpp(spring, spring_market, optimistic)),
    }
    for unit in spring.all_units():
        alone, budgets = stand_alone(unit, optimistic)
        out[unit.name] = _digest(build_robust_rvpp(alone, spring_market, budgets))
    module = Portfolio(es=(bundle.es_module,))
    out["storage_module"] = _digest(build_robust_rvpp(module, spring_market, price_only_budgets(optimistic)))
    out["storage_module_deterministic"] = _digest(build_robust_rvpp(module, spring_market, ZERO_BUDGETS))
    return out


@pytest.mark.parametrize("name", list(DIGESTS))
def test_shipped_model_arrays_are_pinned(digests, name):
    assert digests[name] == DIGESTS[name]


def test_numpy_budgets_build_the_int_budget_model(bundle):
    """Budgets given as numpy integers are stored as ints: they validate,
    key the same Solve and build the pinned wind_farm model."""
    portfolio, scenario = bundle.cell("spring", "favorable")
    alone = Portfolio(ndrs=tuple(u for u in portfolio.ndrs if u.name == "wind_farm"))
    three = np.int64(3)
    given, ints = BudgetSet(three, three, three, {"wind_farm": three}), BudgetSet(3, 3, 3, {"wind_farm": 3})
    assert validate_budgets(given, scenario.grid, alone) == []
    key = Solve(scenario, alone, given)
    assert key == Solve(scenario, alone, ints) and hash(key) == hash(Solve(scenario, alone, ints))
    built = _digest(build_robust_rvpp(alone, scenario, given))
    assert built == _digest(build_robust_rvpp(alone, scenario, ints)) == DIGESTS["wind_farm"]


def test_the_digest_is_what_a_solve_records(bundle):
    portfolio, scenario = bundle.cell("spring", "favorable")
    optimistic = strategy_budgets("optimistic", portfolio)
    for model in (
        build_robust_rvpp(Portfolio(es=(bundle.es_module,)), scenario, price_only_budgets(optimistic)),
        build_robust_rvpp(Portfolio(fd=portfolio.fd), scenario, ZERO_BUDGETS),
    ):
        backend = ScipyHighsBackend()
        assert solve(model, backend).status == "optimal"
        assert backend.last_run.digest == _digest(model)


class _Planned(Exception):
    """Raised in place of the worker pool, to stop cli.main at its plan."""


def planned_models() -> list:
    """(key, model) of each distinct solve a bare `rvpp` sweep plans, in plan
    order: the keys cli.main hands to its worker pool, taken there before any
    solve runs."""
    keys = []

    def stop(order, workers):
        keys.extend(order)
        raise _Planned

    with pytest.MonkeyPatch.context() as patch, tempfile.TemporaryDirectory() as out:
        patch.setattr(cli, "_solve_all", stop)
        with pytest.raises(_Planned):
            cli.main(["--out", out])
    return [(key, build_robust_rvpp(key.subject, key.scenario, key.budgets)) for key in keys]


def digest_lines(planned) -> list[str]:
    """One line per planned model: its plan index, Solve.label() and digest."""
    return [f"{i} {key.label()} {_digest(model)}" for i, (key, model) in enumerate(planned)]


PLANNED_DIGESTS = Path(__file__).resolve().parent / "golden" / "digests.txt"


@pytest.fixture(scope="module")
def planned():
    return planned_models()


def test_planned_models_match_the_committed_digests(planned):
    assert digest_lines(planned) == PLANNED_DIGESTS.read_text().splitlines()


def test_no_planned_model_carries_an_inert_term(planned):
    """No zero-cost column is dominated, i.e. let move the same way by every
    row it sits in, and no objective cost is nonzero below 1e-6: MIP presolve
    strips both, and neither decides anything (Achterberg et al.,
    "Presolve reductions in mixed integer programming", INFORMS J. Comput.
    32, 2020)."""
    dominated, tiny = set(), set()
    for _, model in planned:
        arrays = model.arrays()
        positive = arrays.vals > 0.0
        no_floor = np.isneginf(arrays.row_lower)[arrays.rows]
        no_ceiling = np.isposinf(arrays.row_upper)[arrays.rows]
        # An entry lets its column rise (fall) freely when that moves the
        # row's activity away from the row's only finite bound.
        rises = (positive & no_ceiling) | (~positive & no_floor)
        falls = (positive & no_floor) | (~positive & no_ceiling)
        n = len(arrays.cost)
        stop_rise, stop_fall = (np.bincount(arrays.cols, weights=~free, minlength=n) for free in (rises, falls))
        inert = (arrays.cost == 0.0) & ((stop_rise == 0) | (stop_fall == 0))
        dominated.update(map(model.col_name, np.flatnonzero(inert)))
        tiny.update(map(model.col_name, np.flatnonzero((arrays.cost != 0.0) & (np.abs(arrays.cost) < 1e-6))))
    assert not dominated and not tiny, f"dominated: {sorted(dominated)}; costs below 1e-6: {sorted(tiny)}"


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
    backend.load(SimpleNamespace(name=model.name, arrays=lambda: relaxed))
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


# The LP-relaxation gap, (LP bound - optimum) / optimum, summed over the 24
# case-2 models (the full robust portfolio of every season, regime and
# strategy): how tight the formulation is as a whole.  The optima are the
# golden file's, printed at six significant digits, so each is off by up to
# 5e-6 of itself; the tolerance sums that over the models.
CASE2_LP_GAP = 0.18976


def test_summed_case2_lp_gap_is_pinned(bundle):
    with open(GOLDEN, newline="") as fh:
        rows = [r for r in csv.DictReader(fh) if r["case"] == "2"]
    assert len(rows) == 24
    ratios = []
    for row in rows:
        portfolio, scenario = bundle.cell(row["season"], row["regime"])
        bound = lp_bound(build_robust_rvpp(portfolio, scenario, strategy_budgets(row["strategy"], portfolio)))
        ratios.append(bound / float(row["objective"]))
    assert sum(ratios) - len(ratios) == pytest.approx(CASE2_LP_GAP, abs=5e-6 * sum(ratios))


if __name__ == "__main__":
    PLANNED_DIGESTS.write_text("".join(f"{line}\n" for line in digest_lines(planned_models())))
