"""The arrays HiGHS receives for shipped models, pinned by their digests.

Together the models reach every builder branch: committed units with and
without a daily energy limit and minimum up/down windows, quantity streams
with and without a budget, the energy-price loss max(down*dt*p, -up*dt*p)
written as two dual rows per period, the three price duals, and both storage
cores.  A refactor of the builders must leave every digest as it is.  A
deliberate change of formulation or of HiGHS options changes them; update
the literals in the same change and say why.
"""

from __future__ import annotations

import pytest

from rvpp import (
    ScipyHighsBackend,
    build_deterministic_es,
    build_deterministic_rvpp,
    build_robust_es,
    build_robust_rvpp,
    solve,
    strategy_budgets,
)
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
    "storage_module": "7488cdb9d5efec80efda4c74077b234b",
    "storage_module_deterministic": "695efb1d3c5e2d9c8fae28cdaf6bab36",
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
    module = bundle.es_module
    out["storage_module"] = _digest(build_robust_es(module, spring_market, price_only_budgets(optimistic)))
    out["storage_module_deterministic"] = _digest(build_deterministic_es(module, spring_market))
    return out


@pytest.mark.parametrize("name", list(DIGESTS))
def test_shipped_model_arrays_are_pinned(digests, name):
    assert digests[name] == DIGESTS[name]
