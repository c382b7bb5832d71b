"""The arrays HiGHS receives for shipped models, pinned by their digests.

Together the models reach every builder branch: committed units with and
without a daily energy limit and minimum up/down windows, quantity streams
with and without a budget, the energy-price bridge and the three price
duals, and both storage cores.  A refactor of the builders must leave every
digest as it is.  A deliberate change of formulation or of HiGHS options
changes them; update the literals in the same change and say why.
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
    "spring_optimistic": "4bcde680d7aeb3bfc8a5c43226b59ac8",
    "hydro": "14c147d1f2245ac1ed5647b137dad4f4",
    "biomass": "6f3461a76509fac5003a475c7647edc8",
    "wind_farm": "819390f05050746a9846566b918d4f95",
    "pv_plant": "90de947fb8521b91df5cdc7642c95622",
    "csp_plant": "0501cf60164f978861997bbede3f9507",
    "industrial_load": "0f147c78602481e4890e182ce94c4a39",
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
