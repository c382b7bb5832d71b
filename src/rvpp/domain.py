"""Portfolio, market, and uncertainty-budget data types.

All types are frozen dataclasses holding plain tuples, so field-for-field
equality and hashing behave normally and YAML round-trips are exact.  Vectors
are indexed by period (0-based internally; period p in reports means index
p-1).  Units: power MW, energy MWh, energy prices EUR/MWh, reserve prices
EUR/MW per period (paid on the MW offered in each period, with no delta_t),
op_cost EUR/MWh for every unit and the storage module, other costs EUR.

Each field a scenario file sets is declared once, by `_spec` on its
dataclass field: kind, default, bounds, and what its value varies by.
scenario_io.load_scenario reads files by these declarations, and the
validate_* functions check library-built values against them; only the
cross-field rules, the unit-name rules and the season/regime tags are
written out by hand.
"""

from __future__ import annotations

import math
import operator
from dataclasses import MISSING, dataclass, field, fields, replace
from functools import cache

SEASONS = ("winter", "spring", "summer", "autumn")
REGIMES = ("favorable", "unfavorable")
STRATEGIES = ("optimistic", "balanced", "pessimistic")

WIND = "wind"
SOLAR = "solar"
_TECHNOLOGIES = (WIND, SOLAR)

# Uncertainty budgets per strategy: full applies to price streams and wind
# forecasts, reduced to solar-driven streams (PV, solar field) and demand.
_FULL_BUDGET = {"optimistic": 3, "balanced": 6, "pessimistic": 9}
_REDUCED_BUDGET = {"optimistic": 2, "balanced": 4, "pessimistic": 6}


@dataclass(frozen=True)
class _Spec:
    """How one field is given and bounded.

    kind: "number", "int", "str", "series" (one number per period),
    "profiles" (a non-empty list of series) or a nested dataclass.  default:
    what a file may leave out (MISSING: required).  A number, or a series'
    entry, lies in floor..ceil (as text: bounds); a string is one of among,
    if given.  by: what the value varies with, None, "season", "regime",
    "season_regime", or "limits" (the `energy_limits` table).
    """

    kind: object
    default: object
    by: str | None
    floor: float
    ceil: float
    bounds: str
    among: tuple[str, ...] | None

    def outside(self, vec) -> bool:
        """Whether an entry of vec is out of bounds (found by min and max)."""
        return bool(vec) and (
            (self.floor > -math.inf and min(vec) < self.floor) or (self.ceil < math.inf and max(vec) > self.ceil)
        )


def _spec(kind="number", *, by=None, default=MISSING, file_default=MISSING, within="[0, inf)", among=None):
    """A dataclass field declaring its _Spec: numbers lie in the interval
    `within` (a finite open end moves floor or ceil one float inward);
    file_default is what a file may leave out where the library takes no
    default."""
    lo, hi = (float(end) for end in within[1:-1].split(","))
    floor = math.nextafter(lo, hi) if within[0] == "(" and lo > -math.inf else lo
    ceil = math.nextafter(hi, lo) if within[-1] == ")" and hi < math.inf else hi
    spec = _Spec(kind, default if file_default is MISSING else file_default, by, floor, ceil, f"in {within}", among)
    return field(default=default, metadata={"spec": spec})


@cache
def _declared(cls) -> dict[str, _Spec]:
    """Field name -> _Spec of every declared field of dataclass cls, in order."""
    return {f.name: f.metadata["spec"] for f in fields(cls) if "spec" in f.metadata}


def _vec(values) -> tuple[float, ...]:
    return tuple(float(v) for v in values)


def _mat(rows) -> tuple[tuple[float, ...], ...]:
    return tuple(_vec(r) for r in rows)


@dataclass(frozen=True)
class PeriodGrid:
    """Uniform scheduling horizon: period_count periods of delta_t hours."""

    period_count: int = _spec("int", within="[1, inf)")
    delta_t: float = _spec(default=1.0, within="(0, inf)")


@dataclass(frozen=True)
class DrsUnit:
    """Dispatchable renewable source with commitment logic (hydro, biomass)."""

    name: str = _spec("str")
    p_max: float = _spec()
    p_min: float = _spec()
    startup_cost: float = _spec()
    shutdown_cost: float = _spec()
    op_cost: float = _spec()  # EUR/MWh
    min_up: int = _spec("int", default=0)
    min_down: int = _spec("int", default=0)
    daily_energy_limit: float | None = _spec(by="limits", default=None)


@dataclass(frozen=True)
class NdrsUnit:
    """Non-dispatchable renewable source curtailable below a forecast ceiling.

    forecast_upper is the nominal availability; forecast_deviation is the
    per-period worst-case downward deviation from it.  technology selects the
    budget column (wind gets the full budget, solar the reduced one).
    """

    name: str = _spec("str")
    technology: str = _spec("str", among=_TECHNOLOGIES)
    p_min: float = _spec()
    op_cost: float = _spec()  # EUR/MWh
    forecast_upper: tuple[float, ...] = _spec("series", by="season")
    forecast_deviation: tuple[float, ...] = _spec("series", by="season_regime")

    def __post_init__(self):
        object.__setattr__(self, "forecast_upper", _vec(self.forecast_upper))
        object.__setattr__(self, "forecast_deviation", _vec(self.forecast_deviation))


@dataclass(frozen=True)
class ThermalStoreParams:
    """Thermal tank behind a CSP solar field (thermal MW / MWh)."""

    e_min: float = _spec()
    e_max: float = _spec()
    charge_p_max: float = _spec()
    discharge_p_max: float = _spec()
    charge_eff: float = _spec(within="(0, 1]")
    discharge_eff: float = _spec(within="(0, 1]")


@dataclass(frozen=True)
class CspUnit:
    """Concentrated solar power block: solar field, thermal store, turbine.

    turbine_eff converts thermal input to electrical output.  Each start
    draws startup_loss * turbine_p_max MWh of heat, booked in its period
    whatever the period length.
    """

    name: str = _spec("str")
    turbine_p_max: float = _spec()
    turbine_p_min: float = _spec()
    turbine_eff: float = _spec(within="(0, 1]")
    startup_loss: float = _spec()
    op_cost: float = _spec()  # EUR/MWh
    min_up: int = _spec("int", file_default=0)
    min_down: int = _spec("int", file_default=0)
    sf_upper: tuple[float, ...] = _spec("series", by="season")
    sf_deviation: tuple[float, ...] = _spec("series", by="season_regime")
    store: ThermalStoreParams = _spec(ThermalStoreParams)

    def __post_init__(self):
        object.__setattr__(self, "sf_upper", _vec(self.sf_upper))
        object.__setattr__(self, "sf_deviation", _vec(self.sf_deviation))


@dataclass(frozen=True)
class FdUnit:
    """Flexible demand choosing one consumption profile per day.

    Consumption must cover the chosen profile (plus any realized upward
    deviation) and stay inside [p_min, p_max] after reserve activation.
    When p_min/p_max are omitted they are derived from the profiles with
    the flexibility margin: (1 - margin) * min and (1 + margin) * max.
    """

    name: str = _spec("str")
    profiles: tuple[tuple[float, ...], ...] = _spec("profiles")
    deviation: tuple[float, ...] = _spec("series", by="regime")
    p_min: float | None = _spec(default=None)
    p_max: float | None = _spec(default=None)
    flexibility_margin: float = _spec(default=0.10, within="[0, 1)")

    def __post_init__(self):
        object.__setattr__(self, "profiles", _mat(self.profiles))
        object.__setattr__(self, "deviation", _vec(self.deviation))
        if self.profiles and any(self.profiles):
            lo = min(min(p) for p in self.profiles)
            hi = max(max(p) for p in self.profiles)
            if self.p_min is None:
                object.__setattr__(self, "p_min", (1.0 - self.flexibility_margin) * lo)
            if self.p_max is None:
                object.__setattr__(self, "p_max", (1.0 + self.flexibility_margin) * hi)


@dataclass(frozen=True)
class EsUnit:
    """One storage unit: a module, or a fleet of identical modules bid as one.

    scaled(n) gives the n-module fleet: power and energy ratings scale with
    the count, efficiencies and costs do not.
    """

    name: str = _spec("str")
    charge_p_max: float = _spec()
    discharge_p_max: float = _spec()
    e_max: float = _spec()
    e_min: float = _spec()
    charge_eff: float = _spec(within="(0, 1]")
    discharge_eff: float = _spec(within="(0, 1]")
    op_cost: float = _spec()  # EUR/MWh
    charge_p_min: float = _spec(default=0.0)
    discharge_p_min: float = _spec(default=0.0)

    def scaled(self, n: int) -> EsUnit:
        if not isinstance(n, int) or n < 1:
            raise ValueError(f"module_count must be a positive integer, got {n!r}")
        ratings = ("charge_p_max", "charge_p_min", "discharge_p_max", "discharge_p_min", "e_max", "e_min")
        return replace(self, **{f: getattr(self, f) * n for f in ratings})


@dataclass(frozen=True)
class Portfolio:
    """The units one schedule trades for, by class; a storage-only portfolio
    is a storage fleet."""

    drs: tuple[DrsUnit, ...] = ()
    ndrs: tuple[NdrsUnit, ...] = ()
    csp: tuple[CspUnit, ...] = ()
    fd: tuple[FdUnit, ...] = ()
    es: tuple[EsUnit, ...] = ()

    def __post_init__(self):
        for f in fields(self):
            object.__setattr__(self, f.name, tuple(getattr(self, f.name)))

    def all_units(self) -> tuple:
        return self.drs + self.ndrs + self.csp + self.fd + self.es

    def unit_names(self) -> tuple[str, ...]:
        return tuple(u.name for u in self.all_units())

    def is_empty(self) -> bool:
        return not self.all_units()


@dataclass(frozen=True)
class MarketScenario:
    """Day-ahead and secondary-reserve prices with budget-set deviations.

    dam_price is the nominal (median) energy price; dam_price_down_dev and
    dam_price_up_dev are the worst-case drops (hurting sales) and rises
    (hurting purchases).  Reserve prices pay capacity (EUR/MW per period)
    and only fall under uncertainty.  season and regime only tag the cell:
    the regime's data (energy limits, forecast errors) lives in the units
    that scenario_io.load_scenario built for this cell.
    """

    grid: PeriodGrid
    dam_price: tuple[float, ...] = _spec("series", within="(-inf, inf)")
    dam_price_down_dev: tuple[float, ...] = _spec("series")
    dam_price_up_dev: tuple[float, ...] = _spec("series")
    sr_up_price: tuple[float, ...] = _spec("series")
    sr_up_price_dev: tuple[float, ...] = _spec("series")
    sr_dn_price: tuple[float, ...] = _spec("series")
    sr_dn_price_dev: tuple[float, ...] = _spec("series")
    season: str | None = None
    regime: str | None = None

    def __post_init__(self):
        for name in _declared(MarketScenario):
            object.__setattr__(self, name, _vec(getattr(self, name)))


@dataclass(frozen=True)
class BudgetSet:
    """Bertsimas-Sim budgets: number of periods each stream may degrade."""

    gamma_dam: int = 0
    gamma_sr_up: int = 0
    gamma_sr_down: int = 0
    gamma_per_unit: tuple[tuple[str, int], ...] = ()

    def __post_init__(self):
        if isinstance(self.gamma_per_unit, dict):
            object.__setattr__(self, "gamma_per_unit", tuple(sorted(self.gamma_per_unit.items())))
        else:
            object.__setattr__(self, "gamma_per_unit", tuple(self.gamma_per_unit))

    def unit_budget(self, name: str) -> int:
        for unit, gamma in self.gamma_per_unit:
            if unit == name:
                return gamma
        return 0


ZERO_BUDGETS = BudgetSet()

# Ordered field pairs (lower, upper): numbers compare as they are, series
# period by period.
_ORDERED = {
    DrsUnit: (("p_min", "p_max"),),
    NdrsUnit: (("forecast_deviation", "forecast_upper"),),
    CspUnit: (("turbine_p_min", "turbine_p_max"), ("sf_deviation", "sf_upper")),
    ThermalStoreParams: (("e_min", "e_max"),),
    FdUnit: (("p_min", "p_max"),),
    EsUnit: (("charge_p_min", "charge_p_max"), ("discharge_p_min", "discharge_p_max"), ("e_min", "e_max")),
}


def _relations(u, T: int) -> list[tuple[str | None, str]]:
    """(field, text) for each cross-field rule u breaks; field None blames
    the whole unit."""
    out: list[tuple[str | None, str]] = []
    for lo, hi in _ORDERED[type(u)]:
        a, b = getattr(u, lo), getattr(u, hi)
        if isinstance(a, tuple):
            if len(a) == len(b) == T and any(map(operator.gt, a, b)):
                out += [
                    (lo, f"{lo} {x} exceeds {hi} {y} at period {t + 1}") for t, (x, y) in enumerate(zip(a, b)) if x > y
                ]
        elif a is not None and b is not None and a > b:
            out.append((None, f"requires 0 <= {lo} <= {hi}, got {lo}={a}, {hi}={b}"))
    if isinstance(u, CspUnit):
        out += [("store", f"store {text}") for _, text in _relations(u.store, T)]
    elif isinstance(u, NdrsUnit):
        if len(u.forecast_upper) == T > 0 and u.p_min > min(u.forecast_upper):
            out.append(("forecast_upper", f"p_min {u.p_min} exceeds the forecast_upper minimum"))
    elif isinstance(u, FdUnit):
        if u.p_min is None or u.p_max is None:
            out.append((None, "consumption bounds missing and not derivable from profiles"))
            return out
        lo, hi = u.p_min, u.p_max
        for m, prof in enumerate(u.profiles):
            if len(prof) == T > 0 and not lo <= min(prof) <= max(prof) <= hi:
                out += [
                    ("profiles", f"profile {m} value {v} at period {t + 1} is outside [p_min={lo}, p_max={hi}]")
                    for t, v in enumerate(prof)
                    if not lo <= v <= hi
                ]
    return out


def _name_problems(names) -> list[tuple[int, str]]:
    """(position, message) for each unit name that is no identifier or
    repeats an earlier one."""
    out = []
    for i, name in enumerate(names):
        if not (name and name[0].isalpha() and name.replace("_", "").isalnum()):
            out.append((i, f"{name!r}: unit name must be a letter followed by alphanumerics/underscores"))
        if name in names[:i]:
            out.append((i, f"{name}: duplicate unit name"))
    return out


def _field_problems(obj, T: int, owner: str, prefix: str = "") -> list[str]:
    """Where obj's values break their declarations on a T-period grid."""
    out: list[str] = []
    for name, spec in _declared(type(obj)).items():
        v = getattr(obj, name)
        kind = spec.kind
        if kind == "number" or kind == "int":
            if v is not None and not spec.floor <= v <= spec.ceil:
                out.append(f"{owner}: {prefix}{name} is {v}, expected {spec.bounds}")
        elif kind == "series":
            if len(v) != T or spec.outside(v):
                _series_problems(out, owner, prefix + name, v, T, spec)
        elif kind == "profiles":
            if not v:
                out.append(f"{owner}: needs at least one demand profile")
            for m, prof in enumerate(v):
                if len(prof) != T or spec.outside(prof):
                    _series_problems(out, owner, f"profile {m}", prof, T, spec)
        elif kind == "str":
            if spec.among is not None and v not in spec.among:
                out.append(f"{owner}: unknown {prefix}{name} {v!r} (expected one of {spec.among})")
        else:
            out += _field_problems(v, T, owner, f"{prefix}{name}.")
    return out


def _series_problems(out: list[str], owner: str, label: str, vec, T: int, spec: _Spec) -> None:
    if len(vec) != T:
        out.append(f"{owner}: {label} has {len(vec)} entries, grid has {T} periods")
        return
    for t, v in enumerate(vec):
        if not spec.floor <= v <= spec.ceil:
            out.append(f"{owner}: {label} is {v} at period {t + 1}, expected {spec.bounds}")


def validate_scenario(scenario: MarketScenario) -> list[str]:
    """Every invariant violation of a market as a human-readable string:
    the grid's and price series' declarations, and unknown season or
    regime tags."""
    out = _field_problems(scenario.grid, 0, "grid")
    out += _field_problems(scenario, scenario.grid.period_count, "scenario")
    if scenario.season is not None and scenario.season not in SEASONS:
        out.append(f"scenario: unknown season {scenario.season!r}")
    if scenario.regime is not None and scenario.regime not in REGIMES:
        out.append(f"scenario: unknown regime {scenario.regime!r}")
    return out


def validate_portfolio(portfolio: Portfolio, scenario: MarketScenario) -> list[str]:
    """Collect every invariant violation as a human-readable string: the
    market's (validate_scenario), unit names that are not distinct
    identifiers, and each unit's declarations and cross-field rules."""
    out = validate_scenario(scenario)
    T = scenario.grid.period_count
    units = portfolio.all_units()
    out += [message for _, message in _name_problems([u.name for u in units])]
    for u in units:
        out += _field_problems(u, T, u.name)
        out += [f"{u.name}: {text}" for _, text in _relations(u, T)]
    return out


def validate_budgets(budgets: BudgetSet, grid: PeriodGrid, portfolio: Portfolio | None = None) -> list[str]:
    """Budgets must be integers within [0, period_count].  Given the
    portfolio, a per-unit budget must name one of its units, and not a
    storage unit, which has no quantity stream."""
    out: list[str] = []
    T = grid.period_count
    for label in ("gamma_dam", "gamma_sr_up", "gamma_sr_down"):
        g = getattr(budgets, label)
        if not isinstance(g, int) or not 0 <= g <= T:
            out.append(f"budgets: {label}={g!r} is outside [0, {T}]")
    known = set(portfolio.unit_names()) if portfolio is not None else None
    storage = {u.name for u in portfolio.es} if portfolio is not None else set()
    for name, g in budgets.gamma_per_unit:
        if not isinstance(g, int) or not 0 <= g <= T:
            out.append(f"budgets: gamma[{name}]={g!r} is outside [0, {T}]")
        if known is not None and name not in known:
            out.append(f"budgets: gamma names unknown unit {name!r}")
        if name in storage:
            out.append(f"budgets: gamma names storage unit {name!r}, which takes price budgets only")
    return out


def strategy_budgets(strategy: str, portfolio: Portfolio) -> BudgetSet:
    """Budget ladder row for a named strategy.

    Prices and wind forecasts take the full budget (3/6/9 periods for
    optimistic/balanced/pessimistic); solar-driven streams and flexible
    demand take the reduced budget (2/4/6).
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r} (expected one of {STRATEGIES})")
    full = _FULL_BUDGET[strategy]
    reduced = _REDUCED_BUDGET[strategy]
    per_unit: dict[str, int] = {}
    for u in portfolio.ndrs:
        per_unit[u.name] = full if u.technology == WIND else reduced
    for u in portfolio.csp:
        per_unit[u.name] = reduced
    for u in portfolio.fd:
        per_unit[u.name] = reduced
    return BudgetSet(full, full, full, tuple(sorted(per_unit.items())))
