"""Portfolio, market, and uncertainty-budget data types.

All types are frozen dataclasses holding plain tuples, so field-for-field
equality and hashing behave normally and YAML round-trips are exact.  Vectors
are indexed by period (0-based internally; period p in reports means index
p-1).  Units: power MW, energy MWh, energy prices EUR/MWh, reserve prices
EUR/MW per period (paid on the MW offered in each period, with no delta_t),
op_cost EUR/MWh for every unit and the storage module, other costs EUR.

Each field a scenario file sets is declared once, by `_spec` on its
dataclass field: kind, default, bounds, and what its value varies by.  A
dataclass stores each declared value in its kind's form (_Declared), and
`_problems` alone checks values, kind before bounds, for load_scenario (after
a YAML path) and the validate_* functions (after an owner) alike.  Only the
cross-field rules and the unit-name rules are written out by hand.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import MISSING, dataclass, field, fields, replace
from functools import cache

SEASONS = ("winter", "spring", "summer", "autumn")
REGIMES = ("favorable", "unfavorable")
STRATEGIES = ("deterministic", "optimistic", "balanced", "pessimistic")  # the budget ladder, zero first

WIND = "wind"
SOLAR = "solar"
_TECHNOLOGIES = (WIND, SOLAR)

# Uncertainty budgets per robust strategy: full applies to price streams and
# wind forecasts, reduced to solar-driven streams (PV, solar field) and demand.
_FULL_BUDGET = {"optimistic": 3, "balanced": 6, "pessimistic": 9}
_REDUCED_BUDGET = {"optimistic": 2, "balanced": 4, "pessimistic": 6}


@dataclass(frozen=True)
class _Spec:
    """How one field is given and bounded.

    kind: "number", "int", "str", "series" (one number per period),
    "profiles" (a non-empty list of series) or a nested dataclass.  default:
    what a file may leave out (MISSING: required).  A number, or a series'
    entry, lies in floor..ceil (as text: bounds); a string is one of among,
    if given.  by: what the value varies with, None, "season", "regime" or
    "season_regime" (in a file, a table keyed by season, then regime).
    """

    kind: object
    default: object
    by: str | None
    floor: float
    ceil: float
    bounds: str
    among: tuple[str, ...] | None


def _spec(kind="number", *, by=None, default=MISSING, within="[0, inf)", among=None):
    """A dataclass field declaring its _Spec: numbers lie in the interval
    `within` (a finite open end moves floor or ceil one float inward)."""
    lo, hi = (float(end) for end in within[1:-1].split(","))
    floor = math.nextafter(lo, hi) if within[0] == "(" and lo > -math.inf else lo
    ceil = math.nextafter(hi, lo) if within[-1] == ")" and hi < math.inf else hi
    spec = _Spec(kind, default, by, floor, ceil, f"in {within}", among)
    return field(default=default, metadata={"spec": spec})


@cache
def _declared(cls) -> dict[str, _Spec]:
    """Field name -> _Spec of every declared field of dataclass cls, in order."""
    return {f.name: f.metadata["spec"] for f in fields(cls) if "spec" in f.metadata}


def _stored(kind, v):
    """v in the stored form of kind: a finite real number other than a bool
    as a float, or for "int" a whole one as an int; a "series" or "profiles"
    sequence (not a string or a mapping) as a tuple of its entries' forms;
    anything else as given, for _problems to name."""
    if kind == "series" or kind == "profiles":
        try:
            items = None if isinstance(v, (str, bytes, dict)) else tuple(v)
        except TypeError:  # not iterable
            items = None
        if items is None:
            return v
        if kind == "profiles":
            return tuple(_stored("series", p) for p in items)
        # An all-float series, what a scenario file mostly holds, is kept whole.
        return items if all(type(x) is float for x in items) else tuple(_stored("number", x) for x in items)
    # A float or an int is taken without testing numbers.Real, which is slow.
    numeric = kind == "number" or kind == "int"
    if numeric and (type(v) is float or type(v) is int or isinstance(v, numbers.Real) and not isinstance(v, bool)):
        try:
            x = float(v)
        except OverflowError:
            return v
        if math.isfinite(x):
            return x if kind == "number" else int(x) if x.is_integer() else v
    return v


def _is_number(v) -> bool:
    """Whether v, in its stored form, is a number: a finite float."""
    return type(v) is float and math.isfinite(v)


class _Declared:
    """Base of the dataclasses with declared fields: building one stores each
    declared value in its kind's form (_stored) and never raises, so equal
    data builds equal, hashable values and _problems names the rest."""

    def __post_init__(self):
        for name, spec in _declared(type(self)).items():
            object.__setattr__(self, name, _stored(spec.kind, getattr(self, name)))


@dataclass(frozen=True)
class PeriodGrid(_Declared):
    """Uniform scheduling horizon: period_count periods of delta_t hours."""

    period_count: int = _spec("int", within="[1, inf)")
    delta_t: float = _spec(default=1.0, within="(0, inf)")


@dataclass(frozen=True)
class DrsUnit(_Declared):
    """Dispatchable renewable source with commitment logic (hydro, biomass)."""

    name: str = _spec("str")
    p_max: float = _spec()
    p_min: float = _spec()
    startup_cost: float = _spec()
    shutdown_cost: float = _spec()
    op_cost: float = _spec()  # EUR/MWh
    min_up: int = _spec("int", default=0)
    min_down: int = _spec("int", default=0)
    daily_energy_limit: float | None = _spec(by="season_regime", default=None)


@dataclass(frozen=True)
class NdrsUnit(_Declared):
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


@dataclass(frozen=True)
class ThermalStoreParams(_Declared):
    """Thermal tank behind a CSP solar field (thermal MW / MWh)."""

    e_min: float = _spec()
    e_max: float = _spec()
    charge_p_max: float = _spec()
    discharge_p_max: float = _spec()
    charge_eff: float = _spec(within="(0, 1]")
    discharge_eff: float = _spec(within="(0, 1]")


@dataclass(frozen=True)
class CspUnit(_Declared):
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
    sf_upper: tuple[float, ...] = _spec("series", by="season")
    sf_deviation: tuple[float, ...] = _spec("series", by="season_regime")
    store: ThermalStoreParams = _spec(ThermalStoreParams)
    min_up: int = _spec("int", default=0)
    min_down: int = _spec("int", default=0)


@dataclass(frozen=True)
class FdUnit(_Declared):
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
        super().__post_init__()
        # Derived only from numbers; _problems names any other value.
        rows = self.profiles if isinstance(self.profiles, tuple) else ()
        values = [v for p in rows for v in (p if isinstance(p, tuple) else (None,))]
        if values and all(map(_is_number, (*values, self.flexibility_margin))):
            lo, hi = min(values), max(values)
            if self.p_min is None:
                object.__setattr__(self, "p_min", (1.0 - self.flexibility_margin) * lo)
            if self.p_max is None:
                object.__setattr__(self, "p_max", (1.0 + self.flexibility_margin) * hi)


@dataclass(frozen=True)
class EsUnit(_Declared):
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
class MarketScenario(_Declared):
    """Day-ahead and secondary-reserve prices with budget-set deviations.

    dam_price is the nominal (median) energy price; dam_price_down_dev and
    dam_price_up_dev are the worst-case drops (hurting sales) and rises
    (hurting purchases).  Reserve prices pay capacity (EUR/MW per period)
    and only fall under uncertainty.  One market serves every regime of its
    season: a regime's data (energy limits, forecast errors) lives in the
    units that scenario_io.load_scenario built for its cell.
    """

    grid: PeriodGrid
    dam_price: tuple[float, ...] = _spec("series", within="(-inf, inf)")
    dam_price_down_dev: tuple[float, ...] = _spec("series")
    dam_price_up_dev: tuple[float, ...] = _spec("series")
    sr_up_price: tuple[float, ...] = _spec("series")
    sr_up_price_dev: tuple[float, ...] = _spec("series")
    sr_dn_price: tuple[float, ...] = _spec("series")
    sr_dn_price_dev: tuple[float, ...] = _spec("series")


@dataclass(frozen=True)
class BudgetSet:
    """Bertsimas-Sim budgets: number of periods each stream may degrade."""

    gamma_dam: int = 0
    gamma_sr_up: int = 0
    gamma_sr_down: int = 0
    gamma_per_unit: tuple[tuple[str, int], ...] = ()

    def __post_init__(self):
        # Tuple pairs sorted by unit name, so that the same budgets given in
        # another order or as lists are equal, and hash alike, and so are the
        # models built from them.
        pairs = self.gamma_per_unit.items() if isinstance(self.gamma_per_unit, dict) else self.gamma_per_unit
        object.__setattr__(self, "gamma_per_unit", tuple(sorted(map(tuple, pairs), key=operator.itemgetter(0))))

    def unit_budget(self, name: str) -> int:
        return next((gamma for unit, gamma in self.gamma_per_unit if unit == name), 0)


ZERO_BUDGETS = BudgetSet()

# Each price stream and the BudgetSet field that holds its budget.
PRICE_STREAMS = {"dam": "gamma_dam", "sr_up": "gamma_sr_up", "sr_dn": "gamma_sr_down"}

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


def _relations(u, T: int, failed=frozenset()) -> list[tuple[str | None, str]]:
    """(field, text) for each cross-field rule u breaks among the fields
    outside failed (those _problems names); field None blames the whole unit."""
    out: list[tuple[str | None, str]] = []
    for lo, hi in _ORDERED.get(type(u), ()):
        if lo in failed or hi in failed:
            continue
        a, b = getattr(u, lo), getattr(u, hi)
        if isinstance(a, tuple):
            if any(map(operator.gt, a, b)):
                out += [
                    (lo, f"{lo} {x} exceeds {hi} {y} at period {t + 1}") for t, (x, y) in enumerate(zip(a, b)) if x > y
                ]
        elif a is not None and b is not None and a > b:
            out.append((None, f"requires 0 <= {lo} <= {hi}, got {lo}={a}, {hi}={b}"))
    if isinstance(u, CspUnit):
        if "store" not in failed:
            out += [("store", f"store {text}") for _, text in _relations(u.store, T)]
    elif isinstance(u, NdrsUnit):
        if not failed & {"p_min", "forecast_upper"} and u.forecast_upper and u.p_min > min(u.forecast_upper):
            out.append(("forecast_upper", f"p_min {u.p_min} exceeds the forecast_upper minimum"))
    elif isinstance(u, FdUnit):
        lo, hi = u.p_min, u.p_max
        if lo is None or hi is None:
            out.append((None, "consumption bounds missing and not derivable from profiles"))
        elif not failed & {"p_min", "p_max", "profiles"}:
            for m, prof in enumerate(u.profiles):
                if prof and not lo <= min(prof) <= max(prof) <= hi:
                    out += [
                        ("profiles", f"profile {m} value {v} at period {t + 1} is outside [p_min={lo}, p_max={hi}]")
                        for t, v in enumerate(prof)
                        if not lo <= v <= hi
                    ]
    return out


def _name_problems(names) -> list[tuple[int, str]]:
    """(position, message) for each unit name that is a string but no
    identifier (any other is _problems' to name), or repeats an earlier one."""
    out = []
    for i, name in enumerate(names):
        if isinstance(name, str) and not (name[:1].isalpha() and name.replace("_", "").isalnum()):
            out.append((i, f"{name!r}: unit name must be a letter followed by alphanumerics/underscores"))
        if name in names[:i]:
            out.append((i, f"{name}: duplicate unit name"))
    return out


_EXPECTED = {"number": "a number", "int": "an integer"}


def _problems(obj, T: int):
    """(field, index path, rule text) for each value of obj that breaks its
    declaration on a T-period grid, a value's kind before its bounds; a
    nested block's problems carry the path within it, such as ("store",
    ".charge_eff", text).  None is a value only where it is the default."""
    for name, spec in _declared(type(obj)).items():
        v = getattr(obj, name)
        kind = spec.kind
        if v is None and spec.default is None:
            continue
        if isinstance(kind, type):
            if not isinstance(v, kind):
                yield name, "", f"expected a {kind.__name__}, got {v!r}"
                continue
            yield from ((name, f".{inner}{index}", text) for inner, index, text in _problems(v, T))
        elif kind == "str":
            if not isinstance(v, str):
                yield name, "", f"expected a string, got {v!r}"
            elif spec.among is not None and v not in spec.among:
                yield name, "", f"expected one of {list(spec.among)}, got {v!r}"
        elif kind == "series" or kind == "profiles":
            if kind == "profiles" and not (isinstance(v, tuple) and v):
                yield name, "", "expected a non-empty list"
                continue
            for index, vec in [("", v)] if kind == "series" else ((f"[{m}]", p) for m, p in enumerate(v)):
                if not isinstance(vec, tuple):
                    yield name, index, "expected a list of numbers"
                elif not all(map(_is_number, vec)):
                    t, x = next((t, x) for t, x in enumerate(vec) if not _is_number(x))
                    yield name, f"{index}[{t}]", f"expected a number, got {x!r}"
                elif len(vec) != T:
                    yield name, index, f"expected {T} entries, got {len(vec)}; grid.period_count is {T}"
                else:
                    for t, x in enumerate(vec):
                        if not spec.floor <= x <= spec.ceil:
                            yield name, f"{index}[{t}]", f"expected a number {spec.bounds}, got {x!r}"
        elif not (type(v) is int if kind == "int" else _is_number(v)):
            yield name, "", f"expected {_EXPECTED[kind]}, got {v!r}"
        elif not spec.floor <= v <= spec.ceil:
            yield name, "", f"expected {_EXPECTED[kind]} {spec.bounds}, got {v!r}"


def validate_scenario(scenario: MarketScenario) -> list[str]:
    """Every invariant violation of a market as a human-readable string:
    the grid's and price series' declarations, each after its owner."""
    T = scenario.grid.period_count
    owned = (("grid", scenario.grid), ("scenario", scenario))
    return [f"{owner}: {name}{index}: {text}" for owner, obj in owned for name, index, text in _problems(obj, T)]


def validate_portfolio(portfolio: Portfolio, scenario: MarketScenario) -> list[str]:
    """Collect every invariant violation as a human-readable string: the
    market's (validate_scenario), unit names that are not distinct
    identifiers, and each unit's declarations and cross-field rules, after
    the unit's name; a declaration's text is the one load_scenario gives."""
    out = validate_scenario(scenario)
    T = scenario.grid.period_count
    units = portfolio.all_units()
    out += [message for _, message in _name_problems([u.name for u in units])]
    for u in units:
        problems = list(_problems(u, T))
        out += [f"{u.name}: {name}{index}: {text}" for name, index, text in problems]
        out += [f"{u.name}: {text}" for _, text in _relations(u, T, {name for name, _, _ in problems})]
    return out


def validate_budgets(budgets: BudgetSet, grid: PeriodGrid, portfolio: Portfolio | None = None) -> list[str]:
    """Budgets must be integers within [0, period_count]; a bool is not one,
    though Python counts it an int.  A unit has at most one per-unit budget.
    Given the portfolio, a per-unit budget must name one of its units, and
    not a dispatchable or storage unit, which has no quantity stream."""
    out: list[str] = []
    T = grid.period_count

    def outside(g) -> bool:
        return not isinstance(g, int) or isinstance(g, bool) or not 0 <= g <= T

    for label in PRICE_STREAMS.values():
        g = getattr(budgets, label)
        if outside(g):
            out.append(f"budgets: {label}={g!r} is outside [0, {T}]")
    known = set(portfolio.unit_names()) if portfolio is not None else None
    units = (("dispatchable", portfolio.drs), ("storage", portfolio.es)) if portfolio is not None else ()
    price_only = {u.name: what for what, group in units for u in group}
    for name, g in budgets.gamma_per_unit:
        if outside(g):
            out.append(f"budgets: gamma[{name}]={g!r} is outside [0, {T}]")
        if known is not None and name not in known:
            out.append(f"budgets: gamma names unknown unit {name!r}")
        if name in price_only:
            out.append(f"budgets: gamma names {price_only[name]} unit {name!r}, which takes price budgets only")
    names = [name for name, _ in budgets.gamma_per_unit]
    for name in dict.fromkeys(names):
        if names.count(name) > 1:
            out.append(f"budgets: gamma names unit {name!r} {names.count(name)} times")
    return out


def strategy_budgets(strategy: str, portfolio: Portfolio) -> BudgetSet:
    """Budget ladder row for a named strategy.

    The deterministic strategy is ZERO_BUDGETS.  Prices and wind forecasts
    take the full budget (3/6/9 periods for optimistic/balanced/pessimistic);
    solar-driven streams and flexible demand take the reduced budget (2/4/6).
    These counts do not depend on the period count.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r} (expected one of {STRATEGIES})")
    if strategy == "deterministic":
        return ZERO_BUDGETS
    full = _FULL_BUDGET[strategy]
    reduced = _REDUCED_BUDGET[strategy]
    per_unit = {u.name: full if u.technology == WIND else reduced for u in portfolio.ndrs}
    per_unit.update((u.name, reduced) for u in portfolio.csp + portfolio.fd)
    return BudgetSet(full, full, full, per_unit)
