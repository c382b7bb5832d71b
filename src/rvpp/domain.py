"""Portfolio, market, and uncertainty-budget data types.

All types are frozen dataclasses holding plain tuples, so field-for-field
equality and hashing behave normally and YAML round-trips are exact.  Vectors
are indexed by period (0-based internally; period p in reports means index
p-1).  Units: power MW, energy MWh, prices EUR/MWh for energy and EUR/MW for
reserve capacity, costs EUR.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

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


def _vec(values) -> tuple[float, ...]:
    return tuple(float(v) for v in values)


def _mat(rows) -> tuple[tuple[float, ...], ...]:
    return tuple(_vec(r) for r in rows)


@dataclass(frozen=True)
class PeriodGrid:
    """Uniform scheduling horizon: period_count periods of delta_t hours."""

    period_count: int
    delta_t: float = 1.0


@dataclass(frozen=True)
class DrsUnit:
    """Dispatchable renewable source with commitment logic (hydro, biomass)."""

    name: str
    p_max: float
    p_min: float
    startup_cost: float
    shutdown_cost: float
    op_cost: float
    min_up: int = 0
    min_down: int = 0
    daily_energy_limit: float | None = None


@dataclass(frozen=True)
class NdrsUnit:
    """Non-dispatchable renewable source curtailable below a forecast ceiling.

    forecast_upper is the nominal availability; forecast_deviation is the
    per-period worst-case downward deviation from it.  technology selects the
    budget column (wind gets the full budget, solar the reduced one).
    """

    name: str
    technology: str
    p_min: float
    op_cost: float
    forecast_upper: tuple[float, ...]
    forecast_deviation: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "forecast_upper", _vec(self.forecast_upper))
        object.__setattr__(self, "forecast_deviation", _vec(self.forecast_deviation))


@dataclass(frozen=True)
class ThermalStoreParams:
    """Thermal tank behind a CSP solar field (thermal MW / MWh)."""

    e_min: float
    e_max: float
    charge_p_max: float
    discharge_p_max: float
    charge_eff: float
    discharge_eff: float


@dataclass(frozen=True)
class CspUnit:
    """Concentrated solar power block: solar field, thermal store, turbine.

    turbine_eff converts thermal input to electrical output.  startup_loss
    scales turbine_p_max to give the extra thermal draw charged to the
    balance on every startup.
    """

    name: str
    turbine_p_max: float
    turbine_p_min: float
    turbine_eff: float
    startup_loss: float
    op_cost: float
    min_up: int
    min_down: int
    sf_upper: tuple[float, ...]
    sf_deviation: tuple[float, ...]
    store: ThermalStoreParams

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

    name: str
    profiles: tuple[tuple[float, ...], ...]
    deviation: tuple[float, ...]
    p_min: float | None = None
    p_max: float | None = None
    flexibility_margin: float = 0.10

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

    name: str
    charge_p_max: float
    discharge_p_max: float
    e_max: float
    e_min: float
    charge_eff: float
    discharge_eff: float
    op_cost: float
    charge_p_min: float = 0.0
    discharge_p_min: float = 0.0

    def scaled(self, n: int) -> EsUnit:
        if not isinstance(n, int) or n < 1:
            raise ValueError(f"module_count must be a positive integer, got {n!r}")
        ratings = ("charge_p_max", "charge_p_min", "discharge_p_max", "discharge_p_min", "e_max", "e_min")
        return replace(self, **{f: getattr(self, f) * n for f in ratings})


@dataclass(frozen=True)
class Portfolio:
    drs: tuple[DrsUnit, ...] = ()
    ndrs: tuple[NdrsUnit, ...] = ()
    csp: tuple[CspUnit, ...] = ()
    fd: tuple[FdUnit, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "drs", tuple(self.drs))
        object.__setattr__(self, "ndrs", tuple(self.ndrs))
        object.__setattr__(self, "csp", tuple(self.csp))
        object.__setattr__(self, "fd", tuple(self.fd))

    def all_units(self) -> tuple:
        return self.drs + self.ndrs + self.csp + self.fd

    def unit_names(self) -> tuple[str, ...]:
        return tuple(u.name for u in self.all_units())

    def is_empty(self) -> bool:
        return not self.all_units()


@dataclass(frozen=True)
class MarketScenario:
    """Day-ahead and secondary-reserve prices with budget-set deviations.

    dam_price is the nominal (median) energy price; dam_price_down_dev and
    dam_price_up_dev are the worst-case drops (hurting sales) and rises
    (hurting purchases).  Reserve prices pay capacity (EUR/MW) and only fall
    under uncertainty.  season and regime only tag the cell: the regime's
    data (energy limits, forecast errors) lives in the units that
    scenario_io.load_scenario built for this cell.
    """

    grid: PeriodGrid
    dam_price: tuple[float, ...]
    dam_price_down_dev: tuple[float, ...]
    dam_price_up_dev: tuple[float, ...]
    sr_up_price: tuple[float, ...]
    sr_up_price_dev: tuple[float, ...]
    sr_dn_price: tuple[float, ...]
    sr_dn_price_dev: tuple[float, ...]
    season: str | None = None
    regime: str | None = None

    def __post_init__(self):
        for name in (
            "dam_price",
            "dam_price_down_dev",
            "dam_price_up_dev",
            "sr_up_price",
            "sr_up_price_dev",
            "sr_dn_price",
            "sr_dn_price_dev",
        ):
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


def _name_ok(name: str) -> bool:
    return bool(name) and name[0].isalpha() and all(c.isalnum() or c == "_" for c in name)


def _check_series(out: list[str], owner: str, label: str, vec, T: int, lo: float | None = 0.0) -> None:
    if len(vec) != T:
        out.append(f"{owner}: {label} has {len(vec)} entries, grid has {T} periods")
        return
    if lo is not None:
        for t, v in enumerate(vec):
            if v < lo:
                out.append(f"{owner}: {label} is {v} at period {t + 1}, below {lo}")


def validate_scenario(scenario: MarketScenario) -> list[str]:
    """Every invariant violation of a market as a human-readable string.

    An empty list means the grid is well formed, each price series has one
    entry per period, every deviation and reserve price is nonnegative, and
    the season and regime tags are known.
    """
    out: list[str] = []
    grid = scenario.grid
    T = grid.period_count
    if T < 1:
        out.append(f"grid: period_count must be at least 1, got {T}")
    if not grid.delta_t > 0:
        out.append(f"grid: delta_t must be positive, got {grid.delta_t}")
    _check_series(out, "scenario", "dam_price", scenario.dam_price, T, lo=None)
    _check_series(out, "scenario", "dam_price_down_dev", scenario.dam_price_down_dev, T)
    _check_series(out, "scenario", "dam_price_up_dev", scenario.dam_price_up_dev, T)
    _check_series(out, "scenario", "sr_up_price", scenario.sr_up_price, T)
    _check_series(out, "scenario", "sr_up_price_dev", scenario.sr_up_price_dev, T)
    _check_series(out, "scenario", "sr_dn_price", scenario.sr_dn_price, T)
    _check_series(out, "scenario", "sr_dn_price_dev", scenario.sr_dn_price_dev, T)
    if scenario.season is not None and scenario.season not in SEASONS:
        out.append(f"scenario: unknown season {scenario.season!r}")
    if scenario.regime is not None and scenario.regime not in REGIMES:
        out.append(f"scenario: unknown regime {scenario.regime!r}")
    return out


def validate_portfolio(portfolio: Portfolio, scenario: MarketScenario) -> list[str]:
    """Collect every invariant violation as a human-readable string.

    An empty list means the pair is internally consistent: the market passes
    validate_scenario, series lengths match the grid, bounds are ordered,
    deviations are within forecasts, budget-free data is nonnegative where
    physics requires it.
    """
    out = validate_scenario(scenario)
    T = scenario.grid.period_count

    names = list(portfolio.unit_names())
    for name in names:
        if not _name_ok(name):
            out.append(f"{name!r}: unit name must be a letter followed by alphanumerics/underscores")
    dupes = sorted({n for n in names if names.count(n) > 1})
    for n in dupes:
        out.append(f"{n}: duplicate unit name")

    for u in portfolio.drs:
        if not 0 <= u.p_min <= u.p_max:
            out.append(f"{u.name}: requires 0 <= p_min <= p_max, got p_min={u.p_min}, p_max={u.p_max}")
        for label in ("startup_cost", "shutdown_cost", "op_cost"):
            if getattr(u, label) < 0:
                out.append(f"{u.name}: {label} must be nonnegative")
        if u.min_up < 0 or u.min_down < 0:
            out.append(f"{u.name}: min_up/min_down must be nonnegative")
        if u.daily_energy_limit is not None and u.daily_energy_limit < 0:
            out.append(f"{u.name}: daily_energy_limit must be nonnegative")

    for u in portfolio.ndrs:
        if u.technology not in _TECHNOLOGIES:
            out.append(f"{u.name}: unknown technology {u.technology!r} (expected one of {_TECHNOLOGIES})")
        if u.p_min < 0:
            out.append(f"{u.name}: p_min must be nonnegative")
        if u.op_cost < 0:
            out.append(f"{u.name}: op_cost must be nonnegative")
        _check_series(out, u.name, "forecast_upper", u.forecast_upper, T)
        _check_series(out, u.name, "forecast_deviation", u.forecast_deviation, T)
        if len(u.forecast_upper) == len(u.forecast_deviation) == T:
            for t in range(T):
                if u.forecast_deviation[t] > u.forecast_upper[t]:
                    out.append(
                        f"{u.name}: forecast_deviation {u.forecast_deviation[t]} exceeds "
                        f"forecast_upper {u.forecast_upper[t]} at period {t + 1}"
                    )
            if u.p_min > min(u.forecast_upper):
                out.append(f"{u.name}: p_min {u.p_min} exceeds the forecast_upper minimum")

    for u in portfolio.csp:
        if not 0 <= u.turbine_p_min <= u.turbine_p_max:
            out.append(
                f"{u.name}: requires 0 <= turbine_p_min <= turbine_p_max, "
                f"got {u.turbine_p_min}, {u.turbine_p_max}"
            )
        if not 0 < u.turbine_eff <= 1:
            out.append(f"{u.name}: turbine_eff must be in (0, 1]")
        if u.startup_loss < 0:
            out.append(f"{u.name}: startup_loss must be nonnegative")
        if u.op_cost < 0:
            out.append(f"{u.name}: op_cost must be nonnegative")
        if u.min_up < 0 or u.min_down < 0:
            out.append(f"{u.name}: min_up/min_down must be nonnegative")
        _check_series(out, u.name, "sf_upper", u.sf_upper, T)
        _check_series(out, u.name, "sf_deviation", u.sf_deviation, T)
        if len(u.sf_upper) == len(u.sf_deviation) == T:
            for t in range(T):
                if u.sf_deviation[t] > u.sf_upper[t]:
                    out.append(
                        f"{u.name}: sf_deviation {u.sf_deviation[t]} exceeds "
                        f"sf_upper {u.sf_upper[t]} at period {t + 1}"
                    )
        st = u.store
        if not 0 <= st.e_min <= st.e_max:
            out.append(f"{u.name}: store requires 0 <= e_min <= e_max, got {st.e_min}, {st.e_max}")
        if st.charge_p_max < 0 or st.discharge_p_max < 0:
            out.append(f"{u.name}: store power limits must be nonnegative")
        if not (0 < st.charge_eff <= 1 and 0 < st.discharge_eff <= 1):
            out.append(f"{u.name}: store efficiencies must be in (0, 1]")

    for u in portfolio.fd:
        if not u.profiles:
            out.append(f"{u.name}: needs at least one demand profile")
        if not 0 <= u.flexibility_margin < 1:
            out.append(f"{u.name}: flexibility_margin must be in [0, 1)")
        if u.p_min is None or u.p_max is None:
            out.append(f"{u.name}: consumption bounds missing and not derivable from profiles")
            continue
        if not 0 <= u.p_min <= u.p_max:
            out.append(f"{u.name}: requires 0 <= p_min <= p_max, got p_min={u.p_min}, p_max={u.p_max}")
        for m, prof in enumerate(u.profiles):
            if len(prof) != T:
                out.append(f"{u.name}: profile {m} has {len(prof)} entries, grid has {T} periods")
                continue
            for t, v in enumerate(prof):
                if not u.p_min <= v <= u.p_max:
                    out.append(
                        f"{u.name}: profile {m} value {v} at period {t + 1} is outside "
                        f"[p_min={u.p_min}, p_max={u.p_max}]"
                    )
        _check_series(out, u.name, "deviation", u.deviation, T)
    return out


def validate_es(u: EsUnit) -> list[str]:
    """Every invariant violation of a storage unit: ordered, nonnegative
    power and energy bounds, efficiencies in (0, 1] and a nonnegative cost."""
    out: list[str] = []
    if not 0 <= u.charge_p_min <= u.charge_p_max:
        out.append(f"{u.name}: requires 0 <= charge_p_min <= charge_p_max")
    if not 0 <= u.discharge_p_min <= u.discharge_p_max:
        out.append(f"{u.name}: requires 0 <= discharge_p_min <= discharge_p_max")
    if not 0 <= u.e_min <= u.e_max:
        out.append(f"{u.name}: requires 0 <= e_min <= e_max")
    if not (0 < u.charge_eff <= 1 and 0 < u.discharge_eff <= 1):
        out.append(f"{u.name}: efficiencies must be in (0, 1]")
    if u.op_cost < 0:
        out.append(f"{u.name}: op_cost must be nonnegative")
    return out


def validate_budgets(budgets: BudgetSet, grid: PeriodGrid, portfolio: Portfolio | None = None) -> list[str]:
    """Budgets must be integers within [0, period_count]."""
    out: list[str] = []
    T = grid.period_count
    for label in ("gamma_dam", "gamma_sr_up", "gamma_sr_down"):
        g = getattr(budgets, label)
        if not isinstance(g, int) or not 0 <= g <= T:
            out.append(f"budgets: {label}={g!r} is outside [0, {T}]")
    known = set(portfolio.unit_names()) if portfolio is not None else None
    for name, g in budgets.gamma_per_unit:
        if not isinstance(g, int) or not 0 <= g <= T:
            out.append(f"budgets: gamma[{name}]={g!r} is outside [0, {T}]")
        if known is not None and name not in known:
            out.append(f"budgets: gamma names unknown unit {name!r}")
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
