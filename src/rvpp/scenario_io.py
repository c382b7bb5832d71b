"""Scenario file loading/writing and deterministic results output.

The scenario file is one YAML document holding the portfolio, per-season
price curves, per-season/per-regime forecast deviations, seasonal energy
limits, and the storage module used for equivalence sizing.  A regime is
data: per season, the hydro energy limit and the forecast-error series.
load_scenario is the only place a (season, regime) pair becomes units: it
parses each unit once into the fields every cell shares and the fields that
vary by cell, then builds and validates one (Portfolio, MarketScenario) pair
per cell.  The canonical parsed form round-trips exactly through
save_scenario.

Result files are plain CSV with all numbers at 6 significant digits and rows
in a fixed sort order, so identical runs produce byte-identical files.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

import yaml

from .domain import (
    REGIMES,
    SEASONS,
    CspUnit,
    DrsUnit,
    EsUnit,
    FdUnit,
    MarketScenario,
    NdrsUnit,
    PeriodGrid,
    Portfolio,
    ThermalStoreParams,
    validate_es,
    validate_portfolio,
)

_PRICE_KEYS = (
    "dam_price",
    "dam_price_down_dev",
    "dam_price_up_dev",
    "sr_up_price",
    "sr_up_price_dev",
    "sr_dn_price",
    "sr_dn_price_dev",
)
_STORE_KEYS = ("e_min", "e_max", "charge_p_max", "discharge_p_max", "charge_eff", "discharge_eff")
_ES_KEYS = _STORE_KEYS + ("op_cost",)
_TOP_KEYS = (
    "schema_version", "description", "grid", "seasons", "regimes", "prices", "units", "energy_limits", "es_module",
)
# Scenario-file unit class (also its Portfolio field) -> unit type.
_UNIT_CLASSES = {"drs": DrsUnit, "ndrs": NdrsUnit, "csp": CspUnit, "fd": FdUnit}


class ScenarioFormatError(ValueError):
    """Malformed scenario file; the message names the offending field path."""


@dataclass
class ScenarioBundle:
    """Everything a run needs, keyed by (season, regime)."""

    path: str
    description: str
    grid: PeriodGrid
    seasons: tuple[str, ...]
    regimes: tuple[str, ...]
    cells: dict[tuple[str, str], tuple[Portfolio, MarketScenario]]
    es_module: EsUnit | None
    raw: dict = field(repr=False, default_factory=dict)

    def cell(self, season: str, regime: str) -> tuple[Portfolio, MarketScenario]:
        try:
            return self.cells[(season, regime)]
        except KeyError:
            raise ScenarioFormatError(
                f"{self.path}: no cell for season={season!r}, regime={regime!r}"
            ) from None


def default_scenario_path() -> Path:
    return Path(str(resources.files("rvpp").joinpath("data/default_scenario.yaml")))


def _need(mapping: dict, key: str, path: str):
    if not isinstance(mapping, dict) or key not in mapping:
        raise ScenarioFormatError(f"{path}.{key}: missing")
    return mapping[key]


_REQUIRED = object()
_EXPECTED = {float: "a number", int: "an integer", dict: "a mapping"}


def _field(mapping: dict, key, path: str, kind=float, default=_REQUIRED):
    """mapping[key] as kind (float, int or dict), or ScenarioFormatError
    naming path.key.

    A missing key takes default and is an error without one; with a None
    default, a null value stays None.
    """
    value = _need(mapping, key, path) if default is _REQUIRED else mapping.get(key, default)
    if value is None and default is None:
        return None
    if kind is dict:
        if isinstance(value, dict):
            return value
        raise ScenarioFormatError(f"{path}.{key}: expected {_EXPECTED[kind]}")
    return _number(value, f"{path}.{key}", kind)


def _only(mapping: dict, known, path: str) -> None:
    """ScenarioFormatError naming path and the first key of mapping not in
    known, the keys the loader has read from it: a misspelt optional key
    would otherwise leave its field at the default."""
    for key in mapping:
        if key not in known:
            raise ScenarioFormatError(f"{path}: unknown key {key!r}")


def _number(value, path: str, kind=float):
    """value as a finite float, or as an int for kind int, or
    ScenarioFormatError naming path.

    float() and int() would also take a YAML boolean (true is 1.0), an
    infinity or NaN, and a fractional integer (int(2.5) is 2); all are
    rejected here.
    """
    number = None
    if not isinstance(value, bool):
        try:
            number = float(value)
        except (TypeError, ValueError):
            pass
    if number is None or not math.isfinite(number) or (kind is int and not number.is_integer()):
        raise ScenarioFormatError(f"{path}: expected {_EXPECTED[kind]}, got {value!r}")
    return int(number) if kind is int else number


def _floats(value, path: str, length: int | None = None) -> list[float]:
    if not isinstance(value, (list, tuple)):
        raise ScenarioFormatError(f"{path}: expected a list of numbers")
    out = [_number(v, f"{path}[{i}]") for i, v in enumerate(value)]
    if length is not None and len(out) != length:
        raise ScenarioFormatError(f"{path}: expected {length} entries, got {len(out)}; grid.period_count is {length}")
    return out


def _names(doc: dict, key: str, known: tuple[str, ...]) -> tuple[str, ...]:
    """doc[key], all of known when absent, as a non-empty list of distinct
    names from known, or ScenarioFormatError naming key."""
    names = doc.get(key, list(known))
    if not isinstance(names, list) or not names:
        raise ScenarioFormatError(f"{key}: expected a non-empty list of names from {list(known)}, got {names!r}")
    for i, name in enumerate(names):
        if name not in known:
            raise ScenarioFormatError(f"{key}: unknown {key[:-1]} {name!r} (expected one of {list(known)})")
        if name in names[:i]:
            raise ScenarioFormatError(f"{key}: {name!r} is listed twice")
    return tuple(names)


def _per_season(mapping, seasons, path: str, T: int) -> dict[str, list[float]]:
    out = {}
    for season in seasons:
        out[season] = _floats(_need(mapping, season, path), f"{path}.{season}", T)
    return out


def _per_season_regime(mapping, seasons, regimes, path: str, T: int) -> dict[str, dict[str, list[float]]]:
    out: dict[str, dict[str, list[float]]] = {}
    for season in seasons:
        block = _need(mapping, season, path)
        out[season] = {}
        for regime in regimes:
            out[season][regime] = _floats(
                _need(block, regime, f"{path}.{season}"), f"{path}.{season}.{regime}", T
            )
    return out


def load_scenario(path: str | Path) -> ScenarioBundle:
    """Parse, normalize, and validate a scenario file.

    Raises ScenarioFormatError naming the first offending field (including
    per-cell portfolio/scenario validation failures).
    """
    path = Path(path)
    if not path.exists():
        raise ScenarioFormatError(f"scenario file not found: {path}")
    # libyaml's parser when PyYAML was built with it: it parses the shipped
    # file about seven times faster, into the same document.
    loader = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = yaml.load(fh, Loader=loader)
        except yaml.YAMLError as exc:
            raise ScenarioFormatError(f"{path}: not valid YAML: {exc}") from exc
    if not isinstance(doc, dict):
        raise ScenarioFormatError(f"{path}: top level must be a mapping")
    _only(doc, _TOP_KEYS, str(path))

    version = doc.get("schema_version")
    if version != 1:
        raise ScenarioFormatError(f"{path}: schema_version must be 1, got {version!r}")
    description = str(doc.get("description", ""))
    grid_block = _need(doc, "grid", str(path))
    T = _field(grid_block, "period_count", "grid", int)
    if T < 1:
        raise ScenarioFormatError(f"grid.period_count: expected at least 1, got {T}")
    dt = _field(grid_block, "delta_t", "grid")
    _only(grid_block, ("period_count", "delta_t"), "grid")
    grid = PeriodGrid(T, dt)

    seasons = _names(doc, "seasons", SEASONS)
    regimes = _names(doc, "regimes", REGIMES)

    prices_block = _need(doc, "prices", str(path))
    prices: dict[str, dict[str, list[float]]] = {}
    for season in seasons:
        block = _need(prices_block, season, "prices")
        prices[season] = {
            key: _floats(_need(block, key, f"prices.{season}"), f"prices.{season}.{key}", T)
            for key in _PRICE_KEYS
        }
        _only(block, _PRICE_KEYS, f"prices.{season}")

    units = _need(doc, "units", str(path))
    if not isinstance(units, list) or not units:
        raise ScenarioFormatError("units: expected a non-empty list")

    limits_block = _field(doc, "energy_limits", str(path), dict, None) or {}
    limit_table: dict[str, dict[str, dict[str, float]]] = {}
    for unit_name in limits_block:
        limit_table[str(unit_name)] = {}
        seasons_map = _field(limits_block, unit_name, "energy_limits", dict)
        for season in seasons_map:
            if season not in seasons:
                raise ScenarioFormatError(f"energy_limits.{unit_name}: unknown season {season!r}")
            regs = _field(seasons_map, season, f"energy_limits.{unit_name}", dict)
            limit_table[str(unit_name)][season] = {
                str(reg): _field(regs, reg, f"energy_limits.{unit_name}.{season}") for reg in regs
            }

    # Each unit is parsed once into the fields every cell shares and, per
    # (season, regime) cell, the fields that vary: the hydro energy limit and
    # the forecast-error series.
    cell_keys = [(season, regime) for season in seasons for regime in regimes]
    specs: list[tuple[str, dict, dict[tuple[str, str], dict]]] = []
    for i, u in enumerate(units):
        upath = f"units[{i}]"
        cls = _need(u, "class", upath)
        name = str(_need(u, "name", upath))
        if cls == "drs":
            shared = dict(
                name=name,
                p_max=_field(u, "p_max", upath),
                p_min=_field(u, "p_min", upath),
                startup_cost=_field(u, "startup_cost", upath),
                shutdown_cost=_field(u, "shutdown_cost", upath),
                op_cost=_field(u, "op_cost", upath),
                min_up=_field(u, "min_up", upath, int, 0),
                min_down=_field(u, "min_down", upath, int, 0),
            )
            limit = _field(u, "daily_energy_limit", upath, float, None)
            rows = limit_table.get(name, {})
            varying = {}
            for season, regime in cell_keys:
                row = rows.get(season)
                if row is not None and regime not in row:
                    raise ScenarioFormatError(f"energy_limits.{name}.{season}: missing regime {regime!r}")
                varying[(season, regime)] = {"daily_energy_limit": limit if row is None else row[regime]}
        elif cls == "ndrs":
            shared = dict(
                name=name,
                technology=str(_need(u, "technology", upath)),
                p_min=_field(u, "p_min", upath),
                op_cost=_field(u, "op_cost", upath),
            )
            upper = _per_season(_need(u, "forecast_upper", upath), seasons, f"{upath}.forecast_upper", T)
            dev = _per_season_regime(
                _need(u, "forecast_deviation", upath), seasons, regimes, f"{upath}.forecast_deviation", T
            )
            varying = {(s, r): {"forecast_upper": upper[s], "forecast_deviation": dev[s][r]} for s, r in cell_keys}
        elif cls == "csp":
            store_block = _need(u, "store", upath)
            spath = f"{upath}.store"
            shared = dict(
                name=name,
                turbine_p_max=_field(u, "turbine_p_max", upath),
                turbine_p_min=_field(u, "turbine_p_min", upath),
                turbine_eff=_field(u, "turbine_eff", upath),
                startup_loss=_field(u, "startup_loss", upath),
                op_cost=_field(u, "op_cost", upath),
                min_up=_field(u, "min_up", upath, int, 0),
                min_down=_field(u, "min_down", upath, int, 0),
                store=ThermalStoreParams(**{key: _field(store_block, key, spath) for key in _STORE_KEYS}),
            )
            _only(store_block, _STORE_KEYS, spath)
            upper = _per_season(_need(u, "sf_upper", upath), seasons, f"{upath}.sf_upper", T)
            dev = _per_season_regime(
                _need(u, "sf_deviation", upath), seasons, regimes, f"{upath}.sf_deviation", T
            )
            varying = {(s, r): {"sf_upper": upper[s], "sf_deviation": dev[s][r]} for s, r in cell_keys}
        elif cls == "fd":
            profiles = _need(u, "profiles", upath)
            if not isinstance(profiles, list) or not profiles:
                raise ScenarioFormatError(f"{upath}.profiles: expected a non-empty list")
            shared = dict(
                name=name,
                profiles=[_floats(p, f"{upath}.profiles[{j}]", T) for j, p in enumerate(profiles)],
                flexibility_margin=_field(u, "flexibility_margin", upath, float, 0.10),
                p_min=_field(u, "p_min", upath, float, None),
                p_max=_field(u, "p_max", upath, float, None),
            )
            dev_block = _need(u, "deviation", upath)
            dev = {
                r: _floats(_need(dev_block, r, f"{upath}.deviation"), f"{upath}.deviation.{r}", T)
                for r in regimes
            }
            varying = {(s, r): {"deviation": dev[r]} for s, r in cell_keys}
        else:
            raise ScenarioFormatError(f"{upath}.class: unknown unit class {cls!r}")
        _only(u, {"class", *shared, *varying[cell_keys[0]]}, upath)
        specs.append((cls, shared, varying))

    drs_names = {shared["name"] for cls, shared, _ in specs if cls == "drs"}
    for unit_name in limit_table:
        if unit_name not in drs_names:
            raise ScenarioFormatError(f"energy_limits.{unit_name}: no drs unit has this name")

    es_module = None
    e = _field(doc, "es_module", str(path), dict, None)
    if e is not None:
        fields = dict(
            name=str(_need(e, "name", "es_module")),
            **{key: _field(e, key, "es_module") for key in _ES_KEYS},
            charge_p_min=_field(e, "charge_p_min", "es_module", float, 0.0),
            discharge_p_min=_field(e, "discharge_p_min", "es_module", float, 0.0),
        )
        _only(e, fields, "es_module")
        es_module = EsUnit(**fields)
        problems = validate_es(es_module)
        if problems:
            raise ScenarioFormatError("es_module: " + "; ".join(problems))

    cells: dict[tuple[str, str], tuple[Portfolio, MarketScenario]] = {}
    for season, regime in cell_keys:
        groups: dict[str, list] = {cls: [] for cls in _UNIT_CLASSES}
        for cls, shared, varying in specs:
            groups[cls].append(_UNIT_CLASSES[cls](**shared, **varying[(season, regime)]))
        portfolio = Portfolio(**groups)
        scenario = MarketScenario(
            grid=grid,
            season=season,
            regime=regime,
            **{key: prices[season][key] for key in _PRICE_KEYS},
        )
        violations = validate_portfolio(portfolio, scenario)
        if violations:
            raise ScenarioFormatError(f"{path} [{season}/{regime}]: " + "; ".join(violations[:5]))
        cells[(season, regime)] = (portfolio, scenario)

    return ScenarioBundle(
        path=str(path),
        description=description,
        grid=grid,
        seasons=seasons,
        regimes=regimes,
        cells=cells,
        es_module=es_module,
        raw=doc,
    )


def save_scenario(bundle_or_raw, path: str | Path) -> None:
    """Write the canonical YAML form (lossless float repr, stable ordering)."""
    raw = bundle_or_raw.raw if isinstance(bundle_or_raw, ScenarioBundle) else bundle_or_raw
    text = yaml.safe_dump(raw, sort_keys=False, default_flow_style=None, width=100000)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def scale_flexible_demand(portfolio: Portfolio, factor: float) -> Portfolio:
    """Scale every flexible-demand unit's size by factor (0 drops them)."""
    if factor < 0:
        raise ValueError("flexible-demand scale factor must be nonnegative")
    if factor == 0:
        return Portfolio(drs=portfolio.drs, ndrs=portfolio.ndrs, csp=portfolio.csp, fd=())
    scaled = tuple(
        FdUnit(
            name=u.name,
            profiles=[[v * factor for v in prof] for prof in u.profiles],
            deviation=[v * factor for v in u.deviation],
            p_min=u.p_min * factor,
            p_max=u.p_max * factor,
            flexibility_margin=u.flexibility_margin,
        )
        for u in portfolio.fd
    )
    return Portfolio(drs=portfolio.drs, ndrs=portfolio.ndrs, csp=portfolio.csp, fd=scaled)


@dataclass
class ResultRow:
    case: str
    season: str
    regime: str
    strategy: str
    configuration: str
    values: dict[str, float]


@dataclass
class SeriesRow:
    """One per-period curve for the plot files (kind: traded, reserve_up,
    reserve_dn, or soc)."""

    case: str
    season: str
    regime: str
    strategy: str
    configuration: str
    kind: str
    device: str
    values: tuple[float, ...]


@dataclass
class ResultsTable:
    rows: list[ResultRow] = field(default_factory=list)
    series: list[SeriesRow] = field(default_factory=list)


def _fmt6(v: float) -> str:
    if not math.isfinite(v):
        raise ValueError(f"non-finite value in results: {v}")
    if v == 0:
        return "0"
    return f"{v:.6g}"


_SEASON_ORDER = {s: i for i, s in enumerate(SEASONS)}
_REGIME_ORDER = {r: i for i, r in enumerate(REGIMES)}
_STRATEGY_ORDER = {"deterministic": 0, "optimistic": 1, "balanced": 2, "pessimistic": 3}


def cell_order(case, season: str, regime: str, strategy: str) -> tuple:
    """Sort key of a sweep cell: case, then season, regime and strategy in
    their declared order (unknown names last)."""
    return (
        case,
        _SEASON_ORDER.get(season, 99),
        _REGIME_ORDER.get(regime, 99),
        _STRATEGY_ORDER.get(strategy, 99),
    )


def _row_key(r) -> tuple:
    return (*cell_order(r.case, r.season, r.regime, r.strategy), r.strategy, r.configuration)


def write_results(table: ResultsTable, out_dir: str | Path) -> list[Path]:
    """Write results.csv plus the three per-period plot files.

    Rows are sorted deterministically and all numbers are rendered at six
    significant digits, so the outputs are byte-identical across repeated
    runs on the same inputs.  Raises ValueError on an empty table or any
    non-finite value.
    """
    if not table.rows:
        raise ValueError("results table has no rows")
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    keys: list[str] = []
    for row in table.rows:
        for k in row.values:
            if k not in keys:
                keys.append(k)
    base_cols = ["case", "season", "regime", "strategy", "configuration"]
    written: list[Path] = []

    results_path = out_dir / "results.csv"
    with open(results_path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(base_cols + keys)
        for row in sorted(table.rows, key=_row_key):
            cells = [row.case, row.season, row.regime, row.strategy, row.configuration]
            cells += [_fmt6(row.values[k]) if k in row.values else "" for k in keys]
            w.writerow(cells)
    written.append(results_path)

    for kind_file, kinds in (
        ("plot_traded_energy.csv", ("traded",)),
        ("plot_reserves.csv", ("reserve_up", "reserve_dn")),
        ("plot_soc.csv", ("soc",)),
    ):
        path = out_dir / kind_file
        rows = [s for s in table.series if s.kind in kinds]
        with open(path, "w", encoding="utf-8", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(base_cols + ["kind", "device", "period", "value"])
            for s in sorted(rows, key=lambda s: (_row_key(s), s.kind, s.device)):
                # SOC curves carry T+1 boundary points and start at period 0.
                first = 0 if s.kind == "soc" else 1
                for t, v in enumerate(s.values):
                    w.writerow(
                        [s.case, s.season, s.regime, s.strategy, s.configuration, s.kind, s.device, t + first, _fmt6(v)]
                    )
        written.append(path)
    return written
