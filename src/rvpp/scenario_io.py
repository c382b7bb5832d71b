"""Scenario file loading/writing and deterministic results output.

The scenario file is one YAML document holding the portfolio, per-season
price curves, per-season/per-regime forecast deviations, seasonal energy
limits, and the storage module used for equivalence sizing.  A regime is
data: per season, the hydro energy limit and the forecast-error series.
load_scenario reads every block with one reader driven by the field
declarations in domain (kind, default, bounds, unknown keys), so every error
names its YAML path, such as `prices.winter.sr_up_price[3]`.  It is the only
place a (season, regime) pair becomes units: each cell's units are built
once and checked against the cross-field rules.  The canonical parsed form
round-trips exactly through save_scenario.

Result files are plain CSV with all numbers at 6 significant digits and rows
in a fixed sort order, so identical runs produce byte-identical files.
"""

from __future__ import annotations

import csv
import math
from dataclasses import MISSING, dataclass, field, replace
from functools import partial
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
    _declared,
    _name_problems,
    _relations,
    _spec,
)

# The top-level keys besides _Header's, which the document's blocks hold.
_TOP_KEYS = ("grid", "seasons", "regimes", "prices", "units", "energy_limits", "es_module")
# Scenario-file unit class (also its Portfolio field) -> unit type.
_UNIT_CLASSES = {"drs": DrsUnit, "ndrs": NdrsUnit, "csp": CspUnit, "fd": FdUnit}
# The keys, outermost first, of a field declared by season and/or regime.
_AXES = {"season": ("season",), "regime": ("regime",), "season_regime": ("season", "regime")}
_KNOWN = {"season": SEASONS, "regime": REGIMES}


class ScenarioFormatError(ValueError):
    """Malformed scenario file; the message names the offending field path."""


@dataclass(frozen=True)
class _Header:
    """The two top-level scalars of a scenario file."""

    schema_version: int = _spec("int", within="[1, 1]")
    description: str = _spec("str", default="")


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


def _mapping(value, path: str, known, what: str = "key") -> None:
    """ScenarioFormatError naming path unless value is a mapping whose every
    key is in known: a misspelt optional key would otherwise leave its
    field at the default."""
    if not isinstance(value, dict):
        raise ScenarioFormatError(f"{path}: expected a mapping")
    for key in value:
        if key not in known:
            raise ScenarioFormatError(f"{path}: unknown {what} {key!r}")


_EXPECTED = {"number": "a number", "int": "an integer"}


def _number(value, path: str, kind="number"):
    """value as a finite float, or as an int for kind "int", or
    ScenarioFormatError naming path.

    Only a YAML int or float is a number.  float() and int() would also take
    a numeric string ('50'), a YAML boolean (true is 1.0), an infinity or
    NaN, and a fractional integer (int(2.5) is 2); all are rejected here.
    """
    number = None
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            number = float(value)
        except OverflowError:
            pass
    if number is None or not math.isfinite(number) or (kind == "int" and not number.is_integer()):
        raise ScenarioFormatError(f"{path}: expected {_EXPECTED[kind]}, got {value!r}")
    return int(number) if kind == "int" else number


def _series(spec, T: int, value, path: str) -> tuple[float, ...]:
    """value as T finite numbers within spec's bounds."""
    if not isinstance(value, list):
        raise ScenarioFormatError(f"{path}: expected a list of numbers")
    if len(value) != T:
        raise ScenarioFormatError(f"{path}: expected {T} entries, got {len(value)}; grid.period_count is {T}")
    # Checked whole; entry by entry only to name the entry that fails.
    try:
        vec = tuple(map(float, value)) if all(type(v) is float or type(v) is int for v in value) else None
    except OverflowError:
        vec = None
    if vec is None or not all(map(math.isfinite, vec)):
        vec = tuple(_number(v, f"{path}[{t}]") for t, v in enumerate(value))
    if spec.outside(vec):
        t = next(t for t, v in enumerate(vec) if not spec.floor <= v <= spec.ceil)
        raise ScenarioFormatError(f"{path}[{t}]: expected a number {spec.bounds}, got {value[t]!r}")
    return vec


def _value(spec, T: int, value, path: str):
    """value as spec's kind within its bounds; null stays None where None
    is the declared default."""
    kind = spec.kind
    if value is None and spec.default is None:
        return None
    if kind == "series":
        return _series(spec, T, value, path)
    if kind == "profiles":
        if not isinstance(value, list) or not value:
            raise ScenarioFormatError(f"{path}: expected a non-empty list")
        return [_series(spec, T, p, f"{path}[{j}]") for j, p in enumerate(value)]
    if kind == "str":
        if not isinstance(value, str):
            raise ScenarioFormatError(f"{path}: expected a string, got {value!r}")
        if spec.among is not None and value not in spec.among:
            raise ScenarioFormatError(f"{path}: expected one of {list(spec.among)}, got {value!r}")
        return value
    if isinstance(kind, type):
        return kind(**_read(kind, value, path, T, {})[0])
    number = _number(value, path, kind)
    if not spec.floor <= number <= spec.ceil:
        raise ScenarioFormatError(f"{path}: expected {_EXPECTED[kind]} {spec.bounds}, got {value!r}")
    return number


def _table(value, path: str, axes: tuple[str, ...], chosen: dict, read, optional_outer: bool = False):
    """value as a table keyed by axes[0], then the rest of axes, with
    read(leaf, leaf_path) at the leaves.  Every key must be a known season or
    regime and every name in chosen[axis] present (at the outer level, only
    unless optional_outer); a known name that chosen leaves out is skipped."""
    if not axes:
        return read(value, path)
    axis = axes[0]
    _mapping(value, path, _KNOWN[axis], axis)
    out = {}
    for name in chosen[axis]:
        if name in value:
            out[name] = _table(value[name], f"{path}.{name}", axes[1:], chosen, read)
        elif not optional_outer:
            raise ScenarioFormatError(f"{path}.{name}: missing")
    return out


def _read(cls, block, path: str, T: int, chosen: dict, extra: tuple[str, ...] = ()) -> tuple[dict, dict]:
    """The declared fields of dataclass cls from the mapping block at path:
    the values every cell shares, and (keys, _table) of each field that
    varies by cell, a field declared by "limits" taking its own value in
    every cell."""
    declared = _declared(cls)
    _mapping(block, path, (*declared, *extra))
    shared, varying = {}, {}
    for name, spec in declared.items():
        if name not in block:
            if spec.default is MISSING:
                raise ScenarioFormatError(f"{path}.{name}: missing")
            value = spec.default
        elif spec.by in _AXES:
            table = _table(block[name], f"{path}.{name}", _AXES[spec.by], chosen, partial(_value, spec, T))
            varying[name] = (_AXES[spec.by], table)
            continue
        else:
            value = _value(spec, T, block[name], f"{path}.{name}")
        if spec.by == "limits":
            own = {season: dict.fromkeys(chosen["regime"], value) for season in chosen["season"]}
            varying[name] = (("season", "regime"), own)
        else:
            shared[name] = value
    return shared, varying


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


def _check_relations(unit, T: int, path: str, cell: dict) -> None:
    """ScenarioFormatError for the first cross-field rule unit breaks,
    naming the YAML path of the field it blames (in this cell)."""
    for name, text in _relations(unit, T):
        if name is not None:
            path += f".{name}" + "".join(f".{cell[a]}" for a in _AXES.get(_declared(type(unit))[name].by, ()))
        raise ScenarioFormatError(f"{path}: {unit.name}: {text}")


def load_scenario(path: str | Path) -> ScenarioBundle:
    """Parse, normalize, and validate a scenario file.

    Raises ScenarioFormatError naming the YAML path of the first offending
    field, including a cross-field rule broken in one cell.
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
    header = _Header(**_read(_Header, doc, str(path), 0, {}, _TOP_KEYS)[0])
    grid = PeriodGrid(**_read(PeriodGrid, _need(doc, "grid", str(path)), "grid", 0, {})[0])
    T = grid.period_count
    seasons = _names(doc, "seasons", SEASONS)
    regimes = _names(doc, "regimes", REGIMES)
    chosen = {"season": seasons, "regime": regimes}

    def read_prices(block, at: str) -> dict:
        return _read(MarketScenario, block, at, T, {})[0]

    prices = _table(_need(doc, "prices", str(path)), "prices", ("season",), chosen, read_prices)

    units = _need(doc, "units", str(path))
    if not isinstance(units, list) or not units:
        raise ScenarioFormatError("units: expected a non-empty list")
    specs = []
    for i, u in enumerate(units):
        upath = f"units[{i}]"
        key = _need(u, "class", upath)
        cls = _UNIT_CLASSES.get(key) if isinstance(key, str) else None
        if cls is None:
            known = list(_UNIT_CLASSES)
            raise ScenarioFormatError(f"{upath}.class: unknown unit class {key!r} (expected one of {known})")
        specs.append((key, cls, *_read(cls, u, upath, T, chosen, ("class",))))
    for i, message in _name_problems([shared["name"] for _, _, shared, _ in specs]):
        raise ScenarioFormatError(f"units[{i}].name: {message}")

    # energy_limits.<unit>.<season>.<regime> replaces, in the seasons it
    # gives, the unit's own value of its field declared by "limits".
    limits = {} if doc.get("energy_limits") is None else doc["energy_limits"]
    if not isinstance(limits, dict):
        raise ScenarioFormatError("energy_limits: expected a mapping")
    for unit_name, value in limits.items():
        limited = [
            (spec, varying[name][1])
            for _, cls, shared, varying in specs if shared["name"] == unit_name
            for name, spec in _declared(cls).items() if spec.by == "limits"
        ]
        if not limited:
            raise ScenarioFormatError(f"energy_limits.{unit_name}: no drs unit has this name")
        spec, table = limited[0]
        read = partial(_value, spec, T)
        rows = _table(value, f"energy_limits.{unit_name}", ("season", "regime"), chosen, read, optional_outer=True)
        table.update(rows)

    es_module = None
    if doc.get("es_module") is not None:
        es_module = EsUnit(**_read(EsUnit, doc["es_module"], "es_module", T, {})[0])
        _check_relations(es_module, T, "es_module", {})

    cells: dict[tuple[str, str], tuple[Portfolio, MarketScenario]] = {}
    for season in seasons:
        for regime in regimes:
            cell = {"season": season, "regime": regime}
            groups: dict[str, list] = {key: [] for key in _UNIT_CLASSES}
            for i, (key, cls, shared, varying) in enumerate(specs):
                picked = {}
                for name, (axes, table) in varying.items():
                    for axis in axes:
                        table = table[cell[axis]]
                    picked[name] = table
                unit = cls(**shared, **picked)
                _check_relations(unit, T, f"units[{i}]", cell)
                groups[key].append(unit)
            scenario = MarketScenario(grid=grid, season=season, regime=regime, **prices[season])
            cells[(season, regime)] = (Portfolio(**groups), scenario)

    return ScenarioBundle(
        path=str(path),
        description=header.description,
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
        return replace(portfolio, fd=())
    scaled = tuple(
        replace(
            u,
            profiles=[[v * factor for v in prof] for prof in u.profiles],
            deviation=[v * factor for v in u.deviation],
            p_min=u.p_min * factor,
            p_max=u.p_max * factor,
        )
        for u in portfolio.fd
    )
    return replace(portfolio, fd=scaled)


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
    """v at six significant digits.  It is rounded to twelve first, so a value
    one ulp either side of a six-digit tie prints the same."""
    if not math.isfinite(v):
        raise ValueError(f"non-finite value in results: {v}")
    if v == 0:
        return "0"
    return f"{float(f'{v:.12g}'):.6g}"


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
