"""Scenario file loading/writing and deterministic results output.

The scenario file is one YAML document holding the portfolio, per-season
price curves, and the storage module used for equivalence sizing.  A regime
is data on its unit: per season, the hydro energy limit and the
forecast-error series, each a table keyed by season, then regime.
load_scenario reads every block's keys by the field declarations in domain
(defaults, unknown keys, season and regime tables); domain alone builds and
checks each value, kind before bounds, and the error names the YAML path of
the first fault, such as `prices.winter.sr_up_price[3]`.  It is the only
place a (season, regime) pair becomes units, each cell's once; the regimes
of a season share that season's one MarketScenario.  The canonical parsed
form round-trips exactly through save_scenario.

Result files are plain CSV with all numbers at 6 significant digits and rows
in a fixed sort order, so identical runs produce byte-identical files.
"""

from __future__ import annotations

import csv
import math
from dataclasses import MISSING, dataclass, field, replace
from functools import partial, reduce
from operator import getitem
from pathlib import Path

import yaml

from .domain import (
    REGIMES,
    SEASONS,
    STRATEGIES,
    UNIT_CLASSES,
    EsUnit,
    MarketScenario,
    PeriodGrid,
    Portfolio,
    _Declared,
    _declared,
    _name_problems,
    _problems,
    _relations,
    _spec,
)

# The top-level keys besides _Header's, which the document's blocks hold.
_TOP_KEYS = ("grid", "seasons", "regimes", "prices", "units", "es_module")
# Scenario-file unit class -> unit type: domain's table less storage.
_UNIT_CLASSES = {key: cls for key, cls in UNIT_CLASSES.items() if key != "es"}
# The keys, outermost first, of a field declared by season and/or regime.
_AXES = {"season": ("season",), "regime": ("regime",), "season_regime": ("season", "regime")}
_KNOWN = {"season": SEASONS, "regime": REGIMES}


class ScenarioFormatError(ValueError):
    """Malformed scenario file; the message names the offending field path."""


@dataclass(frozen=True)
class _Header(_Declared):
    """The two top-level scalars of a scenario file."""

    schema_version: int = _spec("int", within="[1, 1]")
    description: str = _spec("str", default="")


@dataclass
class ScenarioBundle:
    """Everything a run needs, keyed by (season, regime); the regimes of a
    season share one MarketScenario."""

    path: str
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


class _UniqueKeys:
    """Loader mixin: a key given twice in one mapping is a YAML error, where
    PyYAML would keep the last value."""

    def construct_mapping(self, node, deep=False):
        own = [k for k, _ in node.value if k.tag != "tag:yaml.org,2002:merge"]  # a merge (<<) may be overridden
        mapping = super().construct_mapping(node, deep)
        keys = [self.construct_object(k) for k in own]
        for i, key in enumerate(keys):
            if key in keys[:i]:
                raise yaml.constructor.ConstructorError(None, None, f"found repeated key {key!r}", own[i].start_mark)
        return mapping


def _need(mapping: dict, key: str, path: str):
    if not isinstance(mapping, dict):
        raise ScenarioFormatError(f"{path}: expected a mapping")
    if key not in mapping:
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


def _table(value, path: str, axes: tuple[str, ...], chosen: dict, read=None):
    """value as a table keyed by axes[0], then the rest of axes, with
    read(leaf, leaf_path), or the leaf as given, at the leaves.  Every key
    must be a known season or regime and every name in chosen[axis] present;
    a known name that chosen leaves out is skipped."""
    if not axes:
        return value if read is None else read(value, path)
    axis = axes[0]
    _mapping(value, path, _KNOWN[axis], axis)
    return {
        name: _table(_need(value, name, path), f"{path}.{name}", axes[1:], chosen, read) for name in chosen[axis]
    }


def _read(cls, block, path: str, chosen: dict | None = None, extra: tuple[str, ...] = ()) -> tuple[dict, dict]:
    """The declared fields of dataclass cls from the mapping block at path,
    as given (a nested block read into its kind): the values every cell
    shares, and (keys, _table) of each field that varies by cell."""
    declared = _declared(cls)
    _mapping(block, path, (*declared, *extra))
    shared, varying = {}, {}
    for name, spec in declared.items():
        if name not in block:
            if spec.default is MISSING:
                raise ScenarioFormatError(f"{path}.{name}: missing")
            shared[name] = spec.default
        elif isinstance(spec.kind, type):
            shared[name] = spec.kind(**_read(spec.kind, block[name], f"{path}.{name}")[0])
        elif spec.by is None:
            shared[name] = block[name]
        else:
            varying[name] = (_AXES[spec.by], _table(block[name], f"{path}.{name}", _AXES[spec.by], chosen))
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


def _check(obj, T: int, path: str, cell: dict):
    """obj, or ScenarioFormatError for the first declared, then cross-field,
    rule it breaks, naming the YAML path (in this cell) of the field it blames."""
    blamed = [(name, f"{index}: {text}") for name, index, text in _problems(obj, T)]
    if not blamed:
        blamed = [(name, f": {obj.name}: {text}") for name, text in _relations(obj)]
    for name, message in blamed[:1]:
        if name is not None:
            path += f".{name}" + "".join(f".{cell[a]}" for a in _AXES.get(_declared(type(obj))[name].by, ()))
        raise ScenarioFormatError(path + message)
    return obj


def load_scenario(path: str | Path) -> ScenarioBundle:
    """Parse, normalize, and validate a scenario file.

    Raises ScenarioFormatError naming the YAML path of the first offending
    field, including a cross-field rule broken in one cell.
    """
    path = Path(path)
    # libyaml's parser when PyYAML was built with it: it parses the shipped
    # file about seven times faster, into the same document.
    loader = type("Loader", (_UniqueKeys, getattr(yaml, "CSafeLoader", yaml.SafeLoader)), {})
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = yaml.load(fh, Loader=loader)
    except FileNotFoundError:
        raise ScenarioFormatError(f"scenario file not found: {path}") from None
    except yaml.YAMLError as exc:
        raise ScenarioFormatError(f"{path}: not valid YAML: {exc}") from exc
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioFormatError(f"{path}: cannot be read: {getattr(exc, 'strerror', None) or exc}") from exc
    header = _Header(**_read(_Header, doc, str(path), extra=_TOP_KEYS)[0])
    _check(header, 0, str(path), {})  # nothing reads the header past this check
    grid = _check(PeriodGrid(**_read(PeriodGrid, _need(doc, "grid", str(path)), "grid")[0]), 0, "grid", {})
    T = grid.period_count
    seasons = _names(doc, "seasons", SEASONS)
    regimes = _names(doc, "regimes", REGIMES)
    chosen = {"season": seasons, "regime": regimes}
    prices = _table(_need(doc, "prices", str(path)), "prices", ("season",), chosen, partial(_read, MarketScenario))

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
        specs.append((cls, *_read(cls, u, upath, chosen, ("class",))))
    for i, message in _name_problems([shared["name"] for _, shared, _ in specs]):
        raise ScenarioFormatError(f"units[{i}].name: {message}")

    es_module = None
    if doc.get("es_module") is not None:
        es_module = _check(EsUnit(**_read(EsUnit, doc["es_module"], "es_module")[0]), T, "es_module", {})

    cells: dict[tuple[str, str], tuple[Portfolio, MarketScenario]] = {}
    for season in seasons:
        scenario = _check(MarketScenario(grid=grid, **prices[season][0]), T, f"prices.{season}", {})
        for regime in regimes:
            cell = {"season": season, "regime": regime}
            members = []
            for i, (cls, shared, varying) in enumerate(specs):
                picked = {name: reduce(getitem, map(cell.get, axes), table) for name, (axes, table) in varying.items()}
                members.append(_check(cls(**shared, **picked), T, f"units[{i}]", cell))
            cells[(season, regime)] = (Portfolio.of(members), scenario)

    return ScenarioBundle(
        path=str(path),
        grid=grid,
        seasons=seasons,
        regimes=regimes,
        cells=cells,
        es_module=es_module,
        raw=doc,
    )


def save_scenario(raw: dict, path: str | Path) -> None:
    """Write the document raw (such as a bundle's raw) in the canonical YAML
    form: lossless float repr, stable ordering."""
    text = yaml.safe_dump(raw, sort_keys=False, default_flow_style=None, width=100000)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def scale_flexible_demand(portfolio: Portfolio, factor: float) -> Portfolio:
    """Scale every flexible-demand unit's size by factor (its `scaled`; 0 drops them)."""
    if factor < 0:
        raise ValueError("flexible-demand scale factor must be nonnegative")
    if factor == 0:
        return replace(portfolio, fd=())
    return replace(portfolio, fd=tuple(u.scaled(factor) for u in portfolio.fd))


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
_STRATEGY_ORDER = {s: i for i, s in enumerate(STRATEGIES)}


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


# The per-period plot files -> the SeriesRow kinds each holds.
_PLOT_FILES = {
    "plot_traded_energy.csv": ("traded",),
    "plot_reserves.csv": ("reserve_up", "reserve_dn"),
    "plot_soc.csv": ("soc",),
}
RESULT_FILES = ("results.csv", *_PLOT_FILES)  # what write_results writes


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

    for kind_file, kinds in _PLOT_FILES.items():
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
