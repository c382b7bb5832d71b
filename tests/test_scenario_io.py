"""Scenario file parsing, the shipped dataset, and result-file writing."""

from __future__ import annotations

import copy
import csv
import math
import random
from dataclasses import MISSING
from functools import reduce
from operator import getitem

import pytest
import yaml

import rvpp.cli as cli
from rvpp import (
    FdUnit,
    Portfolio,
    ResultRow,
    ResultsTable,
    ScenarioFormatError,
    SeriesRow,
    default_scenario_path,
    load_scenario,
    save_scenario,
    scale_flexible_demand,
    write_results,
)
from rvpp.domain import EsUnit, MarketScenario, PeriodGrid, _declared
from rvpp.scenario_io import _UNIT_CLASSES
from toys import wind


def test_shipped_dataset_loads_every_cell(bundle):
    assert bundle.seasons == ("winter", "spring", "summer", "autumn")
    assert bundle.regimes == ("favorable", "unfavorable")
    assert len(bundle.cells) == 8
    assert bundle.grid.period_count == 24
    assert bundle.grid.delta_t == 1.0


def test_shipped_nameplates(bundle):
    portfolio, _ = bundle.cell("winter", "favorable")
    hydro, biomass = portfolio.drs
    assert (hydro.p_max, hydro.p_min) == (50.0, 10.0)
    assert (hydro.startup_cost, hydro.shutdown_cost, hydro.op_cost) == (100.0, 50.0, 12.5)
    assert (hydro.min_up, hydro.min_down) == (1, 0)
    assert (biomass.p_max, biomass.p_min) == (10.0, 2.0)
    assert (biomass.startup_cost, biomass.shutdown_cost, biomass.op_cost) == (300.0, 150.0, 60.0)
    assert (biomass.min_up, biomass.min_down) == (3, 3)

    wind_farm, pv = portfolio.ndrs
    assert (wind_farm.technology, pv.technology) == ("wind", "solar")
    assert (wind_farm.op_cost, pv.op_cost) == (15.0, 10.0)
    assert max(wind_farm.forecast_upper) <= 50.0

    csp = portfolio.csp[0]
    assert (csp.turbine_p_max, csp.turbine_p_min) == (55.0, 11.0)
    assert csp.turbine_eff == pytest.approx(55.0 / 140.0, abs=1e-6)
    assert (csp.startup_loss, csp.op_cost, csp.min_up, csp.min_down) == (0.2, 25.0, 3, 2)
    assert (csp.store.e_max, csp.store.e_min) == (1100.0, 110.0)
    assert (csp.store.charge_p_max, csp.store.discharge_p_max) == (140.0, 115.0)

    load = portfolio.fd[0]
    assert len(load.profiles) == 3
    assert load.flexibility_margin == 0.10

    es = bundle.es_module
    assert (es.charge_p_max, es.discharge_p_max) == (0.5, 0.5)
    assert (es.e_max, es.e_min) == (1.0, 0.1)
    assert (es.charge_eff, es.discharge_eff, es.op_cost) == (0.95, 0.95, 30.0)


def test_regime_changes_limits_and_deviations(bundle):
    fav_p, fav_s = bundle.cell("winter", "favorable")
    unf_p, unf_s = bundle.cell("winter", "unfavorable")
    assert fav_p.drs[0].daily_energy_limit == 1164.0
    assert unf_p.drs[0].daily_energy_limit == 804.0
    assert bundle.cell("summer", "unfavorable")[0].drs[0].daily_energy_limit == 420.0
    # biomass gives no daily_energy_limit, so no cell limits it.
    assert all(portfolio.drs[1].daily_energy_limit is None for portfolio, _ in bundle.cells.values())
    # Unfavorable deviations dominate the favorable ones period by period.
    for fav_u, unf_u in zip(fav_p.ndrs, unf_p.ndrs):
        assert all(b >= a for a, b in zip(fav_u.forecast_deviation, unf_u.forecast_deviation))
    # A season's regimes share its one market, so their solve keys can compare equal.
    for season in bundle.seasons:
        assert bundle.cell(season, "favorable")[1] is bundle.cell(season, "unfavorable")[1]


def test_unknown_cell_rejected(bundle):
    with pytest.raises(ScenarioFormatError, match="no cell for season='monsoon'"):
        bundle.cell("monsoon", "favorable")


def test_save_load_round_trip(tmp_path, bundle):
    out = tmp_path / "copy.yaml"
    save_scenario(bundle.raw, out)
    assert out.read_bytes() == default_scenario_path().read_bytes()
    again = load_scenario(out)
    assert again.cell("spring", "unfavorable") == bundle.cell("spring", "unfavorable")
    assert again.es_module == bundle.es_module


def broken_copy(bundle) -> dict:
    return copy.deepcopy(bundle.raw)


def test_wrong_vector_length_names_the_field(tmp_path, bundle):
    raw = broken_copy(bundle)
    raw["prices"]["winter"]["dam_price"] = raw["prices"]["winter"]["dam_price"][:23]
    path = tmp_path / "bad.yaml"
    save_scenario(raw, path)
    with pytest.raises(ScenarioFormatError, match=r"prices\.winter\.dam_price: expected 24 entries, got 23"):
        load_scenario(path)


def test_missing_regime_deviation_names_the_field(tmp_path, bundle):
    raw = broken_copy(bundle)
    wf = [u for u in raw["units"] if u["name"] == "wind_farm"][0]
    del wf["forecast_deviation"]["summer"]["unfavorable"]
    path = tmp_path / "bad.yaml"
    save_scenario(raw, path)
    with pytest.raises(ScenarioFormatError, match=r"forecast_deviation\.summer\.unfavorable"):
        load_scenario(path)


def test_energy_limit_missing_a_regime_names_the_field(tmp_path, bundle):
    raw = broken_copy(bundle)
    del raw["units"][0]["daily_energy_limit"]["summer"]["unfavorable"]
    path = tmp_path / "bad.yaml"
    save_scenario(raw, path)
    with pytest.raises(ScenarioFormatError, match=r"units\[0\]\.daily_energy_limit\.summer\.unfavorable: missing"):
        load_scenario(path)


def test_unknown_unit_class_rejected(tmp_path, bundle):
    raw = broken_copy(bundle)
    raw["units"][0]["class"] = "fusion"
    path = tmp_path / "bad.yaml"
    save_scenario(raw, path)
    with pytest.raises(ScenarioFormatError, match="unknown unit class 'fusion'"):
        load_scenario(path)


def test_schema_version_checked(tmp_path, bundle):
    raw = broken_copy(bundle)
    raw["schema_version"] = 2
    path = tmp_path / "bad.yaml"
    save_scenario(raw, path)
    with pytest.raises(ScenarioFormatError, match="schema_version"):
        load_scenario(path)


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("schema_version", True, "schema_version: expected an integer, got True"),
        ("description", None, "description: expected a string, got None"),
        ("description", ["a", "b"], r"description: expected a string, got \['a', 'b'\]"),
    ],
)
def test_top_level_scalars_are_read_as_declared(tmp_path, bundle, key, value, message):
    raw = broken_copy(bundle)
    raw[key] = value
    path = tmp_path / "bad.yaml"
    save_scenario(raw, path)
    with pytest.raises(ScenarioFormatError, match=rf"bad\.yaml\.{message}"):
        load_scenario(path)


def test_missing_file_reported():
    with pytest.raises(ScenarioFormatError, match="not found"):
        load_scenario("/nonexistent/scenario.yaml")


def test_unreadable_file_is_named(tmp_path, capsys):
    latin1 = tmp_path / "latin1.yaml"
    latin1.write_bytes("description: 'Ærø'\n".encode("latin-1"))
    flags = ["--case", "1", "--season", "winter", "--strategy", "optimistic", "--jobs", "1"]
    for path, reason in ((tmp_path, "Is a directory"), (latin1, "can't decode byte 0xc6")):
        with pytest.raises(ScenarioFormatError) as err:
            load_scenario(path)
        assert str(err.value).startswith(f"{path}: cannot be read: ") and reason in str(err.value)
        assert cli.main([*flags, "--scenario", str(path), "--out", str(tmp_path / "out")]) == 2
        assert reason in capsys.readouterr().err


@pytest.mark.parametrize(
    "old, new, key",
    [
        ("  p_max: 50.0\n", "  p_max: 50.0\n  p_max: 60.0\n", "p_max"),
        ("regimes: [favorable, unfavorable]\n", "regimes: [favorable, unfavorable]\nseasons: [winter]\n", "seasons"),
    ],
    ids=["hydro_p_max", "top_seasons"],
)
def test_repeated_key_is_named_with_its_line(tmp_path, old, new, key):
    text = default_scenario_path().read_text(encoding="utf-8")
    edited = text.replace(old, new, 1)
    line = edited[: edited.index(new) + len(new) - 1].count("\n") + 1
    path = tmp_path / "bad.yaml"
    path.write_text(edited, encoding="utf-8")
    with pytest.raises(ScenarioFormatError, match=rf"found repeated key '{key}'\n  in .*bad\.yaml\", line {line},"):
        load_scenario(path)


def test_pure_python_yaml_loader_parses_alike(tmp_path, bundle, monkeypatch):
    truncated = tmp_path / "truncated.yaml"
    truncated.write_text("a: [1, 2\n")
    with pytest.raises(ScenarioFormatError, match="not valid YAML"):
        load_scenario(truncated)
    monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
    assert load_scenario(default_scenario_path()).raw == bundle.raw
    with pytest.raises(ScenarioFormatError, match="not valid YAML"):
        load_scenario(truncated)


def test_cell_validation_failure_names_the_cell(tmp_path, bundle):
    raw = broken_copy(bundle)
    wf = [u for u in raw["units"] if u["name"] == "wind_farm"][0]
    wf["forecast_deviation"]["winter"]["unfavorable"] = [999.0] * 24
    path = tmp_path / "bad.yaml"
    save_scenario(raw, path)
    named = r"units\[2\]\.forecast_deviation\.winter\.unfavorable: wind_farm: forecast_deviation"
    with pytest.raises(ScenarioFormatError, match=named):
        load_scenario(path)


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda raw: raw["units"][0].update(p_max="big"), r"units\[0\]\.p_max: expected a number"),
        (lambda raw: raw["units"][0].update(min_up="x"), r"units\[0\]\.min_up: expected an integer"),
        (lambda raw: raw["grid"].update(period_count="x"), r"grid\.period_count: expected an integer"),
        (
            lambda raw: raw["units"][0].update(daily_energy_limit=[1.0, 2.0]),
            r"units\[0\]\.daily_energy_limit: expected a mapping",
        ),
        (
            lambda raw: raw["units"][0]["daily_energy_limit"]["winter"].update(favorable="x"),
            r"units\[0\]\.daily_energy_limit\.winter\.favorable: expected a number",
        ),
        (lambda raw: raw["es_module"].update(e_max="x"), r"es_module\.e_max: expected a number"),
        (lambda raw: raw["es_module"].update(charge_eff=0), r"es_module\.charge_eff: expected a number in \(0, 1\]"),
        (lambda raw: raw.update(seasons=5), r"seasons: expected a non-empty list"),
        (lambda raw: raw.update(regimes=5), r"regimes: expected a non-empty list"),
        (lambda raw: raw.update(seasons=[]), r"seasons: expected a non-empty list"),
        (lambda raw: raw.update(regimes=["favorable", "favorable"]), r"regimes: 'favorable' is listed twice"),
        (lambda raw: raw.update(seasons=["winter", "monsoon"]), r"seasons: unknown season 'monsoon'"),
        (lambda raw: raw.update(regimes=[["favorable"]]), r"regimes: unknown regime \['favorable'\]"),
        (lambda raw: raw["grid"].update(period_count=0), r"grid\.period_count: expected an integer in \[1, inf\)"),
        (lambda raw: raw["grid"].update(period_count=25), r"expected 25 entries, got 24; grid\.period_count is 25"),
        (lambda raw: raw["units"][1].update(name="hydro"), r"hydro: duplicate unit name"),
        (lambda raw: raw["units"][0].update(p_min=51.0), r"hydro: requires 0 <= p_min <= p_max, got p_min=51"),
        (lambda raw: raw["units"][5].update(profiles=[]), r"units\[5\]\.profiles: expected a non-empty list"),
        (lambda raw: raw.update(units=[]), r"units: expected a non-empty list"),
        (lambda raw: raw.update(energy_limit={}), r"bad\.yaml: unknown key 'energy_limit'"),
        (lambda raw: raw["grid"].update(delta_tt=1.0), r"grid: unknown key 'delta_tt'"),
        (lambda raw: raw["prices"]["spring"].update(dam_prices=[1.0] * 24), r"prices\.spring: unknown key 'dam_prices'"),
        (lambda raw: raw["units"][1].update(min_upp=raw["units"][1].pop("min_up")), r"units\[1\]: unknown key 'min_upp'"),
        (lambda raw: raw["units"][0].update(sf_upper={}), r"units\[0\]: unknown key 'sf_upper'"),
        (lambda raw: raw["units"][2].update(daily_energy_limit=1.0), r"units\[2\]: unknown key 'daily_energy_limit'"),
        (lambda raw: raw["units"][4]["store"].update(e_maxx=1.0), r"units\[4\]\.store: unknown key 'e_maxx'"),
        (lambda raw: raw["units"][5].update(flex_margin=0.2), r"units\[5\]: unknown key 'flex_margin'"),
        (lambda raw: raw["es_module"].update(charge_p_mn=0.1), r"es_module: unknown key 'charge_p_mn'"),
        (lambda raw: raw["units"][0].update(p_min=60.0), r"units\[0\]: hydro: requires 0 <= p_min <= p_max"),
        (
            lambda raw: raw["prices"]["winter"]["sr_up_price"].__setitem__(3, -1.0),
            r"prices\.winter\.sr_up_price\[3\]: expected a number in \[0, inf\), got -1\.0",
        ),
        (lambda raw: raw["grid"].update(delta_t=0), r"grid\.delta_t: expected a number in \(0, inf\), got 0"),
        (
            lambda raw: raw["units"][0]["daily_energy_limit"]["winter"].update(favorable=-5),
            r"units\[0\]\.daily_energy_limit\.winter\.favorable: expected a number in \[0, inf\), got -5",
        ),
        (
            lambda raw: raw["units"][2]["forecast_deviation"]["winter"].update(unfavorable=[999.0] * 24),
            r"units\[2\]\.forecast_deviation\.winter\.unfavorable: wind_farm: forecast_deviation 999\.0 exceeds",
        ),
        (lambda raw: raw["units"][4].update(turbine_eff=1.5), r"units\[4\]\.turbine_eff: expected a number in"),
        (lambda raw: raw["units"][4]["store"].update(charge_eff=0), r"units\[4\]\.store\.charge_eff: expected a"),
        (
            lambda raw: raw["units"][2]["forecast_upper"].update(monsoon=[1.0] * 24),
            r"units\[2\]\.forecast_upper: unknown season 'monsoon'",
        ),
        (
            lambda raw: raw["units"][2]["forecast_deviation"]["winter"].update(unfavourable=[1.0] * 24),
            r"units\[2\]\.forecast_deviation\.winter: unknown regime 'unfavourable'",
        ),
        (
            lambda raw: raw["units"][0]["daily_energy_limit"]["winter"].update(unfavourable=1.0),
            r"units\[0\]\.daily_energy_limit\.winter: unknown regime 'unfavourable'",
        ),
        (lambda raw: raw["prices"].update(monsoon=raw["prices"]["winter"]), r"prices: unknown season 'monsoon'"),
        (lambda raw: raw["units"][0].update(p_max="50"), r"units\[0\]\.p_max: expected a number, got '50'"),
        (lambda raw: raw["grid"].update(period_count="24"), r"grid\.period_count: expected an integer, got '24'"),
        (
            lambda raw: raw["prices"]["winter"]["dam_price"].__setitem__(3, " 7e1 "),
            r"prices\.winter\.dam_price\[3\]: expected a number, got ' 7e1 '",
        ),
        (lambda raw: raw.update(schema_version="1"), r"schema_version: expected an integer, got '1'"),
        (
            lambda raw: raw.update(energy_limits={"hydro": raw["units"][0].pop("daily_energy_limit")}),
            r"bad\.yaml: unknown key 'energy_limits'",
        ),
        (lambda raw: raw["units"][0].update(daily_energy_limit=1164.0), r"units\[0\]\.daily_energy_limit: expected a"),
        (lambda raw: raw["units"].__setitem__(0, "hydro"), r"units\[0\]: expected a mapping"),
        (lambda raw: raw["units"].__setitem__(0, [1, 2]), r"units\[0\]: expected a mapping"),
    ],
    ids=[
        "float", "int", "grid_int", "limits_list", "limit_value", "es_float", "es_invalid",
        "seasons_int", "regimes_int", "seasons_empty", "regimes_twice", "seasons_unknown", "regimes_nested",
        "grid_empty", "grid_longer", "units_twice", "p_min_above_p_max", "profiles_empty", "units_empty",
        "top_unknown", "grid_unknown", "prices_unknown", "min_up_misspelt", "drs_takes_no_sf_upper",
        "ndrs_takes_no_energy_limit", "store_unknown", "fd_unknown", "es_unknown",
        "p_min_60", "negative_reserve_price", "delta_t_zero", "negative_energy_limit", "deviation_above_forecast",
        "turbine_eff_above_1", "store_eff_zero", "forecast_upper_monsoon", "deviation_unfavourable",
        "energy_limit_unfavourable", "prices_monsoon", "p_max_string", "period_count_string",
        "dam_price_string", "schema_version_string", "energy_limits_top", "limit_scalar",
        "unit_string", "unit_list",
    ],
)
def test_malformed_field_is_named(tmp_path, bundle, mutate, message):
    raw = broken_copy(bundle)
    mutate(raw)
    path = tmp_path / "bad.yaml"
    save_scenario(raw, path)
    with pytest.raises(ScenarioFormatError, match=message):
        load_scenario(path)


def test_cli_exits_2_on_an_invalid_storage_module(tmp_path, bundle, capsys):
    raw = broken_copy(bundle)
    raw["es_module"]["charge_eff"] = 0
    path = tmp_path / "bad.yaml"
    save_scenario(raw, path)
    flags = ["--case", "3", "--season", "spring", "--strategy", "optimistic", "--jobs", "1"]
    assert cli.main([*flags, "--scenario", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "es_module" in capsys.readouterr().err


# --- seeded structural mutations -------------------------------------------
# Drawn from the field declarations, after the mutation-based fuzzing of
# Zeller et al., The Fuzzing Book (2019).


def yaml_path(keys) -> str:
    return "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in keys).lstrip(".")


def leaves(keys, node):
    """keys extended to each value under node that is not a mapping."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield from leaves((*keys, key), value)
    else:
        yield keys


def declared_fields(raw):
    """(keys, spec) of every declared field the file gives, nested blocks
    and the entries of tables keyed by season or regime included."""
    blocks = [(("grid",), PeriodGrid), (("es_module",), EsUnit)]
    blocks += [(("prices", season), MarketScenario) for season in raw["prices"]]
    blocks += [(("units", i), _UNIT_CLASSES[u["class"]]) for i, u in enumerate(raw["units"])]
    for keys, cls in blocks:
        block = reduce(getitem, keys, raw)
        for name, spec in _declared(cls).items():
            if name not in block:
                continue
            yield (*keys, name), spec
            if isinstance(spec.kind, type):
                blocks.append(((*keys, name), spec.kind))
            elif isinstance(block[name], dict):
                yield from ((at, spec) for at in leaves((*keys, name), block[name]))


def structural_mutations(raw, rng) -> dict[str, list]:
    """Mutations of the shipped file by operator: (keys, edit, value, path),
    where edit ("drop", "rename" or "set") breaks raw at keys and path is
    the YAML path its error must start with."""
    out: dict[str, list] = {}

    def add(op, keys, edit, value=None, path=None):
        out.setdefault(op, []).append((keys, edit, value, yaml_path(keys) if path is None else path))

    for keys, spec in declared_fields(raw):
        value = reduce(getitem, keys, raw)
        if isinstance(keys[-1], str):
            if spec.default is MISSING:
                add("drop", keys, "drop")
            add("rename", keys, "rename", path=yaml_path(keys[:-1]))
            add("retype", keys, "set", 5 if spec.kind == "str" else "x")
        if spec.kind == "series" and isinstance(value, list):
            add("empty", keys, "set", [])
            if spec.floor > -math.inf:
                add("outside", (*keys, rng.randrange(len(value))), "set", math.nextafter(spec.floor, -math.inf))
        elif spec.kind == "profiles":
            add("empty", keys, "set", [])
        elif spec.kind in ("number", "int") and value is not None:
            if spec.floor > -math.inf:
                below = math.ceil(spec.floor) - 1 if spec.kind == "int" else math.nextafter(spec.floor, -math.inf)
                add("outside", keys, "set", below)
            if spec.ceil < math.inf:
                add("outside", keys, "set", math.nextafter(spec.ceil, math.inf))
    for top in ("units", "seasons", "regimes"):
        add("empty", (top,), "set", [])
    for j, unit in enumerate(raw["units"]):
        add("class", ("units", j, "class"), "set", [[1]])
        for earlier in raw["units"][:j]:
            add("duplicate", ("units", j, "name"), "set", earlier["name"], f"units[{j}].name")
    return out


def mutated(raw: dict, keys, edit: str, value) -> dict:
    raw = copy.deepcopy(raw)
    owner, key = reduce(getitem, keys[:-1], raw), keys[-1]
    if edit == "drop":
        del owner[key]
    elif edit == "rename":
        owner[f"{key}_x"] = owner.pop(key)
    else:
        owner[key] = value
    return raw


def test_structural_mutations_name_their_path(tmp_path, bundle, capsys):
    """Each seeded mutation of the shipped file is a ScenarioFormatError
    whose message starts with the YAML path it broke; every twentieth also
    exits the CLI with 2, naming that path on stderr."""
    rng = random.Random(23)
    pool = structural_mutations(bundle.raw, rng)
    assert sorted(pool) == ["class", "drop", "duplicate", "empty", "outside", "rename", "retype"]
    drawn = [(op, *m) for op in sorted(pool) for m in rng.sample(pool[op], min(12, len(pool[op])))]
    assert 60 <= len(drawn) <= 100
    flags = ["--case", "1", "--season", "winter", "--strategy", "optimistic", "--jobs", "1"]
    for n, (op, keys, edit, value, path) in enumerate(drawn):
        scenario = tmp_path / f"m{n}.yaml"
        save_scenario(mutated(bundle.raw, keys, edit, value), scenario)
        with pytest.raises(ScenarioFormatError) as err:
            load_scenario(scenario)
        assert str(err.value).startswith(f"{path}:"), (op, keys, str(err.value))
        if n % 20 == 0:
            assert cli.main([*flags, "--scenario", str(scenario), "--out", str(tmp_path / "out")]) == 2, (op, keys)
            assert path in capsys.readouterr().err, (op, keys)


# --- flexible-demand scaling ------------------------------------------------


def test_scale_flexible_demand():
    T = 4
    load = FdUnit("ld", profiles=((10.0,) * T, (20.0,) * T), deviation=(1.0,) * T)
    portfolio = Portfolio(ndrs=(wind(T),), fd=(load,))
    half = scale_flexible_demand(portfolio, 0.5)
    assert half.fd[0].profiles == (((5.0,) * T), (10.0,) * T)
    assert half.fd[0].deviation == (0.5,) * T
    assert half.fd[0].p_min == pytest.approx(load.p_min * 0.5)
    assert half.fd[0].p_max == pytest.approx(load.p_max * 0.5)
    assert half.ndrs == portfolio.ndrs

    none = scale_flexible_demand(portfolio, 0.0)
    assert none.fd == ()
    with pytest.raises(ValueError, match="nonnegative"):
        scale_flexible_demand(portfolio, -1.0)


# --- result files -----------------------------------------------------------


def tiny_table() -> ResultsTable:
    table = ResultsTable()
    table.rows.append(
        ResultRow("1", "winter", "favorable", "deterministic", "full", {"objective": 31.5875, "sold_mwh": 0.0})
    )
    table.rows.append(
        ResultRow("1", "winter", "favorable", "optimistic", "full", {"objective": -0.0, "gap": 1234567.0})
    )
    table.series.append(
        SeriesRow("1", "winter", "favorable", "deterministic", "full", "traded", "market", (1.0, -2.0))
    )
    table.series.append(
        SeriesRow("1", "winter", "favorable", "deterministic", "full", "soc", "es_fleet", (0.1, 0.575, 0.1))
    )
    table.series.append(
        SeriesRow("1", "winter", "favorable", "deterministic", "full", "reserve_up", "market", (0.5, 0.0))
    )
    return table


def test_write_results_layout(tmp_path):
    files = write_results(tiny_table(), tmp_path)
    assert sorted(f.name for f in files) == [
        "plot_reserves.csv",
        "plot_soc.csv",
        "plot_traded_energy.csv",
        "results.csv",
    ]
    with open(tmp_path / "results.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["case", "season", "regime", "strategy", "configuration", "objective", "sold_mwh", "gap"]
    assert rows[1][5] == "31.5875"
    assert rows[1][7] == ""
    # Negative zero collapses to plain zero; six significant digits elsewhere.
    assert rows[2][5] == "0"
    assert rows[2][7] == "1.23457e+06"

    with open(tmp_path / "plot_soc.csv", newline="") as fh:
        soc = list(csv.reader(fh))
    assert soc[0] == ["case", "season", "regime", "strategy", "configuration", "kind", "device", "period", "value"]
    # The state of charge starts at period 0 (the carried-in level).
    assert [r[7:9] for r in soc[1:]] == [["0", "0.1"], ["1", "0.575"], ["2", "0.1"]]
    with open(tmp_path / "plot_traded_energy.csv", newline="") as fh:
        traded = list(csv.reader(fh))
    assert [r[7] for r in traded[1:]] == ["1", "2"]


def test_write_results_deterministic_bytes(tmp_path):
    a = tmp_path / "a"
    b = tmp_path / "b"
    write_results(tiny_table(), a)
    write_results(tiny_table(), b)
    for name in ("results.csv", "plot_traded_energy.csv", "plot_reserves.csv", "plot_soc.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_write_results_rejects_empty_and_non_finite(tmp_path):
    with pytest.raises(ValueError, match="no rows"):
        write_results(ResultsTable(), tmp_path)
    bad = tiny_table()
    bad.rows[0].values["objective"] = float("nan")
    with pytest.raises(ValueError, match="non-finite"):
        write_results(bad, tmp_path)


@pytest.mark.parametrize(
    "mutate, message",
    [
        (lambda raw: raw["units"][1].update(min_up=2.5), r"units\[1\]\.min_up: expected an integer, got 2\.5"),
        (lambda raw: raw["grid"].update(period_count=24.9), r"grid\.period_count: expected an integer, got 24\.9"),
        (lambda raw: raw["units"][0].update(p_max=math.inf), r"units\[0\]\.p_max: expected a number, got inf"),
        (lambda raw: raw["units"][0].update(p_max=True), r"units\[0\]\.p_max: expected a number, got True"),
        (
            lambda raw: raw["prices"]["winter"]["dam_price"].__setitem__(3, math.nan),
            r"prices\.winter\.dam_price\[3\]: expected a number, got nan",
        ),
    ],
    ids=["fractional_int", "fractional_grid", "infinite", "boolean", "nan_in_series"],
)
def test_value_float_or_int_would_coerce_is_rejected(tmp_path, bundle, mutate, message):
    raw = broken_copy(bundle)
    mutate(raw)
    path = tmp_path / "bad.yaml"
    save_scenario(raw, path)
    with pytest.raises(ScenarioFormatError, match=message):
        load_scenario(path)


def test_whole_numbers_load_in_their_kinds_form(tmp_path, bundle):
    """A YAML float that is whole fills an integer field as an int, and a
    YAML int fills a number or a series entry as a float."""
    raw = broken_copy(bundle)
    raw["schema_version"] = 1.0
    (biomass,) = [u for u in raw["units"] if u["name"] == "biomass"]
    biomass["min_up"] = 3.0
    raw["grid"]["period_count"] = 24.0
    raw["prices"]["winter"]["sr_up_price"] = [round(v) for v in raw["prices"]["winter"]["sr_up_price"]]
    path = tmp_path / "whole.yaml"
    save_scenario(raw, path)
    loaded = load_scenario(path)
    assert loaded.grid == bundle.grid and type(loaded.grid.period_count) is int
    portfolio, scenario = loaded.cell("winter", "favorable")
    assert portfolio == bundle.cell("winter", "favorable")[0]
    assert type(portfolio.drs[1].min_up) is int and portfolio.drs[1].min_up == 3
    assert scenario.sr_up_price == tuple(float(v) for v in raw["prices"]["winter"]["sr_up_price"])
    assert all(type(v) is float for v in scenario.sr_up_price)


def test_cli_exits_2_on_an_infinite_capacity(tmp_path, bundle, capsys):
    raw = broken_copy(bundle)
    raw["units"][0]["p_max"] = math.inf
    path = tmp_path / "bad.yaml"
    save_scenario(raw, path)
    flags = ["--case", "1", "--season", "winter", "--jobs", "1"]
    assert cli.main([*flags, "--scenario", str(path), "--out", str(tmp_path / "out")]) == 2
    assert "units[0].p_max" in capsys.readouterr().err
