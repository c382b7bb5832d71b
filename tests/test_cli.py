"""End-to-end command-line sweeps on the shipped dataset."""

from __future__ import annotations

import argparse
import copy
import csv
import json
import os
import random
import subprocess
import sys
from functools import reduce
from operator import getitem
from pathlib import Path

import pytest

import rvpp.sizing as sizing
from rvpp import REGIMES, SEASONS, backends, cli, default_scenario_path, save_scenario, strategy_budgets
from toys import breaking_fd_envelope, solve_rvpp, unscale_mu_dam

RESULT_FILES = ("results.csv", "plot_traded_energy.csv", "plot_reserves.csv", "plot_soc.csv")


def read_rows(out_dir, name: str = "results.csv") -> list[dict]:
    with open(out_dir / name, newline="") as fh:
        return list(csv.DictReader(fh))


# Every solve runs in a forked pool worker, so a patched observer reports to
# the test through a file rather than a list in this process.
def append_line(path: Path, line: str) -> None:
    with open(path, "a") as fh:
        fh.write(line + "\n")


def read_lines(path: Path) -> list[str]:
    return path.read_text().splitlines() if path.exists() else []


@pytest.fixture(scope="module")
def case1_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("case1")
    code = cli.main(["--case", "1", "--season", "winter", "--out", str(out)])
    return code, out


def test_case1_exit_code_and_files(case1_run):
    code, out = case1_run
    assert code == 0
    for name in RESULT_FILES + ("run_manifest.json",):
        assert (out / name).exists()
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["cells_total"] == 2
    assert manifest["cells_failed"] == 0
    assert all(c["status"] == "ok" for c in manifest["cells"])
    assert manifest["wall_seconds"] > 0


def test_case1_rows_match_a_direct_solve(case1_run, bundle):
    _, out = case1_run
    rows = read_rows(out)
    assert [r["strategy"] for r in rows] == ["deterministic", "optimistic"]
    portfolio, scenario = bundle.cell("winter", "favorable")
    det = solve_rvpp(portfolio, scenario)
    assert float(rows[0]["objective"]) == pytest.approx(det.objective_value, rel=1e-5)
    rob = solve_rvpp(portfolio, scenario, strategy_budgets("optimistic", portfolio))
    assert float(rows[1]["objective"]) == pytest.approx(rob.objective_value, rel=1e-5)
    sold = det.p_da[det.p_da > 0].sum() * scenario.grid.delta_t
    assert float(rows[0]["sold_mwh"]) == pytest.approx(sold, rel=1e-5)


def test_case1_emits_per_unit_series(case1_run):
    _, out = case1_run
    with open(out / "plot_traded_energy.csv", newline="") as fh:
        devices = {r["device"] for r in csv.DictReader(fh)}
    assert "market" in devices
    assert "hydro" in devices and "wind_farm" in devices
    with open(out / "plot_soc.csv", newline="") as fh:
        soc_rows = list(csv.DictReader(fh))
    assert {r["device"] for r in soc_rows} == {"csp_plant_store"}
    periods = [int(r["period"]) for r in soc_rows if r["strategy"] == "deterministic"]
    assert periods[0] == 0 and periods[-1] == 24


def test_plot_csvs_print_solver_zeros_as_zero(case1_run):
    _, out = case1_run
    for name in RESULT_FILES[1:]:
        noise = [r for r in read_rows(out, name) if 0.0 < abs(float(r["value"])) < 1e-9]
        assert not noise, f"{name}: {noise[:3]}"


def test_identical_runs_are_byte_identical(case1_run, tmp_path):
    _, first = case1_run
    again = tmp_path / "again"
    assert cli.main(["--case", "1", "--season", "winter", "--out", str(again)]) == 0
    for name in RESULT_FILES:
        assert (first / name).read_bytes() == (again / name).read_bytes(), name


def test_repeated_filter_values_run_once(case1_run, tmp_path):
    _, single = case1_run
    out = tmp_path / "repeated"
    flags = ["--case", "1", "--case", "1", "--season", "winter", "--season", "winter"]
    assert cli.main([*flags, "--out", str(out)]) == 0
    for name in RESULT_FILES:
        assert (single / name).read_bytes() == (out / name).read_bytes(), name
    totals = [json.loads((d / "run_manifest.json").read_text())["cells_total"] for d in (single, out)]
    assert totals == [2, 2]


def test_seasons_and_regimes_default_to_the_files(tmp_path, bundle, capsys):
    raw = copy.deepcopy(bundle.raw)
    raw["seasons"] = ["spring"]
    del raw["units"][1]  # a portfolio without biomass runs as well
    spring_only = tmp_path / "spring.yaml"
    save_scenario(raw, spring_only)
    out = tmp_path / "spring"
    assert cli.main(["--case", "1", "--jobs", "1", "--scenario", str(spring_only), "--out", str(out)]) == 0
    cells = json.loads((out / "run_manifest.json").read_text())["cells"]
    assert [(c["season"], c["status"]) for c in cells] == [("spring", "ok")] * 2

    raw = copy.deepcopy(bundle.raw)
    raw["regimes"] = ["unfavorable"]
    unfavorable_only = tmp_path / "unfavorable.yaml"
    save_scenario(raw, unfavorable_only)
    for flags, named in (
        (["--season", "winter", "--scenario", str(spring_only)], "case 1 runs season 'winter'"),
        (["--regime", "favorable", "--scenario", str(unfavorable_only)], "case 1 runs regime 'favorable'"),
    ):
        assert cli.main(["--case", "1", *flags, "--out", str(tmp_path / "lacking")]) == 2
        assert named in capsys.readouterr().err
    assert not (tmp_path / "lacking").exists()
    # Without --regime, case 1 runs the file's first (here only) regime.
    out = tmp_path / "unfavorable"
    flags = ["--case", "1", "--season", "winter", "--strategy", "optimistic", "--jobs", "1"]
    assert cli.main([*flags, "--scenario", str(unfavorable_only), "--out", str(out)]) == 0
    cells = json.loads((out / "run_manifest.json").read_text())["cells"]
    assert [(c["regime"], c["status"]) for c in cells] == [("unfavorable", "ok")]


def test_default_sweep_follows_the_file(bundle):
    """Without filters, cases 1, 3 and 4 run the file's first regime and case
    2 every listed one; case 4 is left out when the file has no es_module."""
    args = argparse.Namespace(case=[], season=[], regime=[], strategy=[], config=[], fd_scale=[], scenario="f.yaml")
    for regimes, module, runs in (
        (bundle.regimes, bundle.es_module, {1: {"favorable"}, 2: set(REGIMES), 3: {"favorable"}, 4: {"favorable"}}),
        (("unfavorable", "favorable"), None, {1: {"unfavorable"}, 2: set(REGIMES), 3: {"unfavorable"}}),
    ):
        args.file_seasons, args.file_regimes, args.file_module = bundle.seasons, regimes, module
        ran = {}
        for task in cli._expand_tasks(args):
            ran.setdefault(task["case"], set()).add(task["regime"])
        assert ran == runs


def test_case3_row_arithmetic(tmp_path, bundle):
    out = tmp_path / "case3"
    code = cli.main(
        ["--case", "3", "--season", "winter", "--strategy", "optimistic", "--out", str(out)]
    )
    assert code == 0
    rows = {r["configuration"]: r for r in read_rows(out)}
    full = rows["full"]
    # Columns are %.6g formatted, so reconstructed sums carry small rounding.
    assert float(full["gap"]) == pytest.approx(
        float(full["rvpp_profit"]) - float(full["sum_individual"]), abs=0.5
    )
    unit_cols = [k for k in full if k.startswith("unit_") and full[k]]
    assert len(unit_cols) == len(bundle.cell("winter", "favorable")[0].unit_names())
    total = sum(float(full[k]) for k in unit_cols)
    assert total == pytest.approx(float(full["sum_individual"]), abs=1.0)

    # Removing flexible demand and scaling it to zero are the same portfolio.
    assert float(rows["no_fd"]["rvpp_profit"]) == pytest.approx(
        float(rows["fd_000"]["rvpp_profit"]), abs=0.5
    )
    # The sized fleet rows ride along on the full configuration.
    assert int(full["module_count"]) >= 1
    assert float(full["fleet_e_max_mwh"]) == pytest.approx(
        int(full["module_count"]) * 1.0, abs=1e-9
    )


def test_rejects_fd_scales_without_their_own_label(tmp_path, capsys):
    for scales, named in (
        (["nan"], "--fd-scale nan must be a finite number"),
        (["inf"], "--fd-scale inf must be a finite number"),
        (["12.2", "12.7"], "--fd-scale 12.2 and 12.7 would share the label fd_012"),
        (["50", "50"], "--fd-scale 50.0 and 50.0 would share the label fd_050"),
    ):
        flags = [arg for pct in scales for arg in ("--fd-scale", pct)]
        assert cli.main(["--case", "3", *flags, "--out", str(tmp_path)]) == 2
        assert named in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_rejects_bad_flags(tmp_path):
    assert cli.main(["--jobs", "0", "--out", str(tmp_path / "x")]) == 2
    assert cli.main(["--fd-scale", "-5", "--out", str(tmp_path / "y")]) == 2
    assert cli.main(["--scenario", "/nonexistent.yaml", "--out", str(tmp_path / "z")]) == 2
    assert (
        cli.main(["--case", "3", "--strategy", "deterministic", "--out", str(tmp_path / "w")]) == 2
    )
    # The solver, the row formulations and the fleet cap are not selectable,
    # and an ablation must name a unit class.
    for flags in (
        ["--backend", "scipy"],
        ["--max-modules", "3"],
        ["--literal-3c"],
        ["--no-symmetric-sigma-margins"],
        ["--case", "3", "--config", "no_wind"],
    ):
        with pytest.raises(SystemExit) as exc:
            cli.main([*flags, "--out", str(tmp_path / "b")])
        assert exc.value.code == 2


def _one_class_copy(tmp_path, bundle, cls: str):
    raw = copy.deepcopy(bundle.raw)
    raw["units"] = [u for u in raw["units"] if u["class"] == cls]
    path = tmp_path / f"{cls}_only.yaml"
    save_scenario(raw, path)
    return path


def test_a_configuration_that_leaves_no_units(tmp_path, bundle, solve_calls, capsys):
    """On a file whose units are all of one class, the default case-3 sweep
    leaves out the ablation of that class (and fd_000 on a flexible-demand
    file); naming it on the command line exits 2 before any solve."""
    drs_only = str(_one_class_copy(tmp_path, bundle, "drs"))
    out = tmp_path / "drs"
    flags = ["--case", "3", *SPRING_BALANCED, "--jobs", "1", "--scenario", drs_only]
    assert cli.main([*flags, "--out", str(out)]) == 0
    configs = {r["configuration"] for r in read_rows(out)}
    assert configs == {"full", "no_ndrs", "no_csp", "no_fd", "fd_000", "fd_050", "fd_150"}
    solve_calls.unlink(missing_ok=True)
    fd_only = str(_one_class_copy(tmp_path, bundle, "fd"))
    cases = ((drs_only, ["--config", "no_drs"], "no_drs"), (fd_only, ["--fd-scale", "0"], "fd_000"))
    for scenario, extra, named in cases:
        lacking = tmp_path / named
        code = cli.main(["--case", "3", *SPRING_BALANCED, "--scenario", scenario, *extra, "--out", str(lacking)])
        assert code == 2
        assert f"configuration {named} leaves no units" in capsys.readouterr().err
        assert not lacking.exists()
    assert read_lines(solve_calls) == []


def test_manifest_splits_solve_seconds_by_layer(case1_run):
    _, out = case1_run
    manifest = json.loads((out / "run_manifest.json").read_text())
    layers = manifest["layer_seconds"]
    assert set(layers) == {"build", "solve", "decode_audit"}
    assert all(v >= 0.0 for v in layers.values())
    assert sum(layers.values()) <= manifest["wall_seconds"] * manifest["jobs"]
    assert layers["solve"] > 0.0


def test_out_that_cannot_be_a_directory_exits_2_before_any_solve(tmp_path, solve_calls, capsys):
    taken = tmp_path / "taken"
    taken.write_text("")
    flags = ["--case", "1", "--season", "winter", "--strategy", "optimistic", "--jobs", "1"]
    for out in (taken, taken / "sub"):
        assert cli.main([*flags, "--out", str(out)]) == 2
        assert f"error: --out {out}: " in capsys.readouterr().err
    assert read_lines(solve_calls) == []


def test_case4_needs_a_storage_module(tmp_path, bundle, capsys):
    raw = copy.deepcopy(bundle.raw)
    del raw["es_module"]
    scenario_path = tmp_path / "no_es.yaml"
    save_scenario(raw, scenario_path)
    out = tmp_path / "case4"
    code = cli.main(
        [
            "--case", "4",
            "--season", "winter",
            "--strategy", "optimistic",
            "--scenario", str(scenario_path),
            "--out", str(out),
        ]
    )
    assert code == 2
    assert f"case 4 runs es_module, which {scenario_path} lacks" in capsys.readouterr().err
    assert not out.exists()

    # A module with no usable energy span earns nothing, so no fleet covers the gap.
    raw = copy.deepcopy(bundle.raw)
    raw["es_module"]["e_min"] = raw["es_module"]["e_max"]
    save_scenario(raw, scenario_path)
    flags = ["--case", "4", "--season", "winter", "--strategy", "optimistic", "--jobs", "1"]
    assert cli.main([*flags, "--scenario", str(scenario_path), "--out", str(out)]) == 1
    error = json.loads((out / "run_manifest.json").read_text())["cells"][0]["error"]
    assert error.startswith("SizingError: per-module value 0 of 'li_ion_module' is not positive"), error


def test_infeasible_cell_names_the_relaxed_rows(tmp_path, bundle):
    # A 30 MW favorable deviation leaves no profile of industrial_load
    # robustly feasible; the deterministic model ignores deviations.
    raw = copy.deepcopy(bundle.raw)
    (load,) = [u for u in raw["units"] if u["name"] == "industrial_load"]
    load["deviation"]["favorable"] = [30.0] * 24
    scenario_path = tmp_path / "infeasible.yaml"
    save_scenario(raw, scenario_path)
    flags = ["--case", "1", "--season", "winter", "--regime", "favorable",
             "--strategy", "deterministic", "--strategy", "optimistic", "--scenario", str(scenario_path)]
    errors = []
    for jobs in ("1", "2"):
        out = tmp_path / f"jobs{jobs}"
        assert cli.main([*flags, "--jobs", jobs, "--out", str(out)]) == 1
        cells = {c["strategy"]: c for c in json.loads((out / "run_manifest.json").read_text())["cells"]}
        assert cells["deterministic"]["status"] == "ok"
        assert cells["optimistic"]["status"] == "failed"
        errors.append(cells["optimistic"]["error"])
    assert errors[0] == errors[1]
    assert "solve ended infeasible; relaxing these rows restores feasibility: fd_profile__industrial_load" in errors[0]



def test_replay_failure_names_its_family(tmp_path, monkeypatch):
    # The decoded schedule breaks only the flexible-demand envelope.
    monkeypatch.setattr(sizing, "extract_rvpp_schedule", breaking_fd_envelope(sizing.extract_rvpp_schedule))
    flags = ["--case", "1", "--season", "winter", "--regime", "favorable", "--strategy", "optimistic"]
    assert cli.main([*flags, "--jobs", "1", "--out", str(tmp_path)]) == 1
    error = json.loads((tmp_path / "run_manifest.json").read_text())["cells"][0]["error"]
    assert "ScheduleError: replay residual" in error and " in fd_envelope above 1e-06" in error, error


SPRING_BALANCED = ("--season", "spring", "--strategy", "balanced")


def sweep(out: Path, *flags: str) -> Path:
    assert cli.main([*flags, *SPRING_BALANCED, "--out", str(out)]) == 0
    return out


def test_case4_takes_over_case3_sizing(tmp_path):
    both = ("--case", "3", "--case", "4")
    one = sweep(tmp_path / "jobs1", *both)
    two = sweep(tmp_path / "jobs2", *both, "--jobs", "2")
    for name in RESULT_FILES:
        assert (one / name).read_bytes() == (two / name).read_bytes(), name
    # Case 4 sizes against case 3's gap and reaches the same fleet.
    rows = {r["case"]: r for r in read_rows(one) if r["configuration"] in ("full", "sized_es")}
    assert rows["4"]["lower_bound_profit"] == rows["3"]["gap"]
    assert rows["4"]["module_count"] == rows["3"]["module_count"]
    assert rows["4"]["es_objective"] == rows["3"]["es_objective"]

    # A case-4 run without its twin sizes the fleet itself, to the same result.
    alone = sweep(tmp_path / "alone", "--case", "4")

    def case4(rows):
        return [{k: v for k, v in r.items() if v} for r in rows if r["case"] == "4"]

    rows = case4(read_rows(one))
    assert len(rows) == 1 and rows == case4(read_rows(alone))
    for name in RESULT_FILES[1:]:
        fleet = [r for r in read_rows(one, name) if r["device"] == "es_fleet"]
        assert fleet and fleet == [r for r in read_rows(alone, name) if r["device"] == "es_fleet"]


@pytest.fixture
def solve_calls(monkeypatch, tmp_path) -> Path:
    """A file that names each model solved, one a line; every CLI solve goes
    through the sizing module."""
    calls = tmp_path / "solve_calls"
    real = sizing.solve

    def counting(model, backend):
        append_line(calls, model.name)
        return real(model, backend)

    monkeypatch.setattr(sizing, "solve", counting)
    return calls


def test_case4_adds_no_solves_to_case3(tmp_path, solve_calls):
    sweep(tmp_path / "case3", "--case", "3", "--jobs", "1")
    case3 = len(read_lines(solve_calls))
    solve_calls.unlink(missing_ok=True)
    sweep(tmp_path / "both", "--case", "3", "--case", "4", "--jobs", "1")
    assert case3 > 0 and len(read_lines(solve_calls)) == case3


def test_fd_000_reuses_the_no_fd_schedule(tmp_path, solve_calls):
    def solves(*extra: str) -> tuple[int, dict]:
        solve_calls.unlink(missing_ok=True)
        flags = ["--case", "3", "--config", "full", "--fd-scale", "100", "--jobs", "1", *extra]
        out = sweep(tmp_path / ("_".join(extra) or "base"), *flags)
        return len(read_lines(solve_calls)), {r["configuration"]: r for r in read_rows(out)}

    base = solves()[0]
    assert solves("--fd-scale", "0")[0] == base + 1
    assert solves("--config", "no_fd")[0] == base + 1
    count, rows = solves("--config", "no_fd", "--fd-scale", "0")
    assert count == base + 1
    for column in ("rvpp_profit", "sum_individual", "gap"):
        assert rows["fd_000"][column] == rows["no_fd"][column]


def test_case4_sizes_itself_when_its_twin_fails(tmp_path, monkeypatch):
    # Sizing arithmetic runs in this process, so pool workers need no patch.
    monkeypatch.setattr(sizing, "MAX_MODULES", 1)
    out = tmp_path / "capped"
    flags = ["--case", "3", "--case", "4", *SPRING_BALANCED]
    assert cli.main([*flags, "--out", str(out)]) == 1
    cells = json.loads((out / "run_manifest.json").read_text())["cells"]
    assert [c["status"] for c in cells] == ["failed", "failed"]
    assert all("up to 1 modules" in c["error"] for c in cells)


SPRING_ALL_CASES = ("--case", "1", "--case", "2", "--case", "3", "--case", "4", "--season", "spring")


@pytest.fixture(scope="module")
def spring_jobs1(tmp_path_factory):
    """A one-worker spring sweep of all four cases, with the digest of every model HiGHS ran."""
    digests = tmp_path_factory.mktemp("spring_jobs1_digests") / "digests"
    real = backends.ScipyHighsBackend.optimize

    def digesting(self):
        real(self)
        append_line(digests, self.last_run.digest)

    out = tmp_path_factory.mktemp("spring_jobs1")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(backends.ScipyHighsBackend, "optimize", digesting)
        assert cli.main([*SPRING_ALL_CASES, "--jobs", "1", "--out", str(out)]) == 0
    return out, read_lines(digests)


def test_sweep_solves_no_model_twice(spring_jobs1):
    _, digests = spring_jobs1
    assert len(digests) > 0
    assert len(digests) == len(set(digests))


def test_default_jobs_use_every_usable_cpu(spring_jobs1, tmp_path):
    one, digests = spring_jobs1
    out = tmp_path / "default"
    assert cli.main([*SPRING_ALL_CASES, "--out", str(out)]) == 0
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["jobs"] == min(len(os.sched_getaffinity(0)), len(set(digests)))
    for name in RESULT_FILES:
        assert (one / name).read_bytes() == (out / name).read_bytes(), name


def _fails_on_the_price_duals(tmp_path, case: int) -> None:
    out = tmp_path / "mutated"
    # Spring optimistic is a cell whose one-module energy-price dual is not zero.
    flags = ["--case", str(case), "--season", "spring", "--strategy", "optimistic", "--jobs", "1"]
    assert cli.main([*flags, "--out", str(out)]) == 1
    cells = json.loads((out / "run_manifest.json").read_text())["cells"]
    assert [(c["case"], c["status"]) for c in cells] == [(case, "failed")]
    assert "sized fleet objective" in cells[0]["error"] and "price duals" in cells[0]["error"]


def test_case4_audits_the_scaled_profit(tmp_path, monkeypatch):
    unscale_mu_dam(monkeypatch)
    _fails_on_the_price_duals(tmp_path, 4)


def test_case3_audits_the_scaled_profit(tmp_path, monkeypatch):
    # Case 3 writes module_count and es_objective from the same scaled fleet.
    unscale_mu_dam(monkeypatch)
    _fails_on_the_price_duals(tmp_path, 3)


ONE_CELL = ("--case", "1", "--season", "winter", "--strategy", "optimistic", "--jobs", "1")


def test_manifest_records_the_highs_options(tmp_path):
    assert cli.main([*ONE_CELL, "--out", str(tmp_path)]) == 0
    manifest = json.loads((tmp_path / "run_manifest.json").read_text())
    assert manifest["highs_options"] == {
        "log_to_console": False,
        "mip_rel_gap": 0.0,
        "mip_heuristic_run_rins": False,
        "mip_heuristic_run_rens": False,
        "mip_allow_restart": False,
        "mip_heuristic_run_feasibility_jump": False,
        "time_limit": backends.SOLVE_TIME_LIMIT_S,
    }


def test_time_limit_fails_the_cell_and_writes_no_number(tmp_path, monkeypatch):
    monkeypatch.setattr(backends, "SOLVE_TIME_LIMIT_S", 1e-9)
    assert cli.main([*ONE_CELL, "--out", str(tmp_path)]) == 1
    manifest = json.loads((tmp_path / "run_manifest.json").read_text())
    assert manifest["result_files"] == [] and not (tmp_path / "results.csv").exists()
    error = manifest["cells"][0]["error"]
    assert "model 'rvpp_robust' hit the 1e-09 s time limit at mip_gap" in error, error


# Single-field numeric mutations of the shipped file, after the mutation-based
# fuzzing of Zeller et al., The Fuzzing Book (2019).
MUTATIONS = {
    "negative": lambda v: -1.0,
    "zero": lambda v: 0.0,
    "big": lambda v: 1e6,
    "tiny": lambda v: 1e-7,
    "negated": lambda v: -v,
}
CELL_ERRORS = ("ScheduleError", "SizingError", "CellError", "ModelBuildError")
OTHER_CELLS = set(SEASONS + REGIMES) - {"winter", "favorable"}


def numeric_fields(node, path=()):
    """Paths of the numeric leaves that ONE_CELL's winter/favorable cell reads."""
    if isinstance(node, dict):
        for key, value in node.items():
            if key not in OTHER_CELLS:
                yield from numeric_fields(value, (*path, key))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from numeric_fields(value, (*path, i))
    elif isinstance(node, (int, float)) and not isinstance(node, bool):
        yield path


def field_names(raw: dict, path: tuple) -> set[str]:
    """Names an error about the field at path may give: its keys below the
    top-level groups, and the name of the unit that owns it."""
    names = {k for k in path if isinstance(k, str)} - {"units", "prices", "winter", "favorable"}
    if path[0] == "units":
        names.add(raw["units"][path[1]]["name"])
    return names


def test_numeric_mutations_fail_cleanly(tmp_path, bundle, capsys):
    """A mutated file runs, fails its cell with a named error, or is rejected
    with exit 2 naming the field; nothing else escapes."""
    fields = list(numeric_fields(bundle.raw))
    rng = random.Random(0)
    seen = {0: 0, 1: 0, 2: 0}
    for i in range(32):
        path, kind = rng.choice(fields), rng.choice(sorted(MUTATIONS))
        raw = copy.deepcopy(bundle.raw)
        owner = reduce(getitem, path[:-1], raw)
        owner[path[-1]] = MUTATIONS[kind](owner[path[-1]])
        scenario, out = tmp_path / f"m{i}.yaml", tmp_path / f"out{i}"
        save_scenario(raw, scenario)
        code = cli.main([*ONE_CELL, "--scenario", str(scenario), "--out", str(out)])
        err = capsys.readouterr().err
        case = (".".join(map(str, path)), kind, code, err)
        assert code in seen, case
        seen[code] += 1
        if code == 2:
            assert any(name in err for name in field_names(raw, path)), case
        elif code == 1:
            cells = json.loads((out / "run_manifest.json").read_text())["cells"]
            errors = [c["error"] for c in cells if c["status"] == "failed"]
            assert errors and all(e.split(":")[0] in CELL_ERRORS for e in errors), (case, errors)
    assert seen[0] and seen[2], seen


def test_a_dead_worker_fails_its_solve_not_the_sweep(tmp_path, monkeypatch, bundle):
    """A pool worker that ends abruptly while solving the storage module (as a
    native crash or the out-of-memory killer would end it) fails only the
    cells that need that solve.  The key runs once more, alone, in a fresh
    one-worker pool; it dies again, and its cell names it."""
    runs = tmp_path / "module_runs"
    real = sizing.Solve.run

    def dying(key):
        if key.subject.es:
            append_line(runs, "run")
            os._exit(3)
        return real(key)

    # The sweep forks its pool workers on Linux, so they inherit the patch.
    monkeypatch.setattr(sizing.Solve, "run", dying)
    out = tmp_path / "out"
    flags = ["--case", "1", "--case", "3", *SPRING_BALANCED, "--jobs", "2", "--out", str(out)]
    assert cli.main(flags) == 1
    cells = {c["case"]: c for c in json.loads((out / "run_manifest.json").read_text())["cells"]}
    assert cells[1]["status"] == "ok"
    assert cells[3]["status"] == "failed"
    assert f"worker process died while solving {bundle.es_module.name}" in cells[3]["error"]
    assert {row["case"] for row in read_rows(out)} == {"1"}
    assert read_lines(runs) == ["run", "run"]


# The dead-worker check in a fresh interpreter, as CI runs it, so that a worker
# death that ends the sweep's own process cannot end the test session.
DEAD_WORKER = """
import multiprocessing, os, sys
import rvpp.cli, rvpp.sizing as s
start_method, runs, jobs, out = sys.argv[1:]
if start_method != "default":
    multiprocessing.set_start_method(start_method)
run = s.Solve.run

def dying(key):
    if key.subject.es:
        with open(runs, "a") as fh:
            fh.write("run\\n")
        os._exit(3)
    return run(key)

s.Solve.run = dying
flags = ["--case", "1", "--case", "3", "--season", "spring", "--strategy", "balanced"]
sys.exit(rvpp.cli.main([*flags, "--jobs", jobs, "--out", out]))
"""


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("start_method", [
    "default",
    # The pool forks on Linux only, so elsewhere a forkserver worker would not
    # inherit the patch.
    pytest.param("forkserver", marks=pytest.mark.skipif(sys.platform != "linux", reason="forks on Linux only")),
])
def test_a_dead_worker_fails_its_solve_at_any_jobs(tmp_path, bundle, start_method, jobs):
    """Exit 1 with case 1 ok and case 3 naming the dead worker, whatever the
    worker count and the default start method; the storage module ran twice,
    once in the plan's pool and once alone."""
    runs, out = tmp_path / "module_runs", tmp_path / "out"
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    argv = [sys.executable, "-c", DEAD_WORKER, start_method, str(runs), jobs, str(out)]
    proc = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 1, (proc.returncode, proc.stderr)
    cells = {c["case"]: c for c in json.loads((out / "run_manifest.json").read_text())["cells"]}
    assert cells[1]["status"] == "ok"
    assert cells[3]["status"] == "failed"
    assert f"worker process died while solving {bundle.es_module.name}" in cells[3]["error"]
    assert {row["case"] for row in read_rows(out)} == {"1"}
    assert read_lines(runs) == ["run", "run"]


def test_unit_order_changes_no_number(tmp_path, bundle):
    """Reversing the scenario file's units keeps every results.csv cell,
    matched by column name, and every plot CSV line.  The unit_* columns
    follow the portfolio's class order, and the file's order within a class.
    The slice holds case 1 summer/favorable/deterministic, where a CSP
    reserve value sat on a six-digit rounding tie."""
    raw = copy.deepcopy(bundle.raw)
    raw["units"].reverse()
    save_scenario(raw, tmp_path / "reversed.yaml")
    slices = (
        ("--case", "1", "--season", "summer"),
        ("--case", "3", "--season", "summer", "--strategy", "optimistic", "--config", "full", "--fd-scale", "100"),
    )
    for i, flags in enumerate(slices):
        outs = []
        for label, scenario in (("shipped", default_scenario_path()), ("reversed", tmp_path / "reversed.yaml")):
            outs.append(tmp_path / f"{label}{i}")
            assert cli.main([*flags, "--jobs", "1", "--scenario", str(scenario), "--out", str(outs[-1])]) == 0
        shipped, backwards = outs
        assert read_rows(shipped) == read_rows(backwards)
        for name in RESULT_FILES[1:]:
            assert (shipped / name).read_bytes() == (backwards / name).read_bytes(), name
    shipped_units, reversed_units = ([c for c in read_rows(out)[0] if c.startswith("unit_")] for out in outs)
    assert shipped_units == ["unit_hydro", "unit_biomass", "unit_wind_farm", "unit_pv_plant", "unit_csp_plant",
                             "unit_industrial_load"]
    assert reversed_units == ["unit_biomass", "unit_hydro", "unit_pv_plant", "unit_wind_farm", "unit_csp_plant",
                              "unit_industrial_load"]
