"""Model IR, the arrays HiGHS receives, solve cross-checks against an
independent scipy.optimize.milp reference, and the HiGHS session."""

from __future__ import annotations

import importlib.util
import json
import math
import os
import subprocess
import sys
import textwrap
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
import scipy
from scipy import optimize, sparse
from scipy.optimize._highspy import _core as highs

import rvpp
import toys
from rvpp import backends, build_robust_rvpp, milp, strategy_budgets
from rvpp.sizing import ScheduleError, _solved, stand_alone


def small_lp() -> milp.Model:
    m = milp.Model(name="small")
    (x,) = m.add_columns("x", 1, upper=4.0, cost=2.0)
    (y,) = m.add_columns("y", 1, upper=3.0, cost=3.0)
    m.add_rows(1, [("cap", "<=", 5.0, [(x, 1.0), (y, 1.0)])])
    return m


def test_solve_small_lp():
    m = small_lp()
    sol = milp.solve(m, backends.ScipyHighsBackend())
    assert sol.status == "optimal"
    # y saturates first (higher price), x fills the remaining headroom.
    assert sol.objective_value == pytest.approx(2.0 * 2.0 + 3.0 * 3.0, abs=1e-9)
    assert sol.values[m.variable("y").index] == pytest.approx(3.0, abs=1e-9)


def test_solve_small_mip_binary():
    m = milp.Model()
    x, y, z = m.add_columns("x{}", 3, milp.BINARY, cost=[3.0, 4.0, 4.0])
    m.add_rows(1, [("knap", "<=", 7.0, [(x, 3.0), (y, 4.0), (z, 5.0)])])
    sol = milp.solve(m, backends.ScipyHighsBackend())
    assert sol.status == "optimal"
    assert sol.objective_value == pytest.approx(7.0)


def test_infeasible_status():
    m = milp.Model()
    (x,) = m.add_columns("x", 1, upper=1.0, cost=1.0)
    m.add_rows(1, [("too_big", ">=", 2.0, [(x, 1.0)])])
    sol = milp.solve(m, backends.ScipyHighsBackend())
    assert sol.status == "infeasible"
    assert math.isnan(sol.objective_value)


def test_unbounded_status():
    m = milp.Model()
    m.add_columns("x", 1, lower=-math.inf, upper=math.inf, cost=1.0)
    sol = milp.solve(m, backends.ScipyHighsBackend())
    assert sol.status == "unbounded"


def test_unknown_direction_rejected():
    m = small_lp()
    m.direction = "maximise"
    with pytest.raises(milp.ModelError, match="unknown objective direction 'maximise' of model 'small'"):
        milp.solve(m, backends.ScipyHighsBackend())


def test_inverted_bounds_rejected():
    m = milp.Model()
    with pytest.raises(milp.ModelError, match="inverted"):
        m.add_columns("x", 1, lower=2.0, upper=1.0)


def test_duplicate_names_rejected():
    m = milp.Model()
    m.add_columns("x", 1)
    with pytest.raises(milp.ModelError, match="duplicate"):
        m.add_columns("x", 1)
    m.add_rows(1, [("c", "<=", 1.0, [])])
    with pytest.raises(milp.ModelError, match="duplicate constraint name 'c'"):
        m.add_rows(1, [("c", "<=", 1.0, [])])
    assert len(m.constraints) == 1


def test_unknown_variable_in_constraint_rejected():
    m = milp.Model()
    m.add_columns("x", 1)
    with pytest.raises(milp.ModelError, match="unknown variable"):
        m.add_rows(1, [("bad", "<=", 1.0, [(5, 1.0)])])


def test_nonfinite_coefficient_rejected():
    m = milp.Model()
    (x,) = m.add_columns("x", 1)
    with pytest.raises(milp.ModelError, match="non-finite"):
        m.add_rows(1, [("bad", "<=", 1.0, [(x, math.inf)])])


def test_empty_expression_constraint_is_allowed():
    # A row without terms must still be readable and solvable (it can encode 0 <= rhs).
    m = milp.Model()
    m.add_columns("x", 1, upper=1.0, cost=1.0)
    m.add_rows(1, [("noop", "<=", 0.0, [])])
    assert m.constraints == [milp.Constraint("noop", milp.LinearExpression(()), "<=", 0.0)]
    sol = milp.solve(m, backends.ScipyHighsBackend())
    assert sol.status == "optimal"


def _random_model(rng: np.random.Generator) -> milp.Model:
    """A random always-feasible model (origin is feasible by construction).

    Columns, rows and objective are drawn in that order, then the columns are
    added with their costs and the rows after them."""
    m = milp.Model(name="rand")
    n_vars = int(rng.integers(2, 9))
    columns = []
    for j in range(n_vars):
        if rng.random() < 0.3:
            columns.append((f"b{j}", milp.BINARY, 0.0, 1.0))
        else:
            lo = 0.0 if rng.random() < 0.7 else -float(rng.integers(1, 5))
            columns.append((f"x{j}", milp.CONTINUOUS, lo, float(rng.integers(1, 10))))
    ids = list(range(n_vars))
    rows = []
    for k in range(int(rng.integers(1, 7))):
        picks = rng.choice(ids, size=min(len(ids), int(rng.integers(1, 4))), replace=False)
        coefs = rng.integers(-6, 7, size=len(picks)).astype(float)
        terms = [(int(i), float(c)) for i, c in zip(picks, coefs)]
        roll = rng.random()
        if roll < 0.4:
            rows.append((f"c{k}", "<=", float(rng.integers(0, 20)), terms))
        elif roll < 0.8:
            rows.append((f"c{k}", ">=", -float(rng.integers(0, 20)), terms))
        else:
            rows.append((f"c{k}", "=", 0.0, terms))
    n_obj = min(len(ids), int(rng.integers(1, 5)))
    picks = rng.choice(ids, size=n_obj, replace=False)
    cost = [0.0] * n_vars
    for i, c in zip(picks, rng.normal(0.0, 3.0, size=n_obj).round(3)):
        cost[int(i)] = float(c)
    m.direction = milp.MAXIMIZE if rng.random() < 0.5 else milp.MINIMIZE
    for (name, kind, lo, hi), c in zip(columns, cost):
        m.add_columns(name, 1, kind, lower=lo, upper=hi, cost=c)
    m.add_rows(1, rows)
    return m


def _offset_lp() -> milp.Model:
    """A minimization with a binary and free, fixed and negative bounds."""
    m = milp.Model(name="offset")
    m.direction = milp.MINIMIZE
    (x,) = m.add_columns("x", 1, lower=-math.inf, upper=math.inf, cost=1.0)
    (f,) = m.add_columns("f", 1, lower=2.0, upper=2.0)
    (z,) = m.add_columns("z", 1, milp.BINARY, cost=0.75)
    (w,) = m.add_columns("w", 1, lower=-1.5, upper=3.5, cost=-1e-5)
    m.add_rows(1, [
        ("lo", ">=", 1.75, [(x, 1.0), (z, 4.0)]),
        ("hi", "<=", 4.0, [(x, 1.0), (w, 1.0), (f, 1.0)]),
        ("eq", "=", 0.5, [(w, 2.0), (z, -1.0)]),
    ])
    return m


def _reference_arrays(model: milp.Model):
    """The cost (minimized), integrality, column bounds, CSC matrix and row
    bounds of model, built here apart from the backend's assembly."""
    sign = -1.0 if model.direction == milp.MAXIMIZE else 1.0
    c = model.arrays().cost * sign + 0.0
    integrality = np.array([v.kind == milp.BINARY for v in model.variables], dtype=np.int32)
    lower = np.array([v.lower for v in model.variables])
    upper = np.array([v.upper for v in model.variables])
    entries = [(r, index, coef) for r, con in enumerate(model.constraints) for index, coef in con.expr.terms]
    rows, cols, coefs = zip(*entries)
    a = sparse.csc_array((coefs, (rows, cols)), shape=(len(model.constraints), len(model.variables)))
    lo = np.array([-math.inf if con.sense == "<=" else con.rhs for con in model.constraints])
    hi = np.array([math.inf if con.sense == ">=" else con.rhs for con in model.constraints])
    return c, integrality, lower, upper, a, lo, hi


def test_objectives_match_a_scipy_milp_reference(bundle):
    """milp.solve reaches the objective scipy.optimize.milp finds for the
    same entries at a zero MIP gap, on hand-made, shipped and random models."""
    rng = np.random.default_rng(20260815)
    portfolio, scenario = bundle.cell("spring", "favorable")
    shipped = build_robust_rvpp(portfolio, scenario, strategy_budgets("optimistic", portfolio))
    models = [small_lp(), _offset_lp(), shipped] + [_random_model(rng) for _ in range(100)]
    for model in models:
        direct = milp.solve(model, backends.ScipyHighsBackend())
        c, integrality, lower, upper, a, lo, hi = _reference_arrays(model)
        ref = optimize.milp(
            c, integrality=integrality, bounds=optimize.Bounds(lower, upper),
            constraints=optimize.LinearConstraint(a, lo, hi), options={"mip_rel_gap": 0.0},
        )
        assert (direct.status, ref.status) == ("optimal", 0), (model.name, ref.message)
        expected = ref.fun if model.direction == milp.MINIMIZE else -ref.fun
        assert abs(direct.objective_value - expected) <= 1e-9 * max(1.0, abs(expected)), (
            f"{model.name}: {direct.objective_value} vs {expected}"
        )


def test_objective_recompute_guard():
    class LyingBackend(backends.ScipyHighsBackend):
        name = "liar"

        def objective_value(self) -> float:
            return super().objective_value() + 1.0

    with pytest.raises(milp.BackendError, match="disagrees"):
        milp.solve(small_lp(), LyingBackend())


def test_bound_violation_guard():
    class SloppyBackend(backends.ScipyHighsBackend):
        name = "sloppy"

        def values(self) -> dict[int, float]:
            vals = super().values()
            vals[0] = 99.0
            return vals

        def objective_value(self) -> float:
            return super().objective_value()

    with pytest.raises(milp.BackendError, match="bounds"):
        milp.solve(small_lp(), SloppyBackend())


def _relaxed_rows(m: milp.Model) -> dict[str, float]:
    backend = backends.ScipyHighsBackend()
    assert milp.solve(m, backend).status == "infeasible"
    return backend.relaxed_rows()


def test_relaxed_rows_name_the_binding_rows():
    m = milp.Model()
    (x,) = m.add_columns("x", 1, upper=1.0, cost=1.0)
    m.add_rows(1, [("needs_two", ">=", 2.0, [(x, 1.0)]), ("fine", "<=", 5.0, [(x, 1.0)])])
    report = _relaxed_rows(m)
    assert set(report) == {"needs_two"}
    assert report["needs_two"] == pytest.approx(1.0, abs=1e-6)


def test_relaxed_rows_keep_binaries_binary():
    # Feasible as an LP (b = 0.5); only integrality makes it infeasible.  An
    # LP relaxation would need no slack; b = 0 and b = 1 each cost 0.4.
    m = milp.Model()
    (b,) = m.add_columns("b", 1, milp.BINARY, cost=1.0)
    m.add_rows(1, [("lo", ">=", 0.4, [(b, 1.0)]), ("hi", "<=", 0.6, [(b, 1.0)])])
    report = _relaxed_rows(m)
    assert len(report) == 1 and set(report) <= {"lo", "hi"}
    assert list(report.values()) == pytest.approx([0.4], abs=1e-6)


def test_relaxed_rows_need_an_infeasible_end():
    backend = backends.ScipyHighsBackend()
    milp.solve(small_lp(), backend)
    with pytest.raises(milp.BackendError, match="no relaxation in status 'optimal'"):
        backend.relaxed_rows()


def test_binary_count():
    m = milp.Model()
    m.add_columns("a", 1, milp.BINARY)
    m.add_columns("b", 1)
    m.add_columns("c", 1, milp.BINARY)
    assert m.binary_count() == 2


def _knapsack(n: int = 40) -> milp.Model:
    m = milp.Model(name="knapsack")
    rng = np.random.default_rng(7)
    weight, value = rng.integers(10, 100, n), rng.integers(10, 100, n)
    xs = m.add_columns("x{}", n, milp.BINARY, cost=value.astype(float).tolist())
    m.add_rows(1, [("cap", "<=", float(weight.sum()) / 2, [(x, float(w)) for x, w in zip(xs, weight)])])
    return m


def test_every_session_runs_the_same_options():
    highs = backends.ScipyHighsBackend().highs
    assert highs.getOptionValue("mip_heuristic_run_rins")[1] is False
    assert highs.getOptionValue("mip_heuristic_run_rens")[1] is False
    assert highs.getOptionValue("mip_allow_restart")[1] is False
    assert highs.getOptionValue("mip_heuristic_run_feasibility_jump")[1] is False
    assert highs.getOptionValue("mip_rel_gap")[1] == 0.0
    assert highs.getOptionValue("time_limit")[1] == backends.SOLVE_TIME_LIMIT_S


def test_optimize_records_the_solve():
    model = _knapsack()
    backend = backends.ScipyHighsBackend()
    assert milp.solve(model, backend).status == "optimal"
    run = backend.last_run
    assert (run.model, run.rows, run.cols, run.nnz, run.binaries) == ("knapsack", 1, 40, 40, 40)
    assert (run.status, run.mip_gap) == ("optimal", 0.0)
    assert run.mip_node_count >= 0 and run.assembly_s >= 0.0 and run.highs_s > 0.0
    assert run.lp_iterations > 0
    again = backends.ScipyHighsBackend()
    milp.solve(_knapsack(), again)
    assert again.last_run.digest == run.digest
    other = backends.ScipyHighsBackend()
    milp.solve(small_lp(), other)
    assert other.last_run.digest != run.digest


def test_an_lp_record_has_no_node_count_and_no_gap():
    """A model without binaries records None for both, so the record is
    strict JSON (no Infinity)."""
    backend = backends.ScipyHighsBackend()
    assert milp.solve(small_lp(), backend).status == "optimal"
    run = backend.last_run
    assert (run.binaries, run.mip_node_count, run.mip_gap) == (0, None, None)
    assert json.loads(json.dumps(asdict(run), allow_nan=False))["mip_gap"] is None


def test_an_lp_time_limit_names_no_gap(monkeypatch):
    monkeypatch.setattr(backends, "SOLVE_TIME_LIMIT_S", 1e-9)
    with pytest.raises(ScheduleError, match=r"^model 'small' hit the 1e-09 s time limit$"):
        _solved(small_lp())


class _PassModelSpy:
    """Stands in for a session's _Highs and keeps the arguments of passModel."""

    def __init__(self, highs_session):
        self._highs = highs_session
        self.args = None

    def passModel(self, *args):
        self.args = args
        return self._highs.passModel(*args)

    def __getattr__(self, name):
        return getattr(self._highs, name)


def _winter_portfolio(bundle) -> milp.Model:
    portfolio, scenario = bundle.cell("winter", "favorable")
    return build_robust_rvpp(portfolio, scenario, strategy_budgets("optimistic", portfolio))


@pytest.mark.parametrize("build", [lambda bundle: _offset_lp(), _winter_portfolio], ids=["offset", "winter"])
def test_assembly_matches_scipy_sparse(build, bundle):
    """optimize() hands HiGHS the cost, column bounds, integrality and row
    bounds built in this test, and the matrix scipy.sparse.csc_array makes of
    the same entries; the digest is the one those arrays give."""
    model = build(bundle)
    backend = backends.ScipyHighsBackend()
    spy = backend.highs = _PassModelSpy(backend.highs)
    assert milp.solve(model, backend).status == "optimal"
    n, m, nnz, _, _, _, c, lower, upper, lo, hi, indptr, indices, data, integrality = spy.args
    ref_c, ref_integrality, ref_lower, ref_upper, a, ref_lo, ref_hi = _reference_arrays(model)
    assert (m, n) == a.shape and nnz == a.nnz
    assert indptr.dtype == indices.dtype == integrality.dtype == np.int32 and data.dtype == np.float64
    assert np.array_equal(indptr, a.indptr) and np.array_equal(indices, a.indices)
    assert data.tobytes() == a.data.tobytes()
    for name, got, want in (
        ("cost", c, ref_c), ("integrality", integrality, ref_integrality), ("lower", lower, ref_lower),
        ("upper", upper, ref_upper), ("row lower", lo, ref_lo), ("row upper", hi, ref_hi),
    ):
        assert got.tobytes() == want.tobytes(), name
    expected = backends._digest(
        ref_c, ref_integrality, ref_lower, ref_upper, a.data, a.indices, a.indptr, a.shape, ref_lo, ref_hi
    )
    assert backend.last_run.digest == expected


def test_a_row_family_sums_a_repeated_column_and_drops_a_zero():
    """Rows run period by period, a then b; row a holds x twice and a zero
    coefficient on y."""
    m = milp.Model(name="store")
    x = m.add_columns("x_t{:02d}", 3, upper=[4.0, 5.0, 6.0], cost=[1.0, 2.0, 3.0])
    y = m.add_columns("y_t{:02d}", 3, milp.BINARY, cost=-0.5)
    m.add_rows(3, [
        ("a_t{:02d}", "<=", [7.0, 8.0, 9.0], [(x, 1.0), (x, 2.0), (y, 0.0)]),
        ("b_t{:02d}", ">=", 0.5, [(x, 1.0), (y, [1.0, -1.0, 2.0])]),
    ])
    assert [con.name for con in m.constraints] == ["a_t00", "b_t00", "a_t01", "b_t01", "a_t02", "b_t02"]
    assert m.constraints[0].expr.terms == ((0, 3.0),)
    backend = backends.ScipyHighsBackend()
    assert milp.solve(m, backend).status == "optimal"
    assert backend.last_run.nnz == 9


def _family(m, template="r_t{:02d}", ids=None, coef=1.0):
    m.add_rows(2, [(template, "<=", 1.0, [(range(2) if ids is None else ids, coef)])])


@pytest.mark.parametrize(
    "append, message",
    [
        (lambda m: _family(m, coef=[1.0, math.nan]), "non-finite coefficient in constraint 'r_t01'"),
        (lambda m: _family(m, ids=[0, 7]), "constraint 'r_t01' references unknown variable id 7"),
        (lambda m: m.add_rows(2, [("r_t{:02d}", "<=", [1.0, math.inf], [])]), "non-finite rhs in 'r_t01'"),
        (lambda m: (_family(m), _family(m)), "duplicate constraint name 'r_t00'"),
        (lambda m: (_family(m), m.add_rows(1, [("r_t01", "<=", 1.0, [])]), m.constraints),
         "duplicate constraint name 'r_t01'"),
        (lambda m: m.add_columns("x_t{:02d}", 2), "duplicate variable name 'x_t00'"),
        (lambda m: (m.add_columns("x_t01", 1), m.variable("x_t01")), "duplicate variable name 'x_t01'"),
        (lambda m: m.add_columns("z_t{:02d}", 2, upper=[1.0, -1.0]), r"inverted bounds on 'z_t01': \[0.0, -1.0\]"),
        (lambda m: m.add_columns("z_t{:02d}", 2, cost=[0.0, math.inf]), "non-finite cost in 'z_t01'"),
        (lambda m: (m.add_columns("z", 2), m.variables), "duplicate variable name 'z'"),
    ],
)
def test_the_family_path_names_what_it_refuses(append, message):
    m = milp.Model()
    m.add_columns("x_t{:02d}", 2)
    with pytest.raises(milp.ModelError, match=message):
        append(m)
    if "duplicate" not in message:
        assert (len(m.variables), len(m.constraints)) == (2, 0)


def test_names_are_made_on_demand():
    m = milp.Model(name="named")
    x = m.add_columns(m.escape("{odd}") + "_t{:02d}", 3, upper=1.0, cost=[1.0, 0.0, 0.0])
    assert m.variable("{odd}_t02").index == x[2]
    m.add_rows(3, [("need_t{:02d}", ">=", [0.0, 2.0, 0.0], [(x, 1.0)]), ("cap_t{:02d}", "<=", 5.0, [(x, 1.0)])])
    assert set(_relaxed_rows(m)) == {"need_t01"}
    with pytest.raises(milp.ModelError, match="no variable named 'x'"):
        m.variable("x")


def test_decode_messages_name_the_columns_and_rows():
    gen = rvpp.DrsUnit("gen", 10.0, 0.0, 0.0, 0.0, 1.0)
    portfolio, scenario = rvpp.Portfolio(drs=(gen,)), toys.market(4, dam=15.0)
    m = rvpp.build_deterministic_rvpp(portfolio, scenario)
    sol = milp.solve(m, backends.ScipyHighsBackend())
    for name, value, message in (
        ("on__gen_t02", 0.4, "binary 'on__gen_t02' is non-integral: 0.4"),
        ("pda_t01", sol.values[m.variable("pda_t01").index] + 3.0, "balance row bal_id_t01 violated by 3"),
    ):
        values = sol.values.copy()
        values[m.variable(name).index] = value
        with pytest.raises(rvpp.DecodeError, match=message):
            rvpp.extract_rvpp_schedule(m, milp.Solution("optimal", sol.objective_value, values))


def test_presolve_stays_on_for_the_optimum(bundle):
    """Hydro alone, summer/favorable/pessimistic: with presolve off HiGHS 1.12
    calls 9,693.4 optimal; the optimum, which replays and audits, is higher."""
    portfolio, scenario = bundle.cell("summer", "favorable")
    hydro = next(u for u in portfolio.all_units() if u.name == "hydro")
    alone, budgets = stand_alone(hydro, strategy_budgets("pessimistic", portfolio))
    backend = backends.ScipyHighsBackend()
    assert backend.highs.getOptionValue("presolve")[1] == "choose"
    sol = milp.solve(build_robust_rvpp(alone, scenario, budgets), backend)
    assert sol.status == "optimal"
    assert sol.objective_value == pytest.approx(16771.2395, abs=1e-3)


def test_session_options_change_the_search_not_the_optimum(bundle):
    """The robust winter/favorable/balanced portfolio reaches the same optimum
    as a session left at HiGHS's defaults but for the zero MIP gap."""
    portfolio, scenario = bundle.cell("winter", "favorable")
    budgets = strategy_budgets("balanced", portfolio)
    ours = milp.solve(build_robust_rvpp(portfolio, scenario, budgets), backends.ScipyHighsBackend())
    plain = backends.ScipyHighsBackend()
    plain.highs = highs._Highs()
    for key, value in (("mip_rel_gap", 0.0), ("log_to_console", False)):
        assert plain.highs.setOptionValue(key, value) == highs.HighsStatus.kOk
    ref = milp.solve(build_robust_rvpp(portfolio, scenario, budgets), plain)
    assert plain.highs.getOptionValue("mip_allow_restart")[1] is True
    assert (ours.status, ref.status) == ("optimal", "optimal")
    assert ours.objective_value == pytest.approx(ref.objective_value, rel=1e-9)


def test_time_limit_ends_the_solve(monkeypatch):
    monkeypatch.setattr(backends, "SOLVE_TIME_LIMIT_S", 1e-9)
    backend = backends.ScipyHighsBackend()
    sol = milp.solve(_knapsack(), backend)
    assert sol.status == "limit" and math.isnan(sol.objective_value) and sol.values.size == 0
    assert backend.last_run.status == "limit"


def test_a_missing_binding_is_named(monkeypatch):
    """Loading backends afresh with the binding hidden fails at import and
    names the installed scipy and the version it needs."""
    monkeypatch.setitem(sys.modules, "scipy.optimize._highspy._core", None)
    spec = importlib.util.find_spec("rvpp.backends")
    fresh = importlib.util.module_from_spec(spec)
    with pytest.raises(milp.SolverUnavailableError, match=rf"scipy>=1\.15.*installed scipy is {scipy.__version__}"):
        spec.loader.exec_module(fresh)


def _fresh_python(*argv: str) -> subprocess.CompletedProcess:
    """Run `python argv...` in a fresh interpreter that imports this checkout's rvpp."""
    src = str(Path(rvpp.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True, timeout=120)


def test_console_exits_2_without_the_binding(tmp_path):
    hide_then_run = (
        "import sys; sys.modules['scipy.optimize._highspy._core'] = None\n"
        "from rvpp.__main__ import main\n"
        "sys.exit(main(['--case', '1', '--season', 'winter', '--out', sys.argv[1]]))\n"
    )
    proc = _fresh_python("-c", hide_then_run, str(tmp_path))
    assert proc.returncode == 2, proc.stderr
    assert "scipy>=1.15" in proc.stderr and "Traceback" not in proc.stderr
    assert not (tmp_path / "run_manifest.json").exists()


def test_cli_import_leaves_scipy_optimize_unloaded():
    """The binding is loaded from its file: scipy.optimize, sparse and linalg
    stay out of a fresh interpreter that imports the CLI, and a later import
    through scipy.optimize gets the same module.  hashlib (and OpenSSL under
    it) and importlib.metadata stay out too, also after a solve, since every
    solve takes the digest of its model."""
    check = textwrap.dedent(
        """
        import sys, rvpp.cli
        from rvpp import Portfolio, default_scenario_path, load_scenario
        from rvpp.sizing import Solve
        bundle = load_scenario(default_scenario_path())
        _, market = bundle.cell('spring', 'favorable')
        Solve(market, Portfolio(es=(bundle.es_module,)), None).run()
        unwanted = ('scipy.optimize', 'scipy.sparse', 'scipy.linalg', 'hashlib', '_hashlib', 'importlib.metadata')
        loaded = [m for m in unwanted if m in sys.modules]
        if loaded: sys.exit(f'imported {loaded}')
        from scipy.optimize._highspy import _core
        sys.exit(0 if _core is rvpp.backends._core else 'a second binding was loaded')
        """
    )
    proc = _fresh_python("-c", check)
    assert proc.returncode == 0, proc.stderr


def test_a_public_name_loads_only_its_submodule():
    """`import rvpp` loads no submodule and no numpy; `load_scenario` brings
    in neither numpy nor the backend; every public name is the object its
    submodule defines."""
    check = textwrap.dedent(
        """
        import importlib, inspect, sys
        def loaded():
            return {m for m in sys.modules if m in ('numpy', 'yaml') or m.startswith('rvpp.')}
        import rvpp
        if loaded(): sys.exit(f'import rvpp loaded {sorted(loaded())}')
        from rvpp import load_scenario
        if loaded() - {'yaml', 'rvpp.domain', 'rvpp.scenario_io'}: sys.exit(f'load_scenario loaded {sorted(loaded())}')
        for name in rvpp.__all__:
            home = importlib.import_module(f'rvpp.{rvpp._HOME[name]}')
            obj = getattr(rvpp, name)
            defined = not (inspect.isclass(obj) or inspect.isfunction(obj)) or obj.__module__ == home.__name__
            if obj is not vars(home)[name] or not defined: sys.exit(f'rvpp.{name} is not defined by {home.__name__}')
        if not set(rvpp.__all__) <= set(dir(rvpp)): sys.exit('dir(rvpp) misses public names')
        """
    )
    proc = _fresh_python("-c", check)
    assert proc.returncode == 0, proc.stderr
