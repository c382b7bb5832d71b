"""Outside-in benchmark of the rvpp sweep CLI.

    python3 perfbench/run.py --workload ladder --seed 0 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all

Every sweep, every set-up measurement and the input writer run in a fresh
interpreter (`child.py`), one at a time (a closed loop).  Each run prints
its metrics by name and unit, then one JSON line:
``{"correct", "attempted", "failed", "metrics"}``.  `attempted` counts the
sweep cells run and `failed` those the CLI reported failed, that ran under a
non-zero exit code, or whose results.csv rows differ from the reference.

A run sweeps the workload's input variants in turn, in whole rounds, until
--seconds have passed.  Variant 0 is the shipped scenario
under every seed; the others are the seed's jittered copies (child.py).

--trace 0  end-to-end metrics: sweep_s (median over the run's sweeps, from
           task expansion until run_manifest.json is written), setup_s
           (median of fresh-interpreter `import rvpp` + `load_scenario`),
           peak_rss_mb (largest resident set of a sweep's processes, pool
           workers included; median over sweeps).
--trace 1  per-layer metrics: one untraced sweep, then traced sweeps of the
           same input (see spans.py); the exact counts must repeat.
Metric names and units come from BENCHMARK.json; a run reports every metric
it declares (a layer the workload never enters reads as zero calls and zero
seconds) and any difference from the declared metrics is an error.

Every sweep of the shipped scenario has its results.csv checked against
reference/<workload>.csv at six significant digits, every column except
sizing_iterations (a search-effort count).  The references change only by
a reviewed edit of reference/*.csv.  Jittered copies have no reference, so
they are checked only by the program's own replay and audit, through the
exit code and run_manifest.json.

Each run writes its report (metrics, per-sweep figures, the machine's state)
to .perfbench/report-<workload>-seed<n>-trace<t>.json in the checkout, and
leaves its sweep outputs, logs and, when traced, the spans of sweep <i> in
.perfbench/work-<workload>/sweep<i>.json until the next run of the workload.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from spans import EXACT_COUNTS, layer_metrics  # noqa: E402

SPEC = ROOT / "BENCHMARK.json"
CHILD = HERE / "child.py"
REFERENCE_DIR = HERE / "reference"
OUT_DIR = ROOT / ".perfbench"
SETUP_REPEATS = 3
TRACED_SWEEPS = 2
CHILD_TIMEOUT_S = 150.0
IGNORED_COLUMNS = {"sizing_iterations"}


@dataclass(frozen=True)
class Workload:
    argv: tuple[str, ...]
    cells: int
    # Inputs per run: the shipped scenario, then variants - 1 jittered
    # copies.  HiGHS's branch-and-bound path changes with any price change
    # (even 1e-9 relative), so one jittered input can take up to twice as
    # long as another; the median over the shipped scenario and its copies
    # is steady while every copy still depends on the seed.
    variants: int


WORKLOADS = {
    # 6 robust cells, 6 distinct hard solves; HiGHS is ~99% of the time.
    "ladder": Workload(("--case", "2", "--season", "winter"), cells=6, variants=2),
    # 188 small solves (103 distinct), 116 fleet probes: build, assembly, sizing.
    "sizing": Workload(("--case", "3", "--case", "4", "--season", "spring"), cells=6, variants=2),
    # All four cases through the process pool, with cross-worker repeats.
    "pipeline_jobs2": Workload(("--season", "spring", "--jobs", "2"), cells=14, variants=2),
}

class BenchError(RuntimeError):
    """The benchmark itself could not run (not a failed cell)."""


def run_child(args: list[str], log: Path) -> dict:
    """Run child.py to completion in its own process group; return its JSON."""
    result = log.with_suffix(".json")
    result.unlink(missing_ok=True)
    with open(log, "ab") as fh:
        proc = subprocess.Popen(
            [sys.executable, str(CHILD), str(result), *args],
            cwd=ROOT,
            stdout=fh,
            stderr=subprocess.STDOUT,
            start_new_session=True,
        )
        try:
            proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            raise BenchError(f"child {args[0]} exceeded {CHILD_TIMEOUT_S:.0f}s; see {log}") from None
        finally:
            # Nothing the child started (pool workers included) outlives it.
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
    if proc.returncode != 0 or not result.exists():
        raise BenchError(f"child {args[0]} exited {proc.returncode}; see {log}")
    return json.loads(result.read_text())


def measure_setup(log: Path) -> float:
    times = []
    for _ in range(SETUP_REPEATS):
        started = time.monotonic()
        done = run_child(["setup"], log)["done"]
        times.append(done - started)
    return statistics.median(times)


def sig6(value: str) -> str:
    try:
        return f"{float(value):.6g}"
    except ValueError:
        return value


def load_rows(path: Path) -> dict[tuple, dict]:
    if not path.exists():  # a sweep whose every cell failed writes no results.csv
        return {}
    with open(path, newline="", encoding="utf-8") as fh:
        return {
            (r["case"], r["season"], r["regime"], r["strategy"], r["configuration"]): r
            for r in csv.DictReader(fh)
        }


def reference_mismatches(results: Path, reference: Path) -> set[tuple]:
    """Cells (case, season, regime, strategy) with a row differing from the reference."""
    got, want = load_rows(results), load_rows(reference)
    bad = set()
    for key in got.keys() | want.keys():
        a, b = got.get(key), want.get(key)
        if a is None or b is None:
            bad.add(key[:4])
            continue
        for col in (a.keys() | b.keys()) - IGNORED_COLUMNS:
            if sig6(a.get(col, "")) != sig6(b.get(col, "")):
                bad.add(key[:4])
                break
    return bad


def run_sweep(name: str, wl: Workload, scenario: str, work: Path, index: int, trace: bool,
              reference: Path | None) -> dict:
    out = work / f"sweep{index}"
    spec = {"argv": [*wl.argv, "--scenario", scenario, "--out", str(out)], "trace": trace}
    spec_path = work / f"sweep{index}-spec.json"
    spec_path.write_text(json.dumps(spec))
    log = work / f"sweep{index}.log"
    result = run_child(["sweep", str(spec_path)], log)
    if result["sweep_s"] is None:
        raise BenchError(f"{name} sweep {index} exited {result['code']} before expanding tasks; see {log}")

    manifest_path = out / "run_manifest.json"
    manifest = json.loads(manifest_path.read_text()) if manifest_path.exists() else None
    if manifest is None or manifest["cells_total"] != wl.cells:
        problems = [f"no manifest with {wl.cells} cells"]
        failed = wl.cells
    else:
        bad = {
            (str(c["case"]), c["season"], c["regime"], c["strategy"])
            for c in manifest["cells"]
            if c["status"] != "ok"
        }
        problems = [f"cell failed: {c['error']}" for c in manifest["cells"] if c["status"] != "ok"]
        if reference is not None:
            mismatched = reference_mismatches(out / "results.csv", reference)
            if mismatched:
                problems.append(f"results.csv differs from {reference.name} on {sorted(mismatched)}")
            bad |= mismatched
        failed = len(bad)
        if result["code"] != 0 and not failed:
            problems.append(f"exit code {result['code']} with no failed cell")
            failed = wl.cells
    for problem in problems:
        print(f"{name} sweep {index}: {problem} (log: {log})", file=sys.stderr)
    result["failed"] = failed
    result["jobs"] = manifest["jobs"] if manifest else None
    return result


def environment(versions: dict) -> dict:
    src_lines = 0
    for path in sorted((ROOT / "src" / "rvpp").glob("*.py")):
        with open(path, encoding="utf-8") as fh:
            src_lines += sum(1 for _ in fh)
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_before": os.getloadavg(),
        **versions,
        "src_lines": src_lines,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool, units: dict[str, str]) -> dict:
    wl = WORKLOADS[name]
    work = OUT_DIR / f"work-{name}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    log = work / "children.log"
    inputs = run_child(["scenarios", str(seed), str(wl.variants), str(work)], log)
    env = environment(inputs["versions"])
    paths = inputs["paths"]
    reference = REFERENCE_DIR / f"{name}.csv"
    if not reference.exists():
        raise BenchError(f"missing reference {reference}")

    def sweep(i: int, path: str, traced: bool) -> dict:
        return run_sweep(name, wl, path, work, i, traced, reference if path == inputs["shipped"] else None)

    metrics: dict[str, float] = {}
    sweeps = []
    correct = True
    if not trace:
        started = time.monotonic()
        # Whole rounds of the variants only: a run that swept one input more
        # often than another would weigh it more in the median.
        while not sweeps or len(sweeps) % wl.variants or time.monotonic() - started < seconds:
            i = len(sweeps)
            sweeps.append(sweep(i, paths[i % wl.variants], False))
        # Set-up is timed after the sweeps, so every run times it on a
        # machine that has just been busy rather than one waking from idle.
        metrics["setup_s"] = measure_setup(log)
        metrics["sweep_s"] = statistics.median(s["sweep_s"] for s in sweeps)
        metrics["peak_rss_mb"] = statistics.median(s["peak_rss_mb"] for s in sweeps)
    else:
        # The traced sweeps repeat variant 0 (the shipped scenario), so their
        # counts must agree, and the untraced sweep of it prices the tracing.
        plain = sweep(0, paths[0], False)
        sweeps.append(plain)
        started = time.monotonic()
        layers = []
        while len(layers) < TRACED_SWEEPS or time.monotonic() - started < seconds:
            i = len(sweeps)
            res = sweep(i, paths[0], True)
            sweeps.append(res)
            if res["jobs"] is None:
                raise BenchError(f"{name} traced sweep {i} wrote no run_manifest.json")
            layers.append(layer_metrics(res.pop("spans"), res["sweep_s"], res["jobs"]))
        for key in EXACT_COUNTS:
            seen = {layer[key] for layer in layers}
            if len(seen) > 1:
                correct = False
                print(f"COUNT MISMATCH on {name}: {key} took {sorted(seen)} across traced sweeps",
                      file=sys.stderr)
        for key in layers[0]:
            metrics[key] = statistics.median(layer[key] for layer in layers)
        metrics["trace.sweep_s"] = statistics.median(s["sweep_s"] for s in sweeps[1:])
        metrics["trace.overhead_ratio"] = metrics["trace.sweep_s"] / plain["sweep_s"]
    if metrics.keys() != units.keys():
        raise BenchError(f"{name} measured {sorted(metrics)}, BENCHMARK.json declares {sorted(units)}")

    attempted = wl.cells * len(sweeps)
    failed = sum(s["failed"] for s in sweeps)
    env["loadavg_after"] = os.getloadavg()
    report = {
        "workload": name,
        "seed": seed,
        "trace": trace,
        "environment": env,
        "sweeps": sweeps,
        "metrics": metrics,
    }
    (OUT_DIR / f"report-{name}-seed{seed}-trace{int(trace)}.json").write_text(json.dumps(report, indent=2))
    return {
        "correct": correct and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        "environment": env,
    }


def print_summary(name: str, result: dict) -> None:
    env = result["environment"]
    print(f"{name}: cells_failed {result['failed']}/{result['attempted']} cells")
    for key, m in result["metrics"].items():
        print(f"  {key:28s} {m['value']:.6g} {m['unit']}")
    print(
        f"  machine: nproc {env['nproc']}, load {env['loadavg_before'][0]:.2f} -> "
        f"{env['loadavg_after'][0]:.2f}, python {env['python']}, numpy {env['numpy']}, "
        f"scipy {env['scipy']}, HiGHS {env['highs']}, src/rvpp {env['src_lines']} lines"
    )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "rvpp" / "__init__.py").is_file():
        print(f"error: no rvpp sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace), units)
            print_summary(name, results[name])
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.workload == "all":
        metrics = {f"{n}.{k}": m for n, r in results.items() for k, m in r["metrics"].items()}
    else:
        metrics = results[args.workload]["metrics"]
    final = {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
