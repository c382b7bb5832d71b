"""One fresh interpreter's worth of benchmark work; started by run.py.

    child.py OUT.json setup                      import rvpp, load the shipped scenario
    child.py OUT.json scenarios SEED COUNT DIR   list the seed's input scenarios
    child.py OUT.json sweep SPEC.json            run rvpp.cli.main once, traced or not

Each mode writes one JSON object to OUT.json; stdout is left to the CLI and
to HiGHS, whose C-level prints may land after anything Python writes.  The
program is imported from the checkout's `src` directory, never from an
installed copy.
"""

from __future__ import annotations

import json
import random
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

# Each price point of a non-zero seed is scaled by a factor drawn uniformly
# from [1 - PRICE_JITTER, 1 + PRICE_JITTER].  Prices only enter objectives, so
# every cell stays feasible.
PRICE_JITTER = 0.01


def setup() -> dict:
    from rvpp import default_scenario_path, load_scenario

    load_scenario(default_scenario_path())
    return {"done": time.monotonic()}


def scenarios(seed: int, count: int, out_dir: str) -> dict:
    """Variant 0 is the shipped scenario; the others jitter every price series.

    Seed 0 is the shipped scenario in every variant.
    """
    import numpy
    import scipy

    from rvpp import default_scenario_path, load_scenario, save_scenario

    shipped = str(default_scenario_path())
    paths = []
    for variant in range(count):
        if seed == 0 or variant == 0:
            paths.append(shipped)
            continue
        raw = load_scenario(default_scenario_path()).raw
        rng = random.Random(f"{seed}:{variant}")
        for block in raw["prices"].values():
            for key, series in block.items():
                block[key] = [v * (1.0 + PRICE_JITTER * rng.uniform(-1.0, 1.0)) for v in series]
        path = Path(out_dir) / f"scenario-seed{seed}-v{variant}.yaml"
        save_scenario(raw, path)
        paths.append(str(path))
    try:  # scipy's private binding is the only place HiGHS reports its version
        from scipy.optimize._highspy import _core as h

        highs = f"{h.HIGHS_VERSION_MAJOR}.{h.HIGHS_VERSION_MINOR}.{h.HIGHS_VERSION_PATCH}"
    except (ImportError, AttributeError):
        highs = "unknown"
    versions = {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "highs": highs,
    }
    return {"paths": paths, "shipped": shipped, "versions": versions}


def sweep(spec: dict) -> dict:
    """Run the CLI; sweep_s runs from task expansion until main returns."""
    import rvpp.cli as cli

    tracer = None
    if spec["trace"]:
        from spans import Tracer, install

        tracer = Tracer()
        install(tracer)

    expand = cli._expand_tasks
    started = []

    def timed_expand(args):
        started.append(time.perf_counter())
        return expand(args)

    cli._expand_tasks = timed_expand
    code = cli.main(spec["argv"])
    sweep_s = time.perf_counter() - started[0] if started else None
    peak_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return {
        "code": code,
        "sweep_s": sweep_s,
        "peak_rss_mb": peak_kb / 1024.0,
        "spans": tracer.spans if tracer else None,
    }


def main(argv: list[str]) -> int:
    out, mode, rest = Path(argv[0]), argv[1], argv[2:]
    if mode == "setup":
        result = setup()
    elif mode == "scenarios":
        result = scenarios(int(rest[0]), int(rest[1]), rest[2])
    elif mode == "sweep":
        result = sweep(json.loads(Path(rest[0]).read_text()))
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
