"""Console entry point: `rvpp` and `python -m rvpp` run `rvpp.cli.main`.

The CLI needs scipy's HiGHS binding; without it the run exits 2 with the
reason, as for any other configuration error, instead of a traceback.
"""

from __future__ import annotations

import sys

from .milp import SolverUnavailableError


def main(argv: list[str] | None = None) -> int:
    try:
        from .cli import main as run
    except SolverUnavailableError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return run(argv)


if __name__ == "__main__":
    raise SystemExit(main())
