"""The README's Quick start runs as printed, so a public name it uses
cannot be removed while the docs still show it."""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

import rvpp

README = Path(__file__).resolve().parent.parent / "README.md"


def test_the_quick_start_runs():
    (code,) = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), re.M | re.S)
    src = str(Path(rvpp.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert len(proc.stdout.splitlines()) == 4, proc.stdout
