"""Each demo's stdout, byte for byte, against ``tests/data/demos/<demo>.txt``.

Each demo runs in a fresh process with floating-point and deprecation
warnings raised as errors, and in a temporary directory, since
``04_capacity_surface.py`` writes ``surface_m4.csv`` to its working
directory."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
WARNINGS = ("RuntimeWarning", "DeprecationWarning", "FutureWarning", "PendingDeprecationWarning")


@pytest.mark.parametrize("demo", DEMOS, ids=[demo.stem for demo in DEMOS])
def test_demo_stdout_matches_reference(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    flags = [arg for name in WARNINGS for arg in ("-W", f"error::{name}")]
    run = subprocess.run([sys.executable, *flags, str(demo)], cwd=tmp_path, env=env,
                         capture_output=True, timeout=60)
    assert run.returncode == 0, run.stderr.decode()
    assert run.stdout == (ROOT / "tests/data/demos" / f"{demo.stem}.txt").read_bytes()
