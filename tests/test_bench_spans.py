"""The benchmark's span tracer still finds every public name it wraps: a
traced worker run fails in ``Tracer.install`` when one is renamed or gone."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location("spans", ROOT / "bench" / "spans.py")
spans = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(spans)

SPEC = {
    "argv": ["validate", "--m", "4", "--alpha", "0.5", "--beta", "0.7", "--eps", "0.5",
             "--photons", "20000", "--seed", "1"],
    "setup_argv": None,
    "trace": 1,
}


def test_traced_worker_reports_every_span():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, str(ROOT / "bench" / "worker.py"), json.dumps(SPEC)],
                          capture_output=True, text=True, env=env, cwd=ROOT, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result["layers"]) == set(spans.TARGETS)
    assert result["rc"] in (0, 1)
