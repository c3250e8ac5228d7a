"""Import graph: the package adds nothing to what numpy and scipy.special load.

The heavy scipy subpackages take most of a cold start, so a stray import of
one of them would undo it.  Some SciPy releases load ``scipy.linalg`` from
``scipy.special`` itself, so the check is against what ``import numpy,
scipy.special`` loads in the same fresh interpreter, not an absolute list.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import tfqkd

HEAVY = ("scipy.stats", "scipy.optimize", "scipy.integrate", "scipy.linalg")


def test_cli_import_loads_no_heavy_scipy_subpackage():
    src = str(Path(tfqkd.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = (f"import json, sys; heavy = {list(HEAVY)!r}; "
            "import numpy, scipy.special; base = [n for n in heavy if n in sys.modules]; "
            "import tfqkd.cli; after = [n for n in heavy if n in sys.modules]; "
            "print(json.dumps([base, after]))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=120)
    base, after = json.loads(out.stdout)
    assert after == base
