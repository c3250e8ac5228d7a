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


PUBLIC_NAMES = [
    "BinLayout", "CapacityReport", "ComparisonVerdict", "DEFAULT_ACCURACY", "DftSpectrum",
    "DomainError", "EmpiricalMatrix", "McConfig", "NumericFailure", "OptimizationResult",
    "OptimizerConfig", "ProtocolParams", "SurfaceGrid", "SweepEntry", "TruncatedSpectrum",
    "attack_matrix", "bob_matrix", "build_spectrum", "c_surface", "capacity", "compare_empirical",
    "density_bin_mass", "dft_spectrum_oracle", "eve_matrix", "is_column_stochastic", "key_rate",
    "make_layout", "minimize_beta", "mixed_bob_matrix", "mutual_info_dual", "mutual_info_single",
    "optimize_point", "p_correct", "p_second_correct", "p_wrong", "run_mc", "sweep",
    "truncated_pulse_fourier", "u_functional",
]
MODULES = [tfqkd.channel, tfqkd.errors, tfqkd.infotheory, tfqkd.optimizer, tfqkd.oracle,
           tfqkd.pulse_math]


def test_package_publishes_the_pinned_names_in_order():
    assert tfqkd.__all__ == PUBLIC_NAMES


def test_each_public_name_is_the_object_of_the_module_that_lists_it():
    for module in MODULES:
        for name in module.__all__:
            assert getattr(tfqkd, name) is getattr(module, name), (module.__name__, name)


def test_no_name_is_listed_by_two_modules():
    listed = [name for module in MODULES for name in module.__all__]
    assert sorted(listed) == sorted(set(listed)) == PUBLIC_NAMES
