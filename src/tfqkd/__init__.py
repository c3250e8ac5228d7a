"""Numerical toolkit for discrete-variable time-frequency QKD.

Models the two-basis (pulse-position / frequency-shift) protocol with
Gaussian pulses end to end: exact bin-mass matrices for the legitimate
receiver, the two-stage intercept/resend eavesdropper built on truncated
pulse spectra, mutual information and secret capacity, and optimization of
the normalized pulse widths.  Everything is dimensionless in units of the
bin pitch.
"""

from .channel import (
    BinLayout,
    ProtocolParams,
    attack_matrix,
    bob_matrix,
    eve_matrix,
    is_column_stochastic,
    make_layout,
    mixed_bob_matrix,
    p_correct,
    p_second_correct,
    p_wrong,
)
from .errors import DomainError, NumericFailure
from .infotheory import (
    CapacityReport,
    capacity,
    i_ab,
    i_ae,
    key_rate,
    marginal,
    mutual_info_dual,
    mutual_info_single,
    qser,
)
from .optimizer import (
    OptimizationResult,
    OptimizerConfig,
    SurfaceGrid,
    SweepEntry,
    c_surface,
    minimize_beta,
    optimize_point,
    sweep,
    u_functional,
)
from .oracle import (
    ComparisonVerdict,
    DftSpectrum,
    EmpiricalMatrix,
    McConfig,
    compare_empirical,
    dft_spectrum_oracle,
    run_mc,
)
from .pulse_math import (
    DEFAULT_ACCURACY,
    PulseDensity,
    TruncatedSpectrum,
    build_spectrum,
    density_bin_mass,
    truncated_pulse_fourier,
)

__version__ = "0.1.0"

__all__ = [
    "BinLayout",
    "CapacityReport",
    "ComparisonVerdict",
    "DEFAULT_ACCURACY",
    "DftSpectrum",
    "DomainError",
    "EmpiricalMatrix",
    "McConfig",
    "NumericFailure",
    "OptimizationResult",
    "OptimizerConfig",
    "ProtocolParams",
    "PulseDensity",
    "SurfaceGrid",
    "SweepEntry",
    "TruncatedSpectrum",
    "attack_matrix",
    "bob_matrix",
    "build_spectrum",
    "c_surface",
    "capacity",
    "compare_empirical",
    "density_bin_mass",
    "dft_spectrum_oracle",
    "eve_matrix",
    "i_ab",
    "i_ae",
    "is_column_stochastic",
    "key_rate",
    "make_layout",
    "marginal",
    "minimize_beta",
    "mixed_bob_matrix",
    "mutual_info_dual",
    "mutual_info_single",
    "optimize_point",
    "p_correct",
    "p_second_correct",
    "p_wrong",
    "qser",
    "run_mc",
    "sweep",
    "truncated_pulse_fourier",
    "u_functional",
]
