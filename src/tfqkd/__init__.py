"""Numerical toolkit for discrete-variable time-frequency QKD.

Models the two-basis (pulse-position / frequency-shift) protocol with
Gaussian pulses end to end: exact bin-mass matrices for the legitimate
receiver, the two-stage intercept/resend eavesdropper built on truncated
pulse spectra, mutual information and secret capacity, and optimization of
the normalized pulse widths.  Everything is dimensionless in units of the
bin pitch.  Each module's ``__all__`` is its public surface; the package
republishes all of them.
"""

from . import channel, errors, infotheory, optimizer, oracle, pulse_math
from .channel import *
from .errors import *
from .infotheory import *
from .optimizer import *
from .oracle import *
from .pulse_math import *

__version__ = "0.1.0"

__all__ = sorted([*channel.__all__, *errors.__all__, *infotheory.__all__, *optimizer.__all__,
                  *oracle.__all__, *pulse_math.__all__])
