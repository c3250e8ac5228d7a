"""Spectra of time-truncated conjugate pulses, with two independent checks.

An interceptor who filters in the wrong basis first truncates the wide
conjugate pulse; the truncated pulse re-spreads in the other domain with
the spectral density built here.  Two verification routes:

* conservation: the spectrum's numerically integrated total mass must equal
  the truncating filter's pass probability (a pure erf expression), and
* a dense discrete-Fourier oracle that tabulates the same spectrum by
  direct summation, never touching the closed form.
"""

import numpy as np

from tfqkd import build_spectrum, density_bin_mass, dft_spectrum_oracle, make_layout

m, beta = 4, 0.7
layout = make_layout(m)

print(f"spectral mass conservation for m={m}, beta={beta}:")
for f in range(1, m + 1):
    spec = build_spectrum(f, m, beta)
    pass_prob = density_bin_mass(0.5 * beta * m, 0.0, layout.lower[f - 1], layout.upper[f - 1])
    print(
        f"  filter {f}: total={spec.total_mass_numeric:.10f}  "
        f"filter pass prob={pass_prob:.10f}  |diff|={abs(spec.total_mass_numeric - pass_prob):.2e}"
    )

print("\npanel quadrature vs dense-DFT oracle, filter 2, a few bins:")
spec = build_spectrum(2, m, beta)
oracle = dft_spectrum_oracle(2, m, beta, grid_step=0.01, grid_span=12.0)
w_lo = np.array([-2.0, -0.5, 1.0, 4.0])
w_hi = np.array([-0.5, 1.0, 4.0, 10.0])
panels, dft = spec.bin_mass(w_lo, w_hi), oracle.bin_mass(w_lo, w_hi)  # one call per bin array
for lo, hi, a, b in zip(w_lo, w_hi, panels, dft):
    print(f"  [{lo:5.1f}, {hi:5.1f}]: panels={a:.9f}  dft={b:.9f}  |diff|={abs(a - b):.2e}")

print("\nthe spectral tails decay like 1/w^2, so masses of unbounded bins")
print("are always computed as total-minus-inner, never by integrating out.")
w = np.array([5.0, 20.0, 40.0])
print("density samples g(w) at", w, "->", spec.density(w))
