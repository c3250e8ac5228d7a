"""Symbol pulses, detection bins, and spill probabilities.

Everything is dimensionless: positions in units of the bin pitch.  A symbol
pulse with normalized width alpha has 1/e half-width alpha/2; whatever
energy falls outside its own bin ("spill") becomes a raw symbol error.
"""

from tfqkd import ProtocolParams, density_bin_mass, make_layout, p_correct

m = 4
layout = make_layout(m)
print(f"layout for m={m}:")
print("  centers:", layout.centers)
print("  lower bounds:", layout.lower)
print("  upper bounds:", layout.upper)

# A pulse sent in the 2nd bin, with alpha = 0.5
print("\npulse in bin 2, alpha=0.5:")
for j in range(m):
    mass = density_bin_mass(0.25, layout.centers[1], layout.lower[j], layout.upper[j])
    print(f"  mass in bin {j + 1}: {mass:.6f}")
print("  (sums to 1: outer bins are unbounded, no photon is lost)")

# The diagonal of the matched-basis matrix shows how spill grows with alpha
print("\nprobability of detecting the sent symbol (bin 2) vs alpha:")
for alpha in (0.1, 0.3, 0.5, 0.8, 1.2, 1.5):
    P = p_correct(ProtocolParams(m, alpha, 0.7))
    print(f"  alpha={alpha:4.1f}: P(correct) = {P[1, 1]:.6f}")

print("\nnarrow pulses barely spill; wide pulses leak into neighbors,")
print("which is exactly the error mechanism the optimizer trades off.")
