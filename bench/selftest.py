"""Self-test of the benchmark's traced run.

Run from the repository root (takes about three minutes):

    python3 bench/selftest.py

For every workload it runs one untraced and two traced operations and
checks that

* the traced output bytes equal the untraced ones (wrappers pass results
  through unchanged);
* the two traced operations give identical work counts (calls and units of
  every layer);
* each wrapper fires where expected: the counts in EXPECTED, recorded at the
  commit that introduced the benchmark, and the layers each workload must or
  must not reach.

Exits 1 and names every failed check otherwise.
"""

import sys

import run

# Exact counts of the seed code; a change that alters the work done changes
# them on purpose, and must update them with the reason.
EXPECTED = {
    "optimize-cold": {
        "pulse_math.build_spectrum.calls": 2896,
        "pulse_math.truncated_pulse_fourier.points": 13621360,
        "infotheory.capacity.calls": 1231,
        "oracle.run_mc.photons": 0,
    },
    "surface-warm": {
        "pulse_math.build_spectrum.calls": 0,  # the "warm" label
        "setup.pulse_math.build_spectrum.calls": 1344,
        "infotheory.capacity.calls": 441,
        "pulse_math.cache_hit_ratio": 1.0,
    },
    "keyrate-plain": {
        "pulse_math.build_spectrum.calls": 0,
        "pulse_math.truncated_pulse_fourier.points": 0,
        "infotheory.mutual_info_single.entries": 314834944,
        "infotheory.capacity.calls": 1201,
    },
    "validate": {
        "oracle.run_mc.photons": 10000000,
        "oracle.dft_spectrum_oracle.calls": 16,
        "pulse_math.bin_mass.calls": 3584,
        "infotheory.capacity.calls": 0,
    },
}

# Layers that must do work on a workload (at least one call).
MUST_FIRE = {
    "optimize-cold": ["pulse_math.cumulative", "channel.p_second_correct",
                      "optimizer.optimize_point", "optimizer.u_functional"],
    "surface-warm": ["pulse_math.cumulative", "channel.p_second_correct", "optimizer.c_surface"],
    "keyrate-plain": ["channel.p_correct", "infotheory.mutual_info_single",
                      "optimizer.optimize_point", "optimizer.minimize_beta"],
    "validate": ["oracle.compare_empirical", "oracle.dft_density", "channel.mixed_bob_matrix"],
}


def counts(op: dict) -> dict:
    return {layer: (row["calls"], row["units"]) for layer, row in op["layers"].items()}


def check(workload: str) -> list[str]:
    problems = []
    plain = run.run_op(workload, seed=42, traced=False)
    traced = [run.run_op(workload, seed=42, traced=True) for _ in range(2)]
    if any("layers" not in op for op in traced) or "output" not in plain:
        return [f"{workload}: a worker failed"]
    for i, op in enumerate(traced):
        if op["output"] != plain["output"]:
            problems.append(f"{workload}: traced output {i + 1} differs from the untraced output")
    if counts(traced[0]) != counts(traced[1]) or traced[0]["setup_builds"] != traced[1]["setup_builds"]:
        problems.append(f"{workload}: work counts differ between two traced runs")
    op = traced[0]
    for metric, expected in EXPECTED[workload].items():
        got = run.layer_value(metric, op["layers"], op["setup_builds"])
        if got != expected:
            problems.append(f"{workload}: {metric} = {got}, expected {expected}")
    for layer in MUST_FIRE[workload]:
        if op["layers"][layer]["calls"] == 0:
            problems.append(f"{workload}: {layer} never called")
    return problems


def main() -> int:
    problems = []
    for workload in run.WORKLOADS:
        found = check(workload)
        print(f"{workload}: {'ok' if not found else 'FAILED'}", flush=True)
        problems += found
    for line in problems:
        print(line)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
