"""tfqkd benchmark: CLI workloads in fresh worker processes, checked against
the outputs recorded at the seed commit.

Run from the repository root:

    python3 bench/run.py --workload optimize-cold --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --all              # every workload, one table
    python3 bench/run.py --all --trace 1    # per-layer metrics of every workload

One operation is one fresh worker process (see ``worker.py``): it imports
tfqkd from ``src/``, does the workload's untimed set-up, then runs the timed
command.  Operations repeat, at least twice, while the next one still ends
within ``--seconds``; each end-to-end metric is the median over them:

* ``setup_s``     spawn of the worker until it reports ready (imports, plus
                  the cache-filling call of a warm workload);
* ``wall_s``      the timed command alone;
* ``peak_rss_mb`` the worker's peak resident memory.

With ``--trace 1`` untraced and traced operations alternate.  The traced
ones report per-layer calls, work counts, self and total time; their output
bytes must equal the untraced output, and ``trace.overhead_s`` is the
traced minus the untraced median wall time.

An operation fails if the command exits non-zero or its output misses the
reference in ``references/``.  The last stdout line is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCES = HERE / "references"

MIN_OPS = 2
OP_TIMEOUT_S = 150.0

# Workers are single-threaded so that timings do not depend on how many
# cores the BLAS picks up; recorded with every --all report.
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

SURFACE_ARGV = ["surface", "--m", "32", "--eps", "0.5",
                "--alpha", "0.30:0.70:0.02", "--beta", "0.50:0.90:0.02"]

# Each workload: timed argv (a function of the seed), untimed set-up argv and
# cache state of the timed call.  Why each is here: README.md.
WORKLOADS = {
    "optimize-cold": {
        "argv": lambda seed: ["optimize", "--m", "16", "--eps", "0.5"],
        "setup_argv": None,
        "cache": "cold",
    },
    "surface-warm": {
        "argv": lambda seed: list(SURFACE_ARGV),
        "setup_argv": SURFACE_ARGV,
        "cache": "warm",
    },
    "keyrate-plain": {
        "argv": lambda seed: ["keyrate", "--m", "256", "--eps", "0", "--rep-rate-hz", "1e8"],
        "setup_argv": None,
        "cache": "cold",
    },
    "validate": {
        "argv": lambda seed: ["validate", "--m", "16", "--alpha", "0.5", "--beta", "0.7",
                              "--eps", "0.5", "--photons", "10000000", "--seed", str(seed)],
        "setup_argv": None,
        "cache": "cold",
    },
}

# Information quantities must match the reference within this absolute
# tolerance; optimal widths within twice the optimizer's default tol.
INFO_ATOL = 1e-6
WIDTH_ATOL = 2 * 1e-3

END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
]

# (metric, unit, better) reported by a traced run.  "<layer>.<field>" reads
# calls, self_s, total_s or the layer's work count from the span summary.
PER_LAYER = [
    ("pulse_math.build_spectrum.calls", "count", "lower"),
    ("pulse_math.build_spectrum.self_s", "s", "lower"),
    ("pulse_math.build_spectrum.total_s", "s", "lower"),
    ("setup.pulse_math.build_spectrum.calls", "count", "lower"),
    ("pulse_math.truncated_pulse_fourier.calls", "count", "lower"),
    ("pulse_math.truncated_pulse_fourier.points", "count", "lower"),
    ("pulse_math.truncated_pulse_fourier.self_s", "s", "lower"),
    ("pulse_math.cumulative.calls", "count", "lower"),
    ("pulse_math.cumulative.points", "count", "lower"),
    ("pulse_math.cumulative.self_s", "s", "lower"),
    ("pulse_math.cached_spectrum.calls", "count", "lower"),
    ("pulse_math.cache_hit_ratio", "ratio", "higher"),
    ("pulse_math.bin_mass.calls", "count", "lower"),
    ("pulse_math.bin_mass.self_s", "s", "lower"),
    ("channel.p_second_correct.calls", "count", "lower"),
    ("channel.p_second_correct.self_s", "s", "lower"),
    ("channel.p_second_correct.total_s", "s", "lower"),
    ("channel.p_correct.calls", "count", "lower"),
    ("channel.p_correct.self_s", "s", "lower"),
    ("channel.p_wrong.calls", "count", "lower"),
    ("channel.p_wrong.self_s", "s", "lower"),
    ("channel.mixed_bob_matrix.self_s", "s", "lower"),
    ("channel.eve_matrix.self_s", "s", "lower"),
    ("infotheory.capacity.calls", "count", "lower"),
    ("infotheory.capacity.self_s", "s", "lower"),
    ("infotheory.capacity.total_s", "s", "lower"),
    ("infotheory.mutual_info_single.calls", "count", "lower"),
    ("infotheory.mutual_info_single.entries", "count", "lower"),
    ("infotheory.mutual_info_single.self_s", "s", "lower"),
    ("optimizer.optimize_point.self_s", "s", "lower"),
    ("optimizer.c_surface.self_s", "s", "lower"),
    ("optimizer.u_functional.calls", "count", "lower"),
    ("optimizer.u_functional.self_s", "s", "lower"),
    ("optimizer.minimize_beta.total_s", "s", "lower"),
    ("oracle.run_mc.photons", "count", "lower"),
    ("oracle.run_mc.self_s", "s", "lower"),
    ("oracle.run_mc.photons_per_s", "1/s", "higher"),
    ("oracle.dft_spectrum_oracle.calls", "count", "lower"),
    ("oracle.dft_spectrum_oracle.self_s", "s", "lower"),
    ("oracle.dft_density.points", "count", "lower"),
    ("oracle.dft_density.self_s", "s", "lower"),
    ("oracle.compare_empirical.self_s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
]

WORK_FIELDS = ("points", "entries", "photons")


# ---------------------------------------------------------------------------
# Reference checks
# ---------------------------------------------------------------------------

def _close(value, reference, atol) -> bool:
    return abs(float(value) - float(reference)) <= atol


def _check_optimize(out: dict, ref: dict) -> bool:
    exact = ("m", "eps", "scheme", "u_variant")
    info = ("capacity", "i_ab", "i_ae", "qser")
    return (
        all(out[k] == ref[k] for k in exact)
        and all(_close(out[k], ref[k], WIDTH_ATOL) for k in ("alpha_opt", "beta_opt"))
        and all(_close(out[k], ref[k], INFO_ATOL) for k in info)
    )


def _check_keyrate(out: dict, ref: dict) -> bool:
    rate = ref["rep_rate_hz"]
    return (
        all(out[k] == ref[k] for k in ("m", "eps", "rep_rate_hz", "delta_t_s"))
        and all(_close(out[k], ref[k], WIDTH_ATOL) for k in ("alpha_opt", "beta_opt"))
        and _close(out["capacity_bits_per_photon"], ref["capacity_bits_per_photon"], INFO_ATOL)
        and _close(out["secret_key_rate_bits_per_s"], ref["secret_key_rate_bits_per_s"], INFO_ATOL * rate)
    )


def _check_surface(text: str, ref_text: str) -> bool:
    rows = list(csv.reader(io.StringIO(text)))
    ref_rows = list(csv.reader(io.StringIO(ref_text)))
    if len(rows) != len(ref_rows) or rows[0] != ref_rows[0]:
        return False
    for row, ref in zip(rows[1:], ref_rows[1:]):
        if row[:2] != ref[:2] or not all(_close(a, b, INFO_ATOL) for a, b in zip(row[2:], ref[2:])):
            return False
    return True


def output_ok(workload: str, rc: int, output: str) -> bool:
    """True when the command succeeded and its output meets the reference."""
    if rc != 0:
        return False
    try:
        if workload == "surface-warm":
            return _check_surface(output, (REFERENCES / "surface-warm.csv").read_text())
        out = json.loads(output)
        if workload == "validate":
            return out["passed"] is True
        ref = json.loads((REFERENCES / f"{workload}.json").read_text())
        if workload == "optimize-cold":
            return _check_optimize(out, ref)
        return _check_keyrate(out, ref)
    except (ValueError, KeyError, IndexError):
        return False


# ---------------------------------------------------------------------------
# Worker processes
# ---------------------------------------------------------------------------

def _worker_env() -> dict:
    env = dict(os.environ)
    env.update(THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_op(workload: str, seed: int, traced: bool) -> dict:
    """Spawn one worker, time its set-up, return its result and the check."""
    spec = WORKLOADS[workload]
    payload = json.dumps({
        "argv": spec["argv"](seed),
        "setup_argv": spec["setup_argv"],
        "trace": traced,
    })
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), payload],
        stdout=subprocess.PIPE, cwd=ROOT, env=_worker_env(), text=True,
    )
    watchdog = threading.Timer(OP_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        lines = proc.stdout.read().splitlines()
        proc.wait()
    finally:
        watchdog.cancel()
        proc.stdout.close()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if ready.strip() != "ready" or proc.returncode != 0 or not lines:
        return {"ok": False, "setup_s": setup_s, "error": f"worker exited with {proc.returncode}"}
    result = json.loads(lines[-1])
    result["setup_s"] = setup_s
    result["ok"] = output_ok(workload, result["rc"], result["output"])
    return result


def run_ops(workload: str, seed: int, seconds: float, trace: bool) -> list[dict]:
    """At least MIN_OPS operations, then more while the next one, at the
    mean duration so far, still ends within ``seconds``.  With ``trace``
    they alternate untraced, traced, untraced, ..."""
    ops = []
    start = time.perf_counter()
    while len(ops) < MIN_OPS or (time.perf_counter() - start) * (len(ops) + 1) / len(ops) <= seconds:
        traced = trace and len(ops) % 2 == 1
        op = run_op(workload, seed, traced)
        op["traced"] = traced
        ops.append(op)
        print(f"{workload}: op {len(ops)} traced={traced} ok={op['ok']} "
              f"setup={op['setup_s']:.3f}s wall={op.get('wall_s', float('nan')):.3f}s",
              file=sys.stderr, flush=True)
    return ops


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def end_to_end(ops: list[dict]) -> dict:
    good = [op for op in ops if "wall_s" in op and not op["traced"]]
    values = {
        "setup_s": statistics.median(op["setup_s"] for op in ops if not op["traced"]),
        "wall_s": statistics.median(op["wall_s"] for op in good) if good else float("nan"),
        "peak_rss_mb": statistics.median(op["peak_rss_mb"] for op in good) if good else float("nan"),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def layer_value(metric: str, layers: dict, setup_builds: int) -> float:
    if metric == "setup.pulse_math.build_spectrum.calls":
        return setup_builds
    if metric == "pulse_math.cache_hit_ratio":
        lookups = layers["pulse_math.cached_spectrum"]["calls"]
        builds = layers["pulse_math.build_spectrum"]["calls"]
        return 1.0 - builds / lookups if lookups else 0.0
    if metric == "oracle.run_mc.photons_per_s":
        row = layers["oracle.run_mc"]
        return row["units"] / row["self_s"] if row["self_s"] else 0.0
    layer, field = metric.rsplit(".", 1)
    return layers[layer]["units" if field in WORK_FIELDS else field]


def per_layer(ops: list[dict]) -> dict:
    traced = [op for op in ops if op["traced"] and "layers" in op]
    plain = [op for op in ops if not op["traced"] and "wall_s" in op]
    values = {}
    for metric, unit, _ in PER_LAYER:
        if metric == "trace.overhead_s":
            value = (statistics.median(op["wall_s"] for op in traced)
                     - statistics.median(op["wall_s"] for op in plain)) if traced and plain else float("nan")
        elif traced:
            value = statistics.median(layer_value(metric, op["layers"], op["setup_builds"]) for op in traced)
        else:
            value = float("nan")
        values[metric] = {"value": value, "unit": unit}
    return values


def trace_outputs_match(ops: list[dict]) -> bool:
    """Traced and untraced runs of one command print the same bytes."""
    outputs = {op["output"] for op in ops if "output" in op}
    return len(outputs) <= 1


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    ops = run_ops(workload, seed, seconds, trace)
    failed = sum(not op["ok"] for op in ops)
    correct = failed == 0 and (not trace or trace_outputs_match(ops))
    return {
        "correct": correct,
        "attempted": len(ops),
        "failed": failed,
        "metrics": per_layer(ops) if trace else end_to_end(ops),
    }


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

def machine() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": cpu,
        "blas_env": THREAD_ENV,
    }


def print_table(results: dict, trace: bool):
    if trace:
        names = list(results)
        print(f"{'metric':48s}" + "".join(f"{n:>16s}" for n in names))
        for metric, unit, _ in PER_LAYER:
            row = "".join(f"{results[n]['metrics'][metric]['value']:16.6g}" for n in names)
            print(f"{metric + ' [' + unit + ']':48s}{row}")
        return
    print(f"{'workload':15s}{'cache':>6s}{'setup_s [s]':>13s}{'wall_s [s]':>12s}"
          f"{'peak_rss_mb [MB]':>18s}{'fail_ratio [1]':>16s}")
    for name, res in results.items():
        m = res["metrics"]
        print(f"{name:15s}{WORKLOADS[name]['cache']:>6s}{m['setup_s']['value']:13.3f}"
              f"{m['wall_s']['value']:12.3f}{m['peak_rss_mb']['value']:18.1f}"
              f"{res['failed'] / res['attempted']:16.3f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    which = parser.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload", choices=sorted(WORKLOADS))
    which.add_argument("--all", action="store_true", help="run every workload and print a table")
    parser.add_argument("--seed", type=int, default=42, help="Monte Carlo seed of validate")
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "tfqkd" / "cli.py").is_file():
        print(f"error: no tfqkd sources under {SRC}", file=sys.stderr)
        return 2

    if args.workload:
        print(json.dumps(measure(args.workload, args.seed, args.seconds, bool(args.trace))))
        return 0

    results = {name: measure(name, args.seed, args.seconds, bool(args.trace)) for name in WORKLOADS}
    print_table(results, bool(args.trace))
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({
        "correct": failed == 0 and all(r["correct"] for r in results.values()),
        "attempted": attempted,
        "failed": failed,
        "machine": machine(),
        "seed": args.seed,
        "workloads": results,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
