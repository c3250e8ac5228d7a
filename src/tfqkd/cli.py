"""Command-line frontend: surfaces, optimization, sweeps, validation, key rate.

Every command is deterministic for a fixed argument list (seeds included):
rerunning produces byte-identical output.  Output files are written to a
temporary sibling and renamed into place, so a failing command leaves no
partial file behind.  Exit codes: 0 success, 1 statistical/validation
failure, 2 usage error, 3 numeric failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile

import numpy as np

from . import pulse_math
from .channel import ProtocolParams, make_layout, mixed_bob_matrix
from .errors import DomainError, NumericFailure
from .infotheory import key_rate
from .optimizer import OptimizerConfig, c_surface, optimize_point, sweep
from .oracle import McConfig, compare_empirical, dft_spectrum_oracle, run_mc
from .pulse_math import DEFAULT_ACCURACY

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3


def _fmt(x) -> str:
    """Format a number with 9 significant digits (locale-independent)."""
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return format(float(x), ".9g")


def _round9(x: float) -> float:
    return float(format(float(x), ".9g"))


def parse_range(text: str) -> np.ndarray:
    """``lo:hi:step`` inclusive of both endpoints within half a step."""
    parts = text.split(":")
    if len(parts) != 3:
        raise DomainError(f"range must be lo:hi:step, got {text!r}")
    lo, hi, step = (float(p) for p in parts)
    if step <= 0.0 or hi < lo:
        raise DomainError(f"invalid range {text!r}")
    n = int(math.floor((hi - lo) / step + 0.5))
    vals = lo + step * np.arange(n + 1)
    return vals[vals <= hi + 0.5 * step]


def parse_box(text: str) -> tuple[float, float]:
    parts = text.split(":")
    if len(parts) != 2:
        raise DomainError(f"box must be lo:hi, got {text!r}")
    lo, hi = float(parts[0]), float(parts[1])
    return lo, hi


def _atomic_write(path: str, data: str):
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(prefix=".tfqkd-", dir=directory)
    try:
        with os.fdopen(fd, "w", newline="") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _emit(path: str | None, data: str):
    if path:
        _atomic_write(path, data)
    else:
        sys.stdout.write(data)


def _load_config(path: str | None) -> dict:
    if not path:
        return {}
    table = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise DomainError(f"config line is not key = value: {line!r}")
            key, _, value = line.partition("=")
            table[key.strip().replace("-", "_")] = value.strip()
    return table


def _resolve(args, config: dict, name: str, cast, default):
    """CLI flag beats config file beats built-in default."""
    cli_value = getattr(args, name, None)
    if cli_value is not None:
        return cli_value
    if name in config:
        return cast(config[name])
    return default


def _optimizer_config(args, config) -> OptimizerConfig:
    """OptimizerConfig from the values a flag or the config file sets; the
    dataclass supplies every other default."""
    casts = {"alpha_box": parse_box, "beta_box": parse_box, "step": float, "tol": float,
             "accuracy": float, "u_variant": str, "scheme": str}
    values = {name: _resolve(args, config, name, cast, None) for name, cast in casts.items()}
    values["coarse_step"] = values.pop("step")
    return OptimizerConfig(**{k: v for k, v in values.items() if v is not None})


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_surface(args) -> int:
    config = _load_config(args.config)
    m = _resolve(args, config, "m", int, None)
    eps = _resolve(args, config, "eps", float, None)
    if m is None or eps is None:
        raise DomainError("surface requires --m and --eps")
    alpha_axis = _resolve(args, config, "alpha", parse_range, parse_range("0.05:1.5:0.05"))
    beta_axis = _resolve(args, config, "beta", parse_range, parse_range("0.05:1.5:0.05"))
    accuracy = _resolve(args, config, "accuracy", float, DEFAULT_ACCURACY)
    fmt = _resolve(args, config, "format", str, "csv")

    grid = c_surface(m, eps, alpha_axis, beta_axis, accuracy)

    if fmt == "csv":
        lines = ["alpha,beta,capacity,i_ab,i_ae,qser"]
        for i, alpha in enumerate(grid.alpha_axis):
            for j, beta in enumerate(grid.beta_axis):
                lines.append(",".join(_fmt(v) for v in (
                    alpha, beta, grid.capacity[i, j], grid.i_ab[i, j],
                    grid.i_ae[i, j], grid.qser[i, j],
                )))
        _emit(args.out, "\n".join(lines) + "\n")
    elif fmt == "json":
        rows = [
            {
                "alpha": _round9(alpha), "beta": _round9(beta),
                "capacity": _round9(grid.capacity[i, j]),
                "i_ab": _round9(grid.i_ab[i, j]),
                "i_ae": _round9(grid.i_ae[i, j]),
                "qser": _round9(grid.qser[i, j]),
            }
            for i, alpha in enumerate(grid.alpha_axis)
            for j, beta in enumerate(grid.beta_axis)
        ]
        _emit(args.out, json.dumps({"m": m, "eps": _round9(eps), "points": rows}, indent=2) + "\n")
    else:
        raise DomainError(f"unknown format {fmt!r}")
    return EXIT_OK


def cmd_optimize(args) -> int:
    config = _load_config(args.config)
    m = _resolve(args, config, "m", int, None)
    eps = _resolve(args, config, "eps", float, None)
    if m is None or eps is None:
        raise DomainError("optimize requires --m and --eps")
    opt_config = _optimizer_config(args, config)
    result = optimize_point(m, eps, opt_config)
    payload = {
        "m": result.m,
        "eps": _round9(result.epsilon),
        "alpha_opt": _round9(result.alpha_opt),
        "beta_opt": _round9(result.beta_opt),
        "capacity": _round9(result.c_opt),
        "i_ab": _round9(result.report.i_ab),
        "i_ae": _round9(result.report.i_ae),
        "qser": _round9(result.report.qser),
        "u_min": _round9(result.u_min),
        "scheme": result.scheme,
        "u_variant": result.u_variant,
    }
    _emit(args.out, json.dumps(payload, indent=2) + "\n")
    return EXIT_OK


def cmd_sweep(args) -> int:
    config = _load_config(args.config)
    ms_text = _resolve(args, config, "m", str, None)
    eps_text = _resolve(args, config, "eps", str, None)
    if ms_text is None or eps_text is None:
        raise DomainError("sweep requires --m and --eps lists")
    ms = [int(v) for v in str(ms_text).split(",") if v != ""]
    epsilons = [float(v) for v in str(eps_text).split(",") if v != ""]
    opt_config = _optimizer_config(args, config)

    entries = sweep(ms, epsilons, opt_config)
    lines = ["m,eps,alpha_opt,beta_opt,capacity,qser,status"]
    for e in entries:
        if e.status == "ok":
            r = e.result
            lines.append(",".join([
                str(r.m), _fmt(r.epsilon), _fmt(r.alpha_opt), _fmt(r.beta_opt),
                _fmt(r.c_opt), _fmt(r.report.qser), "ok",
            ]))
        else:
            lines.append(f"{e.m},{_fmt(e.epsilon)},,,,,failed")
    _emit(args.out, "\n".join(lines) + "\n")
    if all(e.status == "failed" for e in entries):
        return EXIT_NUMERIC
    return EXIT_OK


def _spectrum_oracle_deviation(params: ProtocolParams, accuracy: float):
    """Worst inner-bin disagreement between the filter-summed spectrum that
    ``p_second_correct`` queries and the sum of the per-filter DFT oracles at
    this operating point, with the counts of inner bins skipped (they reach
    past the oracles' span) and compared."""
    layout = make_layout(params.m)
    scale = 2.0 / params.alpha
    reach = np.max(np.abs(layout.upper[:-1, None] - layout.centers[None, :]))
    span = min(scale * reach * 1.02 + 1.0, 60.0)
    spec = pulse_math.cached_spectrum(params.m, params.beta, accuracy)
    oracles = [dft_spectrum_oracle(f, params.m, params.beta, grid_step=0.02, grid_span=span)
               for f in range(1, params.m + 1)]
    bins = [(scale * (layout.lower[e] - layout.centers[a]),
             scale * (layout.upper[e] - layout.centers[a]))
            for e in range(1, params.m - 1) for a in range(params.m)]  # inner bins only
    inside = [(lo, hi) for lo, hi in bins if max(abs(lo), abs(hi)) < span]
    worst = max((abs(spec.bin_mass(lo, hi) - sum(o.bin_mass(lo, hi) for o in oracles))
                 for lo, hi in inside), default=0.0)
    return worst, len(bins) - len(inside), len(inside)


def cmd_validate(args) -> int:
    config = _load_config(args.config)
    m = _resolve(args, config, "m", int, None)
    alpha = _resolve(args, config, "alpha", float, None)
    beta = _resolve(args, config, "beta", float, None)
    eps = _resolve(args, config, "eps", float, None)
    if None in (m, alpha, beta, eps):
        raise DomainError("validate requires --m, --alpha, --beta, --eps")
    photons = _resolve(args, config, "photons", int, 1_000_000)
    seed = _resolve(args, config, "seed", int, 42)
    accuracy = _resolve(args, config, "accuracy", float, DEFAULT_ACCURACY)

    params = ProtocolParams(m, alpha, beta, eps)
    analytic = mixed_bob_matrix(params)
    empirical = run_mc(McConfig(photons=photons, seed=seed, params=params))
    verdict = compare_empirical(empirical, analytic)
    spectrum_dev, skipped, compared = _spectrum_oracle_deviation(params, accuracy)
    spectrum_ok = spectrum_dev <= 1e-6

    pvalues = [None if not np.isfinite(p) else _round9(p) for p in verdict.chi2_pvalues]
    passed = bool(verdict.passed and spectrum_ok)
    notes = list(verdict.notes)
    if photons < 10_000:
        notes.append("low photon count: statistical power is weak, tolerances are wide")
    if skipped:
        notes.append(f"spectrum oracle: {skipped} inner bins beyond its span skipped, "
                     f"{compared} compared")
    payload = {
        "m": m,
        "alpha": _round9(alpha),
        "beta": _round9(beta),
        "eps": _round9(eps),
        "photons": photons,
        "seed": seed,
        "max_abs_z": _round9(verdict.max_abs_z),
        "chi2_pvalues": pvalues,
        "spectrum_oracle_max_deviation": _round9(spectrum_dev),
        "passed": passed,
        "notes": notes,
    }
    _emit(args.out, json.dumps(payload, indent=2) + "\n")
    return EXIT_OK if passed else EXIT_FAIL


def cmd_keyrate(args) -> int:
    config = _load_config(args.config)
    m = _resolve(args, config, "m", int, None)
    eps = _resolve(args, config, "eps", float, None)
    rep_rate = _resolve(args, config, "rep_rate_hz", float, None)
    if m is None or eps is None or rep_rate is None:
        raise DomainError("keyrate requires --m, --eps, --rep-rate-hz")
    if rep_rate < 0.0:
        raise DomainError(f"repetition rate must be >= 0, got {rep_rate}")
    opt_config = _optimizer_config(args, config)
    result = optimize_point(m, eps, opt_config)
    rate = key_rate(rep_rate, result.c_opt)
    delta_t = (1.0 / (rep_rate * m)) if rep_rate > 0.0 else None
    payload = {
        "m": result.m,
        "eps": _round9(result.epsilon),
        "rep_rate_hz": _round9(rep_rate),
        "alpha_opt": _round9(result.alpha_opt),
        "beta_opt": _round9(result.beta_opt),
        "capacity_bits_per_photon": _round9(result.c_opt),
        "secret_key_rate_bits_per_s": _round9(rate),
        "delta_t_s": None if delta_t is None else _round9(delta_t),
    }
    _emit(args.out, json.dumps(payload, indent=2) + "\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tfqkd",
        description="Time-frequency QKD model: capacity surfaces, width optimization, validation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="key = value file supplying defaults for any flag")
        p.add_argument("--out", help="output file (atomic write); stdout when omitted")
        p.add_argument("--accuracy", type=float, help="absolute tolerance for spectral bin masses")

    p = sub.add_parser("surface", help="capacity over an (alpha, beta) grid")
    common(p)
    p.add_argument("--m", type=int)
    p.add_argument("--eps", type=float)
    p.add_argument("--alpha", type=parse_range, help="grid as lo:hi:step (endpoints included)")
    p.add_argument("--beta", type=parse_range, help="grid as lo:hi:step (endpoints included)")
    p.add_argument("--format", choices=("csv", "json"))
    p.set_defaults(fn=cmd_surface)

    def optimizer_flags(p):
        p.add_argument("--alpha-box", dest="alpha_box", type=parse_box, help="search box lo:hi")
        p.add_argument("--beta-box", dest="beta_box", type=parse_box, help="search box lo:hi")
        p.add_argument("--step", type=float, help="coarse grid step")
        p.add_argument("--tol", type=float, help="golden-section width tolerance")
        p.add_argument("--u-variant", dest="u_variant", choices=("per-term", "whole-sum"))
        p.add_argument("--scheme", choices=("staged", "nested"))

    p = sub.add_parser("optimize", help="optimal widths for one (m, eps) point")
    common(p)
    p.add_argument("--m", type=int)
    p.add_argument("--eps", type=float)
    optimizer_flags(p)
    p.set_defaults(fn=cmd_optimize)

    p = sub.add_parser("sweep", help="optimize over lists of m and eps")
    common(p)
    p.add_argument("--m", help="comma-separated symbol counts, e.g. 2,4,8")
    p.add_argument("--eps", help="comma-separated intercepted fractions")
    optimizer_flags(p)
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("validate", help="Monte Carlo + spectrum oracle consistency check")
    common(p)
    p.add_argument("--m", type=int)
    p.add_argument("--alpha", type=float)
    p.add_argument("--beta", type=float)
    p.add_argument("--eps", type=float)
    p.add_argument("--photons", type=int)
    p.add_argument("--seed", type=int)
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("keyrate", help="secret key rate at the optimal widths")
    common(p)
    p.add_argument("--m", type=int)
    p.add_argument("--eps", type=float)
    p.add_argument("--rep-rate-hz", dest="rep_rate_hz", type=float)
    optimizer_flags(p)
    p.set_defaults(fn=cmd_keyrate)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse handles usage errors with code 2
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except (DomainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NumericFailure as exc:
        diagnostic = {"error": "numeric failure", "detail": str(exc)}
        if exc.achieved is not None:
            diagnostic["achieved"] = exc.achieved
        if exc.target is not None:
            diagnostic["target"] = exc.target
        print(json.dumps(diagnostic), file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
