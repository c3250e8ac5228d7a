"""Command-line frontend: surfaces, optimization, sweeps, validation, key rate.

Every command is deterministic for a fixed argument list (seeds included):
rerunning produces byte-identical output.  Output files are written to a
temporary sibling and renamed into place, so a failing command leaves no
partial file behind.  Exit codes: 0 success, 1 statistical/validation
failure, 2 usage error, 3 numeric failure.

A ``--config`` file holds ``key = value`` lines whose keys are long-flag
names, written with ``-`` or ``_``.  Each line becomes a ``--key=value``
token placed just after the subcommand name, so every value, ``out``
included, is parsed exactly like its flag; a bad value or a key that names
no flag of the subcommand is a usage error (exit 2); and explicit flags,
coming later, win.
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
from .optimizer import OptimizerConfig, _axis, c_surface, optimize_point, sweep
from .oracle import McConfig, compare_empirical, dft_spectrum_oracle, run_mc
from .pulse_math import DEFAULT_ACCURACY

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3


def _fmt(x) -> str:
    """Format a number with 9 significant digits (locale-independent)."""
    return format(float(x), ".9g")


def _round9(x: float) -> float:
    return float(format(float(x), ".9g"))


def parse_range(text: str) -> np.ndarray:
    """``lo:hi:step`` inclusive of both endpoints within half a step."""
    parts = text.split(":")
    if len(parts) != 3:
        raise DomainError(f"range must be lo:hi:step, got {text!r}")
    lo, hi, step = (float(p) for p in parts)
    if not (0.0 < step < math.inf and -math.inf < lo <= hi < math.inf):
        raise DomainError(f"range needs finite lo <= hi and step > 0, got {text!r}")
    return _axis((lo, hi), step, 0.5 * step)


def parse_box(text: str) -> tuple[float, float]:
    parts = text.split(":")
    if len(parts) != 2:
        raise DomainError(f"box must be lo:hi, got {text!r}")
    return float(parts[0]), float(parts[1])  # OptimizerConfig checks the bounds


def _atomic_write(path: str, data: str):
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(prefix=".tfqkd-", dir=directory)
    try:
        umask = os.umask(0)
        os.umask(umask)
        os.chmod(tmp, 0o666 & ~umask)  # a plain open's mode, not mkstemp's 0600
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


def _checked(cast, ok=lambda value: True, what: str = ""):
    """An argparse type: ``cast`` the text, then check it with ``ok``; errors say why."""
    def parse(text: str):
        try:
            value = cast(text)
        except ValueError as exc:  # DomainError included
            raise argparse.ArgumentTypeError(str(exc)) from None
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {what}, got {text!r}")
        return value
    return parse


def _list_of(cast):
    """An argparse type for comma-separated values, each parsed by the argparse type ``cast``."""
    def parse(text: str) -> list:
        return [cast(v) for v in text.split(",") if v != ""]
    return parse


_accuracy = _checked(float, lambda x: 0.0 < x < math.inf, "finite and positive")
_rate = _checked(float, lambda x: 0.0 <= x < math.inf, "finite and >= 0")
_seed = _checked(int, lambda n: n >= 0, ">= 0")


def _with_config(argv: list[str]) -> list[str]:
    """``argv`` with each ``key = value`` line of its ``--config`` file
    inserted as ``--key=value`` just after the subcommand name."""
    pre = argparse.ArgumentParser(prog="tfqkd", add_help=False)
    pre.add_argument("--config", nargs="?")  # a missing path is left to the full parser
    path = pre.parse_known_args(argv)[0].config
    if not path:
        return argv
    tokens = []
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except UnicodeDecodeError as exc:
        raise DomainError(f"config file {path} is not UTF-8 text: {exc}") from None
    for line in lines:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise DomainError(f"config line is not key = value: {line!r}")
        key, _, value = line.partition("=")
        tokens.append(f"--{key.strip().replace('_', '-')}={value.strip()}")
    return argv[:1] + tokens + argv[1:]


def _optimizer_config(args) -> OptimizerConfig:
    return OptimizerConfig(alpha_box=args.alpha_box, beta_box=args.beta_box,
                           coarse_step=args.step, tol=args.tol, accuracy=args.accuracy,
                           u_variant=args.u_variant, scheme=args.scheme)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------

def cmd_surface(args) -> int:
    grid = c_surface(args.m, args.eps, args.alpha, args.beta, args.accuracy)
    names = ("alpha", "beta", "capacity", "i_ab", "i_ae", "qser")
    rows = np.stack([*np.meshgrid(grid.alpha_axis, grid.beta_axis, indexing="ij"),
                     *(getattr(grid, name) for name in names[2:])], -1).reshape(-1, 6).tolist()
    if args.format == "csv":  # '%.9g' formats a Python float as _fmt does
        lines = [("%.9g," * 5 + "%.9g\n") % tuple(row) for row in rows]
        _emit(args.out, ",".join(names) + "\n" + "".join(lines))
    else:
        points = [dict(zip(names, map(_round9, row))) for row in rows]
        payload = {"m": args.m, "eps": _round9(args.eps), "points": points}
        _emit(args.out, json.dumps(payload, indent=2) + "\n")
    return EXIT_OK


def cmd_optimize(args) -> int:
    result = optimize_point(args.m, args.eps, _optimizer_config(args))
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
    entries = sweep(args.m, args.eps, _optimizer_config(args))
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
    lo = scale * (layout.lower[1:-1, None] - layout.centers[None, :])  # inner bins only
    hi = scale * (layout.upper[1:-1, None] - layout.centers[None, :])
    inside = np.maximum(np.abs(lo), np.abs(hi)) < span
    lo, hi = lo[inside], hi[inside]
    deviation = np.abs(spec.bin_mass(lo, hi) - sum(o.bin_mass(lo, hi) for o in oracles))
    return float(deviation.max(initial=0.0)), int(inside.size - lo.size), lo.size


def cmd_validate(args) -> int:
    params = ProtocolParams(args.m, args.alpha, args.beta, args.eps)
    analytic = mixed_bob_matrix(params)
    empirical = run_mc(McConfig(photons=args.photons, seed=args.seed, params=params))
    verdict = compare_empirical(empirical, analytic)
    spectrum_dev, skipped, compared = _spectrum_oracle_deviation(params, args.accuracy)
    spectrum_ok = spectrum_dev <= 1e-6

    pvalues = [None if not np.isfinite(p) else _round9(p) for p in verdict.chi2_pvalues]
    passed = bool(verdict.passed and spectrum_ok)
    notes = list(verdict.notes)
    if args.photons < 10_000:
        notes.append("low photon count: statistical power is weak, tolerances are wide")
    if skipped:
        notes.append(f"spectrum oracle: {skipped} inner bins beyond its span skipped, "
                     f"{compared} compared")
    payload = {
        "m": args.m,
        "alpha": _round9(args.alpha),
        "beta": _round9(args.beta),
        "eps": _round9(args.eps),
        "photons": args.photons,
        "seed": args.seed,
        "max_abs_z": _round9(verdict.max_abs_z),
        "chi2_pvalues": pvalues,
        "spectrum_oracle_max_deviation": _round9(spectrum_dev),
        "passed": passed,
        "notes": notes,
    }
    _emit(args.out, json.dumps(payload, indent=2) + "\n")
    return EXIT_OK if passed else EXIT_FAIL


def cmd_keyrate(args) -> int:
    rep_rate = args.rep_rate_hz
    result = optimize_point(args.m, args.eps, _optimizer_config(args))
    delta_t = (1.0 / (rep_rate * args.m)) if rep_rate > 0.0 else None
    payload = {
        "m": result.m,
        "eps": _round9(result.epsilon),
        "rep_rate_hz": _round9(rep_rate),
        "alpha_opt": _round9(result.alpha_opt),
        "beta_opt": _round9(result.beta_opt),
        "capacity_bits_per_photon": _round9(result.c_opt),
        "secret_key_rate_bits_per_s": _round9(key_rate(rep_rate, result.c_opt)),
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

    def common(p, m_type=int, eps_type=float):
        p.add_argument("--config", help="key = value lines, each parsed as its --key=value flag")
        p.add_argument("--out", help="output file (atomic write); stdout when omitted")
        p.add_argument("--accuracy", type=_accuracy, default=DEFAULT_ACCURACY,
                       help="absolute tolerance for spectral bin masses")
        p.add_argument("--m", type=m_type, required=True)
        p.add_argument("--eps", type=eps_type, required=True)

    p = sub.add_parser("surface", help="capacity over an (alpha, beta) grid")
    common(p)
    for axis in ("--alpha", "--beta"):
        p.add_argument(axis, type=_checked(parse_range), default="0.05:1.5:0.05",
                       help="grid as lo:hi:step (endpoints included)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(fn=cmd_surface)

    def optimizer_flags(p):
        d = OptimizerConfig
        p.add_argument("--alpha-box", type=_checked(parse_box), default=d.alpha_box, help="search box lo:hi")
        p.add_argument("--beta-box", type=_checked(parse_box), default=d.beta_box, help="search box lo:hi")
        p.add_argument("--step", type=float, default=d.coarse_step, help="coarse grid step")
        p.add_argument("--tol", type=float, default=d.tol, help="golden-section width tolerance")
        p.add_argument("--u-variant", choices=("per-term", "whole-sum"), default=d.u_variant)
        p.add_argument("--scheme", choices=("staged", "nested"), default=d.scheme)

    p = sub.add_parser("optimize", help="optimal widths for one (m, eps) point")
    common(p)
    optimizer_flags(p)
    p.set_defaults(fn=cmd_optimize)

    p = sub.add_parser("sweep", help="optimize over comma-separated lists of m and eps")
    common(p, _list_of(_checked(int, lambda n: n >= 2, "an integer >= 2")),
           _list_of(_checked(float, lambda e: 0.0 <= e <= 1.0, "in [0, 1]")))
    optimizer_flags(p)
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("validate", help="Monte Carlo + spectrum oracle consistency check")
    common(p)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--photons", type=int, default=1_000_000)
    p.add_argument("--seed", type=_seed, default=42)
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("keyrate", help="secret key rate at the optimal widths")
    common(p)
    p.add_argument("--rep-rate-hz", type=_rate, required=True)
    optimizer_flags(p)
    p.set_defaults(fn=cmd_keyrate)

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _build_parser().parse_args(_with_config(argv))
        return args.fn(args)
    except SystemExit as exc:  # argparse reports usage errors with code 2
        return int(exc.code or 0)
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
