import json
import os
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from tfqkd.cli import _build_parser, main, parse_box, parse_range
from tfqkd.errors import DomainError

ROOT = Path(__file__).resolve().parent.parent


def run_cli(*args):
    return main(list(args))


def assert_usage_error(capsys) -> str:
    """Nothing on stdout and exactly one error line on stderr; returns it."""
    captured = capsys.readouterr()
    assert captured.out == ""
    errors = [line for line in captured.err.splitlines() if "error:" in line]
    assert len(errors) == 1, captured.err
    return errors[0]


class TestParsing:
    def test_range_includes_endpoints(self):
        vals = parse_range("0.05:1.5:0.05")
        assert vals.size == 30
        assert vals[0] == pytest.approx(0.05)
        assert vals[-1] == pytest.approx(1.5)

    def test_range_half_step_tolerance(self):
        vals = parse_range("0.1:0.3:0.1")
        assert np.allclose(vals, [0.1, 0.2, 0.3])

    def test_bad_ranges(self):
        for text in ("0.1:0.5", "0.5:0.1:0.1", "0.1:0.5:-0.1", "oops"):
            with pytest.raises((DomainError, ValueError)):
                parse_range(text)

    def test_box(self):
        assert parse_box("0.2:0.9") == (0.2, 0.9)
        with pytest.raises(DomainError):
            parse_box("0.2:0.9:0.1")


class TestSurface:
    def test_default_grid_row_count(self, tmp_path):
        # the built-in grid is 0.05:1.5:0.05 on both axes: 30 x 30 points
        out = tmp_path / "surface.csv"
        code = run_cli("surface", "--m", "4", "--eps", "0.5", "--out", str(out))
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "alpha,beta,capacity,i_ab,i_ae,qser"
        assert len(lines) == 1 + 900

    def test_capacity_bounds_and_determinism(self, tmp_path):
        args = (
            "surface", "--m", "4", "--eps", "0.5",
            "--alpha", "0.2:1.0:0.2", "--beta", "0.3:0.9:0.3",
        )
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        assert run_cli(*args, "--out", str(out1)) == 0
        assert run_cli(*args, "--out", str(out2)) == 0
        assert out1.read_bytes() == out2.read_bytes()
        rows = [line.split(",") for line in out1.read_text().splitlines()[1:]]
        caps = [float(r[2]) for r in rows]
        assert all(0.0 <= c <= 2.0 for c in caps)

    def test_invalid_range_no_file(self, tmp_path, capsys):
        out = tmp_path / "nope.csv"
        code = run_cli("surface", "--m", "4", "--eps", "0.5", "--alpha", "1.0:0.1:0.1",
                       "--out", str(out))
        assert code == 2
        assert not out.exists()

    def test_numeric_failure_exits_3_with_diagnostic(self, tmp_path, capsys, monkeypatch):
        import tfqkd.pulse_math as pulse_math_module
        from tfqkd.errors import NumericFailure

        def stalled(*args, **kwargs):
            raise NumericFailure("stalled", achieved=1e-6, target=1e-8)

        monkeypatch.setattr(pulse_math_module, "summed_spectra", stalled)
        out = tmp_path / "surface.csv"
        code = run_cli("surface", "--m", "4", "--eps", "0.5", "--out", str(out))
        assert code == 3
        diagnostic = json.loads(capsys.readouterr().err)
        assert (diagnostic["achieved"], diagnostic["target"]) == (1e-6, 1e-8)
        assert not out.exists()

    def test_json_format(self, tmp_path):
        out = tmp_path / "surface.json"
        code = run_cli(
            "surface", "--m", "2", "--eps", "0.0",
            "--alpha", "0.5:1.0:0.5", "--beta", "0.5:1.0:0.5",
            "--format", "json", "--out", str(out),
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["m"] == 2
        assert len(payload["points"]) == 4


class TestOptimize:
    def test_no_attack_reaches_log2m(self, capsys):
        code = run_cli("optimize", "--m", "4", "--eps", "0")
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["capacity"] >= 1.98
        assert set(payload) == {
            "m", "eps", "alpha_opt", "beta_opt", "capacity",
            "i_ab", "i_ae", "qser", "u_min", "scheme", "u_variant",
        }

    def test_heavy_attack_zero_capacity(self, capsys):
        code = run_cli("optimize", "--m", "4", "--eps", "0.9")
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["capacity"] == 0.0

    def test_scheme_and_variant_flags(self, capsys):
        code = run_cli(
            "optimize", "--m", "2", "--eps", "0.25",
            "--scheme", "nested", "--u-variant", "whole-sum", "--step", "0.25",
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["scheme"] == "nested"
        assert payload["u_variant"] == "whole-sum"

    def test_missing_args_usage_error(self):
        assert run_cli("optimize", "--m", "4") == 2

    def test_deterministic_bytes(self, tmp_path):
        out1 = tmp_path / "r1.json"
        out2 = tmp_path / "r2.json"
        run_cli("optimize", "--m", "2", "--eps", "0.5", "--step", "0.25", "--out", str(out1))
        run_cli("optimize", "--m", "2", "--eps", "0.5", "--step", "0.25", "--out", str(out2))
        assert out1.read_bytes() == out2.read_bytes()


class TestSweep:
    def test_small_sweep(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = run_cli(
            "sweep", "--m", "2,4", "--eps", "0,0.9", "--step", "0.25", "--out", str(out),
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "m,eps,alpha_opt,beta_opt,capacity,qser,status"
        assert len(lines) == 5
        first = lines[1].split(",")
        assert first[0] == "2" and first[1] == "0"
        assert all(line.endswith(",ok") for line in lines[1:])

    def test_failed_points_keep_sweep_alive(self, tmp_path, monkeypatch):
        import tfqkd.optimizer as optimizer_module
        from tfqkd.errors import NumericFailure
        from tfqkd.optimizer import OptimizerConfig

        real = optimizer_module.optimize_point

        def flaky(m, epsilon, config=OptimizerConfig()):
            if m == 4:
                raise NumericFailure("forced")
            return real(m, epsilon, config)

        monkeypatch.setattr(optimizer_module, "optimize_point", flaky)
        out = tmp_path / "sweep.csv"
        code = run_cli("sweep", "--m", "2,4", "--eps", "0", "--step", "0.25", "--out", str(out))
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[1].endswith(",ok")
        assert lines[2] == "4,0,,,,,failed"

    def test_all_failed_is_numeric_exit(self, tmp_path, monkeypatch):
        import tfqkd.optimizer as optimizer_module
        from tfqkd.errors import NumericFailure

        def broken(m, epsilon, config=None):
            raise NumericFailure("forced")

        monkeypatch.setattr(optimizer_module, "optimize_point", broken)
        out = tmp_path / "sweep.csv"
        code = run_cli("sweep", "--m", "2", "--eps", "0", "--out", str(out))
        assert code == 3


class TestValidate:
    def test_passing_run(self, tmp_path):
        out = tmp_path / "report.json"
        code = run_cli(
            "validate", "--m", "2", "--alpha", "0.8", "--beta", "0.7", "--eps", "0.5",
            "--photons", "200000", "--seed", "42", "--out", str(out),
        )
        payload = json.loads(out.read_text())
        assert code == 0
        assert payload["passed"] is True
        assert payload["max_abs_z"] <= 4.0
        assert payload["spectrum_oracle_max_deviation"] <= 1e-6

    def test_low_photon_warning(self, capsys):
        code = run_cli(
            "validate", "--m", "2", "--alpha", "0.8", "--beta", "0.7", "--eps", "0.0",
            "--photons", "100", "--seed", "42",
        )
        payload = json.loads(capsys.readouterr().out)
        assert code in (0, 1)  # wide tolerances, but the report must exist
        assert any("low" in note for note in payload["notes"])

    def test_skipped_bins_are_reported(self, capsys):
        # at alpha = 0.05 the inner bins reach |w| = 120, past the oracles'
        # span of 60: 6 of the 8 inner bins cannot be compared
        code = run_cli(
            "validate", "--m", "4", "--alpha", "0.05", "--beta", "0.7", "--eps", "0.5",
            "--photons", "20000", "--seed", "42",
        )
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert "spectrum oracle: 6 inner bins beyond its span skipped, 2 compared" in payload["notes"]

    def test_reproducible_bytes(self, tmp_path):
        args = (
            "validate", "--m", "2", "--alpha", "0.8", "--beta", "0.7", "--eps", "0.25",
            "--photons", "50000", "--seed", "9",
        )
        out1 = tmp_path / "v1.json"
        out2 = tmp_path / "v2.json"
        run_cli(*args, "--out", str(out1))
        run_cli(*args, "--out", str(out2))
        assert out1.read_bytes() == out2.read_bytes()


class TestKeyrate:
    def test_m2_is_one_bit_ceiling(self, capsys):
        code = run_cli("keyrate", "--m", "2", "--eps", "0", "--rep-rate-hz", "1e6",
                       "--step", "0.25")
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["capacity_bits_per_photon"] <= 1.0 + 1e-9
        assert payload["secret_key_rate_bits_per_s"] == pytest.approx(
            1e6 * payload["capacity_bits_per_photon"], rel=1e-6
        )

    def test_zero_rate(self, capsys):
        code = run_cli("keyrate", "--m", "2", "--eps", "0", "--rep-rate-hz", "0",
                       "--step", "0.25")
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["secret_key_rate_bits_per_s"] == 0.0
        assert payload["delta_t_s"] is None

    def test_delta_t(self, capsys):
        code = run_cli("keyrate", "--m", "4", "--eps", "0", "--rep-rate-hz", "1e8",
                       "--step", "0.25")
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["delta_t_s"] == pytest.approx(1.0 / (1e8 * 4))


class TestConfigFile:
    def test_config_supplies_defaults(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("m = 4\neps = 0\nstep = 0.25\n")
        code = run_cli("optimize", "--config", str(cfg))
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["m"] == 4
        assert payload["eps"] == 0.0

    def test_cli_beats_config(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("m = 4\neps = 0.9\nstep = 0.25\n")
        code = run_cli("optimize", "--config", str(cfg), "--eps", "0")
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["eps"] == 0.0
        assert payload["capacity"] >= 1.98

    def test_malformed_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("m 4\n")
        assert run_cli("optimize", "--config", str(cfg)) == 2

    def test_flag_before_config_still_wins(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("m = 4\neps = 0.9\nstep = 0.25\n")
        assert run_cli("optimize", "--eps", "0", "--config", str(cfg)) == 0
        assert json.loads(capsys.readouterr().out)["eps"] == 0.0

    # each run as flags and as config lines; keys use both "-" and "_"
    SAME_RUNS = {
        "surface": {"m": "2", "eps": "0.5", "alpha": "0.5:1.0:0.5", "beta": "0.5:1.0:0.5",
                    "format": "json"},
        "optimize": {"m": "2", "eps": "0.25", "step": "0.25", "u_variant": "whole-sum",
                     "scheme": "nested", "alpha-box": "0.1:1.2"},
        "sweep": {"m": "2,4", "eps": "0,0.5", "step": "0.25", "tol": "0.01"},
        "validate": {"m": "2", "alpha": "0.8", "beta": "0.7", "eps": "0.25",
                     "photons": "20000", "seed": "9"},
        "keyrate": {"m": "2", "eps": "0", "rep_rate_hz": "1e6", "step": "0.25",
                    "beta_box": "0.2:1.4"},
    }

    @pytest.mark.parametrize("command", sorted(SAME_RUNS))
    def test_config_run_equals_flag_run(self, command, tmp_path, capsys):
        values = self.SAME_RUNS[command]
        flags = [token for key, value in values.items()
                 for token in ("--" + key.replace("_", "-"), value)]
        code = run_cli(command, *flags)
        by_flags = capsys.readouterr().out
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# same run\n\n" + "".join(f"{k} = {v}\n" for k, v in values.items()))
        assert run_cli(command, "--config", str(cfg)) == code
        assert capsys.readouterr().out == by_flags != ""

    def test_out_key_writes_file(self, tmp_path, capsys):
        out = tmp_path / "result.json"
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"m = 2\neps = 0\nstep = 0.25\nout = {out}\n")
        assert run_cli("optimize", "--config", str(cfg)) == 0
        assert capsys.readouterr().out == ""
        assert json.loads(out.read_text())["m"] == 2

    @pytest.mark.parametrize("lines", [
        "m = 4.5\neps = 0.5\n",          # unparsable value
        "m = 4\neps = 0.5\nstep = abc\n",
        "m = 4\neps = 0.5\nsetp = 0.25\n",  # misspelled key
        "m = 4\neps = 0.5\nrep_rate_hz = 1e6\n",  # no such flag for optimize
    ], ids=["bad-int", "bad-float", "misspelled-key", "foreign-key"])
    def test_bad_config_line_is_usage_error(self, lines, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(lines)
        assert run_cli("optimize", "--config", str(cfg)) == 2
        assert_usage_error(capsys)

    def test_bad_format_rejected_before_surface(self, tmp_path, capsys, monkeypatch):
        import tfqkd.cli as cli_module

        def never(*args, **kwargs):
            raise AssertionError("surface computed")

        monkeypatch.setattr(cli_module, "c_surface", never)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("m = 4\neps = 0.5\nformat = xml\n")
        assert run_cli("surface", "--config", str(cfg)) == 2
        assert_usage_error(capsys)

    def test_non_utf8_config_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"\xff\xfe m = 4\n")
        assert run_cli("optimize", "--config", str(cfg)) == 2
        assert "UTF-8" in assert_usage_error(capsys)

    def test_config_flag_without_path(self, capsys):
        assert run_cli("optimize", "--m", "4", "--eps", "0", "--config") == 2
        assert "--config" in assert_usage_error(capsys)


class TestOneCommandParser:
    # a representative argv per subcommand, flags of its own included
    ARGV = {
        "surface": ("--m", "4", "--eps", "0.5", "--alpha", "0.1:0.3:0.1", "--format", "json", "--out", "s.json"),
        "optimize": ("--m", "4", "--eps", "0.5", "--beta-box", "0.2:0.9", "--u-variant", "whole-sum"),
        "sweep": ("--m", "2,4", "--eps", "0,0.5", "--tol", "1e-4", "--scheme", "nested"),
        "validate": ("--m", "4", "--eps", "0.5", "--alpha", "0.5", "--beta", "0.7", "--seed", "3"),
        "keyrate": ("--m", "4", "--eps", "0", "--rep-rate-hz", "1e8", "--alpha-box", "0.1:1"),
    }

    @pytest.mark.parametrize("command", list(ARGV))
    def test_help_and_namespace_equal_the_full_parser(self, command, capsys):
        argv = [command, *self.ARGV[command]]
        one, full = _build_parser(command), _build_parser()
        assert repr(vars(one.parse_args(argv))) == repr(vars(full.parse_args(argv)))
        helps = []
        for parser in (one, full):
            with pytest.raises(SystemExit):
                parser.parse_args([command, "--help"])
            helps.append(capsys.readouterr().out)
        assert helps[0] == helps[1] and "--m M" in helps[0]


class TestUsage:
    @pytest.mark.parametrize("argv", [
        ("surface", "--m", "4"),
        ("optimize", "--eps", "0.5"),
        ("sweep", "--m", "2,4"),
        ("validate", "--m", "2", "--alpha", "0.8", "--eps", "0.5"),
        ("keyrate", "--m", "2", "--eps", "0"),
    ], ids=lambda argv: argv[0])
    def test_missing_required_flag(self, argv, capsys):
        assert run_cli(*argv) == 2
        assert "required" in assert_usage_error(capsys)

    @pytest.mark.parametrize("argv", [
        ("sweep", "--m", "2.5", "--eps", "0"),
        ("sweep", "--m", "2", "--eps", "x"),
        ("validate", "--m", "2", "--alpha", "0.8", "--beta", "0.7", "--eps", "0.5",
         "--seed", "-1"),
        ("keyrate", "--m", "2", "--eps", "0", "--rep-rate-hz", "nan"),
        ("keyrate", "--m", "2", "--eps", "0", "--rep-rate-hz", "-1"),
        # the spectrum tolerance is fixed: an old script that sets it fails loudly
        *[(*argv, "--accuracy", "1e-8") for argv in (
            ("surface", "--m", "4", "--eps", "0"), ("optimize", "--m", "4", "--eps", "0"),
            ("sweep", "--m", "4", "--eps", "0"),
            ("validate", "--m", "2", "--alpha", "0.8", "--beta", "0.7", "--eps", "0.5"),
            ("keyrate", "--m", "2", "--eps", "0", "--rep-rate-hz", "1e6"))],
    ])
    def test_bad_flag_value(self, argv, capsys):
        assert run_cli(*argv) == 2
        assert_usage_error(capsys)

    @pytest.mark.parametrize("argv,reason", [
        (("sweep", "--m", "1", "--eps", "0.5"), "integer >= 2"),
        (("sweep", "--m", "4", "--eps", "1.5"), "in [0, 1]"),
        (("sweep", "--m", "2,1", "--eps", "0"), "integer >= 2"),
    ], ids=["sweep-m-1", "sweep-eps-1.5", "sweep-m-list-with-1"])
    def test_out_of_domain_exits_2_with_reason(self, argv, reason, capsys):
        assert run_cli(*argv) == 2
        assert reason in assert_usage_error(capsys)

    @pytest.mark.parametrize("argv,reason", [
        (("surface", "--alpha", "0.1:inf:0.1"), "finite lo <= hi"),
        (("surface", "--beta", "0.1:0.5:nan"), "step > 0"),
        (("surface", "--alpha", "1.0:0.1:0.1"), "lo <= hi"),
        (("surface", "--beta", "0.1:0.5"), "lo:hi:step"),
        (("optimize", "--alpha-box", "0.1:inf"), "0 < lo < hi < inf"),
        (("optimize", "--beta-box", "0.2:0.9:0.1"), "lo:hi"),
        (("optimize", "--step", "inf"), "coarse_step must be finite"),
    ], ids=["alpha-inf", "beta-nan-step", "alpha-reversed", "beta-two-parts",
            "alpha-box-inf", "beta-box-three-parts", "step-inf"])
    def test_bad_range_names_reason(self, argv, reason, capsys):
        assert run_cli(*argv, "--m", "4", "--eps", "0") == 2
        assert reason in assert_usage_error(capsys)

    @pytest.mark.parametrize("argv", [
        ("surface", "--alpha", "0:1e308:1e-300"),
        ("surface", "--alpha", "0:1:1e-15"),
        ("optimize", "--step", "1e-300"),
        ("optimize", "--alpha-box", "1e-12:1e12", "--step", "1e-300"),
    ], ids=["range-overflow", "range-too-large-to-allocate", "step-beyond-numpy-size",
            "alpha-box-overflow"])
    def test_grid_with_too_many_points_exits_2(self, argv, capsys):
        # the point count is infinite or cannot be allocated: a usage error, no traceback
        assert run_cli(argv[0], "--m", "4", "--eps", "0.5", *argv[1:]) == 2
        assert "too many points" in assert_usage_error(capsys)

    @pytest.mark.parametrize("argv,reason", [
        (("--alpha-box", "1e-200:0.05", "--step", "0.01"), "alpha must lie in [1e-12, 1e12]"),
        (("--beta-box", "1e-310:0.05"), "beta * m must lie in [1e-12, 1e12]"),
        (("--alpha-box", "1e-200:0.05", "--step", "0.01", "--u-variant", "whole-sum"),
         "alpha must lie in [1e-12, 1e12]"),
        (("--beta-box", "1e-310:0.05", "--u-variant", "whole-sum"), "beta * m must lie in [1e-12, 1e12]"),
        (("--alpha-box", "0.05:1e308"), "alpha must lie in [1e-12, 1e12]"),
        (("--alpha-box", "9.999999999999998e-13:0.05"), "alpha must lie in [1e-12, 1e12]"),
        (("--alpha-box", "0.05:1000000000000.0001"), "alpha must lie in [1e-12, 1e12]"),
        (("--beta-box", "2.4999999999999994e-13:0.05"), "beta * m must lie in [1e-12, 1e12]"),
    ], ids=["alpha-past-float-range", "beta-m-below-bound", "alpha-float-range-whole-sum",
            "beta-m-below-bound-whole-sum", "alpha-box-past-the-interval", "alpha-an-ulp-below",
            "alpha-an-ulp-above", "beta-m-an-ulp-below"])
    def test_overlap_widths_past_float_range_exit_2(self, argv, reason, capsys):
        # the alpha box is checked against [1e-12, 1e12] when the settings are read; the beta
        # box at eps = 0 only where stage 2's overlap functional reads it
        assert run_cli("optimize", "--m", "4", "--eps", "0", *argv) == 2
        assert reason in assert_usage_error(capsys)

    def test_narrow_symbol_overlap_reaches_its_limit(self, capsys):
        # stage 2 runs at the box's lower end alpha = 1e-12, where either overlap is 2m
        for variant in ("per-term", "whole-sum"):
            assert run_cli("optimize", "--m", "4", "--eps", "0", "--alpha-box", "1e-12:0.05",
                           "--step", "0.01", "--u-variant", variant) == 0
            assert json.loads(capsys.readouterr().out)["u_min"] == 8.0

    def test_subnormal_alpha_surface_gives_the_limit(self, capsys):
        # a subnormal alpha is outside [1e-12, 1e12]; the interval's lower end already
        # gives the alpha -> 0 limit to the printed digits
        assert run_cli("surface", "--m", "4", "--eps", "0.5", "--alpha", "1e-310:1e-310:1",
                       "--beta", "0.5:0.5:1") == 2
        assert "alpha must lie in [1e-12, 1e12], got 1e-310" in assert_usage_error(capsys)
        assert run_cli("surface", "--m", "4", "--eps", "0.5", "--alpha", "1e-12:1e-12:1",
                       "--beta", "0.5:0.5:1") == 0
        captured = capsys.readouterr()
        assert captured.out.splitlines()[1] == "1e-12,0.5,0.0567386819,1.05673868,1,0.1875"
        assert captured.err == ""

    def test_sweep_with_too_many_points_records_failures(self, capsys):
        assert run_cli("sweep", "--m", "2,4", "--eps", "0.5", "--step", "1e-300") == 3
        assert capsys.readouterr().out.splitlines()[1:] == ["2,0.5,,,,,failed", "4,0.5,,,,,failed"]

    def test_tol_below_float_spacing_ends(self, capsys):
        # in a subprocess with a timeout, so that a search that never ends fails
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        proc = subprocess.run([sys.executable, "-m", "tfqkd.cli", "optimize", "--m", "4", "--eps", "0",
                               "--tol", "1e-300"], capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert run_cli("optimize", "--m", "4", "--eps", "0", "--tol", "1e-15") == 0
        assert proc.stdout == capsys.readouterr().out

    @pytest.mark.skipif(os.name != "posix", reason="POSIX file modes")
    def test_out_file_mode_follows_umask(self, tmp_path):
        out = tmp_path / "perm.json"
        old = os.umask(0o022)
        try:
            code = run_cli("optimize", "--m", "2", "--eps", "0", "--step", "0.25",
                           "--out", str(out))
        finally:
            os.umask(old)
        assert code == 0
        assert stat.S_IMODE(out.stat().st_mode) == 0o644

    def test_unknown_command(self):
        assert run_cli("frobnicate") == 2

    def test_no_command(self):
        assert run_cli() == 2

    def test_failed_rename_exits_2_and_leaves_no_temp_file(self, tmp_path, monkeypatch, capsys):
        def refuse(src, dst):
            raise PermissionError(f"cannot replace {dst}")

        monkeypatch.setattr(os, "replace", refuse)
        out = tmp_path / "out.json"
        code = run_cli("optimize", "--m", "2", "--eps", "0", "--step", "0.25", "--out", str(out))
        assert code == 2
        assert "cannot replace" in assert_usage_error(capsys)
        assert list(tmp_path.iterdir()) == []  # neither the output nor a .tfqkd-* temp file

    @pytest.mark.parametrize("exc,reason", [
        (MemoryError("Unable to allocate 16.0 TiB for an array"), "error: Unable to allocate 16.0 TiB"),
        (MemoryError(), "error: out of memory"),
    ], ids=["numpy-message", "bare"])
    def test_allocation_failure_exits_2(self, exc, reason, monkeypatch, capsys):
        # an input too large to allocate for, such as surface --m 1099511627776, without allocating it
        import tfqkd.cli as cli_module

        def too_large(*args, **kwargs):
            raise exc

        monkeypatch.setattr(cli_module, "c_surface", too_large)
        assert run_cli("surface", "--m", "1099511627776", "--eps", "0", "--alpha", "0.5:0.5:1",
                       "--beta", "0.5:0.5:1") == 2
        assert assert_usage_error(capsys).startswith(reason)

    def test_unwritable_output_path(self, tmp_path):
        out = tmp_path / "missing" / "deep" / "out.json"
        code = run_cli("optimize", "--m", "2", "--eps", "0", "--step", "0.25",
                       "--out", str(out))
        assert code == 2
        assert not out.exists()
