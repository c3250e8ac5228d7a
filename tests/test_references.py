"""The CLI's stdout, byte for byte, against the reference files that CI
``cmp``s it with (one case per CI step), so a local test run sees a drift."""

from pathlib import Path

import pytest

from tfqkd.cli import main

ROOT = Path(__file__).resolve().parent.parent

REFERENCES = {
    "validate-m16": ("validate --m 16 --alpha 0.5 --beta 0.7 --eps 0.5 --photons 1000000 "
                     "--seed 42", "tests/data/validate-m16-seed42.json"),
    "sweep-acceptance": ("sweep --m 2,4,8,16,32 --eps 0,0.25,0.5,0.75",
                         "tests/data/sweep-acceptance.csv"),
    "sweep-large-m": ("sweep --m 64,128,256,512,1024 --eps 0,0.25,0.5",
                      "tests/data/sweep-large-m.csv"),
    "optimize-m64": ("optimize --m 64 --eps 0.5", "tests/data/optimize-m64-eps0.5.json"),
    "optimize-m128": ("optimize --m 128 --eps 0.25", "tests/data/optimize-m128-eps0.25.json"),
    "optimize-m256": ("optimize --m 256 --eps 0.5", "tests/data/optimize-m256-eps0.5.json"),
    "surface-m64-eps1": ("surface --m 64 --eps 1 --alpha 0.05:2.95:0.29 --beta 0.1:1.5:0.35 "
                         "--format json", "tests/data/surface-m64-eps1.json"),
    "surface-warm": ("surface --m 32 --eps 0.5 --alpha 0.30:0.70:0.02 --beta 0.50:0.90:0.02",
                     "bench/references/surface-warm.csv"),
    "keyrate-plain": ("keyrate --m 256 --eps 0 --rep-rate-hz 1e8",
                      "bench/references/keyrate-plain.json"),
    "optimize-cold": ("optimize --m 16 --eps 0.5", "bench/references/optimize-cold.json"),
    "optimize-nested": ("optimize --m 16 --eps 0.5 --scheme nested",
                        "tests/data/optimize-m16-eps0.5-nested.json"),
    "optimize-whole-sum": ("optimize --m 16 --eps 0.5 --u-variant whole-sum",
                           "tests/data/optimize-m16-eps0.5-whole-sum.json"),
}


@pytest.mark.parametrize("name", sorted(REFERENCES))
def test_stdout_matches_reference(name, capsys):
    argv, reference = REFERENCES[name]
    assert main(argv.split()) == 0
    assert capsys.readouterr().out.encode() == (ROOT / reference).read_bytes()
