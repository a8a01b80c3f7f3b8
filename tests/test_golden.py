"""Byte-exact CLI output against files in tests/golden/.

Each case runs ``main`` on inputs from tests/golden/inputs/ and compares the
data it writes with the stored file. CSV cases write to stdout and JSON cases
to ``--out``, so both destinations are covered for every data subcommand.
The stored files were written by the CLI before its output code was
reworked; a deliberate change of output format must replace them.
"""

from pathlib import Path

import pytest

from thermwit.cli import EXIT_OK, main

GOLDEN = Path(__file__).parent / "golden"
INPUTS = GOLDEN / "inputs"

BOSE_GEN = ("gen:linear_dispersion:n_modes=200,velocity=0.01,statistics=bose,"
            "chemical_potential=0.0")

# golden file name (without format suffix) -> argv without --format/--out
DATA_CASES = {
    "spin_sweep_heis4_ring": ["spin-sweep", "--model", "heis4_ring.json",
                              "--temps", "0.5:6:6"],
    "spin_sweep_heis2_upper": ["spin-sweep", "--model", "heis2.json", "--temps", "1:4:3",
                               "--upper", "--max-iter", "3", "--seed", "5"],
    "spin_sweep_product": ["spin-sweep", "--model", "product_tfi3.json",
                           "--temps", "0.5:5:4:log"],
    "spin_sweep_tfi7_ring": ["spin-sweep", "--model", "tfi7_ring.json",
                             "--temps", "0.01:20:400:log"],
    "gas_scan_file_mb": ["gas-scan", "--spectrum", "boltzmann4.json",
                         "--temps", "1:100:10:log", "--fit-window", "1:100"],
    "gas_scan_gen": ["gas-scan", "--spectrum", BOSE_GEN, "--temps", "0.05:0.3:8:log",
                     "--fit-window", "0.05:0.3", "--energy-per-particle", "2.5"],
    "ree_heis2": ["ree", "--model", "heis2.json", "--max-iter", "3", "--restarts", "2",
                  "--seed", "11"],
    "ree_tfi3": ["ree", "--model", "tfi3.json", "--max-iter", "3", "--restarts", "2",
                 "--seed", "11"],
    "energy_witness_xy3": ["energy-witness", "--model", "xy3_ring.json",
                           "--restarts", "3", "--seed", "3"],
}


def _argv(args):
    # bare file names refer to tests/golden/inputs/
    return [str(INPUTS / a) if (INPUTS / a).is_file() else a for a in args]


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("name", sorted(DATA_CASES))
def test_data_output_matches_golden(name, fmt, tmp_path, capsys):
    argv = _argv(DATA_CASES[name]) + ["--format", fmt]
    out = tmp_path / f"out.{fmt}"
    if fmt == "json":
        argv += ["--out", str(out)]
    assert main(argv) == EXIT_OK
    captured = capsys.readouterr()
    got = out.read_bytes() if fmt == "json" else captured.out.encode()
    if fmt == "json":
        assert captured.out == ""
    assert captured.err == ""
    assert got == (GOLDEN / f"{name}.{fmt}").read_bytes()


def test_selfcheck_output_matches_golden(capsys):
    assert main(["selfcheck", "--seed", "3"]) == EXIT_OK
    assert capsys.readouterr().out.encode() == (GOLDEN / "selfcheck.txt").read_bytes()
