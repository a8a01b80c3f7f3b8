import json
import math

import pytest

from thermwit import cli
from thermwit.cli import (
    EXIT_CONFIG,
    EXIT_OK,
    EXIT_RESOURCE,
    EXIT_SELFCHECK,
    main,
    parse_temps,
    run_selfcheck,
)

HEIS2 = {"kind": "heisenberg", "n_sites": 2}


def write_model(tmp_path, payload, name="model.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def test_parse_temps_linear_and_log():
    assert parse_temps("1:3:3") == [1.0, 2.0, 3.0]
    grid = parse_temps("0.1:10:3:log")
    assert grid[0] == pytest.approx(0.1)
    assert grid[1] == pytest.approx(1.0)
    assert grid[2] == pytest.approx(10.0)
    assert parse_temps("2:9:1") == [2.0]


def test_parse_temps_rejects_garbage():
    for bad in ("1:2", "0:2:5", "2:1:5", "1:2:0", "1:2:3:cubic",
                "nan:1:3", "0.5:nan:3:log", "1:inf:3"):
        with pytest.raises(ValueError):
            parse_temps(bad)


# ---------------------------------------------------------------------------
# spin-sweep
# ---------------------------------------------------------------------------

def test_spin_sweep_csv(tmp_path, capsys):
    model = write_model(tmp_path, HEIS2)
    out = tmp_path / "sweep.csv"
    code = main(["spin-sweep", "--model", model, "--temps", "0.5:5:10",
                 "--out", str(out)])
    assert code == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0] == "T,S,p,neg_ln_p,E_lower,E_upper,eq2_fires,eq4_fires"
    assert len(lines) == 1 + 10 + 2
    star2 = lines[-2].split(",")
    assert star2[0] == "T_star_eq2"
    assert float(star2[1]) == pytest.approx(4 / math.log(3), abs=1e-3)
    # ground-weight witness fires exactly up to the threshold
    for row in lines[1:11]:
        cells = row.split(",")
        fired = cells[6] == "true"
        assert fired == (float(cells[0]) < 4 / math.log(3))


def test_spin_sweep_json_with_upper(tmp_path):
    model = write_model(tmp_path, HEIS2)
    out = tmp_path / "sweep.json"
    code = main(["spin-sweep", "--model", model, "--temps", "1:2:2",
                 "--upper", "--max-iter", "60", "--out", str(out),
                 "--format", "json"])
    assert code == EXIT_OK
    payload = json.loads(out.read_text())
    assert payload["command"] == "spin-sweep"
    assert len(payload["reports"]) == 2
    rep = payload["reports"][0]
    assert rep["E_upper"] is not None
    assert rep["E_lower"] <= rep["E_upper"] + 1e-6
    assert payload["T_star_eq4"] == pytest.approx(1.5666338883549469, abs=1e-3)


def test_product_ground_model_yields_empty_thresholds(tmp_path):
    model = write_model(
        tmp_path, {"kind": "transverse_ising", "n_sites": 2, "J": 0.0, "h": 1.0}
    )
    out = tmp_path / "flat.csv"
    assert main(["spin-sweep", "--model", model, "--temps", "0.5:5:5",
                 "--out", str(out)]) == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[-2] == "T_star_eq2,"
    assert lines[-1] == "T_star_eq4,"
    for row in lines[1:6]:
        cells = row.split(",")
        assert cells[6] == "false" and cells[7] == "false"


def test_malformed_json_exits_2_with_position(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"kind": "heisenberg",\n  "n_sites": }')
    code = main(["spin-sweep", "--model", str(path), "--temps", "1:2:2"])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "line 2" in err and "column" in err


def test_unreadable_or_malformed_input_exits_2(tmp_path, capsys):
    for payload in (
        {"kind": "custom_terms", "n_sites": 2, "custom_terms": [[0, "X", 1.0]]},  # sites
        {"kind": "custom_terms", "n_sites": 2, "custom_terms": [[[0], "X"]]},  # no coeff
        {"kind": "heisenberg", "n_sites": 3, "J": math.nan},
    ):
        model = write_model(tmp_path, payload)
        assert main(["spin-sweep", "--model", model, "--temps", "1:2:2"]) == EXIT_CONFIG
        assert "invalid model" in capsys.readouterr().err
    assert main(["ree", "--model", str(tmp_path)]) == EXIT_CONFIG
    assert "cannot read model file" in capsys.readouterr().err
    assert main(["gas-scan", "--spectrum", str(tmp_path), "--temps", "1:2:2"]) == EXIT_CONFIG
    assert "cannot read spectrum file" in capsys.readouterr().err
    model = write_model(tmp_path, HEIS2)
    for out in (tmp_path / "missing" / "x.csv", tmp_path):
        argv = ["spin-sweep", "--model", model, "--temps", "1:2:2", "--out", str(out)]
        assert main(argv) == EXIT_CONFIG
        assert "config error: --out" in capsys.readouterr().err
    assert not (tmp_path / "missing").exists()


def test_bad_tstar_tol_or_restarts_exits_2(tmp_path, capsys):
    model = write_model(tmp_path, HEIS2)
    for argv, message in (
        (["spin-sweep", "--temps", "1:2:2", "--tstar-tol", "0"], "t_star_tol must be"),
        (["spin-sweep", "--temps", "1:2:2", "--tstar-tol", "nan"], "t_star_tol must be"),
        (["ree", "--restarts", "0"], "restarts must be at least 1"),
        (["energy-witness", "--restarts", "0"], "restarts must be at least 1"),
    ):
        assert main(argv + ["--model", model]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err


def test_unknown_model_key_exits_2(tmp_path, capsys):
    model = write_model(tmp_path, {"kind": "heisenberg", "n_sites": 2, "Jx": 1.0})
    assert main(["spin-sweep", "--model", model, "--temps", "1:2:2"]) == EXIT_CONFIG


def test_dimension_cap_exits_3(tmp_path, capsys):
    model = write_model(tmp_path, {"kind": "heisenberg", "n_sites": 13})
    code = main(["spin-sweep", "--model", model, "--temps", "1:2:2"])
    assert code == EXIT_RESOURCE
    assert "cap" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# gas-scan
# ---------------------------------------------------------------------------

BOSE_GEN = "gen:linear_dispersion:n_modes=200,velocity=0.01,statistics=bose,chemical_potential=0.0"


def test_gas_scan_constant_entropy_window_exits_2(capsys):
    # half-filled degenerate fermi modes: S = 4 ln 2 at every temperature
    spectrum = "gen:uniform:n_modes=4,omega=1.0,statistics=fermi,particle_target=2.0"
    code = main(["gas-scan", "--spectrum", spectrum, "--temps", "0.05:0.5:10",
                 "--fit-window", "0.05:0.5"])
    assert code == EXIT_CONFIG
    assert "constant over the fit window [0.05, 0.5]" in capsys.readouterr().err


def test_gas_scan_fit_block(tmp_path):
    out = tmp_path / "gas.csv"
    code = main(["gas-scan", "--spectrum", BOSE_GEN, "--temps", "0.05:0.3:12:log",
                 "--fit-window", "0.05:0.3", "--out", str(out)])
    assert code == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0] == "T,mu,S,F,N_actual"
    footer = dict(line.split(",", 1) for line in lines[13:])
    assert abs(float(footer["p_fit"]) - 1.0) <= 0.1
    assert float(footer["r_squared"]) >= 0.99
    assert float(footer["T_star"]) == pytest.approx(float(footer["omega_tilde"]))


def test_gas_scan_json_spectrum_file(tmp_path):
    spec = tmp_path / "spectrum.json"
    spec.write_text(json.dumps({
        "frequencies": [1.0, 2.0, 3.0, 4.0],
        "statistics": "boltzmann",
        "particle_target": 4.0,
    }))
    out = tmp_path / "gas.json"
    code = main(["gas-scan", "--spectrum", str(spec), "--temps", "1:100:20:log",
                 "--fit-window", "1:100", "--format", "json", "--out", str(out)])
    assert code == EXIT_OK
    payload = json.loads(out.read_text())
    assert payload["mb"] is not None
    assert payload["mb"]["fires_any"] is False


def test_gas_scan_pauli_bound_exits_2(capsys):
    gen = "gen:uniform:n_modes=4,omega=1.0,statistics=fermi,particle_target=4.0"
    code = main(["gas-scan", "--spectrum", gen, "--temps", "0.1:1:10"])
    assert code == EXIT_CONFIG
    assert "Pauli" in capsys.readouterr().err


def test_gas_scan_sparse_window_exits_2(capsys):
    code = main(["gas-scan", "--spectrum", BOSE_GEN, "--temps", "0.05:0.3:4"])
    assert code == EXIT_CONFIG
    assert "at least 8" in capsys.readouterr().err


def test_bad_generator_spec_exits_2(capsys):
    code = main(["gas-scan", "--spectrum", "gen:uniform:wavelength=2",
                 "--temps", "0.1:1:10"])
    assert code == EXIT_CONFIG


# ---------------------------------------------------------------------------
# ree and energy-witness
# ---------------------------------------------------------------------------

def test_ree_command(tmp_path):
    model = write_model(tmp_path, HEIS2)
    out = tmp_path / "ree.json"
    code = main(["ree", "--model", model, "--format", "json", "--out", str(out),
                 "--max-iter", "120"])
    assert code == EXIT_OK
    payload = json.loads(out.read_text())
    assert payload["E_lower"] == pytest.approx(math.log(2), abs=1e-9)
    assert payload["E_upper"] == pytest.approx(math.log(2), abs=2e-2)
    assert payload["lower_method"] == "pure_bipartite_exact"


def test_energy_witness_command(tmp_path):
    model = write_model(tmp_path, HEIS2)
    out = tmp_path / "ew.json"
    code = main(["energy-witness", "--model", model, "--format", "json",
                 "--out", str(out)])
    assert code == EXIT_OK
    payload = json.loads(out.read_text())
    assert payload["E0"] == pytest.approx(-3.0, abs=1e-9)
    assert payload["sep_min"] == pytest.approx(-1.0, abs=1e-6)
    assert payload["entangled"] is True


# ---------------------------------------------------------------------------
# selfcheck
# ---------------------------------------------------------------------------

def fail_property(monkeypatch, failing):
    """Make the selfcheck suite report ``failing`` as failed."""
    real = cli._selfcheck_properties

    def properties(seed):
        for name, ok, detail in real(seed):
            yield name, ok and name != failing, detail

    monkeypatch.setattr(cli, "_selfcheck_properties", properties)


def test_selfcheck_passes(capsys):
    assert run_selfcheck(seed=42) == EXIT_OK
    text = capsys.readouterr().out
    assert text.count("PASS") == 4
    assert "FAIL" not in text
    assert text.rstrip().endswith("selfcheck: OK")


def test_selfcheck_corrupted_tolerance_names_the_property(monkeypatch, capsys):
    fail_property(monkeypatch, "entropy-identity")
    assert run_selfcheck(seed=42) == EXIT_SELFCHECK
    text = capsys.readouterr().out
    assert "FAIL entropy-identity" in text
    assert "selfcheck: FAILED (entropy-identity)" in text


def test_selfcheck_via_main_exit_code(monkeypatch):
    assert main(["selfcheck"]) == EXIT_OK
    fail_property(monkeypatch, "witness-implication")
    assert main(["selfcheck"]) == EXIT_SELFCHECK


# ---------------------------------------------------------------------------
# determinism
# ---------------------------------------------------------------------------

def test_selfcheck_byte_identical_across_runs(capsys):
    run_selfcheck(seed=7)
    a = capsys.readouterr().out
    run_selfcheck(seed=7)
    assert capsys.readouterr().out == a


def test_sweep_outputs_byte_identical(tmp_path):
    model = write_model(tmp_path, HEIS2)
    outs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        assert main(["spin-sweep", "--model", model, "--temps", "0.5:5:8",
                     "--upper", "--max-iter", "50", "--seed", "9",
                     "--out", str(out)]) == EXIT_OK
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_gas_scan_outputs_byte_identical(tmp_path):
    outs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        assert main(["gas-scan", "--spectrum", BOSE_GEN, "--temps", "0.05:0.3:10:log",
                     "--fit-window", "0.05:0.3", "--seed", "9",
                     "--out", str(out)]) == EXIT_OK
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
