import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from thermwit import SpinModelSpec, cli, ent, models
from thermwit.ent import EntanglementEstimate
from thermwit.models import build_spin_hamiltonian
from thermwit.witness import T_STAR_TOL, SweepResult, WitnessReport
from thermwit.cli import (
    EXIT_CONFIG,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_RESOURCE,
    EXIT_SELFCHECK,
    ConfigError,
    main,
    parse_temps,
    run_selfcheck,
)

SRC = Path(cli.__file__).resolve().parents[1]
GOLDEN_INPUTS = Path(__file__).parent / "golden" / "inputs"

HEIS2 = {"kind": "heisenberg", "n_sites": 2}
#: Three sites with a nondegenerate ground level: its REE upper bound is a
#: Frank-Wolfe run.
TFI3 = {"kind": "transverse_ising", "n_sites": 3, "J": 1.0, "h": 1.0}


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
                "nan:1:3", "0.5:nan:3:log", "1:inf:3", "a:2:3", "1:2:2.5"):
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
        # values the model would truncate or ignore
        {"kind": "heisenberg", "n_sites": 2.9},
        {"kind": "heisenberg", "n_sites": True},
        {"kind": "heisenberg", "n_sites": "3"},
        {"kind": "heisenberg", "n_sites": 2, "h": 0.7},
        {"kind": "xy", "n_sites": 2, "field": 0.7},
        {"kind": "custom_terms", "n_sites": 2, "J": 5, "custom_terms": [[[0], "X", 1.0]]},
        {"kind": "heisenberg", "n_sites": 2, "J": 1.0, "coupling": 1.0},
        {"kind": "transverse_ising", "n_sites": 2, "h": 1.0, "field": 1.0},
        {"kind": "custom_terms", "n_sites": 3, "boundary": "periodic",
         "custom_terms": [[[0, 1], "ZZ", 1.0], [[2], "X", 0.5]]},
        # a number must be a JSON number, not a bool or a string
        {"kind": "heisenberg", "n_sites": 2, "J": True},
        {"kind": "heisenberg", "n_sites": 2, "J": "1.5"},
        {"kind": "custom_terms", "n_sites": 2, "custom_terms": [[[0], "X", "0.5"]]},
        {"kind": "custom_terms", "n_sites": 2, "custom_terms": [[[0], "X", True]]},
    ):
        model = write_model(tmp_path, payload)
        assert main(["spin-sweep", "--model", model, "--temps", "1:2:2"]) == EXIT_CONFIG
        assert "invalid model" in capsys.readouterr().err
    for text, message in (("[1, 2]", "must hold a JSON object"),
                          ('{"n_sites": 2}', "needs 'kind' and 'n_sites'")):
        (tmp_path / "model.json").write_text(text)
        assert main(["spin-sweep", "--model", model, "--temps", "1:2:2"]) == EXIT_CONFIG
        assert message in capsys.readouterr().err
    assert main(["energy-witness", "--model", str(tmp_path / "absent.json")]) == EXIT_CONFIG
    assert "model file not found" in capsys.readouterr().err
    two_modes = {"frequencies": [1.0, 2.0], "statistics": "fermi"}
    for payload, message in (({"frequencies": [1.0]}, "needs 'frequencies' and 'statistics'"),
                             ({"frequencies": [], "statistics": "bose", "particle_target": 1.0},
                              "invalid spectrum"),
                             ({**two_modes, "frequencies": ["1", "2", "3"], "particle_target": 1.0},
                              "frequencies must be real numbers, got '1'"),
                             ({**two_modes, "frequencies": [True, 2, 3], "particle_target": 1.0},
                              "frequencies must be real numbers, got True"),
                             ({**two_modes, "particle_target": True},
                              "particle_target True is not a finite real number"),
                             ({**two_modes, "chemical_potential": "0"},
                              "chemical_potential '0' is not a finite real number"),
                             ({**two_modes, "particle_target": 1.0, "chemical_potentail": 0.0},
                              "unknown spectrum keys ['chemical_potentail']")):
        spectrum = write_model(tmp_path, payload, "spectrum.json")
        assert main(["gas-scan", "--spectrum", spectrum, "--temps", "1:2:8"]) == EXIT_CONFIG
        assert message in capsys.readouterr().err
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
    model = ["--model", write_model(tmp_path, HEIS2)]
    gas = ["gas-scan", "--spectrum", BOSE_GEN, "--temps", "0.05:0.3:8:log",
           "--fit-window", "0.05:0.3"]
    for argv, message in (
        (["ree", "--restarts", "0", *model], "restarts must be at least 1"),
        (["energy-witness", "--restarts", "0", *model], "restarts must be at least 1"),
        (["ree", "--max-iter", "-3", *model], "max_iter must be nonnegative"),
        ([*gas, "--energy-per-particle=nan"], "energy_per_particle must be finite and positive"),
        ([*gas, "--energy-per-particle=inf"], "energy_per_particle must be finite and positive"),
        ([*gas, "--energy-per-particle=0"], "energy_per_particle must be finite and positive"),
    ):
        assert main(argv) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err
    # the bisection width and the Frank-Wolfe gap tolerance are constants,
    # not flags: argparse rejects them
    for argv in (
        ["spin-sweep", "--temps", "1:2:2", "--tstar-tol", "0", *model],
        ["spin-sweep", "--temps", "1:2:2", "--tstar-tol", "nan", *model],
        ["ree", "--tol", "nan", *model],
        ["ree", "--tol", "-1", *model],
        ["ree", "--tol", "inf", *model],
        ["spin-sweep", "--temps", "1:2:2", "--upper", "--tol", "0", *model],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments" in captured.err


def test_close_thresholds_sweep_exits_0(tmp_path, capsys):
    # a weakly coupled pair whose thresholds the sweep bisects to T_STAR_TOL,
    # the slack of its order check; a coarser width could order them wrongly
    model = write_model(tmp_path, {"kind": "custom_terms", "n_sites": 2, "custom_terms": [
        [[0], "Z", 1.0], [[1], "Z", 1.0], [[0, 1], "XX", 0.02]]})
    assert main(["spin-sweep", "--model", model, "--temps", "0.025:0.22:2"]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    t_star_eq2, t_star_eq4 = (float(line.split(",")[1]) for line in lines[-2:])
    assert 0.025 < t_star_eq4 < t_star_eq2


def test_overflowing_terms_exit_2_before_any_eigensolver(tmp_path, capsys, monkeypatch):
    # finite coefficients whose sum overflows: the table names the non-finite
    # entries, with no numpy warning and before any eigensolver or the Y gauge
    # sees them (the suite turns a RuntimeWarning into an error)
    def no_eigh(*args, **kwargs):
        raise AssertionError("eigh called on a non-finite matrix")

    monkeypatch.setattr(np.linalg, "eigh", no_eigh)
    for field in "ZY":
        model = write_model(tmp_path, {"kind": "custom_terms", "n_sites": 2, "custom_terms": [
            [[0], field, 1e308], [[0], field, 1e308], [[0, 1], "XX", 1.0]]})
        for command in (["spin-sweep", "--temps", "1:2:2"], ["ree"], ["energy-witness"]):
            assert main(command + ["--model", model]) == EXIT_CONFIG
            captured = capsys.readouterr()
            assert captured.out == ""
            lines = captured.err.splitlines()
            assert len(lines) == 1
            assert lines[0].startswith("config error: ") and "non-finite entries" in lines[0]


def test_zero_entropy_prints_no_negative_zero(tmp_path, capsys):
    # at T = 0.004 the 2-site Heisenberg state is pure to double precision:
    # S = 0 and p = 1, so -ln p = 0; neither may print as -0. At T = 0.01,
    # p rounds to 1 but -ln p = ln(1 + 3e^-400) does not round to 0
    model = write_model(tmp_path, HEIS2)
    assert main(["spin-sweep", "--model", model, "--temps", "0.004:0.01:2"]) == EXIT_OK
    rows = [row.split(",") for row in capsys.readouterr().out.splitlines()]
    assert rows[1][:4] == ["0.004", "0", "1", "0"]
    assert rows[2][0] == "0.01" and float(rows[2][1]) > 0
    assert rows[2][2:4] == ["1", "5.74550879014e-174"]
    assert main(["spin-sweep", "--model", model, "--temps", "0.004:0.01:2",
                 "--format", "json"]) == EXIT_OK
    reports = json.loads(capsys.readouterr().out)["reports"]
    for key in ("S", "neg_ln_p"):
        assert math.copysign(1.0, reports[0][key]) == 1.0
    assert math.copysign(1.0, reports[1]["neg_ln_p"]) == 1.0


@pytest.mark.parametrize("terms", [
    [[[0.7, 1], "XX", 1.0], [[1.9], "Z", 0.5]],  # solved as sites 0 and 1 when truncated
    [[["0", 1], "XX", 1.0]],
    [[[False, True], "XX", 1.0]],
])
def test_non_integer_term_site_exits_2(terms, tmp_path, capsys):
    model = write_model(tmp_path, {"kind": "custom_terms", "n_sites": 2, "custom_terms": terms})
    assert main(["spin-sweep", "--model", model, "--temps", "1:2:2"]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error: invalid model")
    assert "is not an integer" in captured.err


def test_unknown_model_key_exits_2(tmp_path, capsys):
    model = write_model(tmp_path, {"kind": "heisenberg", "n_sites": 2, "Jx": 1.0})
    assert main(["spin-sweep", "--model", model, "--temps", "1:2:2"]) == EXIT_CONFIG


def test_dimension_cap_exits_3(tmp_path, capsys):
    model = write_model(tmp_path, {"kind": "heisenberg", "n_sites": 13})
    code = main(["spin-sweep", "--model", model, "--temps", "1:2:2"])
    assert code == EXIT_RESOURCE
    assert "cap" in capsys.readouterr().err


@pytest.mark.parametrize("exc_type, code, prefix", [
    (ConfigError, EXIT_CONFIG, "config error"),
    (ValueError, EXIT_CONFIG, "config error"),
    (MemoryError, EXIT_RESOURCE, "resource limit"),
    (np.linalg.LinAlgError, EXIT_NUMERICAL, "numerical failure"),
    (RuntimeError, EXIT_NUMERICAL, "numerical failure"),
    (FloatingPointError, EXIT_NUMERICAL, "numerical failure"),
    (OverflowError, EXIT_NUMERICAL, "numerical failure"),
])
def test_exception_type_picks_exit_code(exc_type, code, prefix, tmp_path, monkeypatch, capsys):
    # raised from the SVD of the entanglement lower bound, which the sweep
    # runs below every layer between it and main
    def fail(*args, **kwargs):
        raise exc_type("injected")

    monkeypatch.setattr(np.linalg, "svd", fail)
    model = write_model(tmp_path, HEIS2)
    assert main(["spin-sweep", "--model", model, "--temps", "1:2:2"]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"{prefix}: injected\n"


# ---------------------------------------------------------------------------
# gas-scan
# ---------------------------------------------------------------------------

BOSE_GEN = "gen:linear_dispersion:n_modes=200,velocity=0.01,statistics=bose,chemical_potential=0.0"


def test_gas_scan_constant_entropy_window_exits_2(capsys):
    # degenerate fermi modes: S does not depend on T. At half filling it is
    # 4 ln 2 exactly; off it, round-off fits an exponent just below or above 0
    # whose omega_tilde overflows or underflows
    for target in ("2.0", "2.000001", "1.9"):
        spectrum = f"gen:uniform:n_modes=4,omega=1.0,statistics=fermi,particle_target={target}"
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
    for spec, message in (
        ("gen:uniform", "bad generator spec"),
        ("gen:uniform:n_modes", "bad generator parameter"),
        ("gen:cubic:n_modes=4,omega=1.0,statistics=bose,chemical_potential=0.0",
         "invalid spectrum spec"),
        ("gen:uniform:n_modes=2.5,omega=1.0,statistics=bose,chemical_potential=0.0",
         "bad generator value 'n_modes=2.5' in 'gen:uniform:n_modes=2.5,"),
        ("gen:uniform:n_modes=4,omega=abc,statistics=bose,chemical_potential=0.0",
         "bad generator value 'omega=abc' in 'gen:uniform:n_modes=4,"),
    ):
        assert main(["gas-scan", "--spectrum", spec, "--temps", "0.1:1:10"]) == EXIT_CONFIG
        assert message in capsys.readouterr().err
    # a window must be finite with 0 < lo < hi, as --temps must ("=" lets -1 through)
    for window in ("0.05", "a:0.3", "nan:1", "inf:inf", "0.3:0.05", "-1:0.2"):
        argv = ["gas-scan", "--spectrum", BOSE_GEN, "--temps", "0.05:0.3:8:log",
                f"--fit-window={window}"]
        assert main(argv) == EXIT_CONFIG
        assert "bad --fit-window" in capsys.readouterr().err


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
    assert payload["E_upper"] == payload["E_lower"]
    assert payload["lower_method"] == payload["upper_method"] == "pure_bipartite_exact"
    assert (payload["upper_iterations"], payload["upper_converged"]) == (1, True)


def test_two_site_ree_runs_no_frank_wolfe(tmp_path, monkeypatch):
    # the Schmidt certificate needs no projector, no oracle and no descent
    def forbidden(*args, **kwargs):
        raise AssertionError("the 2-site REE upper bound ran Frank-Wolfe")

    monkeypatch.setattr(ent, "ree_upper_bound", forbidden)
    monkeypatch.setattr(ent, "_alternating_minimum", forbidden)
    monkeypatch.setattr(ent.PureState, "to_density", forbidden)
    model = write_model(tmp_path, HEIS2)
    ree, sweep = tmp_path / "ree.json", tmp_path / "sweep.json"
    assert main(["ree", "--model", model, "--format", "json", "--out", str(ree)]) == EXIT_OK
    assert main(["spin-sweep", "--model", model, "--temps", "1:4:3", "--upper",
                 "--format", "json", "--out", str(sweep)]) == EXIT_OK
    payload = json.loads(ree.read_text())
    assert payload["E_upper"] == payload["E_lower"] == pytest.approx(math.log(2), abs=1e-12)
    assert payload["upper_method"] == "pure_bipartite_exact"
    for rep in json.loads(sweep.read_text())["reports"]:
        assert rep["E_upper"] == rep["E_lower"] == payload["E_lower"]


def test_ree_refuses_a_lower_bound_above_the_upper(tmp_path, monkeypatch, capsys):
    # E_lower of this ground state is ~0.341; an upper bound of 0.2 breaks the sandwich
    broken = EntanglementEstimate(lower=0.0, upper=0.2, method="frank_wolfe_upper",
                                  iterations=1, converged=True)
    monkeypatch.setattr(ent, "ree_upper_bound", lambda rho, config: broken)
    code = main(["ree", "--model", write_model(tmp_path, TFI3)])
    assert code == EXIT_NUMERICAL
    assert "exceeds upper bound" in capsys.readouterr().err


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


@pytest.mark.parametrize("payload", [
    {"kind": "heisenberg", "n_sites": 4, "boundary": "periodic"},
    # real only in the diagonal gauge, which spin_spectrum applies to its
    # blocks; its Y term is a Y axis of the Bloch search
    {"kind": "custom_terms", "n_sites": 3,
     "custom_terms": [[[0, 1], "ZZ", 1.0], [[1, 2], "XX", 0.5], [[0], "Y", 0.3]]},
])
def test_energy_witness_never_builds_the_dense_hamiltonian(payload, tmp_path, monkeypatch):
    calls = []

    def counting_build(spec):
        calls.append(spec)
        return build_spin_hamiltonian(spec)

    def forbidden(*args, **kwargs):
        raise AssertionError("the energy witness ran the dense product-state oracle")

    monkeypatch.setattr(models, "build_spin_hamiltonian", counting_build)
    monkeypatch.setattr(ent, "_alternating_minimum", forbidden)
    out = tmp_path / "ew.csv"
    argv = ["energy-witness", "--model", write_model(tmp_path, payload), "--restarts", "2"]
    assert main(argv + ["--out", str(out)]) == EXIT_OK
    # the spectrum comes from blocks and sep_min from the Pauli terms
    assert calls == []
    monkeypatch.undo()
    reference = tmp_path / "reference.csv"
    assert main(argv + ["--out", str(reference)]) == EXIT_OK
    assert out.read_bytes() == reference.read_bytes()


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
    # two sites give the exact upper bound, three a Frank-Wolfe run
    for spec, max_iter in ((HEIS2, "50"), (TFI3, "5")):
        model = write_model(tmp_path, spec)
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            assert main(["spin-sweep", "--model", model, "--temps", "0.5:5:8",
                         "--upper", "--max-iter", max_iter, "--seed", "9",
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


_EDGE_FLOATS = st.sampled_from([0.0, -0.0, 5e-324, 1e-310, 1e300, -1e300]) | st.floats(allow_nan=False)
#: One value of every type ``_fmt`` takes, strings with % format codes among them.
_CELLS = (st.none() | st.booleans() | st.integers() | _EDGE_FLOATS
          | st.sampled_from(["%", "%%", "%s", "%(T)s", "50%", "%.12g"]) | st.text("%s.x-", max_size=6))


@st.composite
def _sweep_tables(draw):
    """A spin-sweep table, built as the CLI builds it, and its rows."""
    rows = draw(st.lists(st.tuples(
        _EDGE_FLOATS, _EDGE_FLOATS, _EDGE_FLOATS, _EDGE_FLOATS,
        st.sampled_from([(False, False), (True, False), (True, True)]),  # eq4 => eq2
    ), min_size=1, max_size=12))
    e_lower = draw(_EDGE_FLOATS)
    e_upper = draw(st.none() | _EDGE_FLOATS)
    t_stars = draw(st.lists(st.none() | st.floats(0.0, 1e300), min_size=2, max_size=2))
    if None not in t_stars:
        t_stars.sort(reverse=True)  # T*_eq4 <= T*_eq2
    ref_rows = [(t, max(x, y), p, min(x, y), e_lower, e_upper, eq2, eq4)  # -ln p <= S
                for t, p, x, y, (eq2, eq4) in rows]
    t, s, p, neg_ln_p, _, _, eq2, eq4 = (np.array(c) if draw(st.booleans()) else list(c)
                                         for c in zip(*ref_rows))
    result = SweepResult(
        T=t, S=s, p=p, neg_ln_p=neg_ln_p, eq2_fires=eq2, eq4_fires=eq4,
        E_lower=e_lower, E_upper=e_upper, ground_degeneracy=1,
        T_star_eq2=t_stars[0], T_star_eq4=t_stars[1],
    )
    header = WitnessReport._fields[:-1]
    footer = [["T_star_eq2", t_stars[0]], ["T_star_eq4", t_stars[1]]]
    return header, [getattr(result, name) for name in header], footer, ref_rows


@st.composite
def _tables(draw):
    """A table of float, bool and scalar columns in any mix, among them
    float-only ones shaped like gas-scan's and ones without an array column,
    with any footer, and its rows."""
    n_rows = draw(st.integers(0, 8))
    kinds = draw(st.lists(st.sampled_from(["float", "bool", "scalar"]), max_size=7)
                 | st.just(["float"] * 5))
    header, columns, cells = [], [], []
    for i, kind in enumerate(kinds):
        header.append(f"c{i}")
        if kind == "scalar":
            columns.append(draw(_CELLS))
            cells.append(None)
            continue
        values = draw(st.lists(_EDGE_FLOATS if kind == "float" else st.booleans(),
                               min_size=n_rows, max_size=n_rows))
        columns.append(np.array(values, dtype=float if kind == "float" else bool))
        cells.append(values)
    if all(c is None for c in cells):
        n_rows = 1
    ref_rows = [[col if c is None else c[i] for col, c in zip(columns, cells)]
                for i in range(n_rows)]
    footer = draw(st.lists(st.lists(_CELLS, max_size=3), max_size=4))
    return header, columns, footer, ref_rows


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(table=_sweep_tables() | _tables())
def test_sweep_csv_matches_the_per_field_formatter(table):
    # the one CSV writer writes the bytes that ",".join(map(_fmt, row)) writes
    # for every row: float and bool array columns, scalar columns of every
    # type _fmt takes, with or without array columns and footer rows
    header, columns, footer, ref_rows = table
    ref_rows = [header, *ref_rows, *footer]
    assert cli._table(header, columns, footer) == "".join(
        ",".join(map(cli._fmt, r)) + "\n" for r in ref_rows)


# ---------------------------------------------------------------------------
# environment independence (subprocesses)
# ---------------------------------------------------------------------------

def _run_python(code, tmp_path, **env):
    env = {**os.environ, "PYTHONPATH": str(SRC), **env}
    return subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)


SWEEP_ARGS = ["spin-sweep", "--temps", "0.05:6:60"]


@pytest.mark.parametrize("model", [
    # (model, subcommand and its options)
    ({"kind": "heisenberg", "n_sites": 10, "J": 0.83, "boundary": "periodic"}, SWEEP_ARGS),
    ({"kind": "transverse_ising", "n_sites": 10, "J": 1.0, "h": 1.3, "boundary": "periodic"},
     SWEEP_ARGS),
    # the product-state oracle's matmul, in the energy witness and in Frank-Wolfe
    ({"kind": "heisenberg", "n_sites": 8, "boundary": "periodic"}, ["energy-witness"]),
    (HEIS2, ["ree", "--max-iter", "20"]),
    (TFI3, ["ree", "--max-iter", "20"]),
])
def test_csv_independent_of_blas_threads(model, tmp_path):
    # CSV only: JSON prints full precision and moves by ~1e-13 with the threads
    spec, args = model
    argv = args + ["--model", write_model(tmp_path, spec)]
    code = f"import sys; from thermwit.cli import main; sys.exit(main({argv!r}))"
    outs = []
    for threads in ("1", "2"):
        done = _run_python(code, tmp_path, OPENBLAS_NUM_THREADS=threads)
        assert done.returncode == EXIT_OK, done.stderr
        outs.append(done.stdout)
    assert outs[0] == outs[1]


#: A 10-site model that is real only with X relabelled as Y (like sweep_ed's).
REAL_FRAME_MODEL = {
    "kind": "custom_terms", "n_sites": 10,
    "custom_terms": [[[i, i + 1], p + p, 0.6 + 0.1 * i] for i in range(9) for p in "XYZ"]
    + [[[i], "Y", 0.4] for i in range(10)] + [[[i], "Z", 0.1 * i - 0.45] for i in range(10)],
}


def test_real_frame_sweep_independent_of_blas_threads(tmp_path):
    # no byte check: the eigenvalues move by ~1e-14 with the thread count on
    # the real path as on the complex one, so a 12th CSV digit can flip
    argv = SWEEP_ARGS + ["--format", "json", "--model", write_model(tmp_path, REAL_FRAME_MODEL)]
    code = f"import sys; from thermwit.cli import main; sys.exit(main({argv!r}))"
    runs = []
    for threads in ("1", "2"):
        done = _run_python(code, tmp_path, OPENBLAS_NUM_THREADS=threads)
        assert done.returncode == EXIT_OK, done.stderr
        runs.append(json.loads(done.stdout))
    one, two = runs
    assert any(r["eq2_fires"] for r in one["reports"])
    for a, b in zip(one["reports"], two["reports"], strict=True):
        for key in ("S", "p", "neg_ln_p", "E_lower"):
            assert a[key] == pytest.approx(b[key], rel=1e-10, abs=0)
        assert (a["eq2_fires"], a["eq4_fires"]) == (b["eq2_fires"], b["eq4_fires"])
    for key in ("T_star_eq2", "T_star_eq4"):
        assert (one[key] is None) == (two[key] is None)
        assert one[key] is None or abs(one[key] - two[key]) <= T_STAR_TOL


def test_parser_reuse_leaks_no_state(tmp_path, capsys):
    # one process parses every call with the same cached parser; each output
    # must equal that of the same call alone in a fresh process
    heis2 = str(GOLDEN_INPUTS / "heis2.json")
    calls = [
        ["spin-sweep", "--model", heis2, "--temps", "1:4:3", "--upper", "--max-iter", "3"],
        ["spin-sweep", "--model", heis2, "--temps", "1:4:3"],
        ["ree", "--model", heis2, "--max-iter", "3", "--restarts", "2"],
        ["ree", "--model", str(GOLDEN_INPUTS / "tfi3.json"), "--max-iter", "3",
         "--restarts", "2"],
        ["gas-scan", "--spectrum", BOSE_GEN, "--temps", "0.05:0.3:8:log",
         "--fit-window", "0.05:0.3"],
    ]
    in_process = []
    for argv in calls:
        assert main(argv) == EXIT_OK
        in_process.append(capsys.readouterr().out)
    for argv, text in zip(calls, in_process):
        code = f"import sys; from thermwit.cli import main; sys.exit(main({argv!r}))"
        done = _run_python(code, tmp_path)
        assert done.returncode == EXIT_OK, done.stderr
        assert done.stdout == text


def test_runs_without_scipy(tmp_path):
    # scipy is not a dependency; an import of it anywhere fails the run
    heis2 = str(GOLDEN_INPUTS / "heis2.json")
    runs = [
        ["spin-sweep", "--model", heis2, "--temps", "1:4:3", "--upper", "--max-iter", "3"],
        ["ree", "--model", str(GOLDEN_INPUTS / "tfi3.json"), "--max-iter", "3"],
        ["energy-witness", "--model", heis2, "--restarts", "3"],
        ["gas-scan", "--spectrum", BOSE_GEN, "--temps", "0.05:0.3:8:log",
         "--fit-window", "0.05:0.3"],
    ]
    code = ("import sys; sys.modules['scipy'] = None; from thermwit.cli import main; "
            f"sys.exit(max(main(argv) for argv in {runs!r}))")
    done = _run_python(code, tmp_path)
    assert done.returncode == EXIT_OK, done.stderr
