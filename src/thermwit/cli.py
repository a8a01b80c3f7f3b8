"""Command-line front end.

Subcommands: spin-sweep, gas-scan, ree, energy-witness, selfcheck.
JSON specs in, CSV or JSON out; floats are printed with 12 significant
digits and all randomness flows from --seed through named child streams, so
identical configurations produce byte-identical output.

Exit codes: 0 ok, 1 selfcheck failure, 2 config error, 3 resource cap,
4 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import gas, thermo, witness
from .ent import FrankWolfeConfig, energy_witness, ree_lower_bound, ree_upper_bound
from .models import ModeSpectrum, SpinModelSpec, build_spin_hamiltonian, ground_state, make_spectrum
from .qops import DimensionCapError, eig_hermitian
from .seeding import child_seed, named_rng

EXIT_OK = 0
EXIT_SELFCHECK = 1
EXIT_CONFIG = 2
EXIT_RESOURCE = 3
EXIT_NUMERICAL = 4

#: What a data subcommand returns: the JSON body and the CSV rows (header first).
Payload = tuple[dict, list[list]]


class ConfigError(ValueError):
    """Invalid CLI configuration or input file."""


def _fmt(x) -> str:
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        return f"{x:.12g}"
    return str(x)


# ---------------------------------------------------------------------------
# input parsing
# ---------------------------------------------------------------------------

def parse_temps(spec: str) -> list[float]:
    """Parse ``lo:hi:count`` or ``lo:hi:count:log`` into an ascending grid."""
    parts = spec.split(":")
    if len(parts) not in (3, 4):
        raise ConfigError(f"bad --temps {spec!r}; expected lo:hi:count[:log]")
    try:
        lo, hi = float(parts[0]), float(parts[1])
        count = int(parts[2])
    except ValueError as exc:
        raise ConfigError(f"bad --temps {spec!r}: {exc}") from exc
    if len(parts) == 4 and parts[3] != "log":
        raise ConfigError(f"bad --temps scale {parts[3]!r}; only 'log' is supported")
    if count < 1 or lo <= 0 or (count > 1 and hi <= lo):
        raise ConfigError(f"bad --temps {spec!r}: need lo > 0, hi > lo, count >= 1")
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ConfigError(f"bad --temps {spec!r}: lo and hi must be finite")
    if count == 1:
        return [lo]
    space = np.geomspace if len(parts) == 4 else np.linspace
    return [float(t) for t in space(lo, hi, count)]


def _read_json(path: str, what: str):
    try:
        return json.loads(Path(path).read_text())
    except FileNotFoundError as exc:
        raise ConfigError(f"{what} file not found: {path}") from exc
    except OSError as exc:
        raise ConfigError(f"cannot read {what} file {path}: {exc.strerror}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"malformed JSON in {path}: {exc.msg} at line {exc.lineno} column {exc.colno}"
        ) from exc


def load_model(path: str) -> SpinModelSpec:
    raw = _read_json(path, "model")
    if not isinstance(raw, dict):
        raise ConfigError(f"model file {path} must hold a JSON object")
    known = {"kind", "n_sites", "coupling", "J", "field", "h", "boundary", "custom_terms"}
    extra = set(raw) - known
    if extra:
        raise ConfigError(f"unknown model keys {sorted(extra)} in {path}")
    if "kind" not in raw or "n_sites" not in raw:
        raise ConfigError(f"model file {path} needs 'kind' and 'n_sites'")
    try:
        return SpinModelSpec(
            kind=raw["kind"],
            n_sites=int(raw["n_sites"]),
            coupling=float(raw.get("coupling", raw.get("J", 1.0))),
            field=float(raw.get("field", raw.get("h", 0.0))),
            boundary=raw.get("boundary", "open"),
            custom_terms=raw.get("custom_terms"),
        )
    except DimensionCapError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid model in {path}: {exc}") from exc


#: Generator parameters and the conversion of their values.
_GEN_PARAMS = {
    "omega": float, "velocity": float, "particle_target": float,
    "chemical_potential": float, "n_modes": int, "statistics": str.strip,
}


def load_spectrum(spec: str) -> ModeSpectrum:
    """Load a ModeSpectrum from a JSON file or a ``gen:kind:k=v,...`` string."""
    if spec.startswith("gen:"):
        parts = spec.split(":", 2)
        if len(parts) != 3:
            raise ConfigError(f"bad generator spec {spec!r}; expected gen:kind:k=v,...")
        kwargs: dict = {}
        for item in parts[2].split(","):
            if "=" not in item:
                raise ConfigError(f"bad generator parameter {item!r} in {spec!r}")
            key, value = item.split("=", 1)
            key = key.strip()
            if key not in _GEN_PARAMS:
                raise ConfigError(f"unknown generator parameter {key!r} in {spec!r}")
            kwargs[key] = _GEN_PARAMS[key](value)
        try:
            return make_spectrum(parts[1], **kwargs)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"invalid spectrum spec {spec!r}: {exc}") from exc
    raw = _read_json(spec, "spectrum")
    if not isinstance(raw, dict) or "frequencies" not in raw or "statistics" not in raw:
        raise ConfigError(f"spectrum file {spec} needs 'frequencies' and 'statistics'")
    try:
        return ModeSpectrum(
            frequencies=np.asarray(raw["frequencies"], dtype=float),
            statistics=raw["statistics"],
            particle_target=raw.get("particle_target"),
            chemical_potential=raw.get("chemical_potential"),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid spectrum in {spec}: {exc}") from exc


# ---------------------------------------------------------------------------
# data subcommands: each returns one Payload
# ---------------------------------------------------------------------------

def _run_data(args: argparse.Namespace, run: Callable[[argparse.Namespace], Payload]) -> int:
    """Run a data subcommand and emit its body as JSON or its rows as CSV,
    to ``--out`` or stdout. ``--out`` is checked before any work starts."""
    out = Path(args.out) if args.out else None
    if out and (out.is_dir() or not out.parent.is_dir()):
        raise ConfigError(f"--out {args.out} is a directory or its directory does not exist")
    body, rows = run(args)
    if args.format == "json":
        text = json.dumps(body, indent=2) + "\n"
    else:
        text = "".join(",".join(map(_fmt, row)) + "\n" for row in rows)
    if out:
        out.write_text(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK


def _fw_config(args: argparse.Namespace, stream: str, **kwargs) -> FrankWolfeConfig:
    return FrankWolfeConfig(
        max_iter=args.max_iter, tol=args.tol, seed=child_seed(args.seed, stream), **kwargs
    )


def run_spin_sweep(args: argparse.Namespace) -> Payload:
    h = build_spin_hamiltonian(load_model(args.model))
    grid = parse_temps(args.temps)
    fw = _fw_config(args, "spin-sweep-fw") if args.upper else None
    result = witness.sweep(eig_hermitian(h), grid, fw_config=fw, t_star_tol=args.tstar_tol)
    body = {
        "command": "spin-sweep",
        "seed": args.seed,
        "reports": [vars(r) for r in result.reports],  # every WitnessReport field, in order
        "T_star_eq2": result.T_star_eq2,
        "T_star_eq4": result.T_star_eq4,
    }
    rows = [["T", "S", "p", "neg_ln_p", "E_lower", "E_upper", "eq2_fires", "eq4_fires"]]
    rows += (
        [r.T, r.S, r.p, r.neg_ln_p, r.E_lower, r.E_upper, r.eq2_fires, r.eq4_fires]
        for r in result.reports
    )
    rows += [["T_star_eq2", result.T_star_eq2], ["T_star_eq4", result.T_star_eq4]]
    return body, rows


def run_gas_scan(args: argparse.Namespace) -> Payload:
    spectrum = load_spectrum(args.spectrum)
    grid = parse_temps(args.temps)
    states = [gas.gas_state(spectrum, t) for t in grid]

    if args.fit_window:
        try:
            lo, hi = (float(v) for v in args.fit_window.split(":"))
        except ValueError as exc:
            raise ConfigError(f"bad --fit-window {args.fit_window!r}; expected lo:hi") from exc
    else:
        lo, hi = gas.default_fit_window(spectrum)
    in_window = [t for t in grid if lo <= t <= hi]
    if len(in_window) < 8:
        raise ConfigError(
            f"fit window [{_fmt(lo)}, {_fmt(hi)}] holds {len(in_window)} grid samples; "
            "need at least 8 (adjust --temps or --fit-window)"
        )
    fit = gas.fit_entropy_scaling(spectrum, in_window)
    t_star = gas.critical_temperature_estimate(fit, args.energy_per_particle)
    header = ["T", "mu", "S", "F", "N_actual"]
    state_rows = [[s.T, s.mu, s.S, s.F, s.N_actual] for s in states]
    body = {
        "command": "gas-scan",
        "seed": args.seed,
        "rows": [dict(zip(header, row)) for row in state_rows],
        "fit": {
            "p_fit": fit.exponent,
            "omega_tilde": fit.omega_tilde,
            "r_squared": fit.r_squared,
            "T_window": list(fit.T_window),
            "n_reference": fit.n_reference,
            "T_star": t_star,
        },
        "mb": None,
    }
    rows = [header, *state_rows, ["p_fit", fit.exponent], ["omega_tilde", fit.omega_tilde],
            ["r_squared", fit.r_squared], ["T_star", t_star]]

    # classical-regime block, only when the grid reaches the geometric scale;
    # a particle target is always positive, so `or` picks it when it is set
    n_mb = float(spectrum.particle_target or np.mean([s.N_actual for s in states]))
    omega_g = gas.geometric_frequency_scale(spectrum, n_mb)
    classical_ts = [t for t in grid if t >= omega_g]
    if classical_ts:
        fires_any = any(gas.mb_witness_check(spectrum, n_mb, t).fires for t in classical_ts)
        body["mb"] = {
            "omega_tilde_g": omega_g,
            "n_particles": n_mb,
            "fires_any": fires_any,
            "points": len(classical_ts),
        }
        rows += [["mb_omega_tilde_g", omega_g], ["mb_fires_any", fires_any]]
    return body, rows


def _record(args: argparse.Namespace, **fields) -> Payload:
    """Single-record payload: one CSV row under a header of the field names."""
    body = {"command": args.command, "seed": args.seed, **fields}
    return body, [list(body), list(body.values())]


def run_ree(args: argparse.Namespace) -> Payload:
    spectral = eig_hermitian(build_spin_hamiltonian(load_model(args.model)))
    psi = ground_state(spectral)
    lower = ree_lower_bound(psi)
    upper = ree_upper_bound(psi.to_density(), _fw_config(args, "ree-fw", restarts=args.restarts))
    return _record(
        args,
        E0=float(spectral.eigenvalues[0]),
        ground_degeneracy=spectral.ground_degeneracy,
        E_lower=lower.lower,
        lower_method=lower.method,
        E_upper=upper.upper,
        upper_iterations=upper.iterations,
        upper_converged=upper.converged,
    )


def run_energy_witness(args: argparse.Namespace) -> Payload:
    h = build_spin_hamiltonian(load_model(args.model))
    e0 = float(eig_hermitian(h).eigenvalues[0])
    seed = child_seed(args.seed, "energy-witness")
    res = energy_witness(h, e0, restarts=args.restarts, seed=seed)
    return _record(args, E0=e0, sep_min=res.sep_min, entangled=res.entangled)


# ---------------------------------------------------------------------------
# selfcheck
# ---------------------------------------------------------------------------

def _selfcheck_properties(seed: int):
    """Yield (name, ok, detail) for the built-in identity/inequality suite."""
    rng = named_rng(seed, "selfcheck-spectra")

    # Boltzmann-weight vs entropy chain and the thermodynamic identity,
    # over seeded random spectra and a log grid of temperatures.
    worst_slack = math.inf
    worst_gap = -math.inf
    worst_ident = 0.0
    for _ in range(30):
        levels = int(rng.integers(4, 33))
        energies = np.sort(rng.uniform(-2.0, 2.0, levels))
        for t in np.geomspace(1e-3, 1e3, 12):
            sc = thermo.canonical_scalars(energies, float(t))
            slack = (sc.U - energies[0]) / t
            worst_slack = min(worst_slack, slack)
            worst_gap = max(worst_gap, math.exp(-sc.S) - sc.p)
            ident = abs(sc.S - (sc.U - sc.F) / t) / max(1.0, abs(sc.S))
            worst_ident = max(worst_ident, ident)
    yield (
        "boltzmann-weight-entropy-bound",
        worst_slack >= -1e-10 and worst_gap <= 1e-10,
        f"min slack {worst_slack:.3e}, max p-gap {worst_gap:.3e}",
    )
    yield (
        "entropy-identity",
        worst_ident <= 1e-8,
        f"max relative deviation {worst_ident:.3e}",
    )

    # Mode-sum entropy vs the temperature derivative of the free energy.
    worst_fd = 0.0
    for _ in range(6):
        m = int(rng.integers(4, 17))
        freqs = np.sort(rng.uniform(0.05, 2.0, m))
        for stats in ("bose", "fermi"):
            if stats == "bose":
                mu = float(freqs[0] - rng.uniform(0.1, 0.5))
            else:
                # level near mu keeps the finite difference well-conditioned
                # against the Fermi sea's T-independent free-energy offset
                mu = float(rng.choice(freqs) + rng.uniform(-0.05, 0.05))
            spectrum = ModeSpectrum(freqs, stats, chemical_potential=mu)
            for t in np.geomspace(0.05, 50.0, 8):
                t = float(t)
                s_formula = gas.gas_state(spectrum, t).S
                delta = 1e-4 * t
                f_plus = gas.gas_state(spectrum, t + delta).F
                f_minus = gas.gas_state(spectrum, t - delta).F
                s_fd = -(f_plus - f_minus) / (2 * delta)
                rel = abs(s_formula - s_fd) / max(abs(s_formula), 1e-300)
                worst_fd = max(worst_fd, rel)
    yield (
        "gas-entropy-free-energy",
        worst_fd <= 1e-5,
        f"max relative deviation {worst_fd:.3e}",
    )

    # Witness implication chain on real model sweeps: a firing 2-site chain
    # and a degenerate-ground 3-site chain that must stay silent. A violation
    # raises in WitnessReport, so what is left to check is that it fired.
    fired = 0
    points = 0
    for n_sites in (2, 3):
        h = build_spin_hamiltonian(SpinModelSpec(kind="heisenberg", n_sites=n_sites))
        result = witness.sweep(eig_hermitian(h), [float(t) for t in np.geomspace(0.1, 20.0, 15)])
        fired += sum(r.eq2_fires for r in result.reports)
        points += len(result.reports)
    yield (
        "witness-implication",
        fired > 0,
        f"{fired}/{points} grid points fired, no implication violations",
    )


def run_selfcheck(seed: int = 42) -> int:
    """Run the built-in property suite on stdout; exit 0 iff every property passes."""
    failed = []
    for name, ok, detail in _selfcheck_properties(seed):
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
        if not ok:
            failed.append(name)
    if failed:
        print(f"selfcheck: FAILED ({', '.join(failed)})")
        return EXIT_SELFCHECK
    print("selfcheck: OK")
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thermwit",
        description="Entropy-based entanglement certification for thermal states "
        "(k_B = 1, energies = temperature units, entropies in nats).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spin-sweep", help="temperature sweep of both witnesses for a spin model")
    p.add_argument("--model", required=True, help="spin model JSON file")
    p.add_argument("--temps", required=True, help="temperature grid lo:hi:count[:log]")
    p.add_argument("--upper", action="store_true", help="also compute the REE upper bound")
    p.add_argument("--tol", type=float, default=1e-4, help="upper-bound duality-gap tolerance")
    p.add_argument("--max-iter", type=int, default=500, dest="max_iter")
    p.add_argument("--tstar-tol", type=float, default=1e-6, dest="tstar_tol",
                   help="bisection tolerance for the threshold temperatures")

    p = sub.add_parser("gas-scan", help="ideal-gas scan: occupations, entropy, scaling fit")
    p.add_argument("--spectrum", required=True,
                   help="spectrum JSON file or gen:kind:k=v,... generator spec")
    p.add_argument("--temps", required=True, help="temperature grid lo:hi:count[:log]")
    p.add_argument("--fit-window", default=None, dest="fit_window",
                   help="low-T fit window lo:hi (default from the spectral scale)")
    p.add_argument("--energy-per-particle", type=float, default=1.0,
                   dest="energy_per_particle",
                   help="proportionality constant in the E = c*N threshold algebra")

    p = sub.add_parser("ree", help="REE bounds for a spin model's ground state")
    p.add_argument("--model", required=True)
    p.add_argument("--restarts", type=int, default=4)
    p.add_argument("--tol", type=float, default=1e-4)
    p.add_argument("--max-iter", type=int, default=500, dest="max_iter")

    p = sub.add_parser("energy-witness", help="separable-energy witness for a spin model")
    p.add_argument("--model", required=True)
    p.add_argument("--restarts", type=int, default=32)

    data_commands = {"spin-sweep": run_spin_sweep, "gas-scan": run_gas_scan,
                     "ree": run_ree, "energy-witness": run_energy_witness}
    for name, run in data_commands.items():
        p = sub.choices[name]
        p.add_argument("--seed", type=int, default=42, help="master RNG seed (default 42)")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.set_defaults(run=lambda args, run=run: _run_data(args, run))

    p = sub.add_parser("selfcheck", help="run the built-in identity/inequality suite")
    p.add_argument("--seed", type=int, default=42)
    p.set_defaults(run=lambda args: run_selfcheck(args.seed))

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except DimensionCapError as exc:
        print(f"resource cap: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except ValueError as exc:  # includes ConfigError
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (RuntimeError, FloatingPointError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
