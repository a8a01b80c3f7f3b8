"""Ideal bose/fermi/boltzmann gas thermodynamics on a discrete mode spectrum.

Occupations, mode-sum entropy, grand-potential free energy, chemical-potential
solving, the low-temperature power-law entropy fit with its characteristic
frequency, the resulting critical-temperature estimate, and the
classical-regime (Maxwell-Boltzmann) non-detection check.

Units as everywhere in the package: k_B = 1, temperatures in energy units,
entropies in nats. The symbol "omega tilde" plays two distinct roles that are
never conflated here: ``ScalingFit.omega_tilde`` is the fitted scale at which
the per-particle entropy reaches 1, while ``geometric_frequency_scale`` is the
log-mean scale entering the classical-regime check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .models import ModeSpectrum

#: Occupancy-sum convergence target for the chemical-potential bisection.
MU_SOLVE_TOL = 1e-10

#: Arguments above this use the asymptotic tail of the bose occupation.
_BOSE_TAIL = 40.0


@dataclass(frozen=True, eq=False)
class GasState:
    """Resolved single-temperature state of an ideal gas."""

    spectrum: ModeSpectrum
    T: float
    mu: float
    occupations: np.ndarray
    S: float  # mode-sum entropy of the occupations, in nats
    F: float  # grand potential; -dF/dT at fixed mu reproduces S
    N_actual: float


@dataclass(frozen=True)
class ScalingFit:
    """Low-temperature power law S ~ N (T / omega_tilde)**exponent."""

    exponent: float
    omega_tilde: float
    r_squared: float
    T_window: tuple[float, float]
    n_reference: float

    def __post_init__(self) -> None:
        if self.exponent < 0:
            raise ValueError(f"fitted exponent must be nonnegative, got {self.exponent}")
        if self.omega_tilde <= 0:
            raise ValueError(f"omega_tilde must be positive, got {self.omega_tilde}")


@dataclass(frozen=True)
class MBWitnessCheck:
    """Classical-regime entropy-witness evaluation (expected never to fire)."""

    S_mb: float
    E_assumed: float
    fires: bool


def occupation(omega, mu: float, T: float, statistics: str):
    """Mean occupation of a mode: bose 1/(e^x - 1), fermi 1/(e^x + 1),
    boltzmann e^-x, with x = (omega - mu)/T. Accepts scalars or arrays."""
    if not 0 < T < math.inf:
        raise ValueError(f"temperature must be finite and positive, got {T}")
    omega = np.asarray(omega, dtype=np.float64)
    x = (omega - mu) / T
    if statistics == "bose":
        if np.any(x <= 0):
            raise ValueError("bose occupation requires mu < omega (divergent otherwise)")
        out = np.where(x > _BOSE_TAIL, np.exp(-x), 1.0 / np.expm1(np.minimum(x, _BOSE_TAIL)))
    elif statistics == "fermi":
        t = np.exp(-np.abs(x))
        out = np.where(x >= 0, t, 1.0) / (1.0 + t)
    elif statistics == "boltzmann":
        out = np.exp(-x)
    else:
        raise ValueError(f"unknown statistics {statistics!r}")
    return float(out) if out.ndim == 0 else out


def solve_mu(spectrum: ModeSpectrum, n_target: float, T: float) -> float:
    """Chemical potential with total mean occupation ``n_target``.

    Bisection on the strictly increasing map mu -> sum_i n_i(mu). For
    fermions the Pauli bound requires n_target < number of modes; bosons are
    bracketed strictly below the lowest frequency.
    """
    freqs = spectrum.frequencies
    stats = spectrum.statistics
    if stats == "fermi" and n_target >= freqs.size:
        raise ValueError(
            f"fermi target {n_target} violates the Pauli bound (< {freqs.size} modes)"
        )
    if stats == "boltzmann":
        # sum_i e^{-(w_i - mu)/T} = N is exponential in mu: solve exactly
        # (log-sum-exp shifted by the lowest frequency).
        shifted = float(np.sum(np.exp(-(freqs - freqs[0]) / T)))
        return float(freqs[0] + T * (math.log(n_target) - math.log(shifted)))
    w_max = float(freqs[-1])
    lo = -1e6 * w_max
    hi = float(freqs[0]) - 1e-12 if stats == "bose" else 1e6 * w_max
    total = lambda mu: float(np.sum(occupation(freqs, mu, T, stats)))
    # relative floor: near bose condensation dN/dmu ~ N^2/T, so the absolute
    # target is unreachable in float64 for large N; 1e-11 relative still is
    done = lambda n: abs(n - n_target) <= max(MU_SOLVE_TOL, 1e-11 * n_target)
    mu = 0.5 * (lo + hi)
    for _ in range(500):
        mu = 0.5 * (lo + hi)
        n = total(mu)
        if done(n):
            return mu
        if n < n_target:
            lo = mu
        else:
            hi = mu
        if hi - lo <= 4 * np.finfo(float).eps * abs(mu):  # relative: |mu| may be << 1
            break
    if not done(total(mu)):
        raise RuntimeError(
            f"chemical-potential solve did not converge: residual "
            f"{total(mu) - n_target:.3e} at mu={mu!r}"
        )
    return mu


def gas_state(spectrum: ModeSpectrum, T: float) -> GasState:
    """Resolve mu (if a particle target is set), then occupations, S and F."""
    if not 0 < T < math.inf:
        raise ValueError(f"temperature must be finite and positive, got {T}")
    if spectrum.chemical_potential is not None:
        mu = float(spectrum.chemical_potential)
    else:
        mu = solve_mu(spectrum, spectrum.particle_target, T)
    n = occupation(spectrum.frequencies, mu, T, spectrum.statistics)
    n = np.atleast_1d(n)
    state = GasState(
        spectrum=spectrum,
        T=float(T),
        mu=mu,
        occupations=n,
        S=_entropy_from_occupations(n, spectrum.statistics),
        F=_free_energy(spectrum.frequencies, mu, T, spectrum.statistics),
        N_actual=float(np.sum(n)),
    )
    if spectrum.particle_target is not None:
        target = spectrum.particle_target
        if abs(state.N_actual - target) > max(1e-8, 1e-10 * target):
            raise RuntimeError(
                f"occupancy target missed: {state.N_actual} vs {target}"
            )
    return state


def _entropy_from_occupations(n: np.ndarray, statistics: str) -> float:
    # Per-mode entropy, 0 ln 0 := 0:
    #   bose:      (1+n) ln(1+n) - n ln n
    #   fermi:     -n ln n - (1-n) ln(1-n)
    #   boltzmann: n (1 - ln n)
    n = np.asarray(n, dtype=np.float64)
    pos = n > 0
    npos = n[pos]
    if statistics == "bose":
        s = np.sum((1.0 + npos) * np.log1p(npos) - npos * np.log(npos))
    elif statistics == "fermi":
        sub = npos < 1.0
        s = -np.sum(npos * np.log(npos))
        s -= np.sum((1.0 - npos[sub]) * np.log1p(-npos[sub]))
    elif statistics == "boltzmann":
        s = np.sum(npos * (1.0 - np.log(npos)))
    else:
        raise ValueError(f"unknown statistics {statistics!r}")
    return float(s)


def _free_energy(freqs: np.ndarray, mu: float, T: float, statistics: str) -> float:
    # Grand potential: bose +T sum ln(1 - e^(-x)), fermi -T sum ln(1 + e^(-x)),
    # boltzmann -T sum e^(-x), with x = (omega - mu)/T.
    x = (np.asarray(freqs, dtype=np.float64) - mu) / T
    if statistics == "bose":
        if np.any(x <= 0):
            raise ValueError("bose free energy requires mu < min omega")
        return float(T * np.sum(np.log1p(-np.exp(-x))))
    if statistics == "fermi":
        softplus = np.where(x < 0, -x + np.log1p(np.exp(-np.abs(x))), np.log1p(np.exp(-np.abs(x))))
        return float(-T * np.sum(softplus))
    if statistics == "boltzmann":
        return float(-T * np.sum(np.exp(-x)))
    raise ValueError(f"unknown statistics {statistics!r}")


def default_fit_window(spectrum: ModeSpectrum) -> tuple[float, float]:
    """Default low-T window: [0.1, 0.5] x the smallest spectral scale.

    The scale is the minimum nonzero frequency spacing, falling back to the
    minimum frequency for degenerate (uniform) spectra. Callers fitting real
    data should normally declare their own window.
    """
    freqs = spectrum.frequencies
    gaps = np.diff(freqs)
    gaps = gaps[gaps > 0]
    scale = float(gaps.min()) if gaps.size else float(freqs[0])
    return (0.1 * scale, 0.5 * scale)


def fit_power_law(
    t_samples: Sequence[float], s_samples: Sequence[float], n_reference: float
) -> ScalingFit:
    """Least-squares line fit of ln S vs ln T, read as S = N (T/omega)^p.

    The slope is the exponent; ``omega_tilde`` is the temperature at which
    the fitted S/N reaches 1, recovered from the intercept.
    """
    ts = np.asarray(list(t_samples), dtype=np.float64)
    ss = np.asarray(list(s_samples), dtype=np.float64)
    if ts.size < 8:
        raise ValueError(f"need at least 8 temperature samples, got {ts.size}")
    if np.any(np.diff(ts) <= 0):
        raise ValueError("temperature samples must be strictly ascending")
    if np.any(ss <= 0):
        bad = ts[ss <= 0]
        raise ValueError(f"nonpositive entropy sample(s) at T={bad}; shrink the window")
    if np.ptp(np.log(ss)) == 0:
        raise ValueError(
            f"entropy is constant over the fit window [{ts[0]:.6g}, {ts[-1]:.6g}]; "
            "no power law to fit"
        )
    slope, intercept = np.polyfit(np.log(ts), np.log(ss), 1)
    pred = slope * np.log(ts) + intercept
    resid = np.log(ss) - pred
    total = np.log(ss) - np.mean(np.log(ss))
    r2 = 1.0 - float(np.sum(resid**2)) / float(np.sum(total**2))
    omega_tilde = math.exp((math.log(n_reference) - intercept) / slope)
    return ScalingFit(
        exponent=float(slope),
        omega_tilde=omega_tilde,
        r_squared=r2,
        T_window=(float(ts[0]), float(ts[-1])),
        n_reference=float(n_reference),
    )


def fit_entropy_scaling(spectrum: ModeSpectrum, t_samples: Sequence[float]) -> ScalingFit:
    """Power-law fit of the mode-sum entropy over a declared low-T window.

    ``t_samples`` (ascending, at least 8) define the fit window; every sample
    must produce a strictly positive entropy. The particle reference is the
    spectrum's target when set, else the mean resolved particle number over
    the samples.
    """
    ts = [float(t) for t in t_samples]
    states = [gas_state(spectrum, t) for t in ts]
    if spectrum.particle_target is not None:
        n_ref = float(spectrum.particle_target)
    else:
        n_ref = float(np.mean([st.N_actual for st in states]))
    return fit_power_law(ts, [st.S for st in states], n_ref)


def critical_temperature_estimate(fit: ScalingFit, energy_per_particle: float = 1.0) -> float:
    """Temperature below which the fitted entropy undercuts E = c*N.

    Setting S = N (T/omega_tilde)^p below c*N gives T < omega_tilde * c^(1/p);
    with the default c = 1 this is the fitted characteristic frequency itself.
    """
    if energy_per_particle <= 0:
        raise ValueError("energy_per_particle must be positive")
    return fit.omega_tilde * energy_per_particle ** (1.0 / fit.exponent)


def geometric_frequency_scale(spectrum: ModeSpectrum, n_particles: float) -> float:
    """Log-mean frequency scale exp(sum_i ln omega_i / N) of the classical check."""
    return math.exp(float(np.sum(np.log(spectrum.frequencies))) / n_particles)


def mb_witness_check(spectrum: ModeSpectrum, n_particles: float, T: float) -> MBWitnessCheck:
    """Classical-regime entropy witness: S_mb = N (ln(T/scale) + 1) vs E = N.

    Only valid for T at or above the geometric frequency scale (the
    Maxwell-Boltzmann regime); below it the quantum-statistics path
    (the entropy ``gas_state(...).S``) must be used instead. In the valid
    regime S_mb >= E always, so ``fires`` is always False: an ideal classical
    gas is never detected.
    """
    if n_particles <= 0:
        raise ValueError("n_particles must be positive")
    if not 0 < T < math.inf:
        raise ValueError(f"temperature must be finite and positive, got {T}")
    scale = geometric_frequency_scale(spectrum, n_particles)
    if T < scale:
        raise ValueError(
            f"T={T} is below the classical regime (geometric scale {scale:.6g}); "
            "use the quantum-statistics path (gas_state(...).S) at low T"
        )
    s_mb = n_particles * (math.log(T / scale) + 1.0)
    e_assumed = float(n_particles)
    return MBWitnessCheck(S_mb=s_mb, E_assumed=e_assumed, fires=bool(s_mb < e_assumed))
