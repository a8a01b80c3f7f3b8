"""Ideal bose/fermi/boltzmann gas thermodynamics on a discrete mode spectrum.

Occupations, mode-sum entropy, grand-potential free energy, chemical-potential
solving (safeguarded Newton on ln N from the Boltzmann closed form, in a
bracket whose ends scale with T), the low-temperature power-law entropy fit with its characteristic
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

#: Occupancy-sum convergence target for the chemical-potential solve.
MU_SOLVE_TOL = 1e-10

#: Fewest temperature samples of a power-law fit.
MIN_FIT_SAMPLES = 8

#: Arguments above this use the asymptotic tail of the bose occupation.
_BOSE_TAIL = 40.0

#: exp of a larger magnitude leaves the positive finite floats.
_LOG_FLOAT_MAX = math.log(np.finfo(np.float64).max)


@dataclass(frozen=True, eq=False)
class GasState:
    """Resolved single-temperature state of an ideal gas."""

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
    """Chemical potential with total mean occupation ``n_target``: w0 + nu,
    with w0 the lowest frequency and nu from ``_solve_nu``."""
    return float(spectrum.frequencies[0]) + _solve_nu(spectrum, n_target, T)[0]


def _solve_nu(spectrum: ModeSpectrum, n_target: float, T: float) -> tuple[float, np.ndarray]:
    """nu = mu - w0 with total mean occupation ``n_target``, and the
    occupations at that nu, found on the frequencies eps = omega - w0 of the
    m modes, whose spacing, not size, sets how finely nu resolves N.

    Boltzmann is the closed form nu_B = T (ln N* - ln sum_i e^{-eps_i/T}).
    Bose and fermi start there and take safeguarded Newton steps on ln N,
    whose slope comes from the occupations just summed,
    dN/dnu = sum_i n_i (1 +- n_i) / T: in nu for fermi, in y = ln(-nu) for
    bose, where near condensation N ~ T/(-nu) makes ln N linear in y. Each
    sum shrinks the bracket [lo, hi] by the sign of N - N*; a Newton point
    outside it, or a slope that is not positive, is replaced by the bisection
    point (the geometric mean of the ends for bose).

    The ends scale with T. Below: for nu <= -T ln 2 every x_i = (eps_i - nu)/T
    >= ln 2, where e^x - 1 >= e^x / 2, so a bose (and so a fermi) occupation
    is at most 2 e^{-x_i} <= 2 e^{nu/T}, and N(nu) <= 2 m e^{nu/T}; at
    lo = min(-T ln 2, T ln(N*/(2m))) that bound gives N(lo) <= N*. Above:
    bosons stay strictly below the lowest frequency, hi = -1e-12; for
    fermions each occupation is at least the top mode's, so
    N(nu) >= m / (1 + e^{(eps_max - nu)/T}), which reaches N* at
    hi = eps_max + T ln(N*/(m - N*)); the Pauli bound N* < m keeps it finite.

    Where one float step of nu moves N by more than the target allows, no
    float nu may meet it. Once the bracket has closed to 4 eps |nu|, the nu
    evaluated with the smallest residual is returned if that residual is at
    most dN/dnu times the float spacing of nu. Otherwise, and when no nu in
    the bracket meets the target, RuntimeError is raised.
    """
    freqs, stats = spectrum.frequencies, spectrum.statistics
    eps = freqs - freqs[0]
    m = eps.size
    if stats == "fermi" and n_target >= m:
        raise ValueError(f"fermi target {n_target} violates the Pauli bound (< {m} modes)")
    # sum_i e^{-(eps_i - nu)/T} = N is exponential in nu: exact for boltzmann,
    # the starting point for bose (whose root lies below) and fermi (above)
    nu = T * (math.log(n_target) - math.log(float(np.sum(np.exp(-eps / T)))))
    if stats == "boltzmann":
        n_i = occupation(eps, nu, T, stats)
        n = float(np.sum(n_i))
        if abs(n - n_target) > max(1e-8, 1e-10 * n_target):
            raise RuntimeError(f"occupancy target missed: {n} vs {n_target}")
        return nu, n_i
    bose = stats == "bose"
    hi = -1e-12 if bose else float(eps[-1]) + T * math.log(n_target / (m - n_target))
    lo = min(-T * math.log(2.0), T * math.log(n_target / (2.0 * m)), hi)
    # relative floor: near bose condensation dN/dnu ~ N^2/T, so the absolute
    # target is unreachable in float64 for large N; 1e-11 relative still is
    done = lambda n: abs(n - n_target) <= max(MU_SOLVE_TOL, 1e-11 * n_target)
    nu_next, best = min(max(nu, lo), hi), (math.inf,)  # best: (|N - N*|, nu, dN/dnu, n_i)
    for _ in range(500):
        nu = nu_next
        n_i = occupation(eps, nu, T, stats)
        n = float(np.sum(n_i))
        if done(n):
            return nu, n_i
        if n < n_target:
            lo = nu
        else:
            hi = nu
        slope = float(np.sum(n_i * (1.0 + n_i if bose else 1.0 - n_i))) / T
        if abs(n - n_target) < best[0]:
            best = (abs(n - n_target), nu, slope, n_i)
        if hi - lo <= 4 * np.finfo(float).eps * abs(nu):  # relative: |nu| may be << 1
            # no float nu may meet the target when one float step of nu moves
            # N by more; the nu of smallest residual stands if one step covers it
            residual, nu_best, slope_best, n_best = best
            if residual <= slope_best * np.spacing(abs(nu_best)):
                return nu_best, n_best
            break
        nu_next = math.nan
        if n > 0 and slope > 0:
            dnu = (math.log(n_target) - math.log(n)) * n / slope  # Newton step in nu
            if bose:  # the same step in y = ln(-nu), where dy = dnu / nu
                nu_next = -math.exp(min(math.log(-nu) + dnu / nu, _LOG_FLOAT_MAX))
            else:
                nu_next = nu + dnu
        if not lo < nu_next < hi:  # also when there is no Newton point (nan)
            nu_next = -math.sqrt(-lo) * math.sqrt(-hi) if bose else 0.5 * (lo + hi)
    # the last nu tried was not done, or the loop would have returned it
    raise RuntimeError(f"chemical-potential solve did not converge: residual "
                       f"{n - n_target:.3e} at mu - w0 = {nu!r}")


def gas_state(spectrum: ModeSpectrum, T: float) -> GasState:
    """Resolve mu (if a particle target is set), then occupations, S and F.

    A solved mu is w0 + nu; the occupations are those the solve summed at nu,
    and F is evaluated with nu on omega - w0, since mu rounded to the spacing
    of w0 would lose nu.
    """
    if not 0 < T < math.inf:
        raise ValueError(f"temperature must be finite and positive, got {T}")
    freqs, stats = spectrum.frequencies, spectrum.statistics
    if spectrum.chemical_potential is not None:
        mu = nu = float(spectrum.chemical_potential)
        n = occupation(freqs, nu, T, stats)
    else:
        nu, n = _solve_nu(spectrum, spectrum.particle_target, T)
        mu = float(freqs[0]) + nu
        freqs = freqs - freqs[0]
    return GasState(T=float(T), mu=mu, occupations=n, S=_entropy_from_occupations(n, stats),
                    F=_free_energy(freqs, nu, T, stats), N_actual=float(np.sum(n)))


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
    else:  # boltzmann; ModeSpectrum admits no other statistics
        s = np.sum(npos * (1.0 - np.log(npos)))
    return float(s)


def _free_energy(freqs: np.ndarray, mu: float, T: float, statistics: str) -> float:
    # Grand potential: bose +T sum ln(1 - e^(-x)), fermi -T sum ln(1 + e^(-x)),
    # boltzmann -T sum e^(-x), with x = (omega - mu)/T; gas_state's occupation
    # call has already rejected a bose mu at or above the lowest frequency.
    x = (np.asarray(freqs, dtype=np.float64) - mu) / T
    if statistics == "bose":
        return float(T * np.sum(np.log1p(-np.exp(-x))))
    if statistics == "fermi":
        softplus = np.where(x < 0, -x + np.log1p(np.exp(-np.abs(x))), np.log1p(np.exp(-np.abs(x))))
        return float(-T * np.sum(softplus))
    return float(-T * np.sum(np.exp(-x)))


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
    the fitted S/N reaches 1, recovered from the intercept. A fit whose
    exponent is not positive, or whose ``omega_tilde`` is no positive finite
    float, is rejected as a window of constant entropy.
    """
    ts = np.asarray(list(t_samples), dtype=np.float64)
    ss = np.asarray(list(s_samples), dtype=np.float64)
    if ts.size < MIN_FIT_SAMPLES:
        raise ValueError(f"need at least {MIN_FIT_SAMPLES} temperature samples, got {ts.size}")
    if np.any(np.diff(ts) <= 0):
        raise ValueError("temperature samples must be strictly ascending")
    if np.any(ss <= 0):
        bad = ts[ss <= 0]
        raise ValueError(f"nonpositive entropy sample(s) at T={bad}; shrink the window")
    log_t, log_s = np.log(ts), np.log(ss)
    slope, intercept = (float(c) for c in np.polyfit(log_t, log_s, 1))
    log_omega = (math.log(n_reference) - intercept) / slope if slope > 0 else math.inf
    if np.ptp(log_s) == 0 or not abs(log_omega) < _LOG_FLOAT_MAX:
        raise ValueError(
            f"entropy is constant over the fit window [{ts[0]:.6g}, {ts[-1]:.6g}] "
            f"(fitted exponent {slope:.3g}); no power law to fit"
        )
    resid = log_s - (slope * log_t + intercept)
    total = log_s - np.mean(log_s)
    r2 = 1.0 - float(np.sum(resid**2)) / float(np.sum(total**2))
    return ScalingFit(
        exponent=slope,
        omega_tilde=math.exp(log_omega),
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
    A T* that is no positive finite float (a small exponent) is rejected.
    """
    if not 0 < energy_per_particle < math.inf:
        raise ValueError(
            f"energy_per_particle must be finite and positive, got {energy_per_particle}"
        )
    log_scale = math.log(energy_per_particle) / fit.exponent
    log_t = math.log(fit.omega_tilde) + log_scale
    if not abs(log_t) < _LOG_FLOAT_MAX:
        raise ValueError(
            f"T* = omega_tilde * c**(1/p) is out of float range for fitted exponent "
            f"p = {fit.exponent:.3g} and energy per particle c = {energy_per_particle:.6g}"
        )
    if abs(log_scale) < _LOG_FLOAT_MAX:  # then the direct product is the more accurate form
        return fit.omega_tilde * energy_per_particle ** (1.0 / fit.exponent)
    return math.exp(log_t)


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
