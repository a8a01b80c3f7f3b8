"""Thermal-state entanglement witnesses and temperature sweeps.

Two one-sided criteria are evaluated against a lower bound E on the
ground-state relative entropy of entanglement:

* ``eq2``: ground-weight form, fires when -ln p < E  (p = single-ground-state
  Boltzmann weight),
* ``eq4``: entropy form, fires when S(rho_T) < E.

Since -ln p <= S always holds, the entropy form firing implies the
ground-weight form firing; a report violating that implication is a hard
failure. Both tests are strict with a small guard band, so ties count as
"not detected". Firing certifies entanglement; silence proves nothing, and a
separable ground state (E = 0) can never fire.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple, Sequence

from .ent import EntanglementEstimate, FrankWolfeConfig, ree_lower_bound, ree_upper_bound
from .models import ground_state
from .qops import SpectralDecomposition
from .thermo import entropy_and_weight, shifted_levels

#: Strictness guard for the witness inequalities.
GUARD = 1e-12

#: Upper-temperature ceiling for automatic bracket expansion.
T_CEILING = 1e6

#: Bisection width of the threshold temperatures. Each lies within half of it
#: of its crossing, so T*_eq4 may exceed T*_eq2 by less than this.
T_STAR_TOL = 1e-6


class WitnessReport(NamedTuple):
    """Per-temperature verdicts of both witness inequalities."""

    T: float
    S: float
    p: float
    neg_ln_p: float
    E_lower: float
    E_upper: float | None
    eq2_fires: bool
    eq4_fires: bool
    ground_degeneracy: int


@dataclass(frozen=True)
class SweepResult:
    """Witness reports of a grid plus thresholds. Construction checks every
    row (-ln p <= S, eq4 => eq2) and the order of the thresholds."""

    reports: tuple[WitnessReport, ...]
    T_star_eq2: float | None
    T_star_eq4: float | None

    def __post_init__(self) -> None:
        for r in self.reports:
            if r.eq4_fires and not r.eq2_fires:
                raise RuntimeError(
                    f"witness implication violated at T={r.T}: "
                    "entropy form fired without the ground-weight form"
                )
            if r.neg_ln_p > r.S + 1e-9:
                raise RuntimeError(f"-ln p = {r.neg_ln_p} exceeds S = {r.S} at T={r.T}")
        if (
            self.T_star_eq2 is not None
            and self.T_star_eq4 is not None
            and self.T_star_eq4 > self.T_star_eq2 + T_STAR_TOL
        ):
            raise RuntimeError(
                "entropy-form threshold exceeds ground-weight threshold: "
                f"{self.T_star_eq4} > {self.T_star_eq2}"
            )


def _reports(
    spectral: SpectralDecomposition, temperatures: Sequence[float], e_value: EntanglementEstimate
) -> tuple[WitnessReport, ...]:
    """The report at each temperature, from one pass over the whole grid."""
    s, p = entropy_and_weight(shifted_levels(spectral.eigenvalues), temperatures)
    threshold = e_value.lower - GUARD
    reports = []
    for t, s_t, p_t in zip(temperatures, s.tolist(), p.tolist()):
        # libm log: np.log differs from it in some last bits; 0.0 - keeps p = 1 at +0.0
        neg_ln_p = 0.0 - math.log(p_t)
        reports.append(WitnessReport(
            T=float(t),
            S=s_t,
            p=p_t,
            neg_ln_p=neg_ln_p,
            E_lower=float(e_value.lower),
            E_upper=e_value.upper,
            eq2_fires=bool(neg_ln_p < threshold),
            eq4_fires=bool(s_t < threshold),
            ground_degeneracy=spectral.ground_degeneracy,
        ))
    return tuple(reports)


def evaluate_witness(
    spectral: SpectralDecomposition, temperature: float, e_value: EntanglementEstimate
) -> WitnessReport:
    """Evaluate both witness inequalities for a diagonalized Hamiltonian at
    one temperature.

    ``e_value.lower`` must be a bound for the ground state of the same
    Hamiltonian (use ``ree_lower_bound`` on it); any smaller value keeps the
    verdicts sound.
    """
    return SweepResult(_reports(spectral, [temperature], e_value), None, None).reports[0]


def critical_temperature(
    spectral: SpectralDecomposition,
    kind: str,
    e_lower: float,
    bracket: tuple[float, float] = (1e-3, 10.0),
    tol: float = T_STAR_TOL,
) -> float | None:
    """Temperature where the monitored quantity crosses ``e_lower``.

    ``kind`` selects the quantity: ``"eq4"`` bisects on S(T), ``"eq2"`` on
    -ln p(T); both are nondecreasing in T. Returns None when the witness does
    not fire at the bottom of the bracket (including the degenerate-ground
    case S(0) = ln g >= e_lower), or when no crossing is found after
    expanding the top of the bracket up to 1e6. Bisection stops at width
    ``tol`` (finite and positive) or when no float lies between the ends.
    """
    if kind not in ("eq2", "eq4"):
        raise ValueError(f"kind must be 'eq2' or 'eq4', got {kind!r}")
    t_lo, t_hi = float(bracket[0]), float(bracket[1])
    if not (0 < t_lo < t_hi):
        raise ValueError(f"invalid bracket {bracket}")
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be finite and positive, got {tol}")
    if e_lower <= 0:
        return None

    levels = shifted_levels(spectral.eigenvalues)

    def quantity(temperature: float) -> float:
        s, p = entropy_and_weight(levels, [temperature])
        return float(s[0]) if kind == "eq4" else -math.log(p[0])

    if quantity(t_lo) >= e_lower:
        return None  # never fires at or above t_lo (quantity is nondecreasing)
    while quantity(t_hi) < e_lower:
        t_hi *= 10.0
        if t_hi > T_CEILING:
            return None
    while t_hi - t_lo >= tol and math.nextafter(t_lo, t_hi) < t_hi:
        mid = 0.5 * (t_lo + t_hi)
        if quantity(mid) < e_lower:
            t_lo = mid
        else:
            t_hi = mid
    return 0.5 * (t_lo + t_hi)


def sweep(
    spectral: SpectralDecomposition,
    t_grid: Sequence[float],
    *,
    fw_config: FrankWolfeConfig | None = None,
) -> SweepResult:
    """Witness reports over an ascending temperature grid plus thresholds.

    The ground-state entanglement bounds are computed once and reused across
    the grid; the REE upper bound is computed only when ``fw_config`` is
    given, and ``EntanglementEstimate`` checks it against the lower one. The
    threshold temperatures come from ``critical_temperature`` bracketed by
    the grid ends (upper end auto-expanded), so their accuracy is
    ``T_STAR_TOL`` regardless of grid density.
    """
    grid = [float(t) for t in t_grid]
    if not grid:
        raise ValueError("temperature grid must be nonempty")
    if not all(0 < t < math.inf for t in grid):
        raise ValueError("temperatures must be finite and positive")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("temperature grid must be strictly ascending")
    psi = ground_state(spectral)
    est = ree_lower_bound(psi)
    if fw_config is not None:
        est = replace(est, upper=ree_upper_bound(psi.to_density(), fw_config).upper)
    reports = _reports(spectral, grid, est)
    bracket = (grid[0], grid[-1] if len(grid) > 1 else grid[0] * 10.0)
    t_star_eq2, t_star_eq4 = (
        critical_temperature(spectral, kind, est.lower, bracket)
        for kind in ("eq2", "eq4")
    )
    return SweepResult(reports=reports, T_star_eq2=t_star_eq2, T_star_eq4=t_star_eq4)
