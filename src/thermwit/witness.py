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
from typing import Sequence

from .ent import EntanglementEstimate, FrankWolfeConfig, ree_lower_bound, ree_upper_bound
from .models import ground_state
from .qops import SpectralDecomposition
from .thermo import canonical_scalars

#: Strictness guard for the witness inequalities.
GUARD = 1e-12

#: Upper-temperature ceiling for automatic bracket expansion.
T_CEILING = 1e6


@dataclass(frozen=True)
class WitnessReport:
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

    def __post_init__(self) -> None:
        if self.eq4_fires and not self.eq2_fires:
            raise RuntimeError(
                f"witness implication violated at T={self.T}: "
                "entropy form fired without the ground-weight form"
            )
        if self.neg_ln_p > self.S + 1e-9:
            raise RuntimeError(
                f"-ln p = {self.neg_ln_p} exceeds S = {self.S} at T={self.T}"
            )


@dataclass(frozen=True)
class SweepResult:
    reports: tuple[WitnessReport, ...]
    T_star_eq2: float | None
    T_star_eq4: float | None

    def __post_init__(self) -> None:
        if (
            self.T_star_eq2 is not None
            and self.T_star_eq4 is not None
            and self.T_star_eq4 > self.T_star_eq2 + 1e-6
        ):
            raise RuntimeError(
                "entropy-form threshold exceeds ground-weight threshold: "
                f"{self.T_star_eq4} > {self.T_star_eq2}"
            )


def evaluate_witness(
    spectral: SpectralDecomposition, temperature: float, e_value: EntanglementEstimate
) -> WitnessReport:
    """Evaluate both witness inequalities for a diagonalized Hamiltonian at
    one temperature.

    ``e_value.lower`` must be a bound for the ground state of the same
    Hamiltonian (use ``ree_lower_bound`` on it); any smaller value keeps the
    verdicts sound.
    """
    sc = canonical_scalars(spectral.eigenvalues, temperature)
    neg_ln_p = -math.log(sc.p)
    return WitnessReport(
        T=float(temperature),
        S=sc.S,
        p=sc.p,
        neg_ln_p=neg_ln_p,
        E_lower=float(e_value.lower),
        E_upper=e_value.upper,
        eq2_fires=bool(neg_ln_p < e_value.lower - GUARD),
        eq4_fires=bool(sc.S < e_value.lower - GUARD),
        ground_degeneracy=spectral.ground_degeneracy,
    )


def critical_temperature(
    spectral: SpectralDecomposition,
    kind: str,
    e_lower: float,
    bracket: tuple[float, float] = (1e-3, 10.0),
    tol: float = 1e-6,
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

    def quantity(temperature: float) -> float:
        sc = canonical_scalars(spectral.eigenvalues, temperature)
        return sc.S if kind == "eq4" else -math.log(sc.p)

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
    t_star_tol: float = 1e-6,
) -> SweepResult:
    """Witness reports over an ascending temperature grid plus thresholds.

    The ground-state entanglement bounds are computed once and reused across
    the grid; the REE upper bound is computed only when ``fw_config`` is
    given, and ``EntanglementEstimate`` checks it against the lower one. The
    threshold temperatures come from ``critical_temperature`` bracketed by
    the grid ends (upper end auto-expanded), so their accuracy is
    ``t_star_tol`` regardless of grid density.
    """
    grid = [float(t) for t in t_grid]
    if not grid:
        raise ValueError("temperature grid must be nonempty")
    if not all(0 < t < math.inf for t in grid):
        raise ValueError("temperatures must be finite and positive")
    if not 0 < t_star_tol < math.inf:
        raise ValueError(f"t_star_tol must be finite and positive, got {t_star_tol}")
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ValueError("temperature grid must be strictly ascending")
    psi = ground_state(spectral)
    est = ree_lower_bound(psi)
    if fw_config is not None:
        est = replace(est, upper=ree_upper_bound(psi.to_density(), fw_config).upper)
    reports = tuple(evaluate_witness(spectral, t, est) for t in grid)
    bracket = (grid[0], grid[-1] if len(grid) > 1 else grid[0] * 10.0)
    t_star_eq2, t_star_eq4 = (
        critical_temperature(spectral, kind, est.lower, bracket, t_star_tol)
        for kind in ("eq2", "eq4")
    )
    return SweepResult(reports=reports, T_star_eq2=t_star_eq2, T_star_eq4=t_star_eq4)
