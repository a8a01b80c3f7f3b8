"""Thermal-state entanglement witnesses and temperature sweeps.

Two one-sided criteria are evaluated against a lower bound E on the
ground-state relative entropy of entanglement, both with the one bound
E - GUARD (p is the single-ground-state Boltzmann weight):

* ``eq2``: ground-weight form, fires when -ln p < E - GUARD,
* ``eq4``: entropy form, fires when S(rho_T) < E - GUARD.

Grid verdicts and threshold bisection steps all use that strict bound, so
ties count as "not detected" and a threshold T* is where the verdict stops.
Since -ln p <= S always holds, eq4 firing implies eq2 firing; a report
violating that is a hard failure. Firing certifies entanglement; silence
proves nothing, and a separable ground state (E = 0) can never fire.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np

from .ent import EntanglementEstimate, FrankWolfeConfig, ree_bounds, ree_lower_bound
from .models import ground_state
from .qops import SpectralDecomposition, _real_array
from .thermo import _boltzmann, _checked_temperatures, entropy_and_weight

#: Strictness guard for the witness inequalities.
GUARD = 1e-12

#: Upper-temperature ceiling for automatic bracket expansion.
T_CEILING = 1e6

#: Bisection width of the threshold temperatures. Each lies within half of it
#: of its crossing, so T*_eq4 may exceed T*_eq2 by less than this.
T_STAR_TOL = 1e-6


class WitnessReport(NamedTuple):
    """Per-temperature verdicts of both witness inequalities: one row of a
    SweepResult."""

    T: float
    S: float
    p: float
    neg_ln_p: float
    E_lower: float
    E_upper: float | None
    eq2_fires: bool
    eq4_fires: bool
    ground_degeneracy: int


#: The per-temperature columns of a SweepResult and their dtypes.
_COLUMNS = {"T": np.float64, "S": np.float64, "p": np.float64, "neg_ln_p": np.float64,
            "eq2_fires": np.bool_, "eq4_fires": np.bool_}


@dataclass(frozen=True, eq=False)
class SweepResult:
    """Witness verdicts of a grid as read-only columns, the bounds they were
    taken against, and the thresholds. Construction checks that the columns
    have one length, every row (-ln p <= S, eq4 => eq2) and the order of the
    thresholds."""

    T: np.ndarray
    S: np.ndarray
    p: np.ndarray
    neg_ln_p: np.ndarray
    eq2_fires: np.ndarray
    eq4_fires: np.ndarray
    E_lower: float
    E_upper: float | None
    ground_degeneracy: int
    T_star_eq2: float | None
    T_star_eq4: float | None

    def __post_init__(self) -> None:
        for name, dtype in _COLUMNS.items():
            col = np.array(getattr(self, name), dtype=dtype)
            col.setflags(write=False)
            object.__setattr__(self, name, col)
        shapes = {getattr(self, name).shape for name in _COLUMNS}
        if len(shapes) != 1:
            raise ValueError(f"columns of unequal shapes {sorted(shapes)}")
        implication = self.eq4_fires & ~self.eq2_fires
        bad = implication | (self.neg_ln_p > self.S + 1e-9)
        if bad.any():
            i = int(np.argmax(bad))
            t = float(self.T[i])
            if implication[i]:
                raise RuntimeError(
                    f"witness implication violated at T={t}: "
                    "entropy form fired without the ground-weight form"
                )
            raise RuntimeError(
                f"-ln p = {float(self.neg_ln_p[i])} exceeds S = {float(self.S[i])} at T={t}"
            )
        if (
            self.T_star_eq2 is not None
            and self.T_star_eq4 is not None
            and self.T_star_eq4 > self.T_star_eq2 + T_STAR_TOL
        ):
            raise RuntimeError(
                "entropy-form threshold exceeds ground-weight threshold: "
                f"{self.T_star_eq4} > {self.T_star_eq2}"
            )

    @cached_property
    def reports(self) -> tuple[WitnessReport, ...]:
        """One report per grid point, built on first read."""
        return tuple(
            WitnessReport(t, s, p, q, self.E_lower, self.E_upper, eq2, eq4,
                          self.ground_degeneracy)
            for t, s, p, q, eq2, eq4 in zip(*(getattr(self, name).tolist() for name in _COLUMNS))
        )


def _grid_result(
    spectral: SpectralDecomposition,
    temperatures: Sequence[float],
    e_value: EntanglementEstimate,
    bracket: tuple[float, float] | None = None,
) -> SweepResult:
    """The checked result of one pass over the whole grid, with the
    thresholds bisected from ``bracket`` when one is given (see ``sweep``)."""
    s, p, neg_ln_p = entropy_and_weight(spectral.levels, temperatures)
    e = float(e_value.lower)
    bound = e - GUARD
    fires = (neg_ln_p < bound, s < bound)
    t_stars = [None, None]
    if bracket is not None:
        known = [-math.inf, *temperatures, math.inf]
        for k, kind in enumerate(("eq2", "eq4")):
            i = int(np.append(fires[k], False).argmin())  # first grid point that is silent
            t_stars[k] = _crossing(spectral.levels, kind, bound, *bracket, T_STAR_TOL,
                                   known[i], known[i + 1])
    return SweepResult(
        T=temperatures, S=s, p=p, neg_ln_p=neg_ln_p, eq2_fires=fires[0], eq4_fires=fires[1],
        E_lower=e, E_upper=e_value.upper, ground_degeneracy=spectral.ground_degeneracy,
        T_star_eq2=t_stars[0], T_star_eq4=t_stars[1],
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
    return _grid_result(spectral, [temperature], e_value).reports[0]


def _crossing(levels: np.ndarray, kind: str, bound: float, t_lo: float, t_hi: float,
              tol: float, a: float = -math.inf, b: float = math.inf) -> float | None:
    """The bisection of ``critical_temperature``, one temperature per step,
    for where S (``kind`` "eq4") or -ln p ("eq2") of ``levels`` stops lying
    below ``bound`` = E_lower - GUARD, the bound of every grid verdict.

    The witness fires at a temperature at or below ``a`` and not at one at
    or above ``b``, with no evaluation; any other temperature is evaluated
    once by the Boltzmann kernel, whose row has the bits a grid gives it.
    """
    def fires(t: float) -> bool:
        if not a < t < b:
            return t <= a
        _, _, neg_ln_p, _, s = _boltzmann(levels, np.array([t]))
        return (s if kind == "eq4" else neg_ln_p)[0] < bound

    if not fires(t_lo):
        return None  # never fires at or above t_lo (quantity is nondecreasing)
    while fires(t_hi):
        t_hi *= 10.0
        if t_hi > T_CEILING:
            return None
    while t_hi - t_lo >= tol and math.nextafter(t_lo, t_hi) < t_hi:
        mid = 0.5 * (t_lo + t_hi)
        t_lo, t_hi = (mid, t_hi) if fires(mid) else (t_lo, mid)
    return 0.5 * (t_lo + t_hi)


def critical_temperature(
    spectral: SpectralDecomposition,
    kind: str,
    e_lower: float,
    bracket: tuple[float, float] = (1e-3, 10.0),
    tol: float = T_STAR_TOL,
) -> float | None:
    """Where the quantity stops lying below ``e_lower - GUARD``, every verdict's bound.

    ``kind`` selects the quantity: ``"eq4"`` bisects on S(T), ``"eq2"`` on
    -ln p(T); both are nondecreasing in T. Returns None when the witness does
    not fire at the bottom of the bracket (including the degenerate-ground
    case S(0) = ln g >= e_lower - GUARD), or when no crossing is found after
    expanding the top of the bracket up to 1e6. Bisection stops at width
    ``tol`` (finite and positive) or when no float lies between the ends;
    ``e_lower`` must be finite. Each step evaluates one temperature.
    """
    if kind not in ("eq2", "eq4"):
        raise ValueError(f"kind must be 'eq2' or 'eq4', got {kind!r}")
    ends = _real_array(bracket, "bracket")
    if ends.shape != (2,):
        raise ValueError(f"bracket must hold two temperatures, got {bracket}")
    t_lo, t_hi = ends.tolist()
    if not 0 < t_lo < t_hi < math.inf:
        raise ValueError(f"bracket must be finite, positive and ascending, got {bracket}")
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be finite and positive, got {tol}")
    if not math.isfinite(e_lower):
        raise ValueError(f"e_lower must be finite, got {e_lower}")
    return _crossing(spectral.levels, kind, e_lower - GUARD, t_lo, t_hi, tol)


def sweep(
    spectral: SpectralDecomposition,
    t_grid: Sequence[float],
    *,
    fw_config: FrankWolfeConfig | None = None,
) -> SweepResult:
    """Witness reports over an ascending temperature grid plus thresholds.

    The ground-state entanglement bounds are computed once and reused across
    the grid; the REE upper bound is computed only when ``fw_config`` is
    given, by ``ree_bounds``, which checks it against the lower one (on two
    sites it is exact and ``fw_config`` is unused). The thresholds are
    bisected as ``critical_temperature`` bisects from the grid ends (upper
    end auto-expanded), so they have its bits and their accuracy is
    ``T_STAR_TOL`` regardless of grid density; the grid's own values decide
    every step outside the cell that holds the crossing.
    """
    grid = _checked_temperatures(t_grid)
    if not grid.size:
        raise ValueError("temperature grid must be nonempty")
    if np.any(np.diff(grid) <= 0):
        raise ValueError("temperature grid must be strictly ascending")
    psi = ground_state(spectral)
    est = ree_lower_bound(psi) if fw_config is None else ree_bounds(psi, fw_config)[1]
    lo, hi = float(grid[0]), float(grid[-1])
    return _grid_result(spectral, grid, est, (lo, hi if grid.size > 1 else lo * 10.0))
