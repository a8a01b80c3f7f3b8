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
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Sequence

import numpy as np

from .ent import EntanglementEstimate, FrankWolfeConfig, ree_bounds, ree_lower_bound
from .models import ground_state
from .qops import SpectralDecomposition
from .thermo import entropy_and_weight

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
    t_stars: tuple[float | None, float | None] = (None, None),
) -> SweepResult:
    """The checked result of one pass over the whole grid."""
    s, p, neg_ln_p = entropy_and_weight(spectral.levels, temperatures)
    threshold = e_value.lower - GUARD
    return SweepResult(
        T=temperatures, S=s, p=p, neg_ln_p=neg_ln_p,
        eq2_fires=neg_ln_p < threshold, eq4_fires=s < threshold,
        E_lower=float(e_value.lower), E_upper=e_value.upper,
        ground_degeneracy=spectral.ground_degeneracy,
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


#: Depth of the midpoint heap one bisection round evaluates: 2**5 - 1 = 31
#: temperatures in one pass, for up to 5 bisection steps.
_HEAP_DEPTH = 5


def _midpoint_heap(t_lo: float, t_hi: float) -> list[float]:
    """Midpoints of every bracket the bisection can reach from (t_lo, t_hi)
    in _HEAP_DEPTH steps, as a heap: node i of bracket (a, b) has midpoint
    m = 0.5 * (a + b), and its children are nodes 2i+1 of (a, m) and 2i+2
    of (m, b). Each midpoint is the float the bisection computes there."""
    mids: list[float] = []
    brackets = [(t_lo, t_hi)]
    for _ in range(_HEAP_DEPTH):
        children = []
        for a, b in brackets:
            m = 0.5 * (a + b)
            mids.append(m)
            children += [(a, m), (m, b)]
        brackets = children
    return mids


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
    ``tol`` (finite and positive) or when no float lies between the ends;
    ``e_lower`` must be finite.

    Each round evaluates the midpoint heap of the current bracket in one
    pass and walks it; since a row of ``entropy_and_weight`` has the bits of
    that one temperature, every step compares as a per-point bisection does.
    """
    if kind not in ("eq2", "eq4"):
        raise ValueError(f"kind must be 'eq2' or 'eq4', got {kind!r}")
    t_lo, t_hi = float(bracket[0]), float(bracket[1])
    if not (0 < t_lo < t_hi):
        raise ValueError(f"invalid bracket {bracket}")
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be finite and positive, got {tol}")
    if not math.isfinite(e_lower):
        raise ValueError(f"e_lower must be finite, got {e_lower}")
    if e_lower <= 0:
        return None

    def quantities(temperatures: list[float]) -> list[float]:
        s, _, neg_ln_p = entropy_and_weight(spectral.levels, temperatures)
        return (s if kind == "eq4" else neg_ln_p).tolist()

    if quantities([t_lo])[0] >= e_lower:
        return None  # never fires at or above t_lo (quantity is nondecreasing)
    while quantities([t_hi])[0] < e_lower:
        t_hi *= 10.0
        if t_hi > T_CEILING:
            return None
    mids: list[float] = []
    fires: list[bool] = []
    i = 0
    while t_hi - t_lo >= tol and math.nextafter(t_lo, t_hi) < t_hi:
        if i >= len(mids):  # walked off the heap: evaluate the next one
            mids = _midpoint_heap(t_lo, t_hi)
            fires = [q < e_lower for q in quantities(mids)]
            i = 0
        if fires[i]:
            t_lo, i = mids[i], 2 * i + 2
        else:
            t_hi, i = mids[i], 2 * i + 1
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
    given, by ``ree_bounds``, which checks it against the lower one (on two
    sites it is exact and ``fw_config`` is unused). The
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
    est = ree_lower_bound(psi) if fw_config is None else ree_bounds(psi, fw_config)[1]
    bracket = (grid[0], grid[-1] if len(grid) > 1 else grid[0] * 10.0)
    t_stars = tuple(critical_temperature(spectral, kind, est.lower, bracket)
                    for kind in ("eq2", "eq4"))
    return _grid_result(spectral, grid, est, t_stars)
