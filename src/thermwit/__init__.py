"""thermwit: entropy-based entanglement certification for thermal states.

Certifies entanglement of Gibbs states by comparing their entropy (or the
ground-state Boltzmann weight) against a lower bound on the ground state's
relative entropy of entanglement, and derives low-temperature entanglement
thresholds for ideal bose/fermi mode systems.

Conventions: natural logs (nats), k_B = 1, hbar = 1, temperatures in energy
units.
"""

from .qops import (
    DIM_CAP,
    DensityOperator,
    DimensionCapError,
    HermitianOperator,
    PureState,
    SpectralDecomposition,
    eig_hermitian,
    partial_trace,
    partial_transpose,
    quantum_relative_entropy,
    tensor_product,
    von_neumann_entropy,
)
from .models import (
    ModeSpectrum,
    SpinModelSpec,
    build_spin_hamiltonian,
    ground_state,
    make_spectrum,
)
from .thermo import (
    Eq3Check,
    ThermalEnsemble,
    canonical_scalars,
    check_eq3,
    rel_entropy_pure_to_thermal,
    thermal_ensemble,
)
from .ent import (
    EnergyWitnessResult,
    EntanglementEstimate,
    FrankWolfeConfig,
    PartitionCut,
    PPTCheckResult,
    ProductStateAnsatz,
    closest_product_state,
    energy_witness,
    entanglement_entropy_pure,
    ppt_check,
    ree_lower_bound,
    ree_upper_bound,
)
from .witness import (
    SweepResult,
    WitnessReport,
    critical_temperature,
    evaluate_witness,
    sweep,
)
from .gas import (
    GasState,
    MBWitnessCheck,
    ScalingFit,
    critical_temperature_estimate,
    default_fit_window,
    fit_entropy_scaling,
    fit_power_law,
    gas_state,
    geometric_frequency_scale,
    mb_witness_check,
    occupation,
    solve_mu,
)

__version__ = "0.1.0"
