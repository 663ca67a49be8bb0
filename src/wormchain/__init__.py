"""Freely rotating chain and Kratky-Porod (wormlike) polymer simulation.

Exact sampling of the discrete freely rotating chain, a structure-preserving
SO(3) integrator for the continuum model, closed-form reference statistics,
and a reproducible Monte Carlo engine that verifies one against the other.
"""
from .analytics import (
    hard_rod_fluctuation_cov,
    kp_mean_sq_position,
    kp_tangent_correlation,
    random_coil_cov,
)
from .chain import (
    DiscreteChain,
    FrcConfig,
    frc_bond_correlation_oracle,
    frc_msd_oracle,
    sample_frc,
    write_chain_csv,
)
from .estimators import (
    ComparisonReport,
    EnsembleSummary,
    Observable,
    convergence_table,
    estimate_msd,
    estimate_tangent_correlation,
    frc_reference_suite,
    hard_rod_diagnostics,
    kp_correlation_suite,
    kp_msd_suite,
    path_rng,
    random_coil_diagnostics,
    run_ensemble,
    write_reports_csv,
)
from .kp import (
    KpConfig,
    PathSample,
    default_n_steps,
    simulate_kp,
    write_path_csv,
)
from .so3 import orthonormal_defect

__version__ = "0.1.0"
