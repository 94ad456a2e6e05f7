"""hypokit: Langevin sampling, ergodic-average error bars, and spectral
hypocoercivity checks for one-dimensional periodic systems."""

from .errors import (
    DefectiveCaseError,
    DegenerateWitnessError,
    HypokitError,
    IllConditionedBasisError,
    InsufficientDataError,
    InvalidArgumentError,
    NumericalFailureError,
    UnsupportedDomainError,
)
from .estimators import VarianceReport, asymptotic_variance_acf, batch_means_variance, ergodic_average
from .hypo import (
    DissipationResult,
    OdeEigs,
    OdeToy,
    OptimalP,
    PerturbativeP,
    ScalingTable,
    ScanResult,
    SchurBound,
    SchurCheck,
    WitnessPair,
    modified_norm_dissipation,
    fit_envelope_rate,
    gamma_scan,
    ode_eigs,
    ode_optimal_P,
    ode_perturbative_P,
    ode_trajectory,
    resolvent_lower_bound,
    resolvent_norm,
    schur_bound,
    tune_modified_norm_epsilon,
    verify_schur_bound,
)
from .model import (
    ConditionConstants,
    EnsembleParams,
    FullSpace,
    PhaseState,
    PotentialSpec,
    Torus,
    builtin_potential,
    check_condition_constants,
    eval_hamiltonian,
    torus_grid,
)
from .sde import RngStream, TrajectoryRecord, simulate, step_hamiltonian, step_langevin, step_overdamped
from .spectral import (
    BasisSet,
    DecayCheckResult,
    GapResult,
    GeneratorAssembly,
    OverdampedOperator,
    PoissonResult,
    RefinedGap,
    assemble_generator,
    assemble_overdamped,
    build_basis,
    contour_gap,
    poincare_constant,
    project_phase_function,
    project_position_function,
    semigroup_decay_check,
    solve_poisson,
    solve_poisson_overdamped,
    spectral_gap,
)

__version__ = "0.1.0"
