"""Adaptive data-pattern tomography with a Gaussian coefficient posterior."""

__version__ = "0.1.0"

from .quantum_model import (
    CoherentSignal,
    DensityMatrix,
    EvenCat,
    ProbeLattice,
    SingledPhotonFock,
    assemble_estimator,
    build_probe_lattice,
    build_test_kets,
    coherent_overlap_prob,
    constraint_coefficients,
    fidelity,
    probe_gram,
    signal_born_probability,
    signal_fock_vector,
)
from .pattern_bank import (
    PatternBank,
    SignalMeter,
    export_patterns_csv,
    load_bank,
    save_bank,
    simulate_probe_bank,
)
from .gaussian_posterior import (
    GaussianPosterior,
    bayes_update,
    beta_moments,
    init_prior,
    moments,
)
from .state_space_shearing import (
    LinearConstraintSet,
    ShearingConfig,
    ShearReport,
    ViolationStats,
    apply_shear,
    shear_until_physical,
    solve_shear_coefficients,
    standardize_constraint,
)
from .measurement_selector import (
    StoppingConfig,
    predicted_average_variance,
    predictive_outcome_dist,
    score_candidates,
    select_next,
    stopping_check,
)
from .experiment_cli import (
    EstimatorReport,
    RunConfig,
    SelectionTrace,
    export_report,
    hs_distance_to_truth,
    lsq_baseline,
    run_reconstruction,
    signal_projection,
)
