"""Differentially private vote aggregation.

Teacher ensembles answer label queries through randomized argmax mechanisms;
boosting the winning bin by a large constant makes the argmax immutable under
noise, so large perturbations cost almost nothing in label quality.  The
package provides the vote/boost core, sensitivity analysis with exhaustive
oracles, seeded noise, the aggregation mechanisms, a moments-accountant
ledger, ensemble simulation/ingestion, and an experiment pipeline with a CLI.
"""

from .accountant import (
    DEFAULT_ORDERS,
    NOISE_KIND,
    LedgerEntry,
    MomentCurve,
    PrivacyFigure,
    PrivacyLedger,
    advanced_composition,
    classical_gaussian_epsilon,
    delta_for_eps,
    eps_for_delta,
    per_query_moment,
    simple_composition,
)
from .ensemble import (
    DEFAULT_TEACHER_ACCURACY,
    AccuracySummary,
    PredictionTable,
    SyntheticTeacherSpec,
    default_accuracy,
    ensemble_accuracy,
    load_ground_truth,
    load_predictions,
    qualified_fraction,
    synth_votes,
)
from .mechanisms import (
    DpRatioResult,
    MechanismBatch,
    MechanismOutcome,
    dp_ratio_check,
    flip_probability_mc,
    lnmax,
    noisy_argmax,
    nzc_gaussian,
    nzc_laplace,
)
from .noise import (
    MonteCarloEstimate,
    NoiseSpec,
    RngStream,
    ensure_generator,
    exceedance_probability_mc,
    required_constant_gaussian,
    required_constant_laplace,
    union_flip_bound,
)
from .pipeline import (
    BLOCK,
    DEFAULT_DISTANCE_GRID,
    MECHANISMS,
    ExperimentConfig,
    ExperimentReport,
    QueryResult,
    config_from_dict,
    emit_report,
    read_report,
    run_experiment,
)
from .sensitivity import (
    SensitivityEstimate,
    brute_force_local,
    brute_force_smooth,
    enumerate_neighbors,
    flip_moves,
    local_sensitivity,
    smooth_sensitivity,
    smooth_values,
)
from .votes import (
    VoteHistogram,
    argmax,
    boost,
    count_matrix,
    gap,
    is_distance_n,
)

__version__ = "0.1.0"
