"""Random hierarchical grammars end-to-end: generation, corruption, exact
denoising, correlation statistics, and hierarchical synonym learning."""

from .bp import (
    ImpossibleEvidenceError,
    bp_marginals,
    bp_posterior_sample_batch,
    denoise_expectation,
)
from .corruption import NoiseSpec, corrupt, cumulative_keep_prob, leaf_likelihoods
from .grammar import (
    Dataset,
    EnumerationCapError,
    GrammarParams,
    RuleSet,
    accuracy,
    decode_codes,
    encode_tuples,
    enumerate_all,
    generate_rules,
    parse_batch,
    resample_below,
    sample_dataset,
    sample_distinct_dataset,
    tree_distance,
)
from .kmeans import KMeansResult, kmeans_fit
from .learner import (
    ClusterModel,
    ContextStats,
    Partition,
    SweepConfig,
    SweepResult,
    build_context_stats,
    cluster_tuples,
    fit_loglog_slope,
    generate_from_learned,
    learn_grammar,
    measure_sample_complexity,
    pair_agreement_score,
    population_context_collision,
    recovery_score,
    true_tuple_classes,
)
from .onestep import OneStepModel, one_step_gd, synonym_column_cosine, tuple_next_token_pairs
from .seeding import derive_seed
from .stats import (
    CorrelationReport,
    RecursionCheck,
    TheoryPrediction,
    TokenCovarianceAccumulator,
    TokenTupleCorrelation,
    correlation_recursion_check,
    ensemble_correlation_std,
    joint_correlation,
    population_token_tuple_correlation,
    recursion_prefactor,
    theory_prediction,
    token_token_correlation,
    token_tuple_correlation,
)

__version__ = "0.1.0"
