"""Learning under instance-targeted data poisoning over finite domains.

Library plus CLI for simulating robust learners (exponential-mechanism
selection, coupled-threshold prediction, split-and-subsample VC learning)
against sample-targeted and oblivious grid-poisoning adversaries, with exact
desk-scale evaluators and a deterministic Monte Carlo harness.
"""

from .adversaries import (
    Adversary,
    AttackBudget,
    BruteForceAdversary,
    GreedyFlipAdversary,
    HardBiasDistribution,
    IdentityAdversary,
    PoisoningScheme1D,
    PoisoningSchemeD,
    brute_force_attack,
    build_scheme_1d,
    greedy_flip_attack,
    identity_scheme,
)
from .analysis import (
    FTable,
    cover_radius,
    estimate_F,
    sauer_bound,
    uniform_cover_bound,
    vc_dimension,
)
from .core import (
    MINUS,
    PLUS,
    BiasVector,
    BudgetViolationError,
    DimensionMismatchError,
    DomainMismatchError,
    EnumerationTooLargeError,
    Example,
    HypothesisClass,
    PreconditionError,
    ProductBiasDistribution,
    RandomSource,
    Sample,
    ball_enumerate,
    bayes_loss,
    corruption_limit,
    draw_sample,
    exact_fraction,
    full_alphabet,
    hamming_distance,
    population_loss,
    restrict_dedupe,
    stable_stream_id,
)
from .exact import (
    EquivalenceReport,
    equivalence_check,
    exact_F,
    exhaustive_adversarial_loss,
    exhaustive_clean_loss,
    exhaustive_public_loss,
)
from .experiments import (
    ADVERSARY_IDS,
    LEARNER_IDS,
    ExcessEstimate,
    LowerBoundReport,
    SweepCell,
    SweepGrid,
    UpperBoundReport,
    curve_threshold,
    learning_curve_experiment,
    lower_bound_exact,
    lower_bound_experiment,
    lower_bound_threshold,
    make_adversary,
    make_learner,
    mc_adversarial_loss,
    run_cell,
    run_sweep,
    upper_bound_experiment,
    vc_excess_bound,
)
from .learners import (
    BayesLearner,
    ConstantLearner,
    CountLawLearner,
    ExpMechanismConfig,
    ExpMechanismLearner,
    Learner,
    MajorityVoteLearner,
    VcLearnerConfig,
    VcSubsampleLearner,
    exp_mechanism_dist,
    exp_mechanism_log_dist,
    flip_bound,
    flip_probability,
)

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")] + ["run_checks"]


def __getattr__(name: str):
    """`run_checks` loads `poisonlab.verify` on first access; only
    `poisonlab verify` and callers of `run_checks` pay for it."""
    if name == "run_checks":
        from .verify import run_checks

        return run_checks
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
