"""Decision-theoretic toolkit for finite statistical experiments.

Kernel algebra over finite spaces, Bayes values and regrets, deficiency
distances solved as linear programs, reconstruction-quality certificates
for feature maps, discrete autoencoder and bottleneck-style learners, and
a seeded property-verification harness.
"""

from .bottleneck import IBState, ib_distortion, ib_learn, ib_objective
from .decisions import (
    LossMatrix,
    bayes_act,
    bayes_decision_rule,
    bayes_risk,
    conditional_entropy,
    entropy,
    feature_gap,
    information_gap,
    mutual_information,
    regret,
    value,
    zero_one_loss,
)
from .deficiency import (
    DeficiencyResult,
    SolverError,
    directed_deficiency,
    weighted_deficiency,
    weighted_directed_deficiency,
)
from .fileio import ExperimentFile, SchemaError, load_experiment, save_experiment
from .kernels import (
    Distribution,
    FiniteSpace,
    MarkovKernel,
    POINT,
    SpaceMismatchError,
    bayes_inverse,
    compose,
    deterministic,
    identity,
    point_mass,
    pushforward,
    uniform,
    uninformative,
    variational_divergence,
)
from .reconstruction import (
    AutoencoderResult,
    FeatureChain,
    HellmanRavivCheck,
    autoencode,
    generic_quality,
    hellman_raviv_check,
    optimal_decoder,
    reconstruction_error,
    stack,
)
from .verify import SUITES, SuiteReport, run_all, run_suite

__all__ = [
    "AutoencoderResult",
    "DeficiencyResult",
    "Distribution",
    "ExperimentFile",
    "FeatureChain",
    "FiniteSpace",
    "HellmanRavivCheck",
    "IBState",
    "LossMatrix",
    "MarkovKernel",
    "POINT",
    "SchemaError",
    "SolverError",
    "SpaceMismatchError",
    "SuiteReport",
    "SUITES",
    "autoencode",
    "bayes_act",
    "bayes_decision_rule",
    "bayes_inverse",
    "bayes_risk",
    "compose",
    "conditional_entropy",
    "deterministic",
    "directed_deficiency",
    "entropy",
    "feature_gap",
    "generic_quality",
    "hellman_raviv_check",
    "ib_distortion",
    "ib_learn",
    "ib_objective",
    "identity",
    "information_gap",
    "load_experiment",
    "mutual_information",
    "optimal_decoder",
    "point_mass",
    "pushforward",
    "reconstruction_error",
    "regret",
    "run_all",
    "run_suite",
    "save_experiment",
    "stack",
    "uniform",
    "uninformative",
    "value",
    "variational_divergence",
    "weighted_deficiency",
    "weighted_directed_deficiency",
    "zero_one_loss",
]
