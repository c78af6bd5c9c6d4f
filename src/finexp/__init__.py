"""Decision-theoretic toolkit for finite statistical experiments.

Kernel algebra over finite spaces, Bayes values and regrets, deficiency
distances solved as linear programs, reconstruction-quality certificates
for feature maps, discrete autoencoder and bottleneck-style learners, and
a seeded property-verification harness.
"""

from .bottleneck import IBState, ib_distortion, ib_learn, ib_objective
from .decisions import (
    LossMatrix,
    bayes_decision_rule,
    conditional_entropy,
    feature_gap,
    mutual_information,
    regret,
    value,
)
from .deficiency import (
    DeficiencyResult,
    SolverError,
    directed_deficiency,
    weighted_directed_deficiency,
)
from .fileio import ExperimentFile, SchemaError, load_experiment
from .kernels import (
    Distribution,
    FiniteSpace,
    MarkovKernel,
    SpaceMismatchError,
    bayes_inverse,
    compose,
    pushforward,
    uniform,
)
from .reconstruction import (
    AutoencoderResult,
    FeatureChain,
    autoencode,
    generic_quality,
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
    "IBState",
    "LossMatrix",
    "MarkovKernel",
    "SchemaError",
    "SolverError",
    "SpaceMismatchError",
    "SuiteReport",
    "SUITES",
    "autoencode",
    "bayes_decision_rule",
    "bayes_inverse",
    "compose",
    "conditional_entropy",
    "directed_deficiency",
    "feature_gap",
    "generic_quality",
    "ib_distortion",
    "ib_learn",
    "ib_objective",
    "load_experiment",
    "mutual_information",
    "pushforward",
    "regret",
    "run_all",
    "run_suite",
    "stack",
    "uniform",
    "value",
    "weighted_directed_deficiency",
]
