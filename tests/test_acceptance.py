"""Acceptance gate: every advertised guarantee at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  All randomness is seeded, so results are reproducible; the
whole module targets well under a minute on a laptop.
"""

import itertools

from finexp.kernels import FiniteSpace, uniform
from finexp.reconstruction import stack
from finexp.verify import SuiteReport, run_suite

SEED = 0


def report(criterion: str, rep: SuiteReport) -> None:
    status = "PASS" if rep.passed else "FAIL"
    print(
        f"criterion {criterion}: {status} "
        f"({rep.trials} trials, {rep.failures} failures, worst slack {rep.worst_slack:+.3e} on {rep.worst_check})"
    )
    assert rep.passed, f"criterion {criterion} failed: {rep.failures} checks, worst {rep.worst_check}"


def test_01_randomization_bound():
    report("1 randomization-bound", run_suite("randomization", trials=200, seed=SEED, max_dim=6))


def test_02_value_gap_bound_and_tightness():
    report("2a value-gap-upper-bound", run_suite("value_gap_bound", trials=100, seed=SEED, max_dim=6))
    report("2b binary-cost-sweep-tightness", run_suite("binary_cost_sweep", trials=100, seed=SEED, max_dim=4))


def test_03_encoding_moves_experiments_boundedly():
    report("3 encoded-experiment-bound", run_suite("encoder_shift_bound", trials=100, seed=SEED, max_dim=6))


def test_04_quality_certificate():
    report("4 quality-certificate", run_suite("quality_certificate", trials=100, seed=SEED, max_dim=6))


def test_05_stacking_bound():
    report("5a stacking-sum-bound", run_suite("stacking", trials=100, seed=SEED, max_dim=8))
    # exact chain on the uniform 4-point prior with code sizes [2, 1]:
    chain = stack(uniform(FiniteSpace.of_size(4)), [2, 1])
    # exhaustive optimum for the first layer: best 2-code autoencoder keeps
    # two of four equal atoms
    best = 0.0
    for f in itertools.product(range(2), repeat=4):
        for g in itertools.product(range(4), repeat=2):
            best = max(best, sum(0.25 for x in range(4) if g[f[x]] == x))
    assert chain.layer_quality[0] == 2 * (1 - best) == 1.0
    # the composed code keeps min(sizes) = 1 of the four atoms
    assert chain.total_quality == 1.5
    assert chain.total_quality <= sum(chain.layer_quality) + 1e-6
    print("criterion 5b uniform4-[2,1]-exact: PASS (layer one quality 1.0 against enumeration, total 1.5)")


def test_06_metric_property():
    report("6 deficiency-metric", run_suite("triangle", trials=200, seed=SEED, max_dim=5))


def test_07_gap_regret_identity():
    report("7 gap-regret-identity", run_suite("gap_regret_identity", trials=100, seed=SEED, max_dim=6))


def test_08_alternating_minimization():
    report("8 bottleneck-monotone", run_suite("ib", trials=100, seed=SEED, max_dim=6))


def test_09_entropy_bound():
    report("9 entropy-upper-bound", run_suite("hellman_raviv", trials=1000, seed=SEED, max_dim=8))


def test_10_oracle_equivalences():
    report("10a value-vs-brute-force", run_suite("oracle_value", trials=200, seed=SEED, max_dim=4))
    report("10b quality-vs-lp", run_suite("oracle_generic", trials=100, seed=SEED, max_dim=8))
    report("10c autoencoder-vs-exhaustive", run_suite("oracle_autoencode", trials=100, seed=SEED, max_dim=5))
