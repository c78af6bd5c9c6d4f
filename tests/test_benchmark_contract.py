"""What the benchmark reads of finexp, checked without running it.

``perfbench/tracing.py`` wraps the names in ``SPANNED`` and reads fields of
the results, and every perfbench module calls finexp through
``finexp.<name>`` chains; a name that no longer resolves drops per-layer
metrics from a traced run or fails a workload.  ``perfbench/checks.py``
expects a fixed number of checks from each verify suite, and another count
fails the run's outputs.  These tests find either in a second instead of a
minute-long run.
"""

import ast
import importlib
import pkgutil
import sys
from pathlib import Path

import pytest

from finexp.bottleneck import ib_learn
from finexp.kernels import FiniteSpace, MarkovKernel, uniform
from finexp.reconstruction import autoencode
from finexp.verify import run_suite

from strategies import zero_one_loss

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    """``importlib.import_module`` for perfbench's modules, which are forgotten afterwards."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    before = set(sys.modules)
    yield importlib.import_module
    for name in {"tracing", "checks", "workloads"} - before:
        sys.modules.pop(name, None)


def test_spanned_names_resolve(perfbench):
    missing = [
        (module, attr)
        for module, attr, _ in perfbench("tracing").SPANNED
        if not hasattr(importlib.import_module(module), attr)
    ]
    assert not missing


def test_ib_learn_reaches_every_wrapped_ib_step(perfbench, monkeypatch):
    """A wrapped step that ``ib_learn`` no longer calls would read 0 in a traced run."""
    steps = [
        (module, attr)
        for module, attr, name in perfbench("tracing").SPANNED
        if name.startswith("bottleneck.") or name == "kernels.bayes_inverse"
    ]
    steps.remove(("finexp.bottleneck", "ib_learn"))
    # the known exception: ib_learn never calls the public ib_objective (ROADMAP item 4)
    steps.remove(("finexp.bottleneck", "ib_objective"))
    reached = set()
    for module, attr in steps:
        orig = getattr(importlib.import_module(module), attr)

        def counted(*args, _orig=orig, _attr=attr, **kwargs):
            reached.add(_attr)
            return _orig(*args, **kwargs)

        for name, mod in list(sys.modules.items()):
            if name == "finexp" or name.startswith("finexp."):
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        monkeypatch.setattr(mod, key, counted)
    theta = FiniteSpace.of_size(2, "t")
    bsc = MarkovKernel(theta, FiniteSpace.of_size(2, "x"), [[0.9, 0.1], [0.1, 0.9]])
    ib_learn(zero_one_loss(theta), uniform(theta), bsc, latent_size=2, beta=0.1)
    assert sorted(reached) == sorted(attr for _, attr in steps)
    assert len(steps) == 4


def test_verify_check_counts_match_perfbench(perfbench):
    """Every suite runs the number of checks perfbench's ``VERIFY_CHECKS`` expects of it."""
    trials = 3
    for name, (per_trial, fixed) in perfbench("checks").VERIFY_CHECKS.items():
        assert run_suite(name, trials=trials, seed=0, max_dim=4).checks == per_trial * trials + fixed, name


def _finexp_chains() -> set[str]:
    """Every ``finexp.<attr>[.<attr>...]`` expression in perfbench's modules."""
    chains = set()
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            attrs = []
            while isinstance(node, ast.Attribute):
                attrs.append(node.attr)
                node = node.value
            if attrs and isinstance(node, ast.Name) and node.id == "finexp":
                chains.add(".".join(["finexp", *reversed(attrs)]))
    return chains


def test_perfbench_finexp_chains_resolve():
    chains = _finexp_chains()
    assert "finexp.compose" in chains
    missing = []
    for chain in sorted(chains):
        try:
            pkgutil.resolve_name(chain)
        except (ImportError, AttributeError):
            missing.append(chain)
    assert not missing


def test_restarts_used_is_an_int():
    res = autoencode(uniform(FiniteSpace.of_size(4)), 2)
    assert isinstance(res.restarts_used, int)
