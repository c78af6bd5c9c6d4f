"""Shared hypothesis strategies for small spaces, distributions and kernels, and test helpers."""

import ast
import json
from pathlib import Path

import numpy as np
from hypothesis import strategies as st

from finexp.decisions import LossMatrix, value
from finexp.deficiency import weighted_directed_deficiency
from finexp.kernels import Distribution, FiniteSpace, MarkovKernel

sizes = st.integers(min_value=1, max_value=5)
sizes2 = st.integers(min_value=2, max_value=5)

# entries bounded away from zero keep normalization well conditioned
_weight = st.floats(min_value=0.01, max_value=1.0)


def spaces(prefix="x", min_size=1, max_size=5):
    return st.integers(min_size, max_size).map(lambda n: FiniteSpace.of_size(n, prefix))


@st.composite
def distributions(draw, space=None, prefix="x"):
    if space is None:
        space = draw(spaces(prefix))
    w = np.array(draw(st.lists(_weight, min_size=space.size, max_size=space.size)))
    return Distribution(space, w / w.sum())


@st.composite
def kernels(draw, source=None, target=None, source_prefix="x", target_prefix="y"):
    if source is None:
        source = draw(spaces(source_prefix))
    if target is None:
        target = draw(spaces(target_prefix))
    w = np.array(
        draw(
            st.lists(
                st.lists(_weight, min_size=target.size, max_size=target.size),
                min_size=source.size,
                max_size=source.size,
            )
        )
    ).T
    return MarkovKernel(source, target, w / w.sum(axis=0))


@st.composite
def losses(draw, theta=None, actions=None):
    if theta is None:
        theta = draw(spaces("t"))
    if actions is None:
        actions = draw(spaces("a", min_size=2))
    entry = st.floats(min_value=-1.0, max_value=1.0)
    v = np.array(
        draw(
            st.lists(
                st.lists(entry, min_size=actions.size, max_size=actions.size),
                min_size=theta.size,
                max_size=theta.size,
            )
        )
    )
    return LossMatrix(theta, actions, v)


@st.composite
def kernel_chains(draw, length=2):
    """Conformable chain k1: S0 -> S1, k2: S1 -> S2, ..."""
    chain_spaces = [draw(spaces(f"s{i}_")) for i in range(length + 1)]
    return tuple(
        draw(kernels(source=chain_spaces[i], target=chain_spaces[i + 1]))
        for i in range(length)
    )


@st.composite
def experiments(draw, max_size=5):
    """(prior, experiment) sharing a hypothesis space."""
    theta = draw(spaces("t", min_size=2, max_size=max_size))
    prior = draw(distributions(space=theta))
    data = draw(spaces("x", min_size=2, max_size=max_size))
    return prior, draw(kernels(source=theta, target=data))


def zero_one_loss(space):
    """Misclassification loss with actions identified with hypotheses."""
    return LossMatrix(space, space, 1.0 - np.eye(space.size))


def bsc(p):
    """The binary symmetric channel that flips its input with probability p."""
    theta = FiniteSpace.of_size(2, "t")
    return MarkovKernel(theta, FiniteSpace.of_size(2, "x"), [[1 - p, p], [p, 1 - p]])


def identity_kernel(space):
    """The experiment that reveals its input."""
    return MarkovKernel(space, space, np.eye(space.size))


def blind_kernel(space):
    """The experiment that reveals nothing: one output for every input."""
    return MarkovKernel(space, FiniteSpace(("*",)), np.ones((1, space.size)))


def bayes_risk(loss, prior, rule):
    """Expected loss of a rule from hypotheses straight to actions, summed over both."""
    return float(prior.mass @ (rule.matrix.T * loss.values).sum(axis=1))


def information_gap(loss, prior, experiment):
    """Value gained by the experiment over deciding from the prior alone."""
    return float((prior.mass @ loss.values).min()) - value(loss, prior, experiment)


def symmetric_deficiency(first, second, prior):
    """The weighted deficiency in both directions, one solve each, and the larger of the two."""
    return max(
        weighted_directed_deficiency(first, second, prior).delta,
        weighted_directed_deficiency(second, first, prior).delta,
    )


def entropy(dist):
    """Shannon entropy in bits, with 0 log 0 = 0."""
    p = dist.mass[dist.mass > 0]
    return float(-(p * np.log2(p)).sum())


def strict_json(text):
    """Parse JSON text, rejecting the NaN and Infinity tokens that strict JSON lacks."""

    def reject(token):
        raise ValueError(f"non-strict JSON constant {token}")

    return json.loads(text, parse_constant=reject)


def code_sites(package, matches):
    """``module.function`` of every node of the package's source, at any depth, that ``matches`` accepts."""
    sites = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{where}.{child.name}")
                continue
            if matches(child):
                sites.append(where)
            visit(child, where)

    for path in sorted(Path(package).rglob("*.py")):
        visit(ast.parse(path.read_text()), ".".join(path.relative_to(package).with_suffix("").parts))
    return sites
