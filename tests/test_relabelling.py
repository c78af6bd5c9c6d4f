"""Relabelling audit: every public function ties together the spaces it combines.

Each space of each argument is replaced in turn by a copy of the same size
with new labels, the one change a shape check cannot catch.  The call must
raise ``SpaceMismatchError`` unless the test declares that space free for
the function: an output space that no other argument shares.
"""

import inspect
from dataclasses import replace

import numpy as np
import pytest

import finexp
from finexp import (
    Distribution,
    FiniteSpace,
    IBState,
    LossMatrix,
    MarkovKernel,
    SpaceMismatchError,
    ib_learn,
)
from finexp.verify import random_distribution, random_kernel, random_loss

#: the fields of a value object that hold its spaces
SPACE_FIELDS = {Distribution: ("space",), MarkovKernel: ("source", "target"), LossMatrix: ("theta", "actions")}


def _relabel(space):
    return FiniteSpace(tuple(f"{label}'" for label in space.labels))


def _relabellings(arg):
    """(space name, copy of ``arg`` with that space relabelled) for each space ``arg`` is built on."""
    if isinstance(arg, FiniteSpace):
        yield "space", _relabel(arg)
    elif isinstance(arg, IBState):
        enc, cen = arg.encoder, arg.centroid_posteriors
        # the latent space is one space of the state, shared by three of its fields
        z = _relabel(enc.target)
        yield "encoder.source", replace(arg, encoder=replace(enc, source=_relabel(enc.source)))
        yield "latent", replace(arg, encoder=replace(enc, target=z), centroid_posteriors=replace(cen, source=z),
                                latent_prior=replace(arg.latent_prior, space=z))
        yield "centroid_posteriors.target", replace(arg, centroid_posteriors=replace(cen, target=_relabel(cen.target)))
    elif type(arg) in SPACE_FIELDS:
        for field in SPACE_FIELDS[type(arg)]:
            yield field, replace(arg, **{field: _relabel(getattr(arg, field))})


def _objects():
    """Named arguments over spaces t, x, z and a of sizes 3, 4, 2 and 3, with an IB state learned on them."""
    rng = np.random.default_rng(7)
    theta, x, z, a = (FiniteSpace.of_size(n, prefix) for n, prefix in ((3, "t"), (4, "x"), (2, "z"), (3, "a")))
    prior, experiment, loss = random_distribution(rng, theta), random_kernel(rng, theta, x), random_loss(rng, theta, a)
    return {"theta": theta, "prior": prior, "experiment": experiment, "encoder": random_kernel(rng, x, z),
            "loss": loss, "state": ib_learn(loss, prior, experiment, latent_size=2)}


#: function -> (its arguments, by name in ``_objects()`` or as literals; the (argument index, space) pairs free for it)
CALLS = {
    "autoencode": (("prior", 2), {(0, "space")}),
    "bayes_decision_rule": (("loss", "prior", "experiment"), {(0, "actions"), (2, "target")}),
    "bayes_inverse": (("experiment", "prior"), {(0, "target")}),
    "compose": (("encoder", "experiment"), {(0, "target"), (1, "source")}),
    "conditional_entropy": (("prior", "experiment"), {(1, "target")}),
    "directed_deficiency": (("experiment", "experiment"), {(0, "target"), (1, "target")}),
    "feature_gap": (("loss", "prior", "experiment", "encoder"), {(0, "actions"), (3, "target")}),
    "generic_quality": (("experiment", "prior"), {(0, "target")}),
    "ib_distortion": (("state", "loss", "prior", "experiment"), {(0, "latent"), (1, "actions")}),
    "ib_learn": (("loss", "prior", "experiment", 2), {(0, "actions"), (2, "target")}),
    "ib_objective": (("state", "loss", "prior", "experiment"), {(0, "latent"), (1, "actions")}),
    "mutual_information": (("prior", "experiment"), {(1, "target")}),
    "pushforward": (("experiment", "prior"), {(0, "target")}),
    "regret": (("loss", "prior", "prior"), {(0, "actions")}),
    "stack": (("prior", (2,)), {(0, "space")}),
    "uniform": (("theta",), {(0, "space")}),
    "value": (("loss", "prior", "experiment"), {(0, "actions"), (2, "target")}),
    "weighted_directed_deficiency": (("experiment", "experiment", "prior"), {(0, "target"), (1, "target")}),
}
#: public functions whose arguments hold no space
SPACELESS = {"load_experiment", "run_all", "run_suite"}


def test_every_public_function_is_audited():
    functions = {name for name in finexp.__all__ if inspect.isfunction(getattr(finexp, name))}
    assert functions == set(CALLS) | SPACELESS
    assert not set(CALLS) & SPACELESS


@pytest.mark.parametrize("name", sorted(CALLS))
def test_relabelling_a_tied_space_raises(name):
    spec, free = CALLS[name]
    objects = _objects()
    function, args = getattr(finexp, name), [objects[arg] if isinstance(arg, str) else arg for arg in spec]
    function(*args)
    silent = set()
    for i, arg in enumerate(args):
        for space, copy in _relabellings(arg):
            try:
                function(*args[:i], copy, *args[i + 1:])
            except SpaceMismatchError:
                continue
            silent.add((i, space))
    assert silent == free
