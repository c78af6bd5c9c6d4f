"""JSON experiment files: named spaces, kernels, distributions and losses.

Matrices are stored row-major with rows indexed by outputs, matching the
column-stochastic convention in memory, so a kernel's JSON ``matrix[i][j]``
is the probability of output i given input j.  Loading validates every
stochasticity invariant and resolves every cross reference; failures raise
``SchemaError`` naming the offending entry.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from .decisions import LossMatrix
from .kernels import Distribution, FiniteSpace, MarkovKernel

#: Per-space size cap for file inputs; keeps LP solves at desk scale.
DEFAULT_MAX_DIM = 32


class SchemaError(ValueError):
    """The experiment file is structurally or numerically malformed."""


@dataclass
class ExperimentFile:
    spaces: dict[str, FiniteSpace] = field(default_factory=dict)
    distributions: dict[str, Distribution] = field(default_factory=dict)
    kernels: dict[str, MarkovKernel] = field(default_factory=dict)
    losses: dict[str, LossMatrix] = field(default_factory=dict)

    def kernel(self, name: str) -> MarkovKernel:
        return _lookup(self.kernels, name, "kernel")

    def distribution(self, name: str) -> Distribution:
        return _lookup(self.distributions, name, "distribution")

    def loss(self, name: str) -> LossMatrix:
        return _lookup(self.losses, name, "loss")


def _lookup(table, name, what):
    try:
        return table[name]
    except KeyError:
        raise SchemaError(f"unknown {what} {name!r}; available: {sorted(table)}") from None


def _space_ref(spaces: dict[str, FiniteSpace], name, context: str) -> FiniteSpace:
    if not isinstance(name, str) or name not in spaces:
        raise SchemaError(f"{context}: unknown space {name!r}; available: {sorted(spaces)}")
    return spaces[name]


def _section(doc: dict, key: str) -> dict:
    table = doc.get(key, {})
    if not isinstance(table, dict):
        raise SchemaError(f"{key!r} must be a JSON object")
    return table


def _entries(doc: dict, key: str, what: str):
    """(name, body) pairs of a section whose entries are JSON objects."""
    for name, body in _section(doc, key).items():
        if not isinstance(body, dict):
            raise SchemaError(f"{what} {name!r} must be a JSON object, got {type(body).__name__}")
        yield name, body


#: The sections after "spaces", in load order: (section, entry noun,
#: constructor, fields naming its spaces, field holding its array).
_SECTIONS = (
    ("distributions", "distribution", Distribution, ("space",), "mass"),
    ("kernels", "kernel", MarkovKernel, ("from", "to"), "matrix"),
    ("losses", "loss", LossMatrix, ("theta", "actions"), "values"),
)


def experiment_from_dict(doc: dict, max_dim: float = DEFAULT_MAX_DIM) -> ExperimentFile:
    if not isinstance(doc, dict):
        raise SchemaError("top level must be a JSON object")
    out = ExperimentFile()
    for name, labels in _section(doc, "spaces").items():
        if not isinstance(labels, list) or not all(isinstance(lab, str) for lab in labels):
            raise SchemaError(f"space {name!r} must be a JSON array of strings")
        try:
            space = FiniteSpace(tuple(labels))
        except ValueError as err:
            raise SchemaError(f"space {name!r}: {err}") from None
        if space.size > max_dim:
            raise SchemaError(
                f"space {name!r} has {space.size} labels, above the cap of {max_dim}"
            )
        out.spaces[name] = space
    for key, what, build, space_fields, data_field in _SECTIONS:
        table = getattr(out, key)
        for name, body in _entries(doc, key, what):
            try:
                spaces = [_space_ref(out.spaces, body.get(f), f"{what} {name!r}") for f in space_fields]
                table[name] = build(*spaces, body[data_field])
            except SchemaError:
                raise
            except (TypeError, ValueError, KeyError) as err:
                raise SchemaError(f"{what} {name!r}: {err}") from None
    return out


def load_experiment(path: str | Path, max_dim: float = DEFAULT_MAX_DIM) -> ExperimentFile:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as err:
        raise SchemaError(f"cannot read experiment file {path}: {err}") from None
    except RecursionError:
        raise SchemaError(f"cannot read experiment file {path}: JSON nested too deeply") from None
    return experiment_from_dict(doc, max_dim=max_dim)
