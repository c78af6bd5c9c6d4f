"""What the traced benchmark run reads of finexp, checked without running it.

``perfbench/tracing.py`` wraps the names in ``SPANNED`` and reads fields of
the results; a name that no longer resolves drops per-layer metrics from a
traced run.  This test finds that in a second instead of a minute-long run.
"""

import importlib
import sys
from pathlib import Path

import pytest

from finexp.kernels import FiniteSpace, uniform
from finexp.reconstruction import autoencode

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    before = set(sys.modules)
    yield importlib.import_module("tracing")
    for name in {"tracing", "checks", "workloads"} - before:
        sys.modules.pop(name, None)


def test_spanned_names_resolve(tracing):
    missing = [
        (module, attr)
        for module, attr, _ in tracing.SPANNED
        if not hasattr(importlib.import_module(module), attr)
    ]
    assert not missing


def test_restarts_used_is_an_int():
    res = autoencode(uniform(FiniteSpace.of_size(4)), 2)
    assert isinstance(res.restarts_used, int)
