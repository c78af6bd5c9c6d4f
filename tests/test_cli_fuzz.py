"""Malformed experiment files and flags end in exit 0, 2 or 3, never in a crash.

Every example calls ``main`` in process on a mutated copy of the sample
experiment file: keys dropped, values swapped for other JSON types or for
non-finite numbers, rows shortened, references pointed at missing names.
The flags mix valid and invalid values, but keep every run small: no
``--allow-large``, code sizes of at most 32 and ``verify`` with at most 2
trials.  ``main`` returns argparse's exit code 2 for a rejected flag, as it
does every other exit code.
"""

import contextlib
import copy
import io
import json
import math
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from finexp.cli import main

from strategies import strict_json

ROOT = Path(__file__).resolve().parents[1]
BASE = json.loads((ROOT / "scripts" / "sample_experiment.json").read_text())


def _paths(node, prefix=()):
    if prefix:
        yield prefix
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from _paths(child, prefix + (key,))


PATHS = list(_paths(BASE))

junk = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 40),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.5, 1e-300, 1e300]),
    st.text(max_size=3),
    st.lists(st.floats(-2, 2), max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(0, 2), max_size=2),
)


@st.composite
def documents(draw):
    doc = copy.deepcopy(BASE)
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(PATHS))
        parent = doc
        try:
            for key in path[:-1]:
                parent = parent[key]
            parent[path[-1]]
        except (KeyError, IndexError, TypeError):
            continue  # an earlier mutation removed or replaced this path
        if not isinstance(parent, (dict, list)):
            continue
        op = draw(st.sampled_from(["drop", "junk", "unknown"]))
        if op == "drop":
            del parent[path[-1]]
        elif op == "junk":
            parent[path[-1]] = draw(junk)
        else:
            parent[path[-1]] = "nope"
    return doc


def mostly(valid, invalid):
    """Four in five draws from ``valid``, the rest from ``invalid``."""
    return st.integers(0, 4).flatmap(lambda i: invalid if i == 0 else valid)


small_int = mostly(st.integers(-2, 32).map(str), st.sampled_from(["x", "", "1.5", "1e3"]))
small_float = mostly(
    st.floats(0, 20).map(repr),
    st.floats(allow_nan=True, allow_infinity=True).map(repr) | st.sampled_from(["-0", "5e-324", "1e-310", "abc", ""]),
)


def names(section):
    """An entry of the section, or one in five times a name that is not there."""
    return mostly(st.sampled_from(sorted(BASE[section])), st.just("nope"))


kernel, prior, loss = names("kernels"), names("distributions"), names("losses")


@st.composite
def command_lines(draw, path):
    cmd = draw(st.sampled_from(["value", "deficiency", "autoencode", "stack", "ib", "verify"]))
    if cmd == "value":
        return [cmd, path, "--experiment", draw(kernel), "--prior", draw(prior), "--loss", draw(loss)]
    if cmd == "deficiency":
        argv = [cmd, path, draw(kernel), draw(kernel)]
        argv += ["--sup"] if draw(st.booleans()) else ["--prior", draw(prior)]
        if draw(st.booleans()):
            argv.append(f"--factor-tol={draw(small_float)}")
        return argv
    if cmd in ("autoencode", "stack"):
        argv = [cmd, path, "--prior", draw(prior)]
        if cmd == "autoencode":
            argv.append(f"--latent={draw(small_int)}")
        else:
            sizes = draw(st.lists(st.integers(-1, 32).map(str) | st.just("a"), max_size=3))
            argv.append("--sizes=" + ",".join(sizes))
        if draw(st.booleans()):
            argv.append(f"--seed={draw(st.integers(-2, 3))}")
        return argv
    if cmd == "ib":
        argv = [cmd, path, "--experiment", draw(kernel), "--prior", draw(prior), "--loss", draw(loss)]
        argv.append(f"--latent={draw(small_int)}")
        if draw(st.booleans()):
            argv.append(f"--beta={draw(small_float)}")
        for flag in ("--iters", "--seed"):
            if draw(st.booleans()):
                argv.append(f"{flag}={draw(st.integers(-2, 30))}")
        return argv
    suite = draw(st.sampled_from(["all", "ib", "triangle", "randomization", "nope"]))
    return [
        cmd,
        "--suite", suite,
        f"--trials={draw(mostly(st.integers(1, 2), st.integers(-1, 0)))}",
        f"--seed={draw(mostly(st.integers(0, 3), st.just(-1)))}",
        f"--max-dim={draw(mostly(st.integers(2, 4), st.integers(-1, 1)))}",
    ]


def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def check_run(argv):
    code, out, err = run_main(argv)
    assert code in (0, 2, 3), (argv, code, err)
    assert "Traceback" not in err, (argv, err)
    if code == 0:
        strict_json(out)
    else:
        assert out == "", (argv, out)


@settings(max_examples=100, deadline=None)
@given(documents(), st.data())
def test_mutated_documents(doc, data):
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "exp.json")
        Path(path).write_text(json.dumps(doc))
        check_run(data.draw(command_lines(path)))


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_flags_on_the_sample_file(data):
    check_run(data.draw(command_lines(str(ROOT / "scripts" / "sample_experiment.json"))))
