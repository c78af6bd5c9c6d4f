"""Byte-for-byte replay of the CLI on the sample file.

``tests/golden/sample_outputs.json`` maps each command line of a fixed grid
over ``scripts/sample_experiment.json`` to its exit code and stdout.  The
test replays every entry through ``finexp.cli.main`` in this process and
compares the output exactly, so a refactor that changes any printed byte
fails here.  The bytes depend on numpy and scipy, so the file records the
versions that produced it and the replay skips under any others.

After a change that is meant to alter an output, rewrite the file with::

    PYTHONPATH=src:tests python -c "import test_golden; test_golden.regenerate()"

and say in CHANGES.md which entries changed and why.
"""

import contextlib
import io
import json
from pathlib import Path

import numpy as np
import pytest
import scipy

from finexp.cli import main

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().parent / "golden" / "sample_outputs.json"
SAMPLE = "scripts/sample_experiment.json"

KERNELS = ("bsc", "ident", "blind")
LOSSES = ("zero_one", "cost_sensitive")
PRIORS = ("uniform", "pixels")
STACK_SIZES = ("4,2", "5,3,1", "6,3", "2,4", "8", "3,3,3")


def golden_argvs() -> list[list[str]]:
    """Every command line the golden file covers, relative to the repository root."""
    argvs = []
    for kernel in KERNELS:
        for loss in LOSSES:
            for prior in PRIORS:
                argvs.append(["value", SAMPLE, "--experiment", kernel, "--prior", prior, "--loss", loss])
    for first in KERNELS:
        for second in KERNELS:
            for variant in (["--prior", "uniform"], ["--prior", "pixels"], ["--sup"]):
                argvs.append(["deficiency", SAMPLE, first, second, *variant])
    for latent in range(1, 10):
        for prior in PRIORS:
            argvs.append(["autoencode", SAMPLE, "--prior", prior, "--latent", str(latent)])
    for sizes in STACK_SIZES:
        for prior in PRIORS:
            argvs.append(["stack", SAMPLE, "--prior", prior, "--sizes", sizes])
    for kernel in KERNELS:
        for loss in LOSSES:
            for latent in ("1", "2", "3"):
                for beta in ("0", "0.1", "5"):
                    for seed in ("0", "1"):
                        argvs.append([
                            "ib", SAMPLE, "--experiment", kernel, "--prior", "uniform",
                            "--loss", loss, "--latent", latent, "--beta", beta, "--seed", seed,
                        ])
    for seed in ("0", "1", "2"):
        argvs.append(["verify", "--suite", "all", "--trials", "10", "--seed", seed])
    return argvs


def _versions() -> dict:
    return {"numpy": np.__version__, "scipy": scipy.__version__}


def _replay(argv: list[str]) -> dict:
    """Exit code and stdout of one in-process CLI call."""
    out = io.StringIO()
    resolved = [str(ROOT / arg) if arg == SAMPLE else arg for arg in argv]
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(resolved)
    return {"argv": argv, "exit": code, "stdout": out.getvalue()}


def regenerate(path: Path = GOLDEN) -> None:
    """Rewrite the golden file from the installed finexp, numpy and scipy, one entry a line."""
    entries = ",\n".join(json.dumps(_replay(argv), sort_keys=True) for argv in golden_argvs())
    versions = _versions()
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        f'{{"numpy": {json.dumps(versions["numpy"])}, "scipy": {json.dumps(versions["scipy"])}, '
        f'"entries": [\n{entries}\n]}}\n',
        encoding="utf-8",
    )


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_golden_covers_the_grid(golden):
    assert [e["argv"] for e in golden["entries"]] == golden_argvs()


def test_sample_outputs_replay_byte_for_byte(golden):
    recorded = {"numpy": golden["numpy"], "scipy": golden["scipy"]}
    if recorded != _versions():
        pytest.skip(f"golden outputs made with {recorded}, installed {_versions()}")
    changed = [e for e in golden["entries"] if _replay(e["argv"]) != e]
    assert not changed, (
        f"{len(changed)} of {len(golden['entries'])} outputs changed; first: "
        f"{' '.join(changed[0]['argv'])} -> {_replay(changed[0]['argv'])}"
    )
