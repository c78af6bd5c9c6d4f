"""Replay of the CLI on the sample file: bytes per machine, values to 1e-12 across machines.

``tests/golden/sample_outputs.json`` maps each command line of a fixed grid
over ``scripts/sample_experiment.json`` to its exit code and stdout.  Its
header records what fixed those bytes: the numpy and scipy versions,
numpy's runtime SIMD targets and the core that numpy's OpenBLAS picked.
The test replays every entry through ``finexp.cli.main`` in this process.

- Same versions and machine: the output must match byte for byte, so a
  refactor that changes any printed byte fails here.
- Same versions, other SIMD targets or OpenBLAS core: numpy's vectorized
  log and exp and OpenBLAS's kernels may move last bits.  Exit codes, keys
  and strings must match exactly, except verify's ``worst_check``, which
  may name another check that ties at the last bit; every number must
  agree to 1e-12.  On x86-64 a child process that takes an AVX2 CPU's
  kernels checks this rule on every run.
- Other numpy or scipy versions: the replay skips.

After a change that is meant to alter an output, rewrite the file with::

    PYTHONPATH=src:tests python -c "import test_golden; test_golden.regenerate()"

and say in CHANGES.md which entries changed and why.
"""

import contextlib
import ctypes
import io
import json
import math
import operator
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

from finexp.cli import main

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN = HERE / "golden" / "sample_outputs.json"
SAMPLE = "scripts/sample_experiment.json"

KERNELS = ("bsc", "ident", "blind")
LOSSES = ("zero_one", "cost_sensitive")
PRIORS = ("uniform", "pixels")
STACK_SIZES = ("4,2", "5,3,1", "6,3", "2,4", "8", "3,3,3")

VALUE_TOL = 1e-12
#: verify names its worst check, and across machines another may tie it at the last bit
TIE_BROKEN = "worst_check"
#: the kernel choices of an AVX2 CPU without AVX-512, for this process's children only
AVX2_KERNELS = {"OPENBLAS_CORETYPE": "Haswell", "NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"}


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


def _openblas_core() -> str | None:
    """The core that the OpenBLAS in numpy's wheel picked at load time; None without that library."""
    for lib in sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas64_*")):
        try:
            corename = ctypes.CDLL(str(lib)).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        corename.argtypes, corename.restype = [], ctypes.c_char_p
        return corename().decode()
    return None


def _machine() -> dict:
    """What fixes the printed bits besides the versions: numpy's SIMD targets and the OpenBLAS core."""
    return {
        "simd": np.show_config(mode="dicts")["SIMD Extensions"]["found"],
        "openblas_core": _openblas_core(),
    }


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
    header = "".join(f"{json.dumps(key)}: {json.dumps(val)}, " for key, val in {**_versions(), **_machine()}.items())
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(f'{{{header}"entries": [\n{entries}\n]}}\n', encoding="utf-8")


def _close(got, want) -> bool:
    """Equal JSON, except that floats agree to VALUE_TOL and the tie-broken name is not compared."""
    if isinstance(want, dict):
        return isinstance(got, dict) and got.keys() == want.keys() and all(
            key == TIE_BROKEN or _close(got[key], want[key]) for key in want
        )
    if isinstance(want, list):
        return isinstance(got, list) and len(got) == len(want) and all(map(_close, got, want))
    if type(got) is not type(want):
        return False
    if isinstance(want, float):
        return math.isclose(got, want, rel_tol=0.0, abs_tol=VALUE_TOL)
    return got == want


def _values_agree(got: dict, want: dict) -> bool:
    """The cross-machine rule: the same exit code, and stdout's JSON lines ``_close``."""
    lines = [[json.loads(line) for line in e["stdout"].splitlines()] for e in (got, want)]
    return got["exit"] == want["exit"] and _close(*lines)


def replay(golden: dict) -> dict:
    """Replay every entry under the rule for this machine; report the machine and what broke the rule."""
    machine = _machine()
    same_machine = machine == {key: golden.get(key) for key in machine}
    agree = operator.eq if same_machine else _values_agree
    changed = [e["argv"] for e in golden["entries"] if not agree(_replay(e["argv"]), e)]
    return {"machine": machine, "same_machine": same_machine, "changed": changed}


def _skip_other_versions(golden: dict) -> None:
    recorded = {key: golden[key] for key in _versions()}
    if recorded != _versions():
        pytest.skip(f"golden outputs made with {recorded}, installed {_versions()}")


def load(path: Path = GOLDEN) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def golden() -> dict:
    return load()


def test_golden_covers_the_grid(golden):
    assert [e["argv"] for e in golden["entries"]] == golden_argvs()


def test_sample_outputs_replay_byte_for_byte(golden):
    """Bytes on the recording machine; values to VALUE_TOL on any other."""
    _skip_other_versions(golden)
    result = replay(golden)
    changed = result["changed"]
    rule = "byte for byte" if result["same_machine"] else f"to {VALUE_TOL}"
    assert not changed, (
        f"{len(changed)} of {len(golden['entries'])} outputs changed {rule}; first: "
        f"{' '.join(changed[0])} -> {_replay(changed[0])}"
    )


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"), reason="AVX2 kernels are x86-64")
def test_avx2_kernels_agree_to_value_tol(golden):
    """A child process with an AVX2 CPU's numpy and OpenBLAS kernels replays within VALUE_TOL."""
    _skip_other_versions(golden)
    env = {**os.environ, **AVX2_KERNELS}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), str(HERE), env.get("PYTHONPATH")]))
    code = "import json, test_golden; print(json.dumps(test_golden.replay(test_golden.load())))"
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    if result["same_machine"]:
        pytest.skip(f"the golden file was recorded with these kernels: {result['machine']}")
    assert not result["changed"], f"{len(result['changed'])} outputs differ by more than {VALUE_TOL}"
