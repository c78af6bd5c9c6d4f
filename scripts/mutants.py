"""Mutation audit: run the tier-1 tests once per hand-written mutant and report which are killed.

Usage, from the root of a finexp checkout:

    python3 scripts/mutants.py

The committed tree (``git archive HEAD``) is exported to a temporary
directory once per mutant; the mutant's text replacement is applied there
and the tier-1 suite runs in it, one mutant at a time.  A mutant is killed
when pytest exits non-zero.  Each replacement must match its file exactly
once, so a mutant whose code has moved fails loudly instead of silently
testing nothing.  The unmutated tree runs first; if it does not pass, no
mutant is run.

Exit status: 0 when every mutant is killed, 1 when one survives, 2 when the
unmutated tree fails or a replacement does not match exactly once.
Standard library only; this script is not part of tier-1.
"""

from __future__ import annotations

import io
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
#: Seconds one tier-1 run may take before the mutant counts as killed by timeout.
TIMEOUT_S = 900


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str


MUTANTS = (
    Mutant("check_space compares identity", "src/finexp/kernels.py",
           "    if got != expected:\n", "    if got is not expected:\n"),
    Mutant("check_space never raises", "src/finexp/kernels.py",
           "    if got != expected:\n", "    return\n    if got != expected:\n"),
    Mutant("sup delta unclamped", "src/finexp/deficiency.py",
           "return _result(max(0.0, float(res.fun)), ", "return _result(float(res.fun), "),
    Mutant("STOCHASTIC_ATOL 1e-6", "src/finexp/kernels.py",
           "STOCHASTIC_ATOL = 1e-9\n", "STOCHASTIC_ATOL = 1e-6\n"),
    Mutant("_int_in without upper bound", "src/finexp/cli.py",
           "        if high is not None and value > high:\n"
           "            raise argparse.ArgumentTypeError(f\"must be an integer <= {high}, got {text!r}\")\n",
           ""),
    Mutant("weighted LP at default feasibility tolerance", "src/finexp/deficiency.py",
           '"weighted": {"method": "highs", "options": {"primal_feasibility_tolerance": 1e-9}},',
           '"weighted": {"method": "highs"},'),
    Mutant("_weighted_batch splits at >=", "src/finexp/deficiency.py",
           "if group and rows + r > _BATCH_ROWS:", "if group and rows + r >= _BATCH_ROWS:"),
    Mutant("weighted delta unclamped", "src/finexp/deficiency.py",
           "delta = max(0.0, -float(np.cumsum(c[c0:c1] * res.x[c0:c1])[-1]))",
           "delta = -float(np.cumsum(c[c0:c1] * res.x[c0:c1])[-1])"),
    Mutant("_freeze without setflags", "src/finexp/kernels.py",
           "    array.setflags(write=False)\n", ""),
    Mutant("_float_array without a copy", "src/finexp/kernels.py",
           "    array = np.array(values, dtype=float)\n", "    array = np.asarray(values, dtype=float)\n"),
    Mutant("IB state encoder unchecked", "src/finexp/bottleneck.py",
           '    _check_space("bottleneck: state encoder input", experiment.target, state.encoder.source)\n', ""),
    Mutant("IB state centroids unchecked", "src/finexp/bottleneck.py",
           '    _check_space("bottleneck: state centroid posteriors", experiment.source, '
           'state.centroid_posteriors.target)\n', ""),
)


def _export(archive: bytes, into: Path) -> None:
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(into)


def _tier1(tree: Path) -> tuple[str, str]:
    """Run tier-1 in ``tree``, stopping at the first failure; return (outcome, first failed test)."""
    cmd = [sys.executable, "-m", "pytest", "-q", "-x", "-rf", "-p", "no:cacheprovider"]
    try:
        proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return "timeout", ""
    failed = [line.split(" - ")[0].removeprefix("FAILED ") for line in proc.stdout.splitlines()
              if line.startswith("FAILED ")]
    if proc.returncode == 0:
        return "passed", ""
    return ("failed" if proc.returncode == 1 else f"exit {proc.returncode}"), (failed[0] if failed else "")


def main() -> int:
    archive = subprocess.run(["git", "archive", "--format=tar", "HEAD"], cwd=ROOT,
                             capture_output=True, check=True).stdout
    with tempfile.TemporaryDirectory(prefix="finexp-mutants-") as tmp:
        tree = Path(tmp) / "tree"
        _export(archive, tree)
        bad = [m.name for m in MUTANTS if (tree / m.path).read_text().count(m.old) != 1]
        if bad:
            print(f"replacement does not match exactly once: {bad}", file=sys.stderr)
            return 2
        outcome, first = _tier1(tree)
        if outcome != "passed":
            print(f"the unmutated tree does not pass tier-1 ({outcome}: {first})", file=sys.stderr)
            return 2
        rows = []
        for i, mutant in enumerate(MUTANTS):
            tree = Path(tmp) / f"mutant{i}"
            _export(archive, tree)
            target = tree / mutant.path
            target.write_text(target.read_text().replace(mutant.old, mutant.new))
            start = time.perf_counter()
            outcome, first = _tier1(tree)
            rows.append((mutant.name, mutant.path, "survived" if outcome == "passed" else "killed",
                         outcome, f"{time.perf_counter() - start:.0f}", first))
            print(f"{mutant.name}: {rows[-1][2]}", file=sys.stderr, flush=True)
    print("| mutant | file | result | tier-1 | seconds | first failed test |")
    print("|---|---|---|---|---|---|")
    for row in rows:
        print("| " + " | ".join(row) + " |")
    return 0 if all(row[2] == "killed" for row in rows) else 1


if __name__ == "__main__":
    sys.exit(main())
