import ast
import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import finexp
from finexp.cli import EXIT_SOLVER_FAULT, main
from finexp.deficiency import SolverError
from finexp.verify import SUITES, run_suite

from strategies import code_sites, strict_json

ROOT = Path(__file__).resolve().parents[1]
SAMPLE_FILE = str(ROOT / "scripts" / "sample_experiment.json")
IB_ARGV = ["ib", SAMPLE_FILE, "--experiment", "bsc", "--prior", "uniform", "--loss", "zero_one", "--latent", "2"]
CAP = "exceeds the cap of 32; pass --allow-large to lift it"

SAMPLE = {
    "spaces": {
        "Theta": ["h0", "h1"],
        "X": ["x0", "x1"],
        "X4": ["p", "q", "r", "s"],
    },
    "distributions": {
        "uniform": {"space": "Theta", "mass": [0.5, 0.5]},
        "uniform4": {"space": "X4", "mass": [0.25, 0.25, 0.25, 0.25]},
    },
    "kernels": {
        "bsc": {"from": "Theta", "to": "X", "matrix": [[0.9, 0.1], [0.1, 0.9]]},
        "ident": {"from": "Theta", "to": "Theta", "matrix": [[1.0, 0.0], [0.0, 1.0]]},
        "point": {"from": "Theta", "to": "X", "matrix": [[1.0, 1.0], [0.0, 0.0]]},
    },
    "losses": {
        "zero_one": {"theta": "Theta", "actions": "Theta", "values": [[0.0, 1.0], [1.0, 0.0]]},
        "mismatched": {"theta": "X4", "actions": "X4", "values": [[0.0] * 4] * 4},
    },
}


@pytest.fixture
def sample_file(tmp_path):
    path = tmp_path / "exp.json"
    path.write_text(json.dumps(SAMPLE))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out) if out else None


def assert_rejected(capsys, argv, message):
    """``main(argv)`` rejects a flag before computing anything: exit 2, no stdout, ``message`` ends stderr."""
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(message + "\n")
    assert "Traceback" not in captured.err


class TestValue:
    def test_bsc(self, capsys, sample_file):
        code, out = run(capsys, ["value", sample_file, "--experiment", "bsc", "--prior", "uniform", "--loss", "zero_one"])
        assert code == 0
        assert out["value"] == pytest.approx(0.1, abs=1e-12)
        assert out["bayes_rule"] == {"x0": "h0", "x1": "h1"}

    def test_identity_experiment(self, capsys, sample_file):
        code, out = run(capsys, ["value", sample_file, "--experiment", "ident", "--prior", "uniform", "--loss", "zero_one"])
        assert code == 0
        assert out["value"] == 0.0

    def test_malformed_column_exits_2(self, capsys, tmp_path):
        doc = json.loads(json.dumps(SAMPLE))
        doc["kernels"]["bsc"]["matrix"] = [[0.8, 0.1], [0.1, 0.9]]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code = main(["value", str(path), "--experiment", "bsc", "--prior", "uniform", "--loss", "zero_one"])
        assert code == 2
        assert "bsc" in capsys.readouterr().err

    def test_unknown_name_exits_2(self, capsys, sample_file):
        code = main(["value", sample_file, "--experiment", "nope", "--prior", "uniform", "--loss", "zero_one"])
        assert code == 2
        assert "nope" in capsys.readouterr().err

    def test_bare_list_distribution_exits_2(self, capsys, tmp_path):
        path = tmp_path / "bare.json"
        path.write_text(json.dumps({"distributions": {"u": [0.5, 0.5]}}))
        code = main(["value", str(path), "--experiment", "k", "--prior", "u", "--loss", "l"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("input error: distribution 'u'")
        assert "Traceback" not in err

    def test_deeply_nested_json_exits_2(self, capsys, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 200_000 + "]" * 200_000)
        code = main(["value", str(path), "--experiment", "k", "--prior", "u", "--loss", "l"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("input error: cannot read experiment file")
        assert "Traceback" not in captured.err

    def test_space_given_as_string_exits_2(self, capsys, tmp_path):
        doc = json.loads(json.dumps(SAMPLE))
        doc["spaces"]["Theta"] = "hx"
        path = tmp_path / "string_space.json"
        path.write_text(json.dumps(doc))
        code = main(["value", str(path), "--experiment", "bsc", "--prior", "uniform", "--loss", "zero_one"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "input error: space 'Theta' must be a JSON array of strings\n"

    def test_space_mismatch_exits_3(self, capsys, sample_file):
        code = main(["value", sample_file, "--experiment", "bsc", "--prior", "uniform", "--loss", "mismatched"])
        assert code == 3
        capsys.readouterr()


class TestDeficiency:
    def test_same_kernel(self, capsys, sample_file):
        code, out = run(capsys, ["deficiency", sample_file, "bsc", "bsc", "--prior", "uniform"])
        assert code == 0
        assert out["delta"] == pytest.approx(0.0, abs=1e-7)
        assert out["factors_through"] is True

    def test_point_vs_identity_weighted(self, capsys, sample_file):
        code, out = run(capsys, ["deficiency", sample_file, "point", "ident", "--prior", "uniform"])
        assert code == 0
        assert out["delta"] == pytest.approx(1.0, abs=1e-7)
        assert out["factors_through"] is False

    def test_point_vs_identity_sup(self, capsys, sample_file):
        code, out = run(capsys, ["deficiency", sample_file, "point", "ident", "--sup"])
        assert code == 0
        assert out["delta"] == pytest.approx(1.0, abs=1e-7)
        assert len(out["witness"]) == 2  # rows = outputs of the simulated kernel

    @pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "-1e-6", "abc"])
    def test_bad_factor_tol_exits_2(self, capsys, sample_file, tol):
        argv = ["deficiency", sample_file, "bsc", "bsc", "--prior", "uniform", f"--factor-tol={tol}"]
        message = f"finexp deficiency: error: argument --factor-tol: must be a finite number >= 0, got '{tol}'"
        assert_rejected(capsys, argv, message)

    def test_zero_factor_tol_accepted(self, capsys, sample_file):
        code, out = run(capsys, ["deficiency", sample_file, "ident", "ident", "--sup", "--factor-tol", "0"])
        assert code == 0
        assert out["factors_through"] is True

    @pytest.mark.parametrize("variant", [["--prior", "uniform"], ["--sup"]])
    def test_solver_fault_exits_4(self, capsys, monkeypatch, sample_file, variant):
        def failing(*args, **kwargs):
            return SimpleNamespace(status=4, message="numerical difficulties", x=None, fun=None)

        monkeypatch.setattr("scipy.optimize.linprog", failing)
        code = main(["deficiency", sample_file, "bsc", "ident", *variant])
        assert code == EXIT_SOLVER_FAULT == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("solver fault: internal LP failure (status 4)")
        # the variant, the LP shape (rows x columns) for bsc -> ident on 2 hypotheses and the HiGHS method
        expected = (
            "the weighted LP (4 x 6) by method highs:" if variant[0] == "--prior"
            else "the sup LP (8 x 9) by method highs-ipm:"
        )
        assert expected in captured.err
        assert issubclass(SolverError, RuntimeError)

    def test_zero_mass_prior_has_no_verdict(self, capsys, tmp_path):
        # a zero-mass hypothesis lets mismatches on it hide, so the weighted
        # test gives no factorization verdict; the sup variant still does
        doc = json.loads(json.dumps(SAMPLE))
        doc["distributions"]["onesided"] = {"space": "Theta", "mass": [1.0, 0.0]}
        path = tmp_path / "onesided.json"
        path.write_text(json.dumps(doc))
        code, out = run(capsys, ["deficiency", str(path), "ident", "ident", "--prior", "onesided"])
        assert code == 0
        assert out["factors_through"] is None
        code, out = run(capsys, ["deficiency", str(path), "point", "ident", "--prior", "onesided"])
        assert code == 0
        assert out["delta"] == pytest.approx(0.0, abs=1e-7)
        assert out["factors_through"] is None
        code, out = run(capsys, ["deficiency", str(path), "point", "ident", "--sup"])
        assert code == 0
        assert out["factors_through"] is False

    def test_prior_and_sup_exclusive(self, capsys, sample_file):
        argv = ["deficiency", sample_file, "bsc", "ident", "--prior", "uniform", "--sup"]
        assert_rejected(capsys, argv, "finexp deficiency: error: argument --sup: not allowed with argument --prior")


class TestAutoencode:
    def test_full_width_lossless(self, capsys, sample_file):
        code, out = run(capsys, ["autoencode", sample_file, "--prior", "uniform4", "--latent", "4"])
        assert code == 0
        assert out["epsilon"] == 0.0

    def test_uniform4_two_codes(self, capsys, sample_file):
        code, out = run(capsys, ["autoencode", sample_file, "--prior", "uniform4", "--latent", "2"])
        assert code == 0
        assert sorted(out) == ["decoder", "encoder", "epsilon"]
        assert out["epsilon"] == pytest.approx(1.0, abs=1e-12)
        assert out["decoder"] == [[1.0, 0.0], [0.0, 1.0], [0.0, 0.0], [0.0, 0.0]]

    def test_latent_above_cap_exits_2(self, capsys, sample_file):
        argv = ["autoencode", sample_file, "--prior", "uniform4", "--latent", "33"]
        assert_rejected(capsys, argv, f"input error: --latent 33 {CAP}")

    def test_cap_checked_before_the_file_is_read(self, capsys, tmp_path):
        argv = ["autoencode", str(tmp_path / "missing.json"), "--prior", "p", "--latent", "33"]
        assert_rejected(capsys, argv, f"input error: --latent 33 {CAP}")

    def test_deterministic_bytes(self, capsys, sample_file):
        argv = ["autoencode", sample_file, "--prior", "uniform4", "--latent", "2"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first

    @pytest.mark.parametrize("command", ["autoencode", "stack"])
    def test_seed_is_ignored(self, capsys, sample_file, command):
        argv = [command, sample_file, "--prior", "uniform4"]
        argv += ["--latent", "2"] if command == "autoencode" else ["--sizes", "3,2"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        for seed in ("7", "12345"):
            assert main(argv + ["--seed", seed]) == 0
            assert capsys.readouterr().out == first

    @pytest.mark.parametrize("flag", ["--restarts", "--iters"])
    @pytest.mark.parametrize("command", ["autoencode", "stack"])
    def test_search_flags_are_gone(self, capsys, sample_file, command, flag):
        argv = [command, sample_file, "--prior", "uniform4"]
        argv += ["--latent", "2"] if command == "autoencode" else ["--sizes", "3,2"]
        assert_rejected(capsys, argv + [flag, "2"], f"finexp: error: unrecognized arguments: {flag} 2")


class TestAllowLarge:
    """--allow-large lifts the 32-label cap on file spaces and code sizes, and warns on stderr."""

    WARNING = "warning: per-space size cap disabled; LP solves may be slow\n"

    @pytest.fixture
    def large_file(self, tmp_path):
        path = tmp_path / "large.json"
        path.write_text(json.dumps({
            "spaces": {"V": [f"v{i}" for i in range(33)]},
            "distributions": {"uniform33": {"space": "V", "mass": [1.0 / 33] * 33}},
        }))
        return str(path)

    def _with_flag(self, capfd, argv) -> dict:
        assert main(argv + ["--allow-large"]) == 0
        captured = capfd.readouterr()
        assert captured.err == self.WARNING
        assert captured.out.endswith("\n")
        assert captured.out.count("\n") == 1
        return strict_json(captured.out)

    def test_33_labels_load_only_with_the_flag(self, capfd, large_file):
        argv = ["autoencode", large_file, "--prior", "uniform33", "--latent", "2"]
        assert main(argv) == 2
        captured = capfd.readouterr()
        assert captured.out == ""
        assert captured.err == "input error: space 'V' has 33 labels, above the cap of 32\n"
        out = self._with_flag(capfd, argv)
        assert out["epsilon"] == pytest.approx(2.0 * 31 / 33, abs=1e-12)

    @pytest.mark.parametrize("command", ["autoencode", "ib", "stack"])
    def test_latent_33_runs_only_with_the_flag(self, capfd, sample_file, command):
        flag, sizes = ("--sizes", "33,2") if command == "stack" else ("--latent", "33")
        argv = [command, sample_file, "--prior", "uniform", flag, sizes]
        if command == "ib":
            argv += ["--experiment", "bsc", "--loss", "zero_one"]
        assert main(argv) == 2
        captured = capfd.readouterr()
        assert captured.out == ""
        assert captured.err == f"input error: {flag} 33 {CAP}\n"
        out = self._with_flag(capfd, argv)
        assert len(out["layers"][0] if command == "stack" else out["encoder"]) == 33

    @pytest.mark.parametrize("command, flags", [
        ("autoencode", ["--latent", str(10**17)]),
        ("stack", ["--sizes", str(10**17)]),
        ("ib", ["--latent", str(10**17), "--experiment", "bsc", "--loss", "zero_one"]),
    ])
    def test_size_too_large_to_allocate_exits_2(self, capfd, sample_file, command, flags):
        # 10**17 codes ask for at least 711 PiB, so numpy refuses before allocating
        assert main([command, sample_file, "--prior", "uniform", *flags, "--allow-large"]) == 2
        captured = capfd.readouterr()
        assert captured.out == ""
        warning, error = captured.err.splitlines()
        assert warning + "\n" == self.WARNING
        assert error.startswith("input error: Unable to allocate")


class TestStack:
    def test_uniform4_two_one(self, capsys, sample_file):
        code, out = run(capsys, ["stack", sample_file, "--prior", "uniform4", "--sizes", "2,1"])
        assert code == 0
        assert out["layer_epsilon"][0] == pytest.approx(1.0, abs=1e-12)
        assert out["total_epsilon"] <= out["bound"] + 1e-6
        assert out["bound_holds"] is True

    @pytest.mark.parametrize("sizes", ["4,10000000000", "33", "2,33,1"])
    def test_size_above_cap_exits_2(self, capsys, sample_file, sizes):
        argv = ["stack", sample_file, "--prior", "uniform4", "--sizes", sizes]
        assert_rejected(capsys, argv, f"input error: --sizes {max(sizes.split(','), key=int)} {CAP}")

    def test_cap_checked_before_the_file_is_read(self, capsys, tmp_path):
        argv = ["stack", str(tmp_path / "missing.json"), "--prior", "p", "--sizes", "4,10000000000"]
        assert_rejected(capsys, argv, f"input error: --sizes 10000000000 {CAP}")


class TestIB:
    def test_beta_zero_full_codes(self, capsys, sample_file):
        code, out = run(
            capsys,
            ["ib", sample_file, "--experiment", "bsc", "--prior", "uniform", "--loss", "zero_one", "--latent", "2"],
        )
        assert code == 0
        assert out["distortion"] <= 1e-9
        assert out["trace_nonincreasing"] is True

    def test_prior_over_other_hypotheses_exits_3(self, capsys):
        argv = ["ib", SAMPLE_FILE, "--experiment", "bsc", "--prior", "pixels", "--loss", "zero_one", "--latent", "2"]
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("conformance error: bottleneck: prior: expected space ('h0', 'h1')")

    def test_huge_beta(self, capsys, sample_file):
        code, out = run(
            capsys,
            [
                "ib", sample_file, "--experiment", "bsc", "--prior", "uniform",
                "--loss", "zero_one", "--latent", "2", "--beta", "1e6",
            ],
        )
        assert code == 0
        assert out["mutual_information_bits"] <= 1e-3

    def test_subnormal_beta_gives_stochastic_encoder(self, capsys):
        # every positive regret over 5e-324 overflows; the least one must not
        argv = [
            "ib", str(ROOT / "scripts" / "sample_experiment.json"), "--experiment", "bsc",
            "--prior", "uniform", "--loss", "cost_sensitive", "--latent", "1", "--beta", "5e-324",
        ]
        code, out = run(capsys, argv)
        assert code == 0
        enc = np.array(out["encoder"])
        assert np.all(enc >= 0)
        np.testing.assert_allclose(enc.sum(axis=0), 1.0, atol=1e-12)

    def test_tiny_prior_mass_prints_strict_json(self, capsys, tmp_path):
        # the product of the code and input marginals underflows to 0 here
        doc = json.loads(json.dumps(SAMPLE))
        doc["distributions"]["tiny"] = {"space": "Theta", "mass": [1e-200, 1.0]}
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps(doc))
        argv = ["ib", str(path), "--experiment", "ident", "--prior", "tiny", "--loss", "zero_one", "--latent", "2"]
        assert main(argv) == 0
        out = strict_json(capsys.readouterr().out)
        assert out["mutual_information_bits"] == pytest.approx(6.643856189774725e-198, rel=1e-12)

    @pytest.mark.parametrize("seed", ["0", "2"])
    def test_mutual_information_never_negative(self, capsys, seed):
        # a constant encoder: the rounding of the three log sums once printed -3.2e-16
        argv = [
            "ib", SAMPLE_FILE, "--experiment", "ident", "--prior", "uniform",
            "--loss", "cost_sensitive", "--latent", "2", "--beta", "5", "--seed", seed,
        ]
        code, out = run(capsys, argv)
        assert code == 0
        assert out["mutual_information_bits"] == 0.0

    def test_loss_range_overflow_exits_2(self, capsys, tmp_path):
        # every entry is finite, but the regrets span 3.4e308 and once printed Infinity
        doc = json.loads(json.dumps(SAMPLE))
        doc["losses"]["big"] = {
            "theta": "Theta", "actions": "Theta", "values": [[1.7e308, -1.7e308], [-1.7e308, 1.7e308]],
        }
        path = tmp_path / "big.json"
        path.write_text(json.dumps(doc))
        argv = ["ib", str(path), "--experiment", "bsc", "--prior", "uniform", "--loss", "big", "--latent", "1"]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "max - min overflows" in captured.err

    @pytest.mark.parametrize("beta", ["nan", "inf", "-inf", "-0.5", "abc"])
    def test_bad_beta_exits_2(self, capsys, beta):
        message = f"finexp ib: error: argument --beta: must be a finite number >= 0, got '{beta}'"
        assert_rejected(capsys, [*IB_ARGV, f"--beta={beta}"], message)

    def test_latent_above_cap_exits_2(self, capsys):
        assert_rejected(capsys, [*IB_ARGV[:-1], "33"], f"input error: --latent 33 {CAP}")

    def test_cap_checked_before_the_file_is_read(self, capsys, tmp_path):
        argv = ["ib", str(tmp_path / "missing.json"), "--experiment", "e", "--prior", "p", "--loss", "l"]
        assert_rejected(capsys, argv + ["--latent", "33"], f"input error: --latent 33 {CAP}")


class TestVerify:
    def test_single_suite(self, capsys):
        code, out = run(capsys, ["verify", "--suite", "triangle", "--trials", "5", "--seed", "7", "--max-dim", "3"])
        assert code == 0
        assert out["all_pass"] is True
        (suite,) = out["suites"]
        assert suite["failures"] == 0
        assert suite["checks"] == 10  # triangle + self-distance per trial

    def test_unknown_suite_exits_2(self, capsys):
        choices = ", ".join(repr(suite) for suite in [*SUITES, "all"])
        message = f"finexp verify: error: argument --suite: invalid choice: 'nope' (choose from {choices})"
        assert_rejected(capsys, ["verify", "--suite", "nope", "--trials", "2"], message)

    def test_max_dim_cap(self, capsys):
        argv = ["verify", "--suite", "triangle", "--trials", "1", "--max-dim", "33"]
        assert_rejected(capsys, argv, "finexp verify: error: argument --max-dim: must be an integer <= 32, got '33'")

    @pytest.mark.parametrize("max_dim", ["0", "1"])
    @pytest.mark.parametrize("suite", [*SUITES, "all"])
    def test_max_dim_below_two_exits_2(self, capsys, suite, max_dim):
        message = f"finexp verify: error: argument --max-dim: must be an integer >= 2, got '{max_dim}'"
        assert_rejected(capsys, ["verify", "--suite", suite, "--trials", "1", "--max-dim", max_dim], message)

    @pytest.mark.parametrize("suite", SUITES)
    def test_max_dim_two_runs(self, capsys, suite):
        code, out = run(capsys, ["verify", "--suite", suite, "--trials", "1", "--max-dim", "2"])
        assert code == 0
        assert out["all_pass"] is True

    def test_all_deterministic_bytes(self, capsys):
        argv = ["verify", "--suite", "all", "--trials", "2", "--seed", "3", "--max-dim", "3"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert capsys.readouterr().out == first


STDOUT_CALLS = {
    "value": ["value", SAMPLE_FILE, "--experiment", "bsc", "--prior", "uniform", "--loss", "cost_sensitive"],
    "deficiency_prior": ["deficiency", SAMPLE_FILE, "bsc", "ident", "--prior", "uniform"],
    "deficiency_sup": ["deficiency", SAMPLE_FILE, "blind", "bsc", "--sup"],
    "autoencode": ["autoencode", SAMPLE_FILE, "--prior", "pixels", "--latent", "3"],
    "stack": ["stack", SAMPLE_FILE, "--prior", "pixels", "--sizes", "4,2"],
    "ib": [
        "ib", SAMPLE_FILE, "--experiment", "bsc", "--prior", "uniform",
        "--loss", "cost_sensitive", "--latent", "2", "--beta", "0.3",
    ],
    "verify": ["verify", "--trials", "2"],
}


@pytest.mark.parametrize("command", ["ib", "verify"])
@pytest.mark.parametrize("seed", ["-1", "-5", "abc", "1.5"])
def test_bad_seed_exits_2(capsys, command, seed):
    argv = IB_ARGV if command == "ib" else ["verify", "--trials", "1"]
    message = f"finexp {command}: error: argument --seed: must be an integer >= 0, got '{seed}'"
    assert_rejected(capsys, [*argv, "--seed", seed], message)


@pytest.mark.parametrize(
    "argv, message",
    [
        ([*IB_ARGV, "--iters", "0"], "argument --iters: must be an integer >= 1, got '0'"),
        ([*IB_ARGV[:-1], "0"], "argument --latent: must be an integer >= 1, got '0'"),
        (["autoencode", SAMPLE_FILE, "--prior", "pixels", "--latent", "0"],
         "argument --latent: must be an integer >= 1, got '0'"),
        (["autoencode", SAMPLE_FILE, "--prior", "pixels", "--latent", "-3"],
         "argument --latent: must be an integer >= 1, got '-3'"),
        (["stack", SAMPLE_FILE, "--prior", "pixels", "--sizes", "0,2"],
         "argument --sizes: must be comma-separated integers >= 1, got '0,2'"),
        (["stack", SAMPLE_FILE, "--prior", "pixels", "--sizes", "a,2"],
         "argument --sizes: must be comma-separated integers >= 1, got 'a,2'"),
        (["stack", SAMPLE_FILE, "--prior", "pixels", "--sizes", ","],
         "argument --sizes: must be comma-separated integers >= 1, got ','"),
        (["verify", "--trials", "0"], "argument --trials: must be an integer >= 1, got '0'"),
        (["verify", "--trials", "1.5"], "argument --trials: must be an integer >= 1, got '1.5'"),
        (["verify", "--trials", "1", "--max-dim", "1"], "argument --max-dim: must be an integer >= 2, got '1'"),
    ],
)
def test_out_of_range_integer_names_the_flag(capsys, argv, message):
    assert_rejected(capsys, argv, f"finexp {argv[0]}: error: {message}")


def test_help_exits_0_and_a_missing_command_2(capsys):
    # argparse's other exits come back from main as return codes too
    for argv, usage in [(["--help"], "usage: finexp [-h]"), (["verify", "--help"], "usage: finexp verify [-h]")]:
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith(usage)
        assert captured.err == ""
    assert main([]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith("finexp: error: the following arguments are required: command\n")


@pytest.mark.parametrize("name", STDOUT_CALLS)
def test_stdout_is_one_strict_json_line(capfd, name):
    """File descriptor 1 gets the result and nothing else, whatever writes to it."""
    assert main(STDOUT_CALLS[name]) == 0
    out = capfd.readouterr().out
    assert out.endswith("\n")
    assert out.count("\n") == 1
    assert isinstance(strict_json(out), dict)


@pytest.mark.parametrize("suite", SUITES)
def test_suites_write_nothing_to_stdout(capfd, suite):
    run_suite(suite, trials=2)
    assert capfd.readouterr().out == ""


def _writes_stdout(node):
    """A ``print`` call or a use of ``stdout``."""
    return (
        isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "print"
        or isinstance(node, ast.Attribute) and node.attr == "stdout"
        or isinstance(node, ast.Name) and node.id == "stdout"
    )


def test_only_emit_writes_stdout():
    # the stdout tests above run each command's success path; this covers every path, errors included
    assert set(code_sites(Path(finexp.__file__).parent, _writes_stdout)) == {"cli._emit"}


IMPORT_PROBE = """
import sys

import finexp
import finexp.cli

sample = sys.argv[1]
for argv in (
    ["value", sample, "--experiment", "bsc", "--prior", "uniform", "--loss", "zero_one"],
    ["autoencode", sample, "--prior", "pixels", "--latent", "3"],
    ["stack", sample, "--prior", "pixels", "--sizes", "4,2"],
    ["ib", sample, "--experiment", "bsc", "--prior", "uniform", "--loss", "zero_one", "--latent", "2"],
):
    assert finexp.cli.main(argv) == 0, argv
    loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
    assert not loaded, (argv[0], loaded)
assert finexp.cli.main(["deficiency", sample, "bsc", "ident", "--sup"]) == 0
assert "scipy.optimize" in sys.modules
"""


def test_only_lp_solves_load_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(ROOT / "scripts" / "sample_experiment.json")],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
