import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from finexp.cli import EXIT_SOLVER_FAULT, main
from finexp.deficiency import SolverError
from finexp.verify import SUITES, run_suite

ROOT = Path(__file__).resolve().parents[1]
SAMPLE_FILE = str(ROOT / "scripts" / "sample_experiment.json")

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
        with pytest.raises(SystemExit) as exc:
            main(["deficiency", sample_file, "bsc", "bsc", "--prior", "uniform", f"--factor-tol={tol}"])
        assert exc.value.code == 2
        assert "--factor-tol" in capsys.readouterr().err

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
        # the variant and the LP shape (rows x columns) for bsc -> ident on 2 hypotheses
        expected = "the weighted LP (4 x 6)" if variant[0] == "--prior" else "the sup LP (8 x 9)"
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

    def test_prior_and_sup_exclusive(self, sample_file):
        with pytest.raises(SystemExit):
            main(["deficiency", sample_file, "bsc", "ident", "--prior", "uniform", "--sup"])


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
        code = main(["autoencode", sample_file, "--prior", "uniform4", "--latent", "33"])
        assert code == 2
        assert "--latent 33 exceeds the cap of 32" in capsys.readouterr().err

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
        with pytest.raises(SystemExit) as exc:
            main(argv + [flag, "2"])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""


class TestStack:
    def test_uniform4_two_one(self, capsys, sample_file):
        code, out = run(capsys, ["stack", sample_file, "--prior", "uniform4", "--sizes", "2,1"])
        assert code == 0
        assert out["layer_epsilon"][0] == pytest.approx(1.0, abs=1e-12)
        assert out["total_epsilon"] <= out["bound"] + 1e-6
        assert out["bound_holds"] is True

    @pytest.mark.parametrize("sizes", ["4,10000000000", "33", "2,33,1"])
    def test_size_above_cap_exits_2(self, capsys, sample_file, sizes):
        code = main(["stack", sample_file, "--prior", "uniform4", "--sizes", sizes])
        assert code == 2
        assert "--sizes" in capsys.readouterr().err

    def test_cap_checked_before_the_file_is_read(self, capsys, tmp_path):
        code = main(["stack", str(tmp_path / "missing.json"), "--prior", "p", "--sizes", "4,10000000000"])
        assert code == 2
        assert "--sizes 10000000000 exceeds the cap of 32" in capsys.readouterr().err


class TestIB:
    def test_beta_zero_full_codes(self, capsys, sample_file):
        code, out = run(
            capsys,
            ["ib", sample_file, "--experiment", "bsc", "--prior", "uniform", "--loss", "zero_one", "--latent", "2"],
        )
        assert code == 0
        assert out["distortion"] <= 1e-9
        assert out["trace_nonincreasing"] is True

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

        def reject(token):
            raise ValueError(f"non-strict JSON constant {token}")

        out = json.loads(capsys.readouterr().out, parse_constant=reject)
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

    @pytest.mark.parametrize("beta", ["nan", "inf", "-inf", "-0.5", "abc"])
    def test_bad_beta_exits_2(self, capsys, sample_file, beta):
        with pytest.raises(SystemExit) as exc:
            main(
                [
                    "ib", sample_file, "--experiment", "bsc", "--prior", "uniform",
                    "--loss", "zero_one", "--latent", "2", f"--beta={beta}",
                ]
            )
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--beta" in err
        assert "Traceback" not in err

    def test_latent_above_cap_exits_2(self, capsys, sample_file):
        code = main(
            ["ib", sample_file, "--experiment", "bsc", "--prior", "uniform", "--loss", "zero_one", "--latent", "33"]
        )
        assert code == 2
        assert "--latent 33 exceeds the cap of 32" in capsys.readouterr().err


class TestVerify:
    def test_single_suite(self, capsys):
        code, out = run(capsys, ["verify", "--suite", "triangle", "--trials", "5", "--seed", "7", "--max-dim", "3"])
        assert code == 0
        assert out["all_pass"] is True
        (suite,) = out["suites"]
        assert suite["failures"] == 0
        assert suite["checks"] == 10  # triangle + self-distance per trial

    def test_unknown_suite_exits_2(self, capsys):
        code = main(["verify", "--suite", "nope", "--trials", "2"])
        assert code == 2
        capsys.readouterr()

    def test_max_dim_cap(self, capsys):
        code = main(["verify", "--suite", "triangle", "--trials", "1", "--max-dim", "33"])
        assert code == 2
        capsys.readouterr()

    @pytest.mark.parametrize("max_dim", ["0", "1"])
    @pytest.mark.parametrize("suite", [*SUITES, "all"])
    def test_max_dim_below_two_exits_2(self, capsys, suite, max_dim):
        code = main(["verify", "--suite", suite, "--trials", "1", "--max-dim", max_dim])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"input error: max_dim must be at least 2, got {max_dim}\n"

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


def _reject_constant(token):
    raise ValueError(f"non-strict JSON constant {token}")


@pytest.mark.parametrize("name", STDOUT_CALLS)
def test_stdout_is_one_strict_json_line(capfd, name):
    """File descriptor 1 gets the result and nothing else, whatever writes to it."""
    assert main(STDOUT_CALLS[name]) == 0
    out = capfd.readouterr().out
    assert out.endswith("\n")
    assert out.count("\n") == 1
    assert isinstance(json.loads(out, parse_constant=_reject_constant), dict)


@pytest.mark.parametrize("suite", SUITES)
def test_suites_write_nothing_to_stdout(capfd, suite):
    run_suite(suite, trials=2)
    assert capfd.readouterr().out == ""


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
