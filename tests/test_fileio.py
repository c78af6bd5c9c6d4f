import json

import numpy as np
import pytest

from finexp.fileio import SchemaError, experiment_from_dict, load_experiment
from finexp.kernels import Distribution, MarkovKernel

SAMPLE = {
    "spaces": {
        "Theta": ["h0", "h1"],
        "X": ["x0", "x1"],
        "A": ["a0", "a1"],
    },
    "distributions": {
        "uniform": {"space": "Theta", "mass": [0.5, 0.5]},
        "skew": {"space": "Theta", "mass": [0.25, 0.75]},
    },
    "kernels": {
        "bsc": {"from": "Theta", "to": "X", "matrix": [[0.9, 0.1], [0.1, 0.9]]},
        "ident": {"from": "Theta", "to": "Theta", "matrix": [[1.0, 0.0], [0.0, 1.0]]},
    },
    "losses": {
        "zero_one": {"theta": "Theta", "actions": "A", "values": [[0.0, 1.0], [1.0, 0.0]]},
    },
}


class TestLoad:
    def test_sample_resolves(self):
        ef = experiment_from_dict(SAMPLE)
        assert ef.kernel("bsc").source == ef.spaces["Theta"]
        assert ef.distribution("uniform").mass.tolist() == [0.5, 0.5]
        assert np.abs(ef.loss("zero_one").values).max() == 1.0

    def test_unknown_space_reference(self):
        doc = json.loads(json.dumps(SAMPLE))
        doc["kernels"]["bad"] = {"from": "Nope", "to": "X", "matrix": [[1.0, 1.0]]}
        with pytest.raises(SchemaError, match="bad"):
            experiment_from_dict(doc)

    def test_malformed_column_sum(self):
        doc = json.loads(json.dumps(SAMPLE))
        doc["kernels"]["bsc"]["matrix"] = [[0.8, 0.1], [0.1, 0.9]]
        with pytest.raises(SchemaError, match="bsc"):
            experiment_from_dict(doc)

    def test_dimension_cap(self):
        doc = {"spaces": {"big": [f"x{i}" for i in range(40)]}}
        with pytest.raises(SchemaError, match="cap"):
            experiment_from_dict(doc)
        experiment_from_dict(doc, max_dim=64)

    @pytest.mark.parametrize("section", ["distributions", "kernels", "losses"])
    def test_entry_must_be_object(self, section):
        doc = json.loads(json.dumps(SAMPLE))
        doc[section]["bare"] = [0.5, 0.5]
        with pytest.raises(SchemaError, match="'bare' must be a JSON object"):
            experiment_from_dict(doc)

    @pytest.mark.parametrize("section", ["spaces", "distributions", "kernels", "losses"])
    def test_section_must_be_object(self, section):
        doc = json.loads(json.dumps(SAMPLE))
        doc[section] = [["bare", [0.5, 0.5]]]
        with pytest.raises(SchemaError, match=section):
            experiment_from_dict(doc)

    @pytest.mark.parametrize("section, body, message", [
        ("distributions", {"space": "Nope", "mass": [0.5, 0.5]},
         "distribution 'bad': unknown space 'Nope'; available: ['A', 'Theta', 'X']"),
        ("distributions", {"space": "Theta"}, "distribution 'bad': 'mass'"),
        ("distributions", {"space": "Theta", "mass": [1.0, 2.0, 3.0]},
         "distribution 'bad': distribution over ('h0', 'h1') needs shape (2,), got (3,)"),
        ("kernels", {"from": "Nope1", "to": "Nope2", "matrix": [[1.0]]},
         "kernel 'bad': unknown space 'Nope1'; available: ['A', 'Theta', 'X']"),
        ("kernels", {"from": "Theta", "to": "Nope", "matrix": [[1.0]]},
         "kernel 'bad': unknown space 'Nope'; available: ['A', 'Theta', 'X']"),
        ("kernels", {"from": "Theta", "to": "X"}, "kernel 'bad': 'matrix'"),
        ("kernels", {"from": "Theta", "to": "X", "matrix": [[0.5, "x"]]},
         "kernel 'bad': could not convert string to float: 'x'"),
        ("losses", {"theta": "Theta", "actions": "Nope", "values": [[0.0]]},
         "loss 'bad': unknown space 'Nope'; available: ['A', 'Theta', 'X']"),
        ("losses", {"theta": "Theta", "actions": "A"}, "loss 'bad': 'values'"),
        ("losses", {"theta": "Theta", "actions": "A", "values": [1.0, 2.0, 3.0]},
         "loss 'bad': loss needs shape (2, 2), got (3,)"),
        ("distributions", {"space": "Theta", "mass": [float("nan"), 1.0]},
         "distribution 'bad': distribution has non-finite entries"),
        ("kernels", {"from": "Theta", "to": "X", "matrix": [[float("inf"), 0.1], [0.1, 0.9]]},
         "kernel 'bad': kernel has non-finite entries"),
        ("spaces", ["a", "a"], "space 'bad': labels are not distinct: ('a', 'a')"),
        ("spaces", [], "space 'bad': a finite space needs at least one label"),
        ("kernels", {"from": "Theta", "to": "X", "matrix": [0.5, 0.5]},
         "kernel 'bad': kernel ('h0', 'h1') -> ('x0', 'x1') needs shape (2, 2), got (2,)"),
        ("losses", {"theta": "Theta", "actions": "A", "values": [[0.0, float("inf")], [1.0, 0.0]]},
         "loss 'bad': loss entries must be finite"),
        ("losses", {"theta": "Theta", "actions": "A", "values": [[-1e308, 1e308], [1.0, 0.0]]},
         "loss 'bad': loss range max - min overflows to infinity; rescale the loss"),
    ])
    def test_entry_error_messages(self, section, body, message):
        doc = json.loads(json.dumps(SAMPLE))
        doc[section]["bad"] = body
        with pytest.raises(SchemaError) as err:
            experiment_from_dict(doc)
        assert str(err.value) == message

    @pytest.mark.parametrize("doc", [[], "spaces", None])
    def test_top_level_must_be_object(self, doc):
        with pytest.raises(SchemaError, match="^top level must be a JSON object$"):
            experiment_from_dict(doc)

    def test_nan_literal_in_file_is_named(self, tmp_path):
        doc = json.loads(json.dumps(SAMPLE))
        doc["distributions"]["uniform"]["mass"] = [float("nan"), 0.5]
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(doc))
        assert "NaN" in path.read_text()
        with pytest.raises(SchemaError, match="^distribution 'uniform': distribution has non-finite entries$"):
            load_experiment(path)

    def test_unknown_name_lookup(self):
        ef = experiment_from_dict(SAMPLE)
        with pytest.raises(SchemaError, match="unknown kernel"):
            ef.kernel("nope")

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(SchemaError):
            load_experiment(tmp_path / "missing.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(SchemaError):
            load_experiment(bad)

    def test_non_utf8_file_is_named(self, tmp_path):
        bad = tmp_path / "latin1.json"
        bad.write_bytes(b'{"spaces": {"\xff": []}}')
        with pytest.raises(SchemaError, match=f"cannot read experiment file {bad}: 'utf-8' codec"):
            load_experiment(bad)


class TestRoundTrip:
    def test_bitwise_stable(self, tmp_path):
        # rebuilding a kernel or distribution from another's numbers, directly
        # or through a written file, reproduces the same bits, drift included
        rng = np.random.default_rng(0)
        doc = json.loads(json.dumps(SAMPLE))
        doc["spaces"]["Y"] = [f"y{i}" for i in range(7)]
        for i in range(4):
            m = rng.dirichlet(np.ones(7), size=2).T * (1.0 + rng.uniform(-1e-10, 1e-10, size=2))
            doc["kernels"][f"noisy{i}"] = {"from": "Theta", "to": "Y", "matrix": m.tolist()}
        doc["distributions"]["drifted"] = {"space": "Theta", "mass": [0.25 + 3e-11, 0.75]}
        first = experiment_from_dict(doc)
        for k in first.kernels.values():
            np.testing.assert_array_equal(MarkovKernel(k.source, k.target, k.matrix).matrix, k.matrix)
        for d in first.distributions.values():
            np.testing.assert_array_equal(Distribution(d.space, d.mass).mass, d.mass)

        for name, k in first.kernels.items():
            doc["kernels"][name]["matrix"] = k.matrix.tolist()
        for name, d in first.distributions.items():
            doc["distributions"][name]["mass"] = d.mass.tolist()
        path = tmp_path / "again.json"
        path.write_text(json.dumps(doc))
        second = load_experiment(path)
        for name in first.kernels:
            np.testing.assert_array_equal(first.kernels[name].matrix, second.kernels[name].matrix)
        for name in first.distributions:
            np.testing.assert_array_equal(first.distributions[name].mass, second.distributions[name].mass)
