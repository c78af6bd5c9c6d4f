import json

import numpy as np
import pytest

from finexp.fileio import (
    ExperimentFile,
    SchemaError,
    experiment_from_dict,
    experiment_to_dict,
    load_experiment,
    save_experiment,
)

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
        assert ef.loss("zero_one").sup_norm == 1.0

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


class TestRoundTrip:
    def test_bitwise_stable(self, tmp_path):
        rng = np.random.default_rng(0)
        doc = json.loads(json.dumps(SAMPLE))
        doc["kernels"]["noisy"] = {
            "from": "Theta",
            "to": "X",
            "matrix": rng.dirichlet(np.ones(2), size=2).T.tolist(),
        }
        first = experiment_from_dict(doc)
        p1 = tmp_path / "one.json"
        save_experiment(first, p1)
        second = load_experiment(p1)
        p2 = tmp_path / "two.json"
        save_experiment(second, p2)
        assert p1.read_bytes() == p2.read_bytes()
        for name in first.kernels:
            np.testing.assert_array_equal(
                first.kernels[name].matrix, second.kernels[name].matrix
            )
        for name in first.distributions:
            np.testing.assert_array_equal(
                first.distributions[name].mass, second.distributions[name].mass
            )

    def test_to_dict_rejects_foreign_space(self):
        from finexp.kernels import FiniteSpace, uniform

        ef = experiment_from_dict(SAMPLE)
        ef.distributions["stray"] = uniform(FiniteSpace.of_size(3, "w"))
        with pytest.raises(SchemaError, match="stray"):
            experiment_to_dict(ef)
