import json

import numpy as np
import pytest

from rulemine.errors import DataError
from rulemine.evaluation import evaluate
from rulemine.miner import MinerConfig, mine
from rulemine.lvq import LvqConfig
from rulemine.model_io import (
    FORMAT_VERSION,
    ModelArtifact,
    load_model,
    model_to_dict,
    save_model,
)
from rulemine.pso import PsoConfig
from rulemine.schema import encode, stratified_split
from rulemine.synth import generate


@pytest.fixture(scope="module")
def trained():
    data = encode(generate("separable", 200, 7).to_raw())
    train, test = stratified_split(data, 0.3, seed=0)
    config = MinerConfig(
        seed=3,
        lvq=LvqConfig(centroid_count=6, max_epochs=15),
        pso=PsoConfig(swarm_size=10, max_iterations=25, stagnation_limit=10),
    )
    rule_list, report = mine(train, config)
    artifact = ModelArtifact(
        schema=data.schema,
        numeric_ranges=dict(data.numeric_ranges),
        rule_list=rule_list,
        miner_config=config,
    )
    return artifact, test, report


class TestRoundTrip:
    def test_evaluation_is_identical_after_reload(self, trained, tmp_path):
        artifact, test, _ = trained
        path = tmp_path / "model.json"
        save_model(artifact, path)
        loaded = load_model(path)
        before = evaluate(artifact.rule_list, test)
        after = evaluate(loaded.rule_list, test)
        assert np.array_equal(before.confusion.counts, after.confusion.counts)
        assert before.accuracy == after.accuracy
        assert before.type_i_error == after.type_i_error
        assert before.rule_fire_counts == after.rule_fire_counts
        assert before.default_fire_count == after.default_fire_count

    def test_every_field_survives(self, trained, tmp_path):
        artifact, _, _ = trained
        path = tmp_path / "model.json"
        save_model(artifact, path)
        loaded = load_model(path)
        assert loaded.schema == artifact.schema
        assert loaded.numeric_ranges == artifact.numeric_ranges
        assert loaded.rule_list == artifact.rule_list
        assert loaded.miner_config == artifact.miner_config
        assert loaded.miner_config.seed == 3

    def test_report_network_survives_json_bit_exact(self, trained):
        artifact, _, report = trained
        schema = artifact.schema
        doc = json.loads(json.dumps(report.to_dict(schema)))["network"]
        network = report.network
        entries = doc["centroids"]
        positions = np.array([e["position"] for e in entries])
        deviations = np.array([e["deviation"] for e in entries])
        assert positions.tobytes() == network.positions.tobytes()
        assert deviations.tobytes() == network.deviations.tobytes()
        assert [schema.class_labels.index(e["class"]) for e in entries] == (
            network.class_indices.tolist()
        )
        assert [e["represented_count"] for e in entries] == (
            network.represented_counts.tolist()
        )
        assert doc["trace"] == network.trace and len(doc["trace"]) >= 1
        # allocation is counted from the centroid classes
        per_class = np.bincount(network.class_indices, minlength=len(schema.class_labels))
        assert doc["allocation"] == {
            schema.class_labels[c]: int(n) for c, n in enumerate(per_class) if n
        }

    def test_saving_twice_is_byte_identical(self, trained, tmp_path):
        artifact, _, _ = trained
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        save_model(artifact, p1)
        save_model(artifact, p2)
        assert p1.read_bytes() == p2.read_bytes()


class TestValidation:
    def _doc(self, trained):
        artifact, _, _ = trained
        return model_to_dict(artifact)

    def test_document_carries_version(self, trained):
        doc = self._doc(trained)
        assert doc["format_version"] == FORMAT_VERSION
        assert "network" not in doc  # provenance: it goes in the train report
        # so do each rule's support and confidence: a rule is what scoring reads
        assert all(set(rule) == {"antecedent", "class_index"}
                   for rule in doc["rule_list"]["rules"])
        assert "seed" not in doc  # the seed is recorded once, in miner_config
        assert doc["miner_config"]["seed"] == 3
        json.dumps(doc)  # plain JSON types only

    def test_version_mismatch_rejected(self, trained, tmp_path):
        doc = self._doc(trained)
        doc["format_version"] = FORMAT_VERSION + 1
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError, match="version"):
            load_model(path)

    @pytest.mark.parametrize(
        "key", ["schema", "numeric_ranges", "miner_config", "rule_list"]
    )
    def test_missing_section_rejected(self, trained, tmp_path, key):
        doc = self._doc(trained)
        del doc[key]
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError, match=key):
            load_model(path)

    def test_top_level_seed_of_older_models_loads(self, trained, tmp_path):
        # models written before the seed lived only in miner_config carry a
        # copy at the top level, which is not read (a non-integer one is
        # rejected: tests/test_cli.py TestJsonTypeRules)
        artifact, _, _ = trained
        path = tmp_path / "model.json"
        for seed in (3, 12345):
            path.write_text(json.dumps({"seed": seed, **self._doc(trained)}))
            assert load_model(path) == artifact

    def test_ranges_must_match_schema(self, trained, tmp_path):
        doc = self._doc(trained)
        doc["numeric_ranges"]["bogus"] = [0.0, 1.0]
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError, match="numeric_ranges"):
            load_model(path)

    def test_dropped_range_rejected(self, trained, tmp_path):
        doc = self._doc(trained)
        doc["numeric_ranges"].pop("x1")
        path = tmp_path / "model.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError):
            load_model(path)

    def test_unreadable_and_malformed_files(self, tmp_path):
        with pytest.raises(DataError, match="cannot read"):
            load_model(tmp_path / "missing.json")
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(DataError, match="JSON"):
            load_model(bad)
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000 + "]" * 100_000)
        with pytest.raises(DataError, match="not valid JSON"):
            load_model(deep)

    def test_non_object_document_rejected(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(DataError):
            load_model(path)
