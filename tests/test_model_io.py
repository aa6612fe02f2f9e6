import json

import numpy as np
import pytest

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
    def test_document_carries_version(self, trained):
        doc = model_to_dict(trained[0])
        assert doc["format_version"] == FORMAT_VERSION
        assert "network" not in doc  # provenance: it goes in the train report
        # so do each rule's support and confidence: a rule is what scoring reads
        assert all(set(rule) == {"antecedent", "class_index"}
                   for rule in doc["rule_list"]["rules"])
        assert "seed" not in doc  # the seed is recorded once, in miner_config
        assert doc["miner_config"]["seed"] == 3
        json.dumps(doc)  # plain JSON types only
