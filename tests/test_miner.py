import json
from collections import Counter

import numpy as np
import pytest

from conftest import brute_force_counts, build_encoded, random_mixed_dataset
from rulemine.errors import ConfigError, DataError
from rulemine.lvq import LvqConfig
from rulemine.miner import (
    GATES,
    STOP_ALL_COVERED,
    STOP_NO_VIABLE_CLASS,
    MinerConfig,
    mine,
)
from rulemine.pso import PsoConfig
from rulemine.rules import Rule, RuleList, classify_dataset, rule_to_dict
from rulemine.schema import Attribute, AttributeSchema, encode, stratified_split
from rulemine.synth import generate

SMALL = MinerConfig(
    seed=3,
    max_attempts_per_class=2,
    lvq=LvqConfig(centroid_count=6, max_epochs=15),
    pso=PsoConfig(swarm_size=10, max_iterations=25, stagnation_limit=10),
)


def _one_numeric_schema():
    return AttributeSchema(
        attributes=(Attribute("x", "numeric"),),
        class_attribute="label",
        class_labels=("a", "b"),
    )


def _separable(numeric_schema, n=200, seed=7):
    rng = np.random.default_rng(seed)
    X = rng.uniform(0, 1, (n, 2))
    # keep a clear margin around the boundary
    X[:, 0] = np.where(np.abs(X[:, 0] - 0.5) < 0.02, X[:, 0] + 0.05, X[:, 0])
    y = (X[:, 0] > 0.5).astype(np.int64)
    return build_encoded(numeric_schema, X, y)


def _failed_attempts(report) -> Counter:
    """Launches per class whose candidate failed a gate."""
    return Counter(
        log.candidate.class_index for log in report.swarm_logs if log.outcome in GATES
    )


def _emitted(report) -> list:
    """The logs of the launches that emitted a rule, in emission order: rule k
    is ``_emitted(report)[k - 1].candidate``."""
    return [log for log in report.swarm_logs if log.outcome == "emitted"]


def _rules(report) -> list:
    """The emitted rules, in emission order."""
    return [log.candidate for log in _emitted(report)]


def _assert_gates(data, config, report) -> None:
    """Every launch's recorded correct count and confidence pass all of
    ``mine``'s gates (the floor of correct rows and ``min_confidence``) if
    the launch emitted its candidate or folded it into the default, and its
    outcome names the first gate they fail if it did neither. The floor is
    positive, so a candidate that passes classifies one row correctly at
    least."""
    k = 1
    for log in report.swarm_logs:
        sub = data.subset(report.uncovered_before(k))
        correct = round(log.support * len(sub))
        assert correct / len(sub) == log.support
        assert correct == log.correct
        uncovered_c = int(np.count_nonzero(sub.y == log.candidate.class_index))
        floor = config.support_factor * uncovered_c
        assert floor == log.floor
        gates = (correct >= floor, log.confidence >= config.min_confidence)
        failed = next((gate for gate, ok in zip(GATES, gates) if not ok), None)
        assert log.outcome == failed if failed else log.outcome in ("emitted", "folded")
        assert floor > 0 and (failed or correct >= 1)
        k += log.outcome == "emitted"


def _assert_fold_keeps_classification(rule_list, folded_class, data) -> None:
    """Folding a final IF TRUE rule of ``folded_class`` into the default
    predicts every row as the unfolded list, with that rule and any default
    behind it, does; its rows fire the default in place of that rule."""
    predicted, fired = classify_dataset(rule_list, data)
    for other_default in range(len(data.schema.class_labels)):
        unfolded = RuleList(rule_list.rules + (Rule((), folded_class),), other_default)
        predicted_u, fired_u = classify_dataset(unfolded, data)
        assert np.array_equal(predicted, predicted_u)
        assert np.array_equal(fired, np.where(fired_u > len(rule_list.rules), 0, fired_u))


def _assert_outcomes_recompute(report_doc, min_confidence) -> None:
    """Each launch's outcome follows from its own ``swarm_logs`` entry: the
    floor gate if its correct rows fall short of its floor, then the
    confidence gate, else it folds an empty candidate into the default or
    emits the candidate."""
    for log in report_doc["swarm_logs"]:
        if log["correct"] < log["floor"]:
            outcome = "floor"
        elif log["confidence"] < min_confidence:
            outcome = "min_confidence"
        else:
            outcome = "emitted" if log["candidate"]["antecedent"] else "folded"
        assert log["outcome"] == outcome, log["iteration"]


class TestFloorInRows:
    """The floor is a count of correct rows: for the class a launch targets,
    positive and at most that class's uncovered rows."""

    @staticmethod
    def _assert_floors(data, report) -> None:
        k = 1
        for log in report.swarm_logs:
            sub_y = data.y[report.uncovered_before(k)]
            uncovered_c = int(np.count_nonzero(sub_y == log.candidate.class_index))
            assert 0 < log.floor <= uncovered_c
            k += log.outcome == "emitted"

    def test_mined(self, mined):
        data, _, report = mined
        self._assert_floors(data, report)

    def test_criterion_7_runs(self, criterion_7_runs):
        for data, _, _, report in criterion_7_runs:
            self._assert_floors(data, report)


class TestConfig:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"support_factor": 0.0},
            {"support_factor": 1.5},
            {"min_confidence": 0.0},
            {"min_confidence": 1.01},
            {"max_attempts_per_class": 0},
            {"min_represented": -1},
        ],
    )
    def test_invalid_values(self, kwargs):
        with pytest.raises(ConfigError):
            MinerConfig(**kwargs)

    def test_dict_round_trip(self):
        cfg = MinerConfig(
            support_factor=0.45,
            min_confidence=0.85,
            max_attempts_per_class=3,
            seed=17,
            lvq=LvqConfig(centroid_count=12, max_epochs=7),
            pso=PsoConfig(swarm_size=25, stagnation_limit=9),
        )
        doc = cfg.to_dict()
        json.dumps(doc)  # must be plain JSON types
        assert MinerConfig.from_dict(doc) == cfg

    def test_unknown_key_named_in_error(self):
        with pytest.raises(ConfigError, match="support_fraction"):
            MinerConfig.from_dict({"support_fraction": 0.2})

    def test_unknown_nested_key(self):
        with pytest.raises(ConfigError):
            MinerConfig.from_dict({"pso": {"swarm": 10}})

    def test_nested_value_validation_propagates(self):
        with pytest.raises(ConfigError):
            MinerConfig.from_dict({"lvq": {"centroid_count": 0}})

    @pytest.mark.parametrize(
        "doc",
        [
            {"seed": 1.5},
            {"min_represented": True},
            {"lvq": {"centroid_count": 2.0}},
            {"pso": {"seed": False}},
        ],
    )
    def test_integer_fields_reject_floats_and_bools(self, doc):
        with pytest.raises(ConfigError, match="must be an integer"):
            MinerConfig.from_dict(doc)

    def test_section_must_be_an_object(self):
        with pytest.raises(ConfigError, match="JSON object"):
            MinerConfig.from_dict({"pso": [10]})

    def test_empty_dict_gives_defaults(self):
        assert MinerConfig.from_dict({}) == MinerConfig()


def test_no_assert_statements_in_package():
    # assert statements vanish under python -O, taking their checks with them
    import ast
    import pathlib

    import rulemine

    for path in pathlib.Path(rulemine.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        asserts = [n.lineno for n in ast.walk(tree) if isinstance(n, ast.Assert)]
        assert not asserts, f"{path.name} asserts on lines {asserts}"


class TestSeparable:
    def test_one_rule_and_the_default_cover_everything(self, numeric_schema):
        # the rows left after the first rule are all of class 0, where IF TRUE
        # would win: no swarm is launched, class 0 becomes the default, and
        # those rows its residue
        data = _separable(numeric_schema)
        rule_list, report = mine(data, MinerConfig(seed=0))
        assert len(rule_list.rules) == 1
        assert rule_list.default_class == 0
        pred, _ = classify_dataset(rule_list, data)
        assert np.array_equal(pred, data.y)
        assert report.stop_reason == STOP_ALL_COVERED
        assert report.uncovered_residue == {0: int(np.count_nonzero(data.y == 0)), 1: 0}
        assert [log.outcome for log in report.swarm_logs] == ["emitted"]
        assert _failed_attempts(report) == {}

    def test_majority_class_mined_first(self, numeric_schema):
        data = _separable(numeric_schema)
        _, report = mine(data, MinerConfig(seed=0))
        counts = np.bincount(data.y)
        assert _rules(report)[0].class_index == int(np.argmax(counts))

    def test_determinism(self, numeric_schema):
        data = _separable(numeric_schema)
        a, report_a = mine(data, MinerConfig(seed=0))
        b, report_b = mine(data, MinerConfig(seed=0))
        assert a == b
        assert report_a.uncovered_residue == report_b.uncovered_residue
        assert np.array_equal(report_a.covered_by, report_b.covered_by)

    def test_each_seed_reproduces_itself(self, numeric_schema):
        data = _separable(numeric_schema)
        b, _ = mine(data, MinerConfig(seed=1))
        c, _ = mine(data, MinerConfig(seed=1))
        assert b == c


@pytest.fixture(scope="module")
def mined():
    schema = AttributeSchema(
        attributes=(Attribute("x", "numeric"), Attribute("y", "numeric")),
        class_attribute="cls",
        class_labels=("neg", "pos"),
    )
    rng = np.random.default_rng(31)
    X = rng.uniform(0, 1, (150, 2))
    y = ((X[:, 0] > 0.45) ^ (X[:, 1] > 0.55)).astype(np.int64)
    data = build_encoded(schema, X, y)
    rule_list, report = mine(data, SMALL)
    return data, rule_list, report


class TestRecordInvariants:

    def test_emission_order_matches_position(self, mined):
        _, rule_list, report = mined
        assert _rules(report) == list(rule_list.rules)

    def test_records_meet_published_thresholds(self, mined):
        data, _, report = mined
        for k, log in enumerate(_emitted(report), start=1):
            assert log.confidence >= SMALL.min_confidence
            target = log.candidate.class_index
            unc_c = int(np.count_nonzero(data.y[report.uncovered_before(k)] == target))
            assert log.floor == SMALL.support_factor * unc_c
            assert log.correct >= log.floor
            assert np.count_nonzero(report.covered_by == k) >= 1

    def test_snapshots_shrink(self, mined):
        _, _, report = mined
        sizes = [len(report.uncovered_before(k)) for k in range(1, len(_rules(report)) + 1)]
        assert sizes == sorted(sizes, reverse=True)
        assert all(a > b for a, b in zip(sizes, sizes[1:]))

    def test_coverage_identity(self, mined):
        _, _, report = mined
        covered = np.count_nonzero(report.covered_by > 0)
        residue = sum(report.uncovered_residue.values())
        assert covered + residue == len(report.covered_by)

    def test_floors_never_rise_within_a_class(self, mined):
        data, _, report = mined
        last: dict[int, float] = {}
        for k, rule in enumerate(_rules(report), start=1):
            unc_c = int(
                np.count_nonzero(data.y[report.uncovered_before(k)] == rule.class_index)
            )
            floor = SMALL.support_factor * unc_c
            if rule.class_index in last:
                assert floor <= last[rule.class_index] + 1e-12
            last[rule.class_index] = floor

    def test_records_verify_against_their_snapshots(self, mined):
        data, _, report = mined
        for k, log in enumerate(_emitted(report), start=1):
            sub = data.subset(report.uncovered_before(k))
            matched, correct = brute_force_counts(log.candidate, sub)
            assert np.count_nonzero(report.covered_by == k) == matched
            assert log.support == correct / len(sub)
            assert log.confidence == correct / matched

    def test_every_launch_is_judged_by_the_gates(self, mined):
        data, _, report = mined
        _assert_gates(data, SMALL, report)

    def test_swarm_logs_align_with_iterations(self, mined):
        data, _, report = mined
        json_logs = report.to_dict(data.schema)["swarm_logs"]
        k = 1
        for log, json_log in zip(report.swarm_logs, json_logs, strict=True):
            # a launch's class is its candidate's, a class left uncovered then
            target = log.candidate.class_index
            assert json_log["class"] == data.schema.class_labels[target]
            assert np.count_nonzero(data.y[report.uncovered_before(k)] == target) > 0
            k += log.outcome == "emitted"

    def test_swarm_logs_say_why_each_swarm_stopped(self, mined):
        data, _, report = mined
        pso = SMALL.pso
        json_logs = report.to_dict(data.schema)["swarm_logs"]
        for log, json_log in zip(report.swarm_logs, json_logs, strict=True):
            steps = len(log.trace) - 1
            assert json_log["fitness_evals"] == (
                log.warm_start_candidates + pso.swarm_size * (steps + 1))
            if steps == pso.max_iterations:
                assert log.stop_reason == "max_iterations"
            else:
                assert log.stop_reason == "stagnation"
                # the best fitness did not rise over the last stagnation_limit steps
                assert steps >= pso.stagnation_limit
                tail = log.trace[-pso.stagnation_limit - 1 :]
                assert tail == [tail[0]] * len(tail)

    def test_network_represents_whole_training_set(self, mined):
        _, _, report = mined
        total = report.network.represented_counts.sum()
        assert total == len(report.covered_by)

    def test_report_serializes_to_json(self, mined):
        data, rule_list, report = mined
        doc = report.to_dict(data.schema)
        text = json.dumps(doc)
        parsed = json.loads(text)
        assert parsed["stop_reason"] == report.stop_reason
        assert parsed["train_size"] == len(data) == len(report.covered_by)
        assert [(log["stop_reason"], log["fitness_evals"]) for log in parsed["swarm_logs"]] == [
            (log.stop_reason, log.warm_start_candidates + SMALL.pso.swarm_size * len(log.trace))
            for log in report.swarm_logs
        ]
        # each rule entry names its launch, whose log holds the rule itself
        assert len(parsed["rules"]) == len(rule_list.rules) >= 1
        assert all(r.keys() == {"iteration", "covered_count", "uncovered_before"}
                   for r in parsed["rules"])
        launches = [parsed["swarm_logs"][r["iteration"] - 1] for r in parsed["rules"]]
        assert all(log["outcome"] == "emitted" for log in launches)
        assert [log["candidate"] for log in launches] == [
            rule_to_dict(rule, data.schema) for rule in rule_list.rules]
        # the JSON keeps the size of each rule's uncovered set, not its rows,
        # and how many of them the rule covered
        ks = range(1, len(parsed["rules"]) + 1)
        assert [r["uncovered_before"] for r in parsed["rules"]] == [
            len(report.uncovered_before(k)) for k in ks]
        assert [r["covered_count"] for r in parsed["rules"]] == [
            np.count_nonzero(report.covered_by == k) for k in ks]


class TestDegenerateInputs:
    def test_single_class_rejected(self, numeric_schema):
        # a fault of the data, so the CLI exits 1 (README: exit codes)
        X = np.random.default_rng(0).uniform(0, 1, (30, 2))
        data = build_encoded(numeric_schema, X, np.zeros(30, dtype=np.int64))
        with pytest.raises(DataError, match="at least 2 classes"):
            mine(data, SMALL)

    def test_empty_dataset_rejected(self, numeric_schema):
        data = build_encoded(numeric_schema, np.zeros((0, 2)), [])
        with pytest.raises(DataError):
            mine(data, SMALL)


@pytest.fixture(scope="module")
def nothing_minable():
    rng = np.random.default_rng(11)
    X = rng.uniform(0, 1, (60, 1))
    y = np.arange(60) % 2
    data = build_encoded(_one_numeric_schema(), X, y)
    cfg = MinerConfig(
        seed=5,
        min_confidence=0.995,
        max_attempts_per_class=1,
        support_factor=1.0,
        lvq=LvqConfig(centroid_count=4, max_epochs=10),
        pso=PsoConfig(swarm_size=8, max_iterations=10, stagnation_limit=5),
    )
    rule_list, report = mine(data, cfg)
    return data, rule_list, report


SCATTERED_CONFIG = MinerConfig(
    seed=9,
    support_factor=0.9,
    min_confidence=0.95,
    max_attempts_per_class=2,
    lvq=LvqConfig(centroid_count=4, max_epochs=20),
    pso=PsoConfig(swarm_size=10, max_iterations=20, stagnation_limit=8),
)


@pytest.fixture(scope="module")
def scattered_minority():
    rng = np.random.default_rng(2)
    X = rng.uniform(0, 1, (120, 1))
    y = np.zeros(120, dtype=np.int64)
    y[::6] = 1
    data = build_encoded(_one_numeric_schema(), X, y)
    rule_list, report = mine(data, SCATTERED_CONFIG)
    return data, rule_list, report


class TestNothingMinable:
    """Interleaved classes under a strict confidence bar: no rule can be
    emitted, every class retires, and the default carries the whole load."""

    def test_no_rules_emitted(self, nothing_minable):
        _, rule_list, report = nothing_minable
        assert rule_list.rules == ()
        assert report.stop_reason == STOP_NO_VIABLE_CLASS
        assert report.uncovered_residue == {0: 30, 1: 30}

    def test_attempts_exhausted_for_both_classes(self, nothing_minable):
        _, _, report = nothing_minable
        assert _failed_attempts(report) == {0: 1, 1: 1}

    def test_default_breaks_full_tie_by_lower_index(self, nothing_minable):
        # residue tied 30/30 and totals tied 30/30 -> lowest class index
        _, rule_list, _ = nothing_minable
        assert rule_list.default_class == 0

    def test_everything_classifies_to_default(self, nothing_minable):
        data, rule_list, _ = nothing_minable
        pred, fired = classify_dataset(rule_list, data)
        assert np.all(pred == 0)
        assert np.all(fired == 0)


class TestScatteredMinority:
    """A thin minority scattered through the majority: under a high support
    factor no pure box can cover enough of it, so the floor (not confidence
    alone) is what keeps junk fragments out of the list."""

    def test_minority_never_emits(self, scattered_minority):
        _, _, report = scattered_minority
        assert all(rule.class_index != 1 for rule in _rules(report))
        assert _failed_attempts(report)[1] == 2
        assert report.uncovered_residue == {0: 100, 1: 20}

    def test_the_floor_counts_correct_rows(self, scattered_minority):
        # 20 minority rows under support_factor 0.9: a candidate needs 18 of
        # them correct, and a pure fragment falls short of that
        _, _, report = scattered_minority
        minority = [log for log in report.swarm_logs if log.candidate.class_index == 1]
        assert {log.floor for log in minority} == {0.9 * 20}
        assert any(log.outcome == "floor" and log.confidence == 1.0
                   and 0 < log.correct < log.floor for log in minority)

    def test_minority_rows_fall_to_default(self, scattered_minority):
        data, rule_list, _ = scattered_minority
        assert rule_list.default_class == 0
        predicted, fired = classify_dataset(rule_list, data)
        minority = data.y == 1
        assert np.all(predicted[minority] == 0)
        assert np.all(fired[minority] == 0)


class TestFoldedRule:
    """A candidate with an empty antecedent would match every row left, so
    it ends mining as the default class, not as a rule: its rows stay in the
    residue, and every row predicts as the list ending in IF TRUE would."""

    def test_a_final_if_true_becomes_the_default(self):
        # `synth --rows 200 --seed 3 --profile fragmented`, `train --seed 1`
        # with min_confidence 0.6, which IF TRUE THEN common passes
        data = encode(generate("fragmented", rows=200, seed=3).to_raw())
        rule_list, report = mine(data, MinerConfig(min_confidence=0.6, seed=1))
        labels = data.schema.class_labels
        assert rule_list.rules == ()
        assert labels[rule_list.default_class] == "common"
        assert report.stop_reason == STOP_ALL_COVERED
        assert [log.outcome for log in report.swarm_logs] == ["folded"]
        assert _failed_attempts(report) == {}
        assert not report.covered_by.any()
        assert sum(report.uncovered_residue.values()) == len(data)
        assert report.to_dict(data.schema)["rules"] == []
        _assert_fold_keeps_classification(rule_list, rule_list.default_class, data)


class TestDefaultConfig:
    def test_the_default_mines_the_fragmented_pockets(self):
        # `synth --rows 2000 --seed 1 --profile fragmented`, `train --seed 1
        # --test-fraction 0.3`: IF TRUE THEN common is 75% right, below the
        # default min_confidence, so the swarm goes on to the rare pockets
        data = encode(generate("fragmented", rows=2000, seed=1).to_raw())
        train, test = stratified_split(data, 0.3, 1)
        rule_list, report = mine(train, MinerConfig(seed=1))
        assert report.swarm_logs[0].outcome != "folded"
        assert len(rule_list.rules) >= 4
        predicted, _ = classify_dataset(rule_list, test)
        assert np.array_equal(predicted, test.y)


class TestRandomDatasets:
    def test_identities_hold_across_random_inputs(self):
        rng = np.random.default_rng(99)
        folds = 0
        for trial in range(8):
            data = random_mixed_dataset(rng)
            cfg = MinerConfig(
                seed=int(rng.integers(0, 2**31)),
                max_attempts_per_class=2,
                lvq=LvqConfig(centroid_count=6, max_epochs=15),
                pso=PsoConfig(swarm_size=10, max_iterations=25, stagnation_limit=10),
            )
            rule_list, report = mine(data, cfg)
            assert all(rule.antecedent for rule in rule_list.rules)
            covered = np.count_nonzero(report.covered_by > 0)
            assert covered + sum(report.uncovered_residue.values()) == len(data)
            assert _rules(report) == list(rule_list.rules)
            for k, log in enumerate(_emitted(report), start=1):
                sub = data.subset(report.uncovered_before(k))
                matched, correct = brute_force_counts(log.candidate, sub)
                assert (matched and correct / matched) == log.confidence
                assert correct / len(sub) == log.support
            # each row is covered by the first rule that matches it, or by
            # none: the rule first-match scoring fires on it
            for i in range(len(data)):
                row = data.subset(np.array([i]))
                first = next((k for k, rule in enumerate(rule_list.rules, start=1)
                              if brute_force_counts(rule, row)[0]), 0)
                assert report.covered_by[i] == first
            fired = classify_dataset(rule_list, data)[1]
            assert np.array_equal(report.covered_by, fired)
            # so every rule kept fires on at least one training row
            assert set(range(1, len(rule_list.rules) + 1)) <= set(fired.tolist())
            if report.swarm_logs[-1].outcome == "folded":
                folds += 1
                _assert_fold_keeps_classification(
                    rule_list, report.swarm_logs[-1].candidate.class_index, data)
            # the JSON's counters and launch numbers are counts over its swarm logs
            doc = report.to_dict(data.schema)
            logs = doc["swarm_logs"]
            assert doc["total_iterations"] == len(logs) == len(report.swarm_logs)
            assert [log["iteration"] for log in logs] == list(range(1, len(logs) + 1))
            emitted = [log for log in logs if log["outcome"] == "emitted"]
            assert [r["iteration"] for r in doc["rules"]] == [
                log["iteration"] for log in emitted]
            assert doc["failed_attempts"] == {
                label: sum(log["class"] == label and log["outcome"] in GATES for log in logs)
                for label in data.schema.class_labels
            }
            # and each launch's entry says how its candidate did against the gates
            assert [(log["outcome"], log["candidate"], log["support"], log["confidence"],
                     log["correct"], log["floor"]) for log in logs] == [
                (log.outcome, rule_to_dict(log.candidate, data.schema), log.support,
                 log.confidence, log.correct, log.floor)
                for log in report.swarm_logs]
        assert folds > 0

    def test_gates_judge_every_launch_of_criterion_7(self, criterion_7_runs):
        failed = 0
        for data, config, _, report in criterion_7_runs:
            _assert_gates(data, config, report)
            failed += sum(log.outcome in GATES for log in report.swarm_logs)
        assert failed > 0

    def test_each_launch_of_criterion_7_targets_the_class_its_turn_names(
        self, criterion_7_runs
    ):
        # replayed from the report: each launch's uncovered rows from
        # covered_by, and each class's failures in a row from the outcomes
        waited = 0
        for data, config, _, report in criterion_7_runs:
            n_classes = len(data.schema.class_labels)
            failures = dict.fromkeys(range(n_classes), 0)

            def viable(counts):
                return [c for c in range(n_classes)
                        if counts[c] and failures[c] < config.max_attempts_per_class]

            k = 1
            for log in report.swarm_logs:
                counts = np.bincount(data.y[report.uncovered_before(k)], minlength=n_classes)
                # a residue of one class folds into the default unsearched
                assert np.count_nonzero(counts) >= 2
                target = log.candidate.class_index
                assert target == min(viable(counts),
                                     key=lambda c: (failures[c], -counts[c], c))
                # a class that just failed goes behind one that has not
                waited += target != min(viable(counts), key=lambda c: (-counts[c], c))
                if log.outcome in GATES:
                    failures[target] += 1
                elif log.outcome == "emitted":
                    failures[target] = 0
                    k += 1
            # and the run stopped where its stop reason says
            counts = np.bincount(data.y[report.covered_by == 0], minlength=n_classes)
            if report.stop_reason == STOP_NO_VIABLE_CLASS:
                assert not viable(counts) and np.count_nonzero(counts) >= 2
            else:
                assert (report.swarm_logs[-1].outcome == "folded"
                        or np.count_nonzero(counts) < 2)
        assert waited > 0

    def test_outcomes_recompute_from_the_report_of_criterion_7(
        self, criterion_7_runs, scattered_minority
    ):
        # no launch of these runs falls below its floor: each returns at least
        # its best one-condition rule, which clears a support_factor of 0.1.
        # The scattered minority's fragments do fall below theirs.
        data, _, report = scattered_minority
        runs = [*criterion_7_runs, (data, SCATTERED_CONFIG, None, report)]
        outcomes = Counter()
        for data, config, _, report in runs:
            doc = json.loads(json.dumps(report.to_dict(data.schema)))
            _assert_outcomes_recompute(doc, config.min_confidence)
            outcomes.update(log["outcome"] for log in doc["swarm_logs"])
        assert set(outcomes) == {"emitted", "folded", *GATES}
