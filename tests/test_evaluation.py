import json

import numpy as np
import pytest

from conftest import brute_force_counts, build_encoded, first_match, random_mixed_dataset
from rulemine.errors import DataError
from rulemine.evaluation import (
    ConfusionMatrix,
    accuracy_from_matrix,
    evaluate,
    mine_greedy_baseline,
    type_i_error_from_matrix,
)
from rulemine.rules import NominalMembership, NumericInterval, Rule, RuleList
from rulemine.schema import encode, stratified_split
from rulemine.synth import generate

# Three published 2x2 matrices (rows = predicted, columns = actual) with their
# reported headline numbers. The exact ratios below were recomputed by hand
# from the printed cell values (each matrix totals 2247.00 examples).
REFERENCE_MATRICES = [
    # cells, accuracy (recomputed), reported acc %, type I (recomputed), reported
    ([[1422.60, 244.18], [181.61, 398.61]], 1821.21 / 2247.0, 81.05, 244.18 / 2247.0, 0.11),
    ([[1407.15, 238.58], [197.04, 404.23]], 1811.38 / 2247.0, 80.61, 238.58 / 2247.0, 0.11),
    ([[1450.26, 314.73], [152.75, 329.26]], 1779.52 / 2247.0, 79.20, 314.73 / 2247.0, 0.14),
]


def _matrix(cells):
    return ConfusionMatrix(counts=np.array(cells), labels=("neg", "pos"))


class TestMatrixMetrics:
    @pytest.mark.parametrize("cells,acc,acc_pub,t1,t1_pub", REFERENCE_MATRICES)
    def test_reference_values(self, cells, acc, acc_pub, t1, t1_pub):
        m = _matrix(cells)
        assert accuracy_from_matrix(m) == pytest.approx(acc, abs=1e-12)
        assert type_i_error_from_matrix(m, 1) == pytest.approx(t1, abs=1e-12)
        # and the two-decimal published figures at their stated tolerances
        assert 100 * accuracy_from_matrix(m) == pytest.approx(acc_pub, abs=0.01)
        assert type_i_error_from_matrix(m, 1) == pytest.approx(t1_pub, abs=0.005)

    def test_perfect_classifier(self):
        m = _matrix([[120.0, 0.0], [0.0, 80.0]])
        assert accuracy_from_matrix(m) == 1.0
        assert type_i_error_from_matrix(m, 1) == 0.0

    def test_fractional_counts_allowed(self):
        # averaged matrices keep fractional mass
        m = _matrix([[1.5, 0.5], [0.5, 1.5]])
        assert accuracy_from_matrix(m) == pytest.approx(0.75)

    def test_positive_class_zero(self):
        m = _matrix([[90.0, 10.0], [30.0, 70.0]])
        assert type_i_error_from_matrix(m, 0) == pytest.approx(30.0 / 200.0)

    def test_validation(self):
        with pytest.raises(DataError):
            ConfusionMatrix(counts=np.zeros((2, 3)), labels=("a", "b"))
        with pytest.raises(DataError):
            ConfusionMatrix(counts=np.zeros((3, 3)), labels=("a", "b"))
        with pytest.raises(DataError):
            accuracy_from_matrix(_matrix([[0.0, 0.0], [0.0, 0.0]]))
        with pytest.raises(DataError, match="confusion matrix is empty"):
            type_i_error_from_matrix(_matrix([[0.0, 0.0], [0.0, 0.0]]), 0)
        with pytest.raises(DataError):
            type_i_error_from_matrix(_matrix([[1.0, 0.0], [0.0, 1.0]]), 2)


@pytest.fixture
def tiny(credit_schema):
    # encoded columns: single, married, divorced, salary, age
    X = np.array(
        [
            [0.0, 1.0, 0.0, 0.30, 0.5],
            [0.0, 1.0, 0.0, 0.55, 0.2],
            [0.0, 1.0, 0.0, 0.10, 0.8],
            [0.0, 1.0, 0.0, 0.40, 0.4],
            [1.0, 0.0, 0.0, 0.90, 0.3],
            [0.0, 0.0, 1.0, 0.80, 0.6],
            [1.0, 0.0, 0.0, 0.20, 0.1],
            [0.0, 0.0, 1.0, 0.95, 0.9],
            [1.0, 0.0, 0.0, 0.85, 0.7],
            [0.0, 1.0, 0.0, 0.70, 0.5],
        ]
    )
    y = np.array([1, 1, 1, 0, 0, 1, 0, 1, 1, 1])
    return build_encoded(credit_schema, X, y)


@pytest.fixture
def two_rule_list():
    married_low = Rule(
        antecedent=(
            NominalMembership("marital_status", frozenset({"married"})),
            NumericInterval("salary", 0.0, 0.6),
        ),
        class_index=1,
    )
    high_salary = Rule(
        antecedent=(NumericInterval("salary", 0.75, 1.0),),
        class_index=1,
    )
    return RuleList(rules=(married_low, high_salary), default_class=0)


class TestEvaluate:
    def test_counts_balance(self, tiny, two_rule_list):
        rep = evaluate(two_rule_list, tiny)
        assert rep.confusion.total == len(tiny)
        assert sum(rep.rule_fire_counts) + rep.default_fire_count == len(tiny)
        assert rep.rule_count == 2
        assert rep.mean_antecedent_length == pytest.approx(1.5)

    def test_agrees_with_row_by_row_classification(self, tiny, two_rule_list):
        rep = evaluate(two_rule_list, tiny)
        hits = 0
        fires = [0, 0, 0]  # default, rule 1, rule 2
        for i in range(len(tiny)):
            label, fired = first_match(two_rule_list, tiny, i)
            hits += label == tiny.y[i]
            fires[0 if fired is None else fired] += 1
        assert rep.accuracy == pytest.approx(hits / len(tiny))
        assert rep.default_fire_count == fires[0]
        assert rep.rule_fire_counts == fires[1:]

    def test_hand_checked_confusion(self, tiny, two_rule_list):
        # rule 1 fires on rows 0,1,2,3 (married, salary <= 0.6): y = 1,1,1,0
        # rule 2 fires on rows 4,5,7,8 (salary >= 0.75): y = 0,1,1,1
        # default 0 takes rows 6,9: y = 0,1
        rep = evaluate(two_rule_list, tiny)
        assert rep.rule_fire_counts == [4, 4]
        assert rep.default_fire_count == 2
        expected = np.array([[1.0, 1.0], [2.0, 6.0]])
        assert np.array_equal(rep.confusion.counts, expected)
        assert rep.accuracy == pytest.approx(0.7)
        assert rep.type_i_error == pytest.approx(1.0 / 10.0)

    def test_one_class_test_set(self, tiny, two_rule_list, credit_schema):
        X = tiny.X[:4]
        data = build_encoded(credit_schema, X, np.zeros(4, dtype=np.int64))
        rep = evaluate(two_rule_list, data)
        assert rep.confusion.total == 4
        assert rep.type_i_error == 0.0  # no actual positives at all

    def test_empty_test_set_rejected(self, tiny, two_rule_list, credit_schema):
        empty = build_encoded(credit_schema, np.zeros((0, 5)), [])
        with pytest.raises(DataError):
            evaluate(two_rule_list, empty)

    def test_empty_rule_list_all_default(self, tiny):
        rep = evaluate(RuleList(rules=(), default_class=1), tiny)
        assert rep.rule_count == 0
        assert rep.mean_antecedent_length == 0.0
        assert rep.default_fire_count == len(tiny)
        assert rep.accuracy == pytest.approx(0.7)

    def test_report_round_trips_to_json(self, tiny, two_rule_list):
        rep = evaluate(two_rule_list, tiny)
        doc = json.loads(json.dumps(rep.to_dict()))
        assert doc["accuracy_percent"] == pytest.approx(100 * rep.accuracy)
        assert doc["positive_class"] == "Accept"
        assert doc["rule_fire_counts"] == rep.rule_fire_counts

    def test_format_table_mentions_everything(self, tiny, two_rule_list):
        text = evaluate(two_rule_list, tiny).format_table()
        assert "pred / actual" in text
        assert "Deny" in text and "Accept" in text
        assert "accuracy (%)" in text
        assert "type I error" in text
        assert "mean antecedent" in text


def _replay_baseline(rule_list, data):
    """Walk a baseline rule list the way it was grown, removing every row each
    rule matches, as first-match scoring fires it on all of them: by brute
    force, every rule must classify one row at least of the rows still
    uncovered before it."""
    uncovered = np.arange(len(data))
    for rule in rule_list.rules:
        rows = data.subset(uncovered)
        assert brute_force_counts(rule, rows)[1] >= 1
        covered = [
            brute_force_counts(rule, rows.subset(np.array([i])))[0] == 1
            for i in range(len(rows))
        ]
        uncovered = uncovered[np.logical_not(covered)]


class TestGreedyBaseline:
    def test_separable_is_fully_learned(self):
        data = encode(generate("separable", 200, 7).to_raw())
        baseline = mine_greedy_baseline(data, min_confidence=0.6)
        rep = evaluate(baseline, data)
        assert rep.accuracy == 1.0
        # a single split separates the classes, so the first rule needs one condition
        assert len(baseline.rules[0].antecedent) == 1

    def test_every_rule_has_a_condition(self):
        for profile, n, seed in [("separable", 200, 7), ("fragmented", 400, 3)]:
            data = encode(generate(profile, n, seed).to_raw())
            baseline = mine_greedy_baseline(data, min_confidence=0.9)
            assert baseline.rules  # found something
            assert all(len(r.antecedent) >= 1 for r in baseline.rules)

    def test_fragmented_needs_many_rules(self):
        # the minority class hides in 8 disjoint pockets
        data = encode(generate("fragmented", 400, 3).to_raw())
        baseline = mine_greedy_baseline(data, min_confidence=0.9)
        assert len(baseline.rules) >= 8

    def test_deterministic(self):
        data = encode(generate("fragmented", 300, 5).to_raw())
        assert mine_greedy_baseline(data, 0.6) == mine_greedy_baseline(data, 0.6)

    def test_empty_dataset_rejected(self, numeric_schema):
        data = build_encoded(numeric_schema, np.zeros((0, 2)), [])
        with pytest.raises(DataError):
            mine_greedy_baseline(data, 0.6)

    def test_every_rule_covers_an_uncovered_row(self):
        # the baseline's counterpart of acceptance criterion 7
        datasets = [
            ("fragmented", 2000, 1, 0.9),
            ("credit3", 1000, 2, 0.85),
            ("credit3", 1000, 3, 0.6),
            ("separable", 200, 4, 0.6),
        ]
        for profile, n, seed, min_confidence in datasets:
            data = encode(generate(profile, n, seed).to_raw())
            train, _ = stratified_split(data, 0.3, seed)
            _replay_baseline(mine_greedy_baseline(train, min_confidence), train)
        rng = np.random.default_rng(8)
        for _ in range(20):
            data = random_mixed_dataset(rng)
            _replay_baseline(mine_greedy_baseline(data, min_confidence=0.8), data)

    @pytest.mark.parametrize(
        "profile,n,min_confidence,rule_counts,condition_counts",
        [
            # criterion 2: pure nominal pockets
            ("fragmented", 2000, 0.9, [71, 59, 94, 160, 104], [117, 98, 139, 214, 149]),
            # criterion 3: numeric splits compete with nominal values
            ("credit3", 5000, 0.85, [103, 84, 130, 88, 87], [113, 92, 149, 95, 89]),
        ],
        ids=["fragmented", "credit3"],
    )
    def test_rule_counts_on_criterion_2_protocol(
        self, profile, n, min_confidence, rule_counts, condition_counts
    ):
        # seeds 1-5 and a 0.3 split: candidate order and tie-breaks decide
        # these counts
        rules, conditions = [], []
        for seed in (1, 2, 3, 4, 5):
            data = encode(generate(profile, n, seed).to_raw())
            train, _ = stratified_split(data, 0.3, seed)
            baseline = mine_greedy_baseline(train, min_confidence)
            rules.append(len(baseline.rules))
            conditions.append(sum(len(r.antecedent) for r in baseline.rules))
        assert rules == rule_counts
        assert conditions == condition_counts
