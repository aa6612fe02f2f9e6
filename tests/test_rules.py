import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    brute_force_counts,
    build_encoded,
    first_match,
    random_mixed_dataset,
    support_confidence,
)
from rulemine.errors import SchemaError
from rulemine.schema import encode
from rulemine.synth import generate
from rulemine.rules import (
    NominalMembership,
    NumericInterval,
    Rule,
    RuleList,
    choose_default_class,
    classify_dataset,
    match_mask,
    render_condition,
    render_rule,
    render_rule_list,
    rule_list_from_dict,
    rule_list_to_dict,
    validate_rule,
)


@pytest.fixture
def tiny(credit_schema):
    # columns: single, married, divorced, salary, age
    X = np.array(
        [
            # 4 matches for the "married & salary<=0.6" rule, 3 of class 1
            [0, 1, 0, 0.2, 0.1],
            [0, 1, 0, 0.4, 0.9],
            [0, 1, 0, 0.5, 0.5],
            [0, 1, 0, 0.6, 0.3],
            # non-matching rest
            [1, 0, 0, 0.1, 0.1],
            [0, 0, 1, 0.2, 0.2],
            [1, 0, 0, 0.9, 0.9],
            [0, 1, 0, 0.8, 0.4],   # married but salary too high
            [0, 0, 1, 0.5, 0.6],
            [1, 0, 0, 0.3, 0.8],
        ]
    )
    y = np.array([1, 1, 1, 0, 0, 1, 0, 1, 1, 1])
    return build_encoded(credit_schema, X, y)


@pytest.fixture
def married_rule():
    return Rule(
        antecedent=(
            NominalMembership("marital_status", frozenset({"married"})),
            NumericInterval("salary", 0.0, 0.6),
        ),
        class_index=1,
    )


class TestConditionValidity:
    def test_empty_membership_rejected(self):
        with pytest.raises(ValueError):
            NominalMembership("a", frozenset())

    def test_inverted_interval_rejected(self):
        with pytest.raises(ValueError):
            NumericInterval("a", 0.7, 0.3)

    def test_out_of_unit_interval_rejected(self):
        with pytest.raises(ValueError):
            NumericInterval("a", -0.1, 0.5)

    def test_duplicate_attribute_rejected(self):
        with pytest.raises(ValueError):
            Rule(
                antecedent=(
                    NumericInterval("a", 0.0, 0.5),
                    NumericInterval("a", 0.5, 1.0),
                ),
                class_index=0,
            )

    def test_full_value_set_rejected_by_validation(self, credit_schema):
        rule = Rule(
            antecedent=(
                NominalMembership(
                    "marital_status", frozenset({"single", "married", "divorced"})
                ),
            ),
            class_index=0,
        )
        with pytest.raises(ValueError, match="proper subset"):
            validate_rule(rule, credit_schema)

    def test_unknown_attribute_rejected(self, credit_schema):
        rule = Rule(antecedent=(NumericInterval("ghost", 0.0, 1.0),), class_index=0)
        with pytest.raises(SchemaError):
            validate_rule(rule, credit_schema)

    def test_class_index_out_of_range(self, credit_schema):
        rule = Rule(antecedent=(), class_index=5)
        with pytest.raises(ValueError, match="out of range"):
            validate_rule(rule, credit_schema)


def fires(rule, data):
    """Per-row flags: does ``rule`` fire when it is the only rule in the list?"""
    return classify_dataset(RuleList(rules=(rule,), default_class=0), data)[1] == 1


class TestMatches:
    def test_empty_antecedent_matches_everything(self, tiny):
        rule = Rule(antecedent=(), class_index=0)
        assert all(fires(rule, tiny))

    def test_closed_interval_boundary(self, tiny):
        rule = Rule(antecedent=(NumericInterval("salary", 0.3, 0.7),), class_index=0)
        row = tiny.subset(np.array([1]))  # salary exactly 0.4; adjust to the boundary
        row.X[0, tiny.layout.numeric["salary"]] = 0.3
        assert fires(rule, row)[0]

    def test_membership_exclusion(self, tiny):
        rule = Rule(
            antecedent=(NominalMembership("marital_status", frozenset({"married"})),),
            class_index=0,
        )
        assert not fires(rule, tiny)[4]  # single row


def support(rule, data):
    return support_confidence(rule, data)[0]


def confidence(rule, data):
    return support_confidence(rule, data)[1]


class TestSupportConfidence:
    def test_support_three_of_ten(self, tiny, married_rule):
        # matches rows 0-3; rows 0,1,2 carry class 1 -> support 0.3
        assert support(married_rule, tiny) == pytest.approx(0.3)

    def test_confidence_three_of_four(self, tiny, married_rule):
        assert confidence(married_rule, tiny) == pytest.approx(0.75)

    def test_mask_flags_every_matched_row(self, tiny, married_rule):
        # rows 0-3 match whatever their class; row 3 is not of class 1
        mask = match_mask(married_rule.antecedent, tiny)
        assert np.flatnonzero(mask).tolist() == [0, 1, 2, 3]

    def test_empty_antecedent_is_class_frequency(self, tiny):
        rule = Rule(antecedent=(), class_index=1)
        assert support(rule, tiny) == pytest.approx(0.7)

    def test_no_match_support_zero(self, tiny):
        rule = Rule(antecedent=(NumericInterval("salary", 0.95, 1.0),), class_index=0)
        assert support(rule, tiny) == 0.0
        assert confidence(rule, tiny) == 0.0

    def test_purity_confidence_one(self, tiny):
        rule = Rule(antecedent=(NumericInterval("age", 0.85, 1.0),), class_index=0)
        # rows 1 and 6 have age 0.9; row 1 is class 1 -> not pure. Narrow more.
        rule = Rule(antecedent=(NumericInterval("age", 0.75, 0.85),), class_index=1)
        assert confidence(rule, tiny) == 1.0


class TestClassify:
    def test_empty_list_gives_default(self, tiny):
        rl = RuleList(rules=(), default_class=1)
        predicted, fired = classify_dataset(rl, tiny)
        assert predicted[0] == 1 and fired[0] == 0

    def test_first_match_wins(self, tiny, married_rule):
        second = Rule(antecedent=(), class_index=0)
        rl = RuleList(rules=(married_rule, second), default_class=0)
        predicted, fired = classify_dataset(rl, tiny)
        assert predicted[0] == 1 and fired[0] == 1

    def test_fired_index_is_one_based_list_position(self, tiny, married_rule):
        blocker = Rule(
            antecedent=(NumericInterval("salary", 0.95, 1.0),), class_index=0
        )
        rl = RuleList(rules=(blocker, married_rule), default_class=0)
        predicted, fired = classify_dataset(rl, tiny)
        assert predicted[0] == 1 and fired[0] == 2

    def test_classify_dataset_matches_loop(self, tiny, married_rule):
        rl = RuleList(rules=(married_rule,), default_class=0)
        predicted, fired = classify_dataset(rl, tiny)
        for i in range(len(tiny)):
            c, f = first_match(rl, tiny, i)
            assert predicted[i] == c
            assert fired[i] == (0 if f is None else f)

    def test_appending_rules_never_rewrites_earlier_matches(self, tiny, married_rule):
        rl = RuleList(rules=(married_rule,), default_class=0)
        extended = RuleList(
            rules=(married_rule, Rule(antecedent=(), class_index=0)), default_class=1
        )
        before = classify_dataset(rl, tiny)
        after = classify_dataset(extended, tiny)
        decided = before[1] != 0
        assert np.array_equal(after[0][decided], before[0][decided])
        assert np.array_equal(after[1][decided], before[1][decided])


class TestDefaultClass:
    def test_majority_of_residue(self):
        assert choose_default_class(np.array([1, 1, 0]), np.array([5, 5])) == 1

    def test_tie_falls_to_global_majority(self):
        assert choose_default_class(np.array([0, 1]), np.array([3, 9])) == 1

    def test_full_tie_takes_lowest_index(self):
        assert choose_default_class(np.array([0, 1]), np.array([4, 4])) == 0

    def test_empty_residue_uses_global(self):
        assert choose_default_class(np.array([], dtype=np.int64), np.array([2, 7])) == 1


class TestRendering:
    def test_rendered_rule_format(self, credit_schema, married_rule):
        ranges = {"salary": (0.0, 1.0), "age": (0.0, 1.0)}
        text = render_rule(married_rule, credit_schema, ranges)
        assert text == (
            "IF marital_status IN {married} AND salary IN [0.00, 0.60] "
            "THEN status = Accept"
        )

    def test_unscaled_bounds(self, credit_schema):
        rule = Rule(antecedent=(NumericInterval("salary", 0.2, 0.55),), class_index=1)
        text = render_rule(rule, credit_schema, {"salary": (0.0, 100.0)})
        assert "salary IN [20.00, 55.00]" in text

    def test_constant_column_renders_its_one_value(self, numeric_schema):
        # a column constant in training scaled every row to 0.0, so each end
        # of an interval on it reads back as that one value
        cond = NumericInterval("x", 0.0, 1.0)
        assert render_condition(cond, numeric_schema, {"x": (5.0, 5.0)}) == "x IN [5.00, 5.00]"

    def test_empty_antecedent_renders_true(self, credit_schema):
        rule = Rule(antecedent=(), class_index=0)
        text = render_rule(rule, credit_schema, {})
        assert text == "IF TRUE THEN status = Deny"

    def test_rule_list_rendering(self, credit_schema, married_rule):
        rl = RuleList(rules=(married_rule,), default_class=0)
        text = render_rule_list(rl, credit_schema, {"salary": (0.0, 1.0)})
        lines = text.splitlines()
        assert lines[0].startswith("1. IF ")
        assert lines[-1] == "DEFAULT status = Deny"

    def test_nominal_values_rendered_in_declared_order(self, credit_schema):
        rule = Rule(
            antecedent=(
                NominalMembership(
                    "marital_status", frozenset({"divorced", "single"})
                ),
            ),
            class_index=0,
        )
        text = render_rule(rule, credit_schema, {})
        assert "{single, divorced}" in text


class TestSerialization:
    def test_round_trip(self, credit_schema, married_rule):
        rl = RuleList(
            rules=(Rule(antecedent=married_rule.antecedent, class_index=1),),
            default_class=0,
        )
        doc = rule_list_to_dict(rl, credit_schema)
        assert set(doc["rules"][0]) == {"antecedent", "class_index"}
        back = rule_list_from_dict(doc, credit_schema)
        assert back == rl

# --- brute-force agreement on randomized rules and data -----------------

@st.composite
def dataset_and_rule(draw):
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**31)))
    n = draw(st.integers(min_value=1, max_value=60))
    X = np.zeros((n, 5))
    pick = rng.integers(0, 3, n)
    X[np.arange(n), pick] = 1.0
    X[:, 3:] = rng.uniform(0, 1, (n, 2))
    y = rng.integers(0, 2, n)
    conds = []
    if draw(st.booleans()):
        values = ("single", "married", "divorced")
        allowed = frozenset(
            v for v in values if draw(st.booleans())
        ) or frozenset({"married"})
        if len(allowed) == 3:
            allowed = frozenset({"single", "married"})
        conds.append(NominalMembership("marital_status", allowed))
    if draw(st.booleans()):
        lo = draw(st.floats(min_value=0.0, max_value=1.0, width=32))
        hi = draw(st.floats(min_value=0.0, max_value=1.0, width=32))
        lo, hi = min(lo, hi), max(lo, hi)
        conds.append(NumericInterval("salary", lo, hi))
    rule = Rule(antecedent=tuple(conds), class_index=draw(st.integers(0, 1)))
    return X, y, rule


_SCHEMA = None


def _schema():
    global _SCHEMA
    if _SCHEMA is None:
        from rulemine.schema import Attribute, AttributeSchema

        _SCHEMA = AttributeSchema(
            attributes=(
                Attribute(
                    "marital_status", "nominal", ("single", "married", "divorced")
                ),
                Attribute("salary", "numeric"),
                Attribute("age", "numeric"),
            ),
            class_attribute="status",
            class_labels=("Deny", "Accept"),
        )
    return _SCHEMA


@given(dataset_and_rule())
@settings(max_examples=120, deadline=None)
def test_brute_force_oracle_agreement(payload):
    X, y, rule = payload
    data = build_encoded(_schema(), X, y)
    matched, correct = brute_force_counts(rule, data)
    assert np.count_nonzero(match_mask(rule.antecedent, data)) == matched
    assert support(rule, data) == correct / len(data)
    assert confidence(rule, data) == (correct / matched if matched else 0.0)
    if matched:
        assert support(rule, data) <= confidence(rule, data)
    class_freq = float(np.mean(data.y == rule.class_index))
    assert support(rule, data) <= class_freq + 1e-12


def _dummy_column_mask(conditions, data):
    """The membership test as first written: a row matches when the sum of
    its allowed dummy columns exceeds one half."""
    layout = data.layout
    mask = np.ones(len(data), dtype=bool)
    for cond in conditions:
        if isinstance(cond, NominalMembership):
            attr = layout.schema.attribute(cond.attribute)
            cols = layout.nominal[cond.attribute]
            picked = [cols.start + i for i, v in enumerate(attr.values) if v in cond.allowed]
            mask &= data.X[:, picked].sum(axis=1) > 0.5
        else:
            values = data.X[:, layout.numeric[cond.attribute]]
            mask &= (values >= cond.lo) & (values <= cond.hi)
    return mask


def _random_conditions(rng, data):
    """Random conditions; half the intervals end exactly on row values."""
    conds = []
    for attr in data.schema.attributes:
        if rng.random() < 0.4:
            continue
        if attr.kind == "nominal":
            k = int(rng.integers(1, len(attr.values)))
            picked = rng.choice(len(attr.values), size=k, replace=False)
            conds.append(NominalMembership(attr.name, frozenset(attr.values[i] for i in picked)))
        else:
            column = data.X[:, data.layout.numeric[attr.name]]
            ends = rng.choice(column, 2) if rng.random() < 0.5 else rng.random(2)
            lo, hi = np.sort(ends)
            conds.append(NumericInterval(attr.name, float(lo), float(hi)))
    return [conds[i] for i in rng.permutation(len(conds))]


@pytest.mark.parametrize("source", ["random", "credit3", "fragmented"])
@pytest.mark.parametrize("seed", range(8))
def test_match_mask_gather_agrees_with_dummy_column_sum(source, seed):
    rng = np.random.default_rng(seed)
    if source == "random":
        data = random_mixed_dataset(rng)
    else:  # the value index as encode builds it
        data = encode(generate(source, 300, seed).to_raw())
    for _ in range(25):
        conds = _random_conditions(rng, data)
        assert np.array_equal(match_mask(conds, data), _dummy_column_mask(conds, data))
