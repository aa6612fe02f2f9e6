"""Shared builders for the test suite.

Most tests construct EncodedDataset values directly instead of going through
CSV parsing, so the fixtures here keep the column bookkeeping in one place.
"""

from __future__ import annotations

import numpy as np
import pytest

from rulemine import pso
from rulemine.lvq import LvqConfig
from rulemine.miner import MinerConfig, mine
from rulemine.pso import PsoConfig
from rulemine.rules import Rule, match_mask
from rulemine.schema import Attribute, AttributeSchema, ColumnLayout, EncodedDataset


def build_encoded(schema: AttributeSchema, X, y) -> EncodedDataset:
    """Wrap raw arrays in an EncodedDataset with the schema's column layout.

    Each nominal block of ``X`` must be one-hot; its hot column becomes the
    row's entry in ``value_index``.
    """
    X = np.asarray(X, dtype=np.float64)
    layout = ColumnLayout(schema)
    ranges = {a.name: (0.0, 1.0) for a in schema.attributes if a.kind == "numeric"}
    blocks = [layout.nominal_columns(a.name) for a in schema.nominal_attributes]
    value_index = np.array(
        [X[:, b.start : b.stop].argmax(axis=1) + b.start for b in blocks], dtype=np.int32
    ).reshape(len(blocks), X.shape[0]).T
    return EncodedDataset(
        X=X,
        y=np.asarray(y, dtype=np.int64),
        layout=layout,
        numeric_ranges=ranges,
        value_index=value_index,
    )


def first_match(rule_list, data, i):
    """Per-row first-match oracle for ``classify_dataset``: row ``i`` of
    ``data`` on its own.

    Returns (class index, 1-based index of the rule that fired), the index
    being None when the default class answered.
    """
    row = data.subset(np.array([i]))
    for k, rule in enumerate(rule_list.rules, start=1):
        if match_mask(rule.antecedent, row)[0]:
            return rule.class_index, k
    return rule_list.default_class, None


def move_toward(position: np.ndarray, example: np.ndarray, rate: float) -> np.ndarray:
    """Attraction step: the new distance to the example is (1 - rate) times
    the old one, exactly.

    Under round-to-nearest fl(a - b) = -fl(b - a) and fl(r * -v) =
    -fl(r * v), so ``position - rate * (position - example)`` rounds to the
    same bits as ``position + rate * (example - position)``.
    """
    return position - rate * (position - example)


def move_away(position: np.ndarray, example: np.ndarray, rate: float) -> np.ndarray:
    """Repulsion step: the new distance to the example is (1 + rate) times
    the old one, exactly."""
    return position + rate * (position - example)


@pytest.fixture
def credit_schema() -> AttributeSchema:
    # 1 nominal (3 values) + 2 numeric -> 5 encoded columns
    return AttributeSchema(
        attributes=(
            Attribute("marital_status", "nominal", ("single", "married", "divorced")),
            Attribute("salary", "numeric"),
            Attribute("age", "numeric"),
        ),
        class_attribute="status",
        class_labels=("Deny", "Accept"),
    )


@pytest.fixture
def numeric_schema() -> AttributeSchema:
    return AttributeSchema(
        attributes=(Attribute("x", "numeric"), Attribute("y", "numeric")),
        class_attribute="cls",
        class_labels=("neg", "pos"),
    )


def random_mixed_dataset(rng: np.random.Generator) -> EncodedDataset:
    """A small random dataset with loose structure, for stress/property tests.

    Labels follow the first numeric column with 15% noise so mining finds
    something, and every class is guaranteed at least two members.
    """
    attrs = []
    for i in range(int(rng.integers(0, 3))):
        k = int(rng.integers(2, 5))
        attrs.append(Attribute(f"nom{i}", "nominal", tuple(f"v{j}" for j in range(k))))
    for i in range(int(rng.integers(1, 4))):
        attrs.append(Attribute(f"num{i}", "numeric"))
    n_classes = int(rng.integers(2, 4))
    schema = AttributeSchema(
        attributes=tuple(attrs),
        class_attribute="cls",
        class_labels=tuple(f"c{j}" for j in range(n_classes)),
    )
    n = int(rng.integers(20, 201))
    cols = []
    for a in attrs:
        if a.kind == "nominal":
            pick = rng.integers(0, len(a.values), n)
            block = np.zeros((n, len(a.values)))
            block[np.arange(n), pick] = 1.0
            cols.append(block)
        else:
            cols.append(rng.uniform(0.0, 1.0, (n, 1)))
    X = np.hstack(cols)
    data = build_encoded(schema, X, np.zeros(n, dtype=np.int64))
    first_num = data.layout.numeric_column(
        next(a.name for a in attrs if a.kind == "numeric")
    )
    y = (X[:, first_num] * n_classes).astype(np.int64).clip(0, n_classes - 1)
    flip = rng.uniform(0.0, 1.0, n) < 0.15
    y[flip] = rng.integers(0, n_classes, int(flip.sum()))
    for c in range(n_classes):
        if (y == c).sum() < 2:
            y[rng.choice(n, 2, replace=False)] = c
    return build_encoded(schema, X, y)


@pytest.fixture(scope="session")
def criterion_7_runs() -> list:
    """(data, config, rule list, report) of the 100 mining runs on random
    datasets that acceptance criterion 7 checks."""
    rng = np.random.default_rng(1234)
    runs = []
    for _ in range(100):
        data = random_mixed_dataset(rng)
        config = MinerConfig(
            seed=int(rng.integers(0, 2**31)),
            max_attempts_per_class=2,
            lvq=LvqConfig(centroid_count=6, max_epochs=15),
            pso=PsoConfig(swarm_size=10, max_iterations=25, stagnation_limit=10),
        )
        runs.append((data, config, *mine(data, config)))
    return runs


def support_confidence(rule: Rule, data: EncodedDataset) -> tuple[float, float]:
    """Support and confidence of one rule from its ``match_mask`` counts, by
    the integer divisions ``mine`` makes: the rows it matches of its class over
    all rows, and over the rows it matches (0.0 when it matches none)."""
    mask = match_mask(rule.antecedent, data)
    matched = int(np.count_nonzero(mask))
    correct = int(np.count_nonzero(data.y[mask] == rule.class_index))
    return correct / len(data), (correct / matched if matched else 0.0)


def fitness_from_rule(rule: Rule, data: EncodedDataset) -> float:
    """Weighted m-estimate confidence + support + shortness of one decoded
    rule: the oracle that the batch ``pso.fitness`` must equal bit for bit.
    The weights and m's share are read as it runs, so a test may patch them."""
    mask = match_mask(rule.antecedent, data)
    matched = int(np.count_nonzero(mask))
    correct = int(np.count_nonzero(data.y[mask] == rule.class_index))
    support = correct / len(data)
    class_rows = int(np.count_nonzero(data.y == rule.class_index))
    confidence = (correct + pso.M_ESTIMATE_SHARE * class_rows) / (
        matched + pso.M_ESTIMATE_SHARE * len(data)
    )
    total_attributes = len(data.schema.attributes)
    shortness = 1.0 - len(rule.antecedent) / total_attributes
    return (
        pso.WEIGHT_CONFIDENCE * confidence
        + pso.WEIGHT_SUPPORT * support
        + pso.WEIGHT_LENGTH * shortness
    )


def brute_force_counts(rule, data: EncodedDataset) -> tuple[int, int]:
    """Naive double-loop (matched, matched-and-correct) counts.

    Deliberately written without the vectorized matcher so the production
    code has an independent oracle to agree with.
    """
    layout = data.layout
    matched = correct = 0
    for i in range(len(data)):
        row_ok = True
        for cond in rule.antecedent:
            if hasattr(cond, "allowed"):
                active = None
                values = data.schema.attribute(cond.attribute).values
                for value, j in zip(values, layout.nominal_columns(cond.attribute)):
                    if data.X[i, j] == 1.0:
                        active = value
                        break
                if active not in cond.allowed:
                    row_ok = False
                    break
            else:
                v = data.X[i, layout.numeric_column(cond.attribute)]
                if not (cond.lo <= v <= cond.hi):
                    row_ok = False
                    break
        if row_ok:
            matched += 1
            if data.y[i] == rule.class_index:
                correct += 1
    return matched, correct
