"""Decision-list evaluation and a deterministic greedy covering baseline.

Confusion matrices here are oriented rows = predicted class, columns =
actual class. The headline accuracy is the diagonal mass over the total;
the type I error is the mass predicted away from the positive class (the
second class label) while the true class was positive, over the total.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .rules import (
    NominalMembership,
    NumericInterval,
    Rule,
    RuleList,
    choose_default_class,
    classify_dataset,
    match_mask,
)
from .schema import NOMINAL, EncodedDataset

POSITIVE_CLASS = 1


@dataclass
class ConfusionMatrix:
    """Square matrix of prediction/actual mass; float so that averaged
    matrices (e.g. cross-validation means) work too."""

    counts: np.ndarray
    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        self.counts = np.asarray(self.counts, dtype=np.float64)
        if self.counts.ndim != 2 or self.counts.shape[0] != self.counts.shape[1]:
            raise DataError("confusion matrix must be square")
        if self.counts.shape[0] != len(self.labels):
            raise DataError("confusion matrix size must match the label count")

    @property
    def total(self) -> float:
        return float(self.counts.sum())


def accuracy_from_matrix(matrix: ConfusionMatrix) -> float:
    """Diagonal mass over total mass, as a ratio in [0, 1]."""
    total = matrix.total
    if total <= 0:
        raise DataError("confusion matrix is empty")
    return float(np.trace(matrix.counts)) / total

def type_i_error_from_matrix(matrix: ConfusionMatrix, positive_class: int) -> float:
    """Mass with actual class = positive but predicted otherwise, over total."""
    total = matrix.total
    if total <= 0:
        raise DataError("confusion matrix is empty")
    if not 0 <= positive_class < len(matrix.labels):
        raise DataError(f"positive class index {positive_class} out of range")
    column = float(matrix.counts[:, positive_class].sum())
    hit = float(matrix.counts[positive_class, positive_class])
    return (column - hit) / total


@dataclass
class EvalReport:
    confusion: ConfusionMatrix
    accuracy: float
    type_i_error: float
    rule_count: int
    mean_antecedent_length: float
    rule_fire_counts: list[int]
    default_fire_count: int

    @property
    def accuracy_percent(self) -> float:
        return 100.0 * self.accuracy

    def to_dict(self) -> dict:
        return {
            "confusion": {
                "labels": list(self.confusion.labels),
                "counts": self.confusion.counts.tolist(),
            },
            "accuracy": self.accuracy,
            "accuracy_percent": self.accuracy_percent,
            "type_i_error": self.type_i_error,
            "rule_count": self.rule_count,
            "mean_antecedent_length": self.mean_antecedent_length,
            "rule_fire_counts": self.rule_fire_counts,
            "default_fire_count": self.default_fire_count,
            "positive_class": self.confusion.labels[POSITIVE_CLASS],
        }

    def format_table(self) -> str:
        labels = self.confusion.labels
        width = max(14, max(len(l) for l in labels) + 2)

        def cell(value: float) -> str:
            text = f"{value:.2f}".rstrip("0").rstrip(".")
            return f"{text:>{width}}"

        lines = []
        corner = "pred / actual"
        header = f"{corner:<{width}}" + "".join(f"{l:>{width}}" for l in labels)
        lines.append(header)
        for i, label in enumerate(labels):
            row = f"{label:<{width}}" + "".join(cell(v) for v in self.confusion.counts[i])
            lines.append(row)
        lines.append("")
        lines.append(f"{'accuracy (%)':<22}{self.accuracy_percent:.2f}")
        lines.append(f"{'type I error':<22}{self.type_i_error:.2f}")
        lines.append(f"{'rules':<22}{self.rule_count}")
        lines.append(f"{'mean antecedent':<22}{self.mean_antecedent_length:.2f}")
        return "\n".join(lines)


def evaluate(rule_list: RuleList, test: EncodedDataset) -> EvalReport:
    """Score a rule list on labeled data."""
    if len(test) == 0:
        raise DataError("cannot evaluate on an empty dataset")
    labels = test.schema.class_labels
    n_classes = len(labels)
    predicted, fired = classify_dataset(rule_list, test)
    counts = np.zeros((n_classes, n_classes), dtype=np.float64)
    np.add.at(counts, (predicted, test.y), 1.0)
    matrix = ConfusionMatrix(counts=counts, labels=labels)
    fire_counts = np.bincount(fired, minlength=len(rule_list.rules) + 1)
    rule_count = len(rule_list.rules)
    mean_len = (
        float(np.mean([len(r.antecedent) for r in rule_list.rules]))
        if rule_list.rules
        else 0.0
    )
    return EvalReport(
        confusion=matrix,
        accuracy=accuracy_from_matrix(matrix),
        type_i_error=type_i_error_from_matrix(matrix, POSITIVE_CLASS),
        rule_count=rule_count,
        mean_antecedent_length=mean_len,
        rule_fire_counts=[int(c) for c in fire_counts[1:]],
        default_fire_count=int(fire_counts[0]),
    )


def _best_numeric_condition(
    data: EncodedDataset, matched: np.ndarray, target: int, attribute: str
):
    """Best ((confidence, correct rows), condition) numeric split of the matched rows.

    Split points are midpoints between consecutive distinct values of the
    matched rows; both directions (<= mid, then >= mid) compete. None when
    the matched rows share one value.
    """
    rows = np.flatnonzero(matched)
    values = data.X[rows, data.layout.numeric[attribute]]
    order = np.argsort(values, kind="stable")
    values = values[order]
    cum_correct = np.cumsum(data.y[rows][order] == target)
    distinct_end = np.flatnonzero(values[:-1] < values[1:])
    if distinct_end.size == 0:
        return None
    mids = 0.5 * (values[distinct_end] + values[distinct_end + 1])
    below = cum_correct[distinct_end]
    best = None
    for le, good, count in (
        (True, below, distinct_end + 1),
        (False, cum_correct[-1] - below, len(rows) - distinct_end - 1),
    ):
        conf = good / count
        tied = np.flatnonzero(conf == conf.max())
        pick = tied[np.argmax(good[tied])]
        key = (float(conf[pick]), int(good[pick]))
        if best is None or key > best[0]:
            mid = float(mids[pick])
            lo, hi = (0.0, mid) if le else (mid, 1.0)
            best = (key, NumericInterval(attribute, lo, hi))
    return best


def mine_greedy_baseline(train: EncodedDataset, min_confidence: float) -> RuleList:
    """Separate-and-conquer baseline with single-value nominal conditions.

    Repeatedly grows one rule for the class with the most uncovered examples
    by adding, each step, the condition that maximizes confidence then
    correct rows; growth stops at the confidence threshold or when no
    candidate improves. Every rule carries at least one condition (a bare
    always-true rule would swallow the remaining data in one bite and say
    nothing). A rule removes every uncovered example it matches, right or
    wrong, as first-match scoring fires it on all of them; mining stops when
    no grown rule classifies an example correctly. A rule's matched rows are
    the uncovered rows narrowed by ``match_mask`` once per added condition.
    """
    if len(train) == 0:
        raise DataError("cannot mine an empty dataset")
    layout = train.layout
    schema = train.schema
    uncovered = np.ones(len(train), dtype=bool)
    rules: list[Rule] = []

    while uncovered.any():
        # the first maximum is the lowest class index
        target = int(np.argmax(np.bincount(train.y[uncovered])))
        hit = train.y == target
        matched = uncovered.copy()
        conditions: list = []
        # the first condition is unconditional; later ones must improve
        key = (-1.0, -1)

        while not conditions or key[0] < min_confidence:
            # rows matched per encoded nominal column, and those of the target:
            # sums of one-hot columns (numeric columns' sums are not read)
            seen, good = ((rows @ train.X).tolist() for rows in (matched, matched & hit))
            used = {c.attribute for c in conditions}
            best = None
            for attr in schema.attributes:
                if attr.name in used:
                    continue
                if attr.kind == NOMINAL:
                    cols = layout.nominal[attr.name]
                    for col, value in zip(cols, attr.values):
                        conf = good[col] / seen[col] if seen[col] else 0.0
                        if (conf, good[col]) > key:
                            key = (conf, good[col])
                            best = NominalMembership(attr.name, frozenset({value}))
                else:
                    found = _best_numeric_condition(train, matched, target, attr.name)
                    if found is not None and found[0] > key:
                        key, best = found
            if best is None:
                break
            conditions.append(best)
            matched &= match_mask([best], train)

        # no condition can be formed at all (remaining rows are exact
        # duplicates on every attribute), or the rule classifies no row
        # correctly; leave the rest to the default class
        if not conditions or key[1] == 0:
            break
        rules.append(Rule(tuple(conditions), target))
        uncovered &= ~matched

    default = choose_default_class(train.y[uncovered], train.class_counts())
    return RuleList(rules=tuple(rules), default_class=default)
