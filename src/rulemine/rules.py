"""Rule representation and evaluation.

A rule is a conjunction of conditions over predictor attributes with a class
consequent. Conditions come in two shapes: a membership set over a nominal
attribute's values, or a closed interval on a numeric attribute's scaled
[0, 1] axis. An ordered rule list classifies by first match, falling back to
a default class.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Mapping, Sequence, Union

import numpy as np

from .errors import DataError
from .schema import (
    NOMINAL,
    AttributeSchema,
    EncodedDataset,
    json_object,
    json_value,
    unscale_numeric,
)


@dataclass(frozen=True)
class NominalMembership:
    """The example's value for ``attribute`` must be one of ``allowed``."""

    attribute: str
    allowed: frozenset[str]

    def __post_init__(self) -> None:
        if not self.allowed:
            raise ValueError(f"empty membership set for {self.attribute!r}")


@dataclass(frozen=True)
class NumericInterval:
    """The example's scaled value for ``attribute`` must lie in [lo, hi]."""

    attribute: str
    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.lo <= self.hi <= 1.0:
            raise ValueError(
                f"interval for {self.attribute!r} must satisfy "
                f"0 <= lo <= hi <= 1, got [{self.lo}, {self.hi}]"
            )


Condition = Union[NominalMembership, NumericInterval]


@dataclass(frozen=True)
class Provenance:
    """How a rule was produced: 1-based emission order and the support and
    confidence measured on the data it was mined from."""

    emission_order: int
    support: float
    confidence: float


@dataclass(frozen=True)
class Rule:
    antecedent: tuple[Condition, ...]
    class_index: int
    provenance: Provenance | None = None

    def __post_init__(self) -> None:
        names = [c.attribute for c in self.antecedent]
        if len(set(names)) != len(names):
            raise ValueError("a rule may carry at most one condition per attribute")

    def __len__(self) -> int:
        return len(self.antecedent)


@dataclass(frozen=True)
class RuleList:
    """Ordered rules plus the class assigned when nothing matches."""

    rules: tuple[Rule, ...]
    default_class: int

    def __len__(self) -> int:
        return len(self.rules)


def validate_rule(rule: Rule, schema: AttributeSchema) -> None:
    """Check a rule's conditions against a schema.

    Membership sets must be nonempty proper subsets of the declared values;
    interval conditions must target numeric attributes.
    """
    for cond in rule.antecedent:
        attr = schema.attribute(cond.attribute)
        if isinstance(cond, NominalMembership):
            if attr.kind != NOMINAL:
                raise ValueError(f"{cond.attribute!r} is not a nominal attribute")
            declared = set(attr.values)
            if not cond.allowed <= declared:
                raise ValueError(
                    f"membership set for {cond.attribute!r} uses undeclared values"
                )
            if cond.allowed == declared:
                raise ValueError(
                    f"membership set for {cond.attribute!r} must be a proper subset"
                )
        else:
            if attr.kind == NOMINAL:
                raise ValueError(f"{cond.attribute!r} is not a numeric attribute")
    if not 0 <= rule.class_index < len(schema.class_labels):
        raise ValueError(f"class index {rule.class_index} out of range")


def match_masks(
    allowed: np.ndarray, lo: np.ndarray, hi: np.ndarray, data: EncodedDataset
) -> np.ndarray:
    """Rows of ``data`` matched by each of S antecedents given as arrays:
    an (S, n) boolean mask.

    ``allowed`` (S, d) flags the encoded nominal columns whose values each
    antecedent admits, a whole attribute block being True where it places no
    condition. ``lo`` and ``hi`` (S, a) bound each numeric attribute in
    ``layout.numeric_names`` order, -inf and inf where it places none.
    Attributes no antecedent restricts are skipped (``X`` holds no NaN).
    """
    layout = data.layout
    table = np.ascontiguousarray(allowed.T)  # (d, S): each gather copies whole rows
    nominal = np.ones((len(data), len(allowed)), dtype=bool)
    for attr, codes in zip(layout.schema.nominal_attributes, data.value_index.T):
        cols = layout.nominal_columns(attr.name)
        if not table[cols.start : cols.stop].all():
            nominal &= table[codes]
    mask = np.ascontiguousarray(nominal.T)
    for col, low, high in zip(layout.numeric_columns, lo.T, hi.T):
        if (low > -np.inf).any() or (high < np.inf).any():
            values = np.ascontiguousarray(data.X[:, col])
            mask &= (values >= low[:, None]) & (values <= high[:, None])
    return mask


def match_mask(conditions: Sequence[Condition], data: EncodedDataset) -> np.ndarray:
    """Boolean mask of the rows of ``data`` matching every condition."""
    layout = data.layout
    allowed = np.ones((1, layout.dimension), dtype=bool)
    lo = np.full((1, len(layout.numeric_names)), -np.inf)
    hi = np.full_like(lo, np.inf)
    for cond in conditions:
        if isinstance(cond, NominalMembership):
            attr = layout.schema.attribute(cond.attribute)
            cols = layout.nominal_columns(cond.attribute)
            allowed[0, cols.start : cols.stop] = [v in cond.allowed for v in attr.values]
        else:
            i = layout.numeric_names.index(cond.attribute)
            lo[0, i], hi[0, i] = cond.lo, cond.hi
    return match_masks(allowed, lo, hi, data)[0]


def rule_quality(
    conditions: Sequence[Condition], class_index: int, data: EncodedDataset
) -> tuple[float, float, np.ndarray]:
    """Support and confidence of a rule on ``data``, plus its correct-match mask.

    Support is the fraction of all rows the rule matches and whose class is
    ``class_index``; confidence is that count over the rows matched, 0.0 when
    nothing matches. The mask flags the matched rows of ``class_index``.
    """
    if len(data) == 0:
        raise DataError("support and confidence are undefined on an empty dataset")
    mask = match_mask(conditions, data)
    matched = int(np.count_nonzero(mask))
    correct_mask = mask & (data.y == class_index)
    correct = int(np.count_nonzero(correct_mask))
    return correct / len(data), (correct / matched if matched else 0.0), correct_mask


def classify_dataset(
    rule_list: RuleList, data: EncodedDataset
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized first-match classification of a whole dataset.

    Returns (predicted class per row, fired rule per row) where fired is the
    1-based rule index or 0 for the default class.
    """
    fired = np.zeros(len(data), dtype=np.int64)
    for i, rule in enumerate(rule_list.rules, start=1):
        if fired.all():
            break
        fired[(fired == 0) & match_mask(rule.antecedent, data)] = i
    classes = [rule_list.default_class] + [rule.class_index for rule in rule_list.rules]
    return np.array(classes, dtype=np.int64)[fired], fired


def choose_default_class(
    uncovered_y: np.ndarray, total_counts: np.ndarray
) -> int:
    """Majority class of the uncovered residue.

    Ties break toward the globally most frequent class, then the lowest class
    index. An empty residue degenerates to the global majority.
    """
    n_classes = total_counts.shape[0]
    residue = np.bincount(uncovered_y, minlength=n_classes)
    return min(
        range(n_classes),
        key=lambda c: (-int(residue[c]), -int(total_counts[c]), c),
    )


def _format_bound(value: float) -> str:
    return f"{value:.2f}"


def render_condition(
    cond: Condition,
    schema: AttributeSchema,
    numeric_ranges: Mapping[str, tuple[float, float]],
) -> str:
    if isinstance(cond, NominalMembership):
        attr = schema.attribute(cond.attribute)
        ordered = [v for v in attr.values if v in cond.allowed]
        return f"{cond.attribute} IN {{{', '.join(ordered)}}}"
    lo, hi = numeric_ranges[cond.attribute]
    a = unscale_numeric(cond.lo, lo, hi)
    b = unscale_numeric(cond.hi, lo, hi)
    return f"{cond.attribute} IN [{_format_bound(a)}, {_format_bound(b)}]"


def render_rule(
    rule: Rule,
    schema: AttributeSchema,
    numeric_ranges: Mapping[str, tuple[float, float]],
) -> str:
    """Human-readable rule text with numeric bounds mapped back to the
    original (unscaled) attribute ranges."""
    if rule.antecedent:
        body = " AND ".join(
            render_condition(c, schema, numeric_ranges) for c in rule.antecedent
        )
    else:
        body = "TRUE"
    label = schema.class_labels[rule.class_index]
    return f"IF {body} THEN {schema.class_attribute} = {label}"


def render_rule_list(
    rule_list: RuleList,
    schema: AttributeSchema,
    numeric_ranges: Mapping[str, tuple[float, float]],
) -> str:
    lines = [
        f"{i}. {render_rule(rule, schema, numeric_ranges)}"
        for i, rule in enumerate(rule_list.rules, start=1)
    ]
    label = schema.class_labels[rule_list.default_class]
    lines.append(f"DEFAULT {schema.class_attribute} = {label}")
    return "\n".join(lines)


def condition_to_dict(cond: Condition, schema: AttributeSchema) -> dict:
    if isinstance(cond, NominalMembership):
        attr = schema.attribute(cond.attribute)
        ordered = [v for v in attr.values if v in cond.allowed]
        return {"kind": "membership", "attribute": cond.attribute, "allowed": ordered}
    return {
        "kind": "interval",
        "attribute": cond.attribute,
        "lo": cond.lo,
        "hi": cond.hi,
    }


def condition_from_dict(doc: Mapping) -> Condition:
    kind = json_value(doc, "object", DataError, "condition").get("kind")
    if kind == "membership":
        keys = {"kind": "string", "attribute": "string", "allowed": "strings"}
        c = json_object(doc, DataError, "membership condition", keys)
        return NominalMembership(c["attribute"], frozenset(c["allowed"]))
    if kind == "interval":
        keys = {"kind": "string", "attribute": "string", "lo": "number", "hi": "number"}
        c = json_object(doc, DataError, "interval condition", keys)
        return NumericInterval(c["attribute"], c["lo"], c["hi"])
    raise DataError(f"unknown condition kind {kind!r}")


def rule_to_dict(rule: Rule, schema: AttributeSchema) -> dict:
    doc: dict = {
        "antecedent": [condition_to_dict(c, schema) for c in rule.antecedent],
        "class_index": rule.class_index,
    }
    if rule.provenance is not None:
        doc["provenance"] = asdict(rule.provenance)
    return doc


def rule_from_dict(doc: Mapping, schema: AttributeSchema) -> Rule:
    keys = {"antecedent": "list", "class_index": "int"}
    fields = json_object(doc, DataError, "rule", keys, {"provenance": "object"})
    provenance = fields.get("provenance")
    if provenance is not None:
        keys = {"emission_order": "int", "support": "number", "confidence": "number"}
        provenance = Provenance(**json_object(provenance, DataError, "provenance", keys))
    # conditions, rules and validate_rule reject bad values with ValueError
    try:
        antecedent = tuple(condition_from_dict(c) for c in fields["antecedent"])
        rule = Rule(antecedent, fields["class_index"], provenance)
        validate_rule(rule, schema)
    except ValueError as exc:
        raise DataError(f"invalid rule in document: {exc}") from exc
    return rule


def rule_list_to_dict(rule_list: RuleList, schema: AttributeSchema) -> dict:
    return {
        "rules": [rule_to_dict(r, schema) for r in rule_list.rules],
        "default_class": rule_list.default_class,
    }


def rule_list_from_dict(doc: Mapping, schema: AttributeSchema) -> RuleList:
    keys = {"rules": "list", "default_class": "int"}
    fields = json_object(doc, DataError, "rule list", keys)
    rules = tuple(rule_from_dict(r, schema) for r in fields["rules"])
    default = fields["default_class"]
    if not 0 <= default < len(schema.class_labels):
        raise DataError(f"default class index {default} out of range")
    return RuleList(rules=rules, default_class=default)
