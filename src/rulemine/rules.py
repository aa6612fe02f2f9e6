"""Rule representation and evaluation.

A rule is a conjunction of conditions over predictor attributes with a class
consequent. Conditions come in two shapes: a membership set over a nominal
attribute's values, or a closed interval on a numeric attribute's scaled
[0, 1] axis. An ordered rule list classifies by first match, falling back to
a default class.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence, Union

import numpy as np

from .errors import DataError
from .schema import (
    NOMINAL,
    AttributeSchema,
    ColumnLayout,
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
class Rule:
    antecedent: tuple[Condition, ...]
    class_index: int

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


def _pack(flags: np.ndarray) -> np.ndarray:
    """(m, n) booleans -> (m, W) words: row i is bit i % 64 of word i // 64,
    and the padding bits past row n are 0."""
    m, n = flags.shape
    padded = np.zeros((m, -(-n // 64) * 64), dtype=bool)
    padded[:, :n] = flags
    return np.packbits(padded, axis=1, bitorder="little").view("<u8")


@dataclass(frozen=True)
class PackedRows:
    """The rows of one dataset as packed bitsets, for counting the matches of
    many antecedents at once (support counting on row bitmaps, as in Burdick
    et al., "MAFIA", ICDE 2001). Bits are laid out as ``_pack`` lays them, and
    a count is the set bits of a bitset, which ``np.bitwise_count`` gives.

    Each encoded nominal column has one bitset: the rows that take its value,
    read off the 1.0 entries of ``X``. A numeric column's bitset is all zero,
    since a scaled value can be 1.0 too; its values are padded with NaN to
    whole words, so that a comparison never sets a padding bit.
    """

    layout: ColumnLayout
    n_rows: int
    every: np.ndarray  # (W,) all rows
    values: np.ndarray  # (d, W) the rows of each nominal column; 0 for numeric ones
    numeric: np.ndarray  # (a, 64 W) the numeric attributes' values
    classes: np.ndarray  # (classes, W) the rows of each class


def pack_rows(data: EncodedDataset) -> PackedRows:
    layout = data.layout
    n = len(data)
    values = (data.X == 1.0).T
    values[layout.numeric_columns] = False
    words = -(-n // 64)
    numeric = np.full((layout.numeric_columns.size, 64 * words), np.nan)
    numeric[:, :n] = data.X[:, layout.numeric_columns].T
    return PackedRows(
        layout=layout,
        n_rows=n,
        every=_pack(np.ones((1, n), dtype=bool))[0],
        values=_pack(values),
        numeric=numeric,
        classes=_pack(np.arange(len(layout.schema.class_labels))[:, None] == data.y),
    )


def count_matches(
    rows: PackedRows, allowed: np.ndarray, bounds: np.ndarray, class_index: int
) -> tuple[np.ndarray, np.ndarray]:
    """Rows matched, and matched rows of ``class_index``, for each of S
    antecedents given as arrays: two (S,) int64 counts.

    ``allowed`` (S, d) flags the encoded nominal columns whose values each
    antecedent admits, a whole attribute block being True where it places no
    condition, and each numeric column it restricts. ``bounds`` (S, a, 2)
    holds the (lo, hi) of each numeric attribute in
    ``rows.layout.numeric_names`` order, read only where its column is flagged.
    A nominal block matches the union of its admitted values' bitsets, and a
    numeric column the rows inside its interval, packed as bits. Each count
    sums ``np.bitwise_count`` over the words of an antecedent's bitset.
    """
    mask = np.tile(rows.every, (len(allowed), 1))
    # a row holds exactly one value of each attribute and padding bits are 0,
    # so the admitted values' words have disjoint bits: their sum is exactly
    # their union, with no carries
    for cols in rows.layout.blocks:
        block = slice(cols.start, cols.stop)
        mask &= allowed[:, block].astype(np.uint64) @ rows.values[block]
    for i, col in enumerate(rows.layout.numeric_columns):
        on = np.flatnonzero(allowed[:, col])
        if on.size:
            lo, hi = bounds[on, i, 0, None], bounds[on, i, 1, None]
            hit = (rows.numeric[i] >= lo) & (rows.numeric[i] <= hi)
            mask[on] &= np.packbits(hit, axis=1, bitorder="little").view("<u8")
    return (
        np.bitwise_count(mask).sum(axis=1, dtype=np.int64),
        np.bitwise_count(mask & rows.classes[class_index]).sum(axis=1, dtype=np.int64),
    )


def match_mask(conditions: Sequence[Condition], data: EncodedDataset) -> np.ndarray:
    """Boolean mask of the rows of ``data`` matching every condition."""
    layout = data.layout
    mask = np.ones(len(data), dtype=bool)
    for cond in conditions:
        if isinstance(cond, NominalMembership):
            attr = layout.schema.attribute(cond.attribute)
            cols = layout.nominal_columns(cond.attribute)
            admits = [v in cond.allowed for v in attr.values]
            # a row's block holds one 1.0, in the column of its value
            mask &= data.X[:, cols.start : cols.stop] @ admits > 0
        else:
            values = data.X[:, layout.numeric_column(cond.attribute)]
            mask &= (values >= cond.lo) & (values <= cond.hi)
    return mask


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
    return {
        "antecedent": [condition_to_dict(c, schema) for c in rule.antecedent],
        "class_index": rule.class_index,
    }


def rule_from_dict(doc: Mapping, schema: AttributeSchema) -> Rule:
    keys = {"antecedent": "list", "class_index": "int"}
    # rules written before their support and confidence moved to the train
    # report carry them in a provenance object, which is not read
    fields = json_object(doc, DataError, "rule", keys, {"provenance": "object"})
    # conditions, rules and validate_rule reject bad values with ValueError
    try:
        antecedent = tuple(condition_from_dict(c) for c in fields["antecedent"])
        rule = Rule(antecedent, fields["class_index"])
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
