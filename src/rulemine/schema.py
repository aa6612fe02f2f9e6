"""Schema-driven ingestion: CSV parsing, dummy coding, scaling, splitting.

A dataset is described by an attribute schema: an ordered list of predictor
attributes (nominal ones declare their value set, numeric ones do not) plus a
class attribute with its label set. Encoding dummy-codes every nominal value
into its own 0/1 column and min-max scales every numeric attribute into
[0, 1], so each encoded example lives in the unit hypercube and one Euclidean
metric works across mixed attribute kinds.
"""

from __future__ import annotations

import csv
import json
import math
import sys
from dataclasses import dataclass
from itertools import islice, repeat
from pathlib import Path
from typing import Iterator, Mapping, Sequence

import numpy as np

from .errors import ConfigError, DataError, RulemineError, SchemaError

NOMINAL = "nominal"
NUMERIC = "numeric"


@dataclass(frozen=True)
class Attribute:
    """One predictor column: ``kind`` is ``"nominal"`` or ``"numeric"``.

    Nominal attributes carry their declared value set in declaration order;
    numeric attributes leave ``values`` empty.
    """

    name: str
    kind: str
    values: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        _check_spelling(self.name, "attribute name")
        if self.kind not in (NOMINAL, NUMERIC):
            raise SchemaError(f"attribute {self.name!r}: unknown kind {self.kind!r}")
        if self.kind == NOMINAL:
            if len(self.values) < 2:
                raise SchemaError(
                    f"nominal attribute {self.name!r} must declare at least 2 values"
                )
            if len(set(self.values)) != len(self.values):
                raise SchemaError(f"nominal attribute {self.name!r} repeats a value")
            for value in self.values:
                if not value:
                    raise SchemaError(f"nominal attribute {self.name!r} declares an empty "
                                      "value, but an empty field is a missing value")
                _check_spelling(value, f"nominal attribute {self.name!r}: value")
        elif self.values:
            raise SchemaError(f"numeric attribute {self.name!r} must not declare values")


@dataclass(frozen=True)
class AttributeSchema:
    """Ordered predictor attributes plus the class attribute and its labels."""

    attributes: tuple[Attribute, ...]
    class_attribute: str
    class_labels: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.attributes:
            raise SchemaError("schema declares no predictor attributes")
        names = [a.name for a in self.attributes]
        if len(set(names)) != len(names):
            raise SchemaError("attribute names must be unique")
        if self.class_attribute in names:
            raise SchemaError(
                f"class attribute {self.class_attribute!r} also appears as a predictor"
            )
        if len(self.class_labels) < 2:
            raise SchemaError("schema must declare at least 2 class labels")
        if len(set(self.class_labels)) != len(self.class_labels):
            raise SchemaError("class labels must be unique")
        _check_spelling(self.class_attribute, "class attribute")
        for label in self.class_labels:
            _check_spelling(label, "class label")

    @property
    def attribute_names(self) -> tuple[str, ...]:
        return tuple(a.name for a in self.attributes)

    @property
    def numeric_attributes(self) -> tuple[Attribute, ...]:
        return tuple(a for a in self.attributes if a.kind == NUMERIC)

    def attribute(self, name: str) -> Attribute:
        for a in self.attributes:
            if a.name == name:
                return a
        raise SchemaError(f"unknown attribute {name!r}")

    def to_dict(self) -> dict:
        entries = []
        for a in self.attributes:
            entry: dict = {"name": a.name, "kind": a.kind}
            if a.kind == NOMINAL:
                entry["values"] = list(a.values)
            entries.append(entry)
        return {
            "attributes": entries,
            "class_attribute": self.class_attribute,
            "class_labels": list(self.class_labels),
        }

    @staticmethod
    def from_dict(doc: Mapping) -> "AttributeSchema":
        keys = {"attributes": "list", "class_attribute": "string", "class_labels": "strings"}
        fields = json_object(doc, SchemaError, "schema", keys)
        attrs = []
        for entry in fields["attributes"]:
            # 'values' is checked below, where the attribute's name is known
            keys = {"name": "string", "kind": "string"}
            entry = json_object(entry, SchemaError, "attribute", keys, {"values": None})
            what = f"'values' of {entry['name']!r}"
            values = json_strings(entry.get("values", []), SchemaError, what)
            attrs.append(Attribute(entry["name"], entry["kind"], values))
        return AttributeSchema(tuple(attrs), fields["class_attribute"], fields["class_labels"])


def _check_spelling(text: str, what: str) -> None:
    """Reject a name or value no CSV field can match: fields are read with
    their surrounding whitespace stripped."""
    if text != text.strip():
        raise SchemaError(f"{what} {text!r} has surrounding whitespace, which no "
                          "CSV field can match")


# the Python types json.load gives each JSON kind; a bool is never a number
_JSON_KINDS = {
    "int": (int, "an integer"),
    "number": ((int, float), "a number"),
    "string": (str, "a string"),
    "list": ((list, tuple), "a list"),
    "object": (dict, "a JSON object"),
}


def json_value(value, kind: str, error: type[RulemineError], what: str):
    """``value`` if it is a JSON ``kind``: int, number, string, list or
    object; otherwise raise ``error`` naming ``what``."""
    types, noun = _JSON_KINDS[kind]
    wrong_type = isinstance(value, bool) or not isinstance(value, types)
    # NaN, Infinity and integers too large for a float are no numbers here
    if wrong_type or kind == "number" and not abs(value) <= sys.float_info.max:
        shown = repr(value)
        if len(shown) > 60:
            shown = shown[:60] + "…"
        raise error(f"{what} must be {noun}, got {shown}")
    return value


def json_strings(value, error: type[RulemineError], what: str) -> tuple[str, ...]:
    """A JSON list of strings, as a tuple."""
    if not all(isinstance(v, str) for v in json_value(value, "list", error, what)):
        raise error(f"{what} must be strings")
    return tuple(value)


def json_pair(value, error: type[RulemineError], what: str) -> tuple[float, float]:
    """A JSON ``[low, high]`` pair of numbers, as a tuple."""
    if len(json_value(value, "list", error, what)) != 2:
        raise error(f"{what} must be a [low, high] pair of numbers")
    return tuple(json_value(v, "number", error, what) for v in value)


def json_object(
    doc,
    error: type[RulemineError],
    what: str,
    required: Mapping[str, str | None],
    optional: Mapping[str, str | None] = {},
) -> dict:
    """The values of a JSON object by key, once every ``required`` key is
    present, no key is outside ``required`` and ``optional``, and each value
    is of the kind its key maps to: one of ``json_value``'s, ``"strings"`` or
    None for any value."""
    json_value(doc, "object", error, what)
    for key in required:
        if key not in doc:
            raise error(f"{what} is missing key {key!r}")
    kinds = {**required, **optional}
    checked = {}
    for key, value in doc.items():
        if key not in kinds:
            raise error(f"{what} has unknown key {key!r}")
        kind, label = kinds[key], f"{what} key {key!r}"
        if kind == "strings":
            value = json_strings(value, error, label)
        elif kind is not None:
            json_value(value, kind, error, label)
        checked[key] = value
    return checked


def read_json(path: str | Path, error_type: type[RulemineError], what: str):
    """Parse a JSON file; a file that cannot be read or decoded raises
    ``error_type`` naming ``what`` the file was meant to hold."""
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            return json.load(fh)
    except OSError as exc:
        raise error_type(f"cannot read {what} file: {exc}") from exc
    # ValueError covers JSONDecodeError and UnicodeDecodeError; RecursionError
    # is what nesting too deep for the decoder raises
    except (ValueError, RecursionError) as exc:
        raise error_type(f"{what} file is not valid JSON: {exc}") from exc


def write_json(doc, path: str | Path) -> None:
    """Write ``doc`` as UTF-8 JSON indented by 2, with a final newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def load_schema(path: str | Path) -> AttributeSchema:
    """Read a schema JSON document from disk."""
    return AttributeSchema.from_dict(read_json(path, SchemaError, "schema"))


def save_schema(schema: AttributeSchema, path: str | Path) -> None:
    write_json(schema.to_dict(), path)


@dataclass
class RawDataset:
    """Checked, unencoded rows as one ``(rows, attributes)`` float table in
    schema order, with the values ``coerce_row`` gives: a nominal value's
    index among the attribute's values, or a number. ``y`` is the int64
    array of each row's class label index, as in ``EncodedDataset``, and is
    empty for rows to score."""

    schema: AttributeSchema
    rows: np.ndarray
    y: np.ndarray

    def __len__(self) -> int:
        return len(self.rows)


class ColumnLayout:
    """Mapping between schema attributes and encoded column indices:
    ``nominal`` maps each nominal attribute to its block of one-hot columns,
    ``numeric`` each numeric attribute to its one column, both in schema
    order."""

    def __init__(self, schema: AttributeSchema) -> None:
        self.nominal: dict[str, range] = {}
        self.numeric: dict[str, int] = {}
        self.dimension = 0
        for a in schema.attributes:
            if a.kind == NOMINAL:
                end = self.dimension + len(a.values)
                self.nominal[a.name] = range(self.dimension, end)
                self.dimension = end
            else:
                self.numeric[a.name] = self.dimension
                self.dimension += 1
        self.schema = schema
        # each nominal attribute's encoded columns, in schema order
        self.blocks = tuple(self.nominal.values())
        self.numeric_names = tuple(self.numeric)
        self.numeric_columns = np.array(list(self.numeric.values()), dtype=np.intp)


@dataclass
class EncodedDataset:
    """Dummy-coded, min-max scaled examples in [0, 1]^d with class indices.

    ``y`` is empty when the rows were encoded without class labels (rows
    to be scored). ``X`` is the one record of a row's nominal values: each
    nominal attribute's block holds 1.0 in the column of the row's value and
    0.0 in the others.
    """

    X: np.ndarray
    y: np.ndarray
    layout: ColumnLayout
    numeric_ranges: dict[str, tuple[float, float]]

    def __len__(self) -> int:
        return int(self.X.shape[0])

    @property
    def schema(self) -> AttributeSchema:
        return self.layout.schema

    @property
    def dimension(self) -> int:
        return int(self.X.shape[1])

    def class_counts(self) -> np.ndarray:
        return np.bincount(self.y, minlength=len(self.schema.class_labels))

    def subset(self, indices: np.ndarray) -> "EncodedDataset":
        """View the same encoding restricted to the given example indices."""
        return EncodedDataset(
            X=self.X[indices],
            y=self.y[indices],
            layout=self.layout,
            numeric_ranges=self.numeric_ranges,
        )


def coerce_row(
    schema: AttributeSchema,
    fields: Sequence[str],
    width: int,
    positions: Sequence[int],
    class_pos: int | None,
    row_number: int,
) -> tuple[tuple[int | float, ...], int]:
    """Check and convert one CSV row on its own, and raise the DataError of
    the first check it fails: its width (``width`` fields, as in the header),
    each predictor in schema order, then its class label.

    Returns ``(values, class index)``: a nominal field becomes the index of
    its value in the attribute's ``values``, a numeric one its float, and the
    label its index in ``class_labels`` (0 when ``class_pos`` is None). Each
    field is stripped first; an empty predictor field is a missing value,
    never imputed. ``positions`` and ``class_pos`` come from ``read_header``;
    ``row_number`` is the 1-based data row named in errors.
    """
    if len(fields) != width:
        raise DataError(f"row {row_number}: expected {width} fields, found {len(fields)}")
    out: list[int | float] = []
    for a, pos in zip(schema.attributes, positions):
        value = fields[pos].strip()
        if value == "":
            raise DataError(f"row {row_number}: missing value for {a.name!r}")
        if a.kind == NOMINAL:
            try:
                out.append(a.values.index(value))
            except ValueError:
                raise DataError(
                    f"row {row_number}: value {value!r} not declared for "
                    f"nominal attribute {a.name!r}"
                ) from None
            continue
        try:
            parsed = float(value)
        except ValueError:
            raise DataError(
                f"row {row_number}: cannot parse {value!r} as numeric "
                f"for attribute {a.name!r}"
            ) from None
        if not math.isfinite(parsed):
            raise DataError(f"row {row_number}: non-finite numeric value for {a.name!r}")
        out.append(parsed)
    if class_pos is None:
        return tuple(out), 0
    label = fields[class_pos].strip()
    try:
        return tuple(out), schema.class_labels.index(label)
    except ValueError:
        raise DataError(f"row {row_number}: class label {label!r} is not declared") from None


def _open_csv(source) -> Iterator[list[str]]:
    try:
        if isinstance(source, (str, Path)):
            try:
                fh = open(source, "r", encoding="utf-8", newline="")
            except OSError as exc:
                raise DataError(f"cannot read input file: {exc}") from exc
            with fh:
                yield from csv.reader(_without_bom(fh))
        else:
            yield from csv.reader(_without_bom(source))
    except (UnicodeDecodeError, csv.Error) as exc:
        raise DataError(f"cannot read input CSV: {exc}") from exc


def _without_bom(lines) -> Iterator[str]:
    """The lines of a CSV text less a leading byte-order mark (as Excel's "CSV
    UTF-8" writes), dropped before parsing so a quoted header still parses."""
    lines = iter(lines)
    first = next(lines, None)
    if first is not None:
        yield first.removeprefix("\ufeff")
        yield from lines


def read_header(header: list[str], schema: AttributeSchema, labels: bool):
    """Match a CSV header against the schema, order-insensitively.

    Returns (column position of each predictor attribute in schema order,
    class column position). With ``labels`` the class column must be
    present; without, it may be, and its position is None: it is not read.
    """
    names = [h.strip() for h in header]
    if len(set(names)) != len(names):
        dup = next(n for n in names if names.count(n) > 1)
        raise SchemaError(f"duplicate column {dup!r} in header")
    positions: dict[str, int] = {n: i for i, n in enumerate(names)}
    required = [*schema.attribute_names, *([schema.class_attribute] if labels else [])]
    for name in required:
        if name not in positions:
            raise SchemaError(f"missing column {name!r}")
    allowed = {*schema.attribute_names, schema.class_attribute}
    for name in names:
        if name not in allowed:
            raise SchemaError(f"unexpected column {name!r}")
    class_pos = positions[schema.class_attribute] if labels else None
    return [positions[n] for n in schema.attribute_names], class_pos


# the chunk reader converts this many CSV lines at a time: enough for the
# column work to dominate, few enough that memory stays flat however long the
# input is
CHUNK_ROWS = 4096


def read_chunks(
    source, schema: AttributeSchema, labels: bool = True
) -> Iterator[tuple[RawDataset, list[tuple[int, DataError]]]]:
    """Read a header-first CSV ``CHUNK_ROWS`` lines at a time.

    The header is read and matched against the schema (order-insensitive)
    before this returns, so a bad header raises at once. Each chunk is
    ``(raw, errors)``: ``raw`` holds the chunk's rows that pass every check,
    and ``errors`` the DataError of each row that fails one, with the row's
    position among the chunk's data rows, in row order. Blank lines are
    skipped but still counted in the 1-based row numbers. With ``labels``,
    the header must have the class column, whose labels are checked and
    converted into ``raw.y``; without, the column may be present and is not
    read, and each chunk's ``y`` is empty.

    A line that cannot be read (a byte that is not UTF-8, a CSV syntax
    error) raises its DataError after the lines before it have come as a
    chunk, so a bad row among them is still reported first.

    A chunk is converted a column at a time, each field looked up as spelled:
    in one dict per nominal attribute, or through Python's ``float``. A row
    that fails there (a wrong width, a padded or undeclared value or label, a
    field that is no finite number) goes through ``coerce_row`` on its own,
    which converts it after all (``" married"``) or raises its exact error.
    """
    reader = _open_csv(source)
    header = next(reader, None)
    if header is None:
        raise SchemaError("CSV is empty (no header row)")
    predictor_pos, class_pos = read_header(header, schema, labels)
    return _chunks(reader, schema, predictor_pos, class_pos, len(header))


def _chunks(reader, schema, predictor_pos, class_pos, width):
    lookups = [{v: i for i, v in enumerate(a.values)} if a.kind == NOMINAL else None
               for a in schema.attributes]
    label_lookup = {v: i for i, v in enumerate(schema.class_labels)}
    blank = [""] * width
    first = 1
    failure = None
    while failure is None:
        lines: list[list[str]] = []
        try:
            # extend keeps the lines it appended before the reader raised
            lines.extend(islice(reader, CHUNK_ROWS))
        except DataError as exc:
            failure = exc
        if not lines:
            break
        rows = [fields for fields in lines if fields]
        numbers = [n for n, fields in enumerate(lines, first) if fields]
        first += len(lines)
        del lines
        m = len(rows)
        if m == 0:
            continue
        # a row of the wrong width goes in as empty fields, which fail in every
        # predictor column: no nominal value is empty, and float("") raises
        columns = list(zip(*(f if len(f) == width else blank for f in rows)))
        table = np.empty((m, len(lookups)))
        for j, (lookup, pos) in enumerate(zip(lookups, predictor_pos)):
            if lookup is None:
                table[:, j] = _floats(columns[pos])
            else:
                table[:, j] = np.fromiter(
                    map(lookup.get, columns[pos], repeat(math.nan)), np.float64, m)
        # without a class column every row passes the label test
        classes = np.zeros(m, np.int64) if class_pos is None else np.fromiter(
            map(label_lookup.get, columns[class_pos], repeat(-1)), np.int64, m)
        del columns
        bad = ~np.isfinite(table).all(axis=1) | (classes < 0)
        errors = []
        for i in np.flatnonzero(bad).tolist():
            try:
                table[i], classes[i] = coerce_row(
                    schema, rows[i], width, predictor_pos, class_pos, numbers[i])
            except DataError as exc:
                errors.append((i, exc))
        if errors:
            keep = np.ones(m, dtype=bool)
            keep[[i for i, _ in errors]] = False
            table, classes = table[keep], classes[keep]
        del rows, numbers
        y = np.empty(0, np.int64) if class_pos is None else classes
        yield RawDataset(schema, table, y), errors
    if failure is not None:
        raise failure


def _floats(column: Sequence[str]) -> list[float]:
    """Python's ``float`` of each field, or NaN where it raises."""
    out: list[float] = []
    fields = iter(column)
    while True:
        try:
            # extend keeps what it appended before a field raised
            out.extend(map(float, fields))
            return out
        except ValueError:
            out.append(math.nan)


def parse_csv(source, schema: AttributeSchema) -> RawDataset:
    """Parse a header-first CSV into a validated RawDataset.

    Header names must match the schema (order-insensitive). Every value is
    checked: undeclared nominal values and class labels, unparsable or
    non-finite numerics, missing fields and wrong field counts raise the
    DataError of the first offending row, naming its 1-based data row.
    """
    tables = [np.empty((0, len(schema.attributes)))]
    labels = [np.empty(0, np.int64)]
    for raw, errors in read_chunks(source, schema):
        if errors:
            raise errors[0][1]
        tables.append(raw.rows)
        labels.append(raw.y)
    return RawDataset(schema, np.concatenate(tables), np.concatenate(labels))


def scale_numeric(values, lo: float, hi: float):
    """Min-max scale into [0, 1], clamping out-of-range values.

    Works on a float or an array of them. A constant training column
    (lo == hi) maps everything to 0.0. A NaN quotient (only reachable when
    ``value - lo`` and ``hi - lo`` both overflow) clamps to 0.0 as well.
    """
    if hi <= lo:
        return np.zeros_like(values, dtype=np.float64)
    with np.errstate(over="ignore", invalid="ignore"):
        return np.minimum(1.0, np.fmax(0.0, (np.asarray(values) - lo) / (hi - lo)))


def unscale_numeric(scaled: float, lo: float, hi: float) -> float:
    if hi <= lo:
        return lo
    return lo + scaled * (hi - lo)


def encode(
    raw: RawDataset, ranges_from: Mapping[str, tuple[float, float]] | None = None
) -> EncodedDataset:
    """Dummy-code and scale a RawDataset's values, with array operations only.

    Scaling ranges come from ``ranges_from`` when given ({attribute: (min,
    max)}, so that test data reuses training ranges and out-of-range values
    clamp to the [0, 1] boundary), otherwise from the observed (min, max) of
    each numeric column of ``raw``. Rows without class labels (``raw.y``
    empty) encode with an empty ``y``.
    """
    n = len(raw)
    if n == 0:
        raise DataError("cannot encode an empty dataset")
    if len(raw.y) and len(raw.y) != n:
        raise DataError("dataset rows are missing class labels")
    schema = raw.schema
    layout = ColumnLayout(schema)
    ranges = {} if ranges_from is None else dict(ranges_from)
    table = np.asarray(raw.rows, dtype=np.float64)
    nominal = [j for j, a in enumerate(schema.attributes) if a.kind == NOMINAL]
    starts = np.array([cols.start for cols in layout.blocks], dtype=np.int32)
    # int32: half the memory of intp
    hot = table[:, nominal].astype(np.int32) + starts
    X = np.zeros((n, layout.dimension), dtype=np.float64)
    X[np.arange(n)[:, None], hot] = 1.0
    for j, a in enumerate(schema.attributes):
        if a.kind == NUMERIC:
            values = table[:, j]
            if ranges_from is None:
                ranges[a.name] = (values.min().item(), values.max().item())
            lo, hi = ranges[a.name]
            X[:, layout.numeric[a.name]] = scale_numeric(values, lo, hi)
    return EncodedDataset(X=X, y=raw.y, layout=layout, numeric_ranges=ranges)


def _round_half_up(value: float) -> int:
    return int(math.floor(value + 0.5))


def stratified_split(
    data: EncodedDataset, test_fraction: float, seed: int
) -> tuple[EncodedDataset, EncodedDataset]:
    """Split into (train, test) preserving class proportions.

    Per-class test counts are round(test_fraction * class size) clamped so
    every class appears on both sides; the result is deterministic for a
    given seed. Classes with fewer than 2 examples cannot be split.
    """
    if not 0.0 < test_fraction < 1.0:
        raise ConfigError(f"test_fraction must be in (0, 1), got {test_fraction}")
    if len(data) == 0:
        raise DataError("cannot split an empty dataset")
    rng = np.random.default_rng(seed)
    test_idx: list[np.ndarray] = []
    train_idx: list[np.ndarray] = []
    for c in range(len(data.schema.class_labels)):
        members = np.flatnonzero(data.y == c)
        if members.size == 0:
            continue
        if members.size < 2:
            raise DataError(
                f"class {data.schema.class_labels[c]!r} has fewer than 2 examples; "
                "cannot stratify"
            )
        want = _round_half_up(test_fraction * members.size)
        want = min(max(want, 1), members.size - 1)
        order = rng.permutation(members.size)
        test_idx.append(members[order[:want]])
        train_idx.append(members[order[want:]])
    test_rows = np.sort(np.concatenate(test_idx))
    train_rows = np.sort(np.concatenate(train_idx))
    return data.subset(train_rows), data.subset(test_rows)
