import csv
import io
import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import rulemine.schema
from rulemine.errors import ConfigError, DataError, SchemaError
from rulemine.schema import (
    Attribute,
    AttributeSchema,
    ColumnLayout,
    RawDataset,
    coerce_row,
    encode,
    load_schema,
    parse_csv,
    read_chunks,
    read_header,
    save_schema,
    scale_numeric,
    stratified_split,
    unscale_numeric,
)

from conftest import build_encoded


CSV_OK = """marital_status,salary,age,status
married,100,30,Accept
single,50,40,Deny
"""


class TestParseCsv:
    def test_two_rows_pass_through(self, credit_schema):
        raw = parse_csv(io.StringIO(CSV_OK), credit_schema)
        # a nominal value becomes its index among the declared values, a
        # numeric one its float, in one float table; a class label becomes
        # its index among the labels
        assert raw.rows.shape == (2, 3) and raw.rows.dtype == np.float64
        assert raw.rows[0].tolist() == [1.0, 100.0, 30.0]
        assert raw.y.dtype == np.int64 and raw.y.tolist() == [1, 0]

    def test_header_order_insensitive(self, credit_schema):
        text = "age,status,salary,marital_status\n30,Accept,100,married\n"
        raw = parse_csv(io.StringIO(text), credit_schema)
        assert raw.rows.shape == (1, 3) and raw.rows.dtype == np.float64
        assert raw.rows[0].tolist() == [1.0, 100.0, 30.0]
        assert raw.y.tolist() == [1]

    def test_undeclared_nominal_names_row(self, credit_schema):
        text = CSV_OK + "widowed,10,20,Deny\n"
        with pytest.raises(DataError, match="row 3.*widowed"):
            parse_csv(io.StringIO(text), credit_schema)

    def test_missing_class_column(self, credit_schema):
        text = "marital_status,salary,age\nmarried,100,30\n"
        with pytest.raises(SchemaError):
            parse_csv(io.StringIO(text), credit_schema)

    def test_extra_column_rejected(self, credit_schema):
        text = "marital_status,salary,age,status,bonus\nmarried,100,30,Accept,1\n"
        with pytest.raises(SchemaError):
            parse_csv(io.StringIO(text), credit_schema)

    def test_unparsable_numeric_names_row(self, credit_schema):
        text = "marital_status,salary,age,status\nmarried,lots,30,Accept\n"
        with pytest.raises(DataError, match="row 1"):
            parse_csv(io.StringIO(text), credit_schema)

    def test_non_finite_numeric_rejected(self, credit_schema):
        text = "marital_status,salary,age,status\nmarried,nan,30,Accept\n"
        with pytest.raises(DataError):
            parse_csv(io.StringIO(text), credit_schema)

    def test_missing_value_rejected(self, credit_schema):
        text = "marital_status,salary,age,status\nmarried,,30,Accept\n"
        with pytest.raises(DataError, match="row 1"):
            parse_csv(io.StringIO(text), credit_schema)

    def test_unknown_class_label(self, credit_schema):
        text = "marital_status,salary,age,status\nmarried,100,30,Maybe\n"
        with pytest.raises(DataError):
            parse_csv(io.StringIO(text), credit_schema)

    @pytest.mark.parametrize("quote", ["", '"'], ids=["plain-header", "quoted-header"])
    @pytest.mark.parametrize("as_path", [False, True], ids=["file-object", "path"])
    def test_byte_order_mark_is_dropped(self, credit_schema, tmp_path, as_path, quote):
        # the mark goes before CSV parsing, so quotes around the first name
        # still delimit it
        text = CSV_OK.replace("marital_status", f"{quote}marital_status{quote}", 1)
        source = io.StringIO("\ufeff" + text)
        if as_path:
            source = tmp_path / "bom.csv"
            source.write_bytes(b"\xef\xbb\xbf" + text.encode())
        raw = parse_csv(source, credit_schema)
        plain = parse_csv(io.StringIO(CSV_OK), credit_schema)
        assert (raw.rows.tolist(), raw.y.tolist()) == (plain.rows.tolist(), plain.y.tolist())

    @pytest.mark.parametrize(
        "tail, match",
        [(b"m\xe9rried,100,30,Accept\n", "codec"),
         (b"married," + b"1" * 200_000 + b",30,Accept\n", "field limit")],
        ids=["latin1-byte", "huge-field"],
    )
    def test_unreadable_file_object_is_data_error(self, credit_schema, tail, match):
        # the CLI tests cover paths; this is the file-object branch
        source = io.TextIOWrapper(io.BytesIO(CSV_OK.encode() + tail), encoding="utf-8")
        with pytest.raises(DataError, match=match):
            parse_csv(source, credit_schema)


# spellings the column reader must treat exactly as coerce_row does
NUMERIC_SPELLINGS = ["1_000", "\u0663", "+.5", "1e-320", "-0", "infinity", "nan", "1e400",
                     "0x10", "12.5.0", "", "  ", " 7 ", "2.5"]
NOMINAL_SPELLINGS = [" a ", "A", "a", "b", " lead", "lead", ""]
LABEL_SPELLINGS = ["pos", " neg ", "neg", "POS"]


@pytest.fixture
def edge_schema() -> AttributeSchema:
    # coerce_row strips every field, so the padded " a " and " lead" read as
    # the declared "a" and "lead"
    return AttributeSchema(
        attributes=(Attribute("c", "nominal", ("a", "b", "lead")), Attribute("x", "numeric")),
        class_attribute="cls",
        class_labels=("neg", "pos"),
    )


def _edge_csv() -> str:
    """Every numeric spelling with every nominal one, in a shuffled column
    order, behind a byte-order mark, with blank lines, a too-wide and a
    too-narrow row."""
    rows = [[x, label, c] for (x, c), label in zip(
        itertools.product(NUMERIC_SPELLINGS, NOMINAL_SPELLINGS),
        itertools.cycle(LABEL_SPELLINGS))]
    rows[5:5] = [[], ["1", "pos", "a", "extra"], []]
    rows[40:40] = [["1", "pos"], []]
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([["x", "cls", "c"], *rows])
    return "\ufeff" + buf.getvalue()


def _per_row_reference(text, schema, labels=True):
    """Each data row of ``text`` checked on its own by coerce_row (its width,
    its values, then its class label with ``labels``): ``(values as float
    bits, class or None)`` or the error message of the first check that
    fails."""
    lines = csv.reader(io.StringIO(text.removeprefix("\ufeff")))
    header = next(lines)
    positions, class_pos = read_header(header, schema, labels)
    out = []
    for number, fields in enumerate(lines, start=1):
        if not fields:
            continue
        try:
            values, label = coerce_row(schema, fields, len(header), positions, class_pos,
                                       number)
        except DataError as exc:
            out.append(str(exc))
            continue
        out.append((tuple(float(v).hex() for v in values), label if labels else None))
    return out


def _chunked(text, schema, chunk_rows, labels=True):
    """read_chunks' rows in input order, in _per_row_reference's form, read
    ``chunk_rows`` lines at a time."""
    out = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(rulemine.schema, "CHUNK_ROWS", chunk_rows)
        chunks = list(read_chunks(io.StringIO(text), schema, labels=labels))
    for raw, errors in chunks:
        assert raw.rows.dtype == np.float64 and raw.rows.shape[1] == len(schema.attributes)
        # one int64 label per row, or none at all when the class column is not read
        assert raw.y.dtype == np.int64 and raw.y.shape == ((len(raw),) if labels else (0,))
        classes = raw.y.tolist() or [None] * len(raw)
        rows = [(tuple(v.hex() for v in row), c) for row, c in zip(raw.rows.tolist(), classes)]
        for position, exc in errors:
            rows.insert(position, str(exc))
        out.extend(rows)
    return out


class TestColumnReaderMatchesPerRowCheck:
    @pytest.mark.parametrize("chunk_rows", [1, 2, 7, 4096])
    @pytest.mark.parametrize("labels", [True, False])
    def test_edge_spellings(self, edge_schema, chunk_rows, labels):
        text = _edge_csv()
        expected = _per_row_reference(text, edge_schema, labels)
        assert len(expected) == len(NUMERIC_SPELLINGS) * len(NOMINAL_SPELLINGS) + 2
        # every kind of outcome occurs: converted rows (a padded " a " and
        # " lead" among them, so values 0 and 2 are each read twice as often
        # as "b") and each row error
        unlabeled = _per_row_reference(text, edge_schema, labels=False)
        converted = [values for values, _ in (e for e in unlabeled if isinstance(e, tuple))]
        numbers = {x for _, x in converted}
        assert {(1000.0).hex(), (3.0).hex(), (0.5).hex(), (1e-320).hex(), (-0.0).hex()} <= numbers
        assert (16.0).hex() not in numbers  # "0x10" is no float spelling
        nominal = [c for c, _ in converted]
        assert nominal.count((0.0).hex()) == 2 * nominal.count((1.0).hex()) > 0
        assert nominal.count((2.0).hex()) == 2 * nominal.count((1.0).hex())
        messages = " | ".join(e for e in expected if isinstance(e, str))
        for kind in ("expected 3 fields, found 4", "expected 3 fields, found 2",
                     "missing value", "cannot parse '12.5.0'", "cannot parse '0x10'",
                     "non-finite", "value 'A' not declared"):
            assert kind in messages
        assert ("class label 'POS' is not declared" in messages) == labels
        assert _chunked(text, edge_schema, chunk_rows, labels) == expected

    def test_parse_csv_table_and_first_error(self, edge_schema):
        text = _edge_csv()
        expected = _per_row_reference(text, edge_schema)
        with pytest.raises(DataError) as info:
            parse_csv(io.StringIO(text), edge_schema)
        assert str(info.value) == next(e for e in expected if isinstance(e, str))
        # the same file less its bad rows parses to the reference's table
        lines = text.splitlines(keepends=True)
        good = [lines[0]] + [
            line for line, e in zip([l for l in lines[1:] if l.strip("\n")], expected)
            if isinstance(e, tuple)]
        raw = parse_csv(io.StringIO("".join(good)), edge_schema)
        rows = [e for e in expected if isinstance(e, tuple)]
        assert [tuple(v.hex() for v in row) for row in raw.rows.tolist()] == [v for v, _ in rows]
        assert raw.y.tolist() == [c for _, c in rows]

    @staticmethod
    def _long_csv(bad):
        rows = ["married,100,30,Accept"] * 5000
        for number, row in bad.items():
            rows[number - 1] = row
        return "marital_status,salary,age,status\n" + "\n".join(rows) + "\n"

    def test_bad_rows_on_both_sides_of_a_chunk_boundary(self, credit_schema):
        text = self._long_csv({4096: "widowed,100,30,Accept", 4097: "married,lots,30,Accept"})
        chunks = list(read_chunks(io.StringIO(text), credit_schema))
        assert [len(raw) for raw, _ in chunks] == [4095, 903]
        assert [[(p, str(e)) for p, e in errors] for _, errors in chunks] == [
            [(4095, "row 4096: value 'widowed' not declared for nominal attribute "
                    "'marital_status'")],
            [(0, "row 4097: cannot parse 'lots' as numeric for attribute 'salary'")],
        ]
        assert _chunked(text, credit_schema, 4096) == _per_row_reference(text, credit_schema)
        with pytest.raises(DataError, match="^row 4096: value 'widowed'"):
            parse_csv(io.StringIO(text), credit_schema)
        # the chunks' labels join into one int64 array
        raw = parse_csv(io.StringIO(self._long_csv({})), credit_schema)
        assert raw.y.dtype == np.int64 and raw.y.tolist() == [1] * 5000

    @pytest.mark.parametrize("first, second", [
        ("married,100,30,Maybe", "married,lots,30,Accept"),
        ("married,lots,30,Accept", "married,100,30,Maybe"),
    ], ids=["label-first", "value-first"])
    @pytest.mark.parametrize("where", [(3, 5), (4096, 4097)], ids=["one-chunk", "two-chunks"])
    def test_parse_csv_raises_the_first_bad_row(self, credit_schema, first, second, where):
        text = self._long_csv(dict(zip(where, (first, second))))
        with pytest.raises(DataError, match=f"^row {where[0]}: "):
            parse_csv(io.StringIO(text), credit_schema)

    @pytest.mark.parametrize("bad_row", [None, 1, 500])
    @pytest.mark.parametrize("chunk_rows", [7, 4096])
    def test_rows_before_an_unreadable_line_are_checked(self, credit_schema, bad_row,
                                                        chunk_rows, monkeypatch):
        # the last of 1,001 rows holds a byte that is not UTF-8, past the
        # decoder's first 8 KB block
        text = self._long_csv({1001: "m\udce9rried,100,30,Accept"} | (
            {bad_row: "married,lots,30,Accept"} if bad_row else {}))
        source = io.TextIOWrapper(io.BytesIO(text.encode("utf-8", "surrogateescape")),
                                  encoding="utf-8", newline="")
        monkeypatch.setattr(rulemine.schema, "CHUNK_ROWS", chunk_rows)
        chunks = read_chunks(source, credit_schema)
        drawn = []
        with pytest.raises(DataError, match="can't decode byte 0xe9"):
            for raw, errors in chunks:
                drawn.append((len(raw), [(p, str(e)) for p, e in errors]))
        # the rows decoded before the failing block come as chunks, in order
        assert 500 <= sum(n + len(e) for n, e in drawn) < 1000
        found = [e for _, errors in drawn for e in errors]
        assert found == ([] if bad_row is None else [
            ((bad_row - 1) % chunk_rows, f"row {bad_row}: cannot parse 'lots' as "
                                         "numeric for attribute 'salary'")])
        source.seek(0)
        with pytest.raises(DataError, match=f"^row {bad_row}: " if bad_row else "codec"):
            parse_csv(source, credit_schema)

    def test_value_error_comes_before_label_error_in_a_row(self, credit_schema):
        text = CSV_OK + "married,lots,30,Maybe\n"
        with pytest.raises(DataError, match="^row 3: cannot parse 'lots'"):
            parse_csv(io.StringIO(text), credit_schema)

    def test_wrong_width_in_an_all_nominal_schema(self):
        # no column can read a short or long row: it goes in as empty fields,
        # and a schema declares no empty value (an empty field is missing)
        schema = AttributeSchema(
            attributes=(Attribute("c", "nominal", ("a", "b")),
                        Attribute("d", "nominal", ("a", "b"))),
            class_attribute="cls",
            class_labels=("neg", "pos"),
        )
        text = "c,d\na,b\na\n,a\na,b,a\nb,a\n"
        expected = _per_row_reference(text, schema, labels=False)
        assert [e[:5] for e in expected if isinstance(e, str)] == ["row 2", "row 3", "row 4"]
        for chunk_rows in (1, 4096):
            assert _chunked(text, schema, chunk_rows, labels=False) == expected

    def test_bad_header_raises_before_the_first_chunk(self, credit_schema):
        # the header is matched when read_chunks is called, not when its
        # chunks are first drawn
        with pytest.raises(SchemaError, match="missing column 'age'"):
            read_chunks(io.StringIO("marital_status,salary,status\n"), credit_schema)


class TestSchemaJson:
    def test_round_trip(self, credit_schema, tmp_path):
        path = tmp_path / "schema.json"
        save_schema(credit_schema, path)
        assert load_schema(path) == credit_schema

    def test_empty_label_and_name_stay_legal(self):
        # an empty field matches them, so they load and read
        schema = AttributeSchema(
            attributes=(Attribute("", "numeric"), Attribute("c", "nominal", ("a", "b"))),
            class_attribute="cls",
            class_labels=("", "pos"),
        )
        raw = parse_csv(io.StringIO(",c,cls\n1.5,b,\n2, a ,pos\n"), schema)
        assert raw.rows.tolist() == [[1.5, 1.0], [2.0, 0.0]]
        assert raw.y.tolist() == [0, 1]

class TestEncode:
    def test_dummy_coding(self, credit_schema):
        raw = parse_csv(io.StringIO(CSV_OK), credit_schema)
        enc = encode(raw)
        assert enc.y.dtype == np.int64 and np.array_equal(enc.y, raw.y)
        cols = enc.layout.nominal["marital_status"]
        # married -> (0, 1, 0) in declared value order
        assert list(enc.X[0, cols]) == [0.0, 1.0, 0.0]
        assert list(enc.X[1, cols]) == [1.0, 0.0, 0.0]

    def test_subset_keeps_the_hot_column(self, credit_schema):
        raw = parse_csv(io.StringIO(CSV_OK), credit_schema)
        enc = encode(raw)
        cols = enc.layout.nominal["marital_status"]
        # married, single: the subset of row 1 keeps single's one-hot block
        assert enc.subset(np.array([1])).X[:, cols].tolist() == [[1.0, 0.0, 0.0]]

    def test_schema_is_read_from_the_layout(self, credit_schema):
        # one copy of the schema: the encoding's, which a subset shares
        enc = encode(parse_csv(io.StringIO(CSV_OK), credit_schema))
        assert enc.schema is enc.layout.schema == credit_schema
        assert enc.subset(np.array([1])).schema is enc.layout.schema

    def test_missing_class_labels_rejected(self, credit_schema):
        raw = parse_csv(io.StringIO(CSV_OK), credit_schema)
        short = RawDataset(raw.schema, raw.rows, raw.y[:-1])
        with pytest.raises(DataError, match="dataset rows are missing class labels"):
            encode(short)

    def test_numeric_midpoint(self, credit_schema):
        text = (
            "marital_status,salary,age,status\n"
            "single,10,30,Deny\nmarried,15,30,Accept\ndivorced,20,30,Deny\n"
        )
        enc = encode(parse_csv(io.StringIO(text), credit_schema))
        j = enc.layout.numeric["salary"]
        assert enc.X[1, j] == pytest.approx(0.5)

    def test_out_of_range_clamped(self, credit_schema):
        train_text = (
            "marital_status,salary,age,status\n"
            "single,10,30,Deny\nmarried,20,30,Accept\n"
        )
        test_text = "marital_status,salary,age,status\nsingle,25,30,Deny\n"
        train_raw = parse_csv(io.StringIO(train_text), credit_schema)
        test_raw = parse_csv(io.StringIO(test_text), credit_schema)
        enc = encode(test_raw, ranges_from=encode(train_raw).numeric_ranges)
        assert enc.X[0, enc.layout.numeric["salary"]] == 1.0

    def test_constant_numeric_encodes_to_zero(self, credit_schema):
        text = (
            "marital_status,salary,age,status\n"
            "single,10,30,Deny\nmarried,10,40,Accept\n"
        )
        enc = encode(parse_csv(io.StringIO(text), credit_schema))
        assert np.all(enc.X[:, enc.layout.numeric["salary"]] == 0.0)

    def test_ranges_accept_plain_mapping(self, credit_schema):
        text = "marital_status,salary,age,status\nsingle,15,35,Deny\n"
        raw = parse_csv(io.StringIO(text), credit_schema)
        enc = encode(raw, ranges_from={"salary": (10.0, 20.0), "age": (30.0, 40.0)})
        assert enc.X[0, enc.layout.numeric["salary"]] == pytest.approx(0.5)
        assert enc.X[0, enc.layout.numeric["age"]] == pytest.approx(0.5)

    def test_everything_in_unit_interval(self, credit_schema):
        raw = parse_csv(io.StringIO(CSV_OK), credit_schema)
        enc = encode(raw)
        assert np.all(enc.X >= 0.0) and np.all(enc.X <= 1.0)

    def test_range_law(self, credit_schema):
        # encoding the training set itself puts min at 0 and max at 1
        text = (
            "marital_status,salary,age,status\n"
            "single,10,20,Deny\nmarried,25,80,Accept\nsingle,14,35,Deny\n"
        )
        enc = encode(parse_csv(io.StringIO(text), credit_schema))
        for name in ("salary", "age"):
            col = enc.X[:, enc.layout.numeric[name]]
            assert col.min() == 0.0 and col.max() == 1.0


def _encode_row_reference(schema, ranges, row):
    """The per-row encoding, scalar min-max scaling one value at a time."""
    layout = ColumnLayout(schema)
    x = np.zeros(layout.dimension)
    for a, value in zip(schema.attributes, row):
        if a.kind == "nominal":
            x[layout.nominal[a.name].start + a.values.index(value)] = 1.0
        else:
            lo, hi = ranges[a.name]
            scaled = 0.0 if hi <= lo else min(1.0, max(0.0, (float(value) - lo) / (hi - lo)))
            x[layout.numeric[a.name]] = scaled
    return x


class TestEncodeMatchesPerRowFormula:
    """The column-wise encode is bit-identical to the per-row formula."""

    # salary spans the range below, at and above [10, 20]; age is a constant
    # training column; the last range makes value - lo and hi - lo overflow
    @pytest.mark.parametrize("ranges", [
        {"salary": (10.0, 20.0), "age": (30.0, 30.0)},
        {"salary": (10.0, 20.0), "age": (-1e308, 1e308)},
    ])
    def test_fixed_values(self, credit_schema, ranges):
        salaries = ["-1e308", "-3", "9.999999999", "10", "10.000000001", "13.7",
                    "15", "19.99999999", "20", "20.000001", "55", "1e308"]
        ages = ["29", "30", "31", "1e308", "-1e308", "0"]
        statuses = credit_schema.attribute("marital_status").values
        rows = [(statuses[i % 3], s, ages[i % len(ages)]) for i, s in enumerate(salaries)]
        self._check(credit_schema, rows, ranges)

    def test_random_values_and_own_ranges(self, credit_schema):
        rng = np.random.default_rng(5)
        statuses = credit_schema.attribute("marital_status").values
        rows = [
            (statuses[int(rng.integers(0, 3))], repr(float(s)), repr(float(a)))
            for s, a in rng.uniform(-50.0, 150.0, (300, 2))
        ]
        self._check(credit_schema, rows, None)
        self._check(credit_schema, rows, {"salary": (0.0, 100.0), "age": (20.0, 60.0)})

    @pytest.mark.parametrize("kind", ["nominal", "numeric"])
    def test_one_kind_schema(self, kind):
        # no nominal column leaves the one-hot assignment nothing to fill; no
        # numeric column leaves it to fill X on its own
        rng = np.random.default_rng(9)
        values = ("lo", "mid", "hi")
        schema = AttributeSchema(
            attributes=tuple(
                Attribute(name, kind, values if kind == "nominal" else ())
                for name in ("a", "b")
            ),
            class_attribute="cls",
            class_labels=("neg", "pos"),
        )
        if kind == "nominal":
            rows = [tuple(values[i] for i in rng.integers(0, 3, 2)) for _ in range(50)]
        else:
            rows = [tuple(repr(float(v)) for v in rng.uniform(-5.0, 5.0, 2))
                    for _ in range(50)]
        self._check(schema, rows, None)
        self._check(schema, rows, {} if kind == "nominal" else
                    {"a": (-1.0, 1.0), "b": (0.0, 0.0)})

    @staticmethod
    def _check(schema, rows, ranges):
        # the rows go through coerce_row, the per-row check of parse_csv
        positions = range(len(schema.attributes))
        table = [coerce_row(schema, r, len(r), positions, None, i)[0]
                 for i, r in enumerate(rows, 1)]
        raw = RawDataset(schema, np.array(table, dtype=np.float64), np.empty(0, np.int64))
        enc = encode(raw, ranges_from=ranges)
        expected = np.vstack(
            [_encode_row_reference(schema, enc.numeric_ranges, r) for r in rows])
        assert enc.X.dtype == np.float64 and enc.y.size == 0
        assert enc.X.tobytes() == expected.tobytes()


# random schemas for the structural laws
_names = st.lists(
    st.text(alphabet="abcdefgh", min_size=1, max_size=6),
    min_size=1, max_size=5, unique=True,
)


@st.composite
def schemas(draw):
    names = draw(_names)
    attrs = []
    for name in names:
        if draw(st.booleans()):
            k = draw(st.integers(min_value=2, max_value=5))
            attrs.append(Attribute(name, "nominal", tuple(f"{name}{i}" for i in range(k))))
        else:
            attrs.append(Attribute(name, "numeric"))
    return AttributeSchema(
        attributes=tuple(attrs), class_attribute="cls", class_labels=("a", "b")
    )


@given(schemas())
@settings(max_examples=60, deadline=None)
def test_width_law(schema):
    width = sum(
        len(a.values) if a.kind == "nominal" else 1 for a in schema.attributes
    )
    assert ColumnLayout(schema).dimension == width


@given(schemas(), st.randoms(use_true_random=False))
@settings(max_examples=40, deadline=None)
def test_nominal_round_trip(schema, rnd):
    # decoding the dummy block of each nominal attribute recovers the value
    row = []
    for a in schema.attributes:
        row.append(rnd.choice(a.values) if a.kind == "nominal" else "0.25")
    raw_text = ",".join(a.name for a in schema.attributes) + ",cls\n" + ",".join(row) + ",a\n"
    enc = encode(parse_csv(io.StringIO(raw_text), schema))
    for a in schema.attributes:
        if a.kind != "nominal":
            continue
        cols = enc.layout.nominal[a.name]
        block = enc.X[0, cols]
        assert block.sum() == 1.0
        decoded = a.values[int(np.argmax(block))]
        assert decoded == row[schema.attribute_names.index(a.name)]


def test_scale_unscale_inverse():
    for v in (10.0, 13.7, 20.0):
        s = scale_numeric(v, 10.0, 20.0)
        assert unscale_numeric(s, 10.0, 20.0) == pytest.approx(v)


class TestStratifiedSplit:
    def _dataset(self, numeric_schema, n0=60, n1=40):
        n = n0 + n1
        rng = np.random.default_rng(0)
        X = rng.uniform(0, 1, (n, 2))
        y = np.array([0] * n0 + [1] * n1)
        return build_encoded(numeric_schema, X, y)

    def test_exact_proportionality(self, numeric_schema):
        data = self._dataset(numeric_schema)
        train, test = stratified_split(data, 0.2, seed=1)
        counts = np.bincount(test.y, minlength=2)
        assert counts[0] == 12 and counts[1] == 8
        assert len(train) == 80

    def test_determinism(self, numeric_schema):
        data = self._dataset(numeric_schema)
        a = stratified_split(data, 0.3, seed=9)
        b = stratified_split(data, 0.3, seed=9)
        assert np.array_equal(a[0].X, b[0].X) and np.array_equal(a[1].X, b[1].X)

    def test_disjoint_union(self, numeric_schema):
        data = self._dataset(numeric_schema, 31, 17)
        train, test = stratified_split(data, 0.25, seed=3)
        assert len(train) + len(test) == len(data)
        merged = np.vstack([train.X, test.X])
        assert sorted(map(tuple, merged)) == sorted(map(tuple, data.X))

    def test_within_one_of_proportional(self, numeric_schema):
        data = self._dataset(numeric_schema, 53, 29)
        for frac in (0.1, 0.33, 0.5, 0.9):
            _, test = stratified_split(data, frac, seed=2)
            counts = np.bincount(test.y, minlength=2)
            for c, n_c in ((0, 53), (1, 29)):
                assert abs(counts[c] - frac * n_c) <= 1.0

    def test_singleton_class_rejected(self, numeric_schema):
        X = np.zeros((3, 2))
        data = build_encoded(numeric_schema, X, [0, 0, 1])
        with pytest.raises(DataError):
            stratified_split(data, 0.5, seed=0)

    def test_empty_dataset_rejected(self, numeric_schema):
        empty = self._dataset(numeric_schema).subset(np.array([], dtype=np.intp))
        with pytest.raises(DataError, match="cannot split an empty dataset"):
            stratified_split(empty, 0.5, seed=0)

    def test_fraction_bounds(self, numeric_schema):
        data = self._dataset(numeric_schema)
        for bad in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ConfigError):
                stratified_split(data, bad, seed=0)
