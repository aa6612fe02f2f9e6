"""Output checks that feed ``failed_share``.

A predict run is checked line by line against a reference built once with
the library: ``classify_dataset`` over the valid rows, encoded with the
model's ``numeric_ranges``. A train run is checked for its exit code, for a
model ``load_model`` can read, and for model bytes identical to the first
run of the same set (same seed, same bytes).
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass, field
from pathlib import Path

HEADER = ["prediction", "fired_rule", "rule"]


@dataclass
class Reference:
    """Expected predict output: one entry per input row, ``None`` for an
    injected malformed row (which must come out as ``ERROR,-,<reason>``)."""

    expected: list[tuple[str, str, str] | None]
    data: object  # the clean rows as an EncodedDataset
    timings_s: dict[str, float] = field(default_factory=dict)


def build_reference(rm, artifact, clean_csv: Path, malformed: set[int]) -> Reference:
    """Classify the clean rows with the library; time each step on the way."""
    timings = {}

    def timed(key, fn, *args, **kwargs):
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        timings[key] = time.perf_counter() - t0
        return out

    schema = artifact.schema
    raw = timed("parse_csv", rm.parse_csv, clean_csv, schema)
    data = timed("encode", rm.encode, raw, ranges_from=artifact.numeric_ranges)
    rules = artifact.rule_list
    predicted, fired = timed("classify_dataset", rm.classify_dataset, rules, data)
    texts = [rm.render_rule(r, schema, artifact.numeric_ranges) for r in rules.rules]
    labels = schema.class_labels
    expected: list[tuple[str, str, str] | None] = []
    for i, (p, f) in enumerate(zip(predicted.tolist(), fired.tolist())):
        if i in malformed:
            expected.append(None)
        elif f == 0:
            expected.append((labels[p], "default", "-"))
        else:
            expected.append((labels[p], str(f), texts[f - 1]))
    return Reference(expected=expected, data=data, timings_s=timings)


def read_predictions(path: Path) -> list[list[str]] | None:
    """Data lines of a predict output file; None if it is missing or has no header."""
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            lines = list(csv.reader(fh))
    except (OSError, UnicodeDecodeError, csv.Error):
        return None
    if not lines or lines[0] != HEADER:
        return None
    return lines[1:]


def count_failed_rows(reference: Reference, lines: list[list[str]] | None) -> int:
    """Rows whose output line is wrong, missing or out of place.

    Lines are compared by position, so a dropped or extra line misplaces
    every row after it. Lines beyond the input count as failures too, capped
    at the number of input rows.
    """
    expected = reference.expected
    if lines is None:
        return len(expected)
    failed = 0
    for i, want in enumerate(expected):
        got = lines[i] if i < len(lines) else None
        if got is None:
            failed += 1
        elif want is None:
            failed += not (len(got) == 3 and got[0] == "ERROR" and got[1] == "-" and got[2])
        else:
            failed += tuple(got) != want
    failed += max(0, len(lines) - len(expected))
    return min(failed, len(expected))


def train_run_failed(rm, exit_code: int, model_path: Path, first_bytes: bytes | None):
    """(failed, artifact, model bytes) for one ``rulemine train`` run."""
    if exit_code != 0:
        return True, None, None
    try:
        data = model_path.read_bytes()
        artifact = rm.load_model(model_path)
    except Exception:  # any failure to read the model back fails the run
        return True, None, None
    return first_bytes is not None and data != first_bytes, artifact, data
