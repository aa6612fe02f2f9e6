"""Deterministic synthetic dataset generators.

Three profiles with known structure, used for demos and end-to-end checks:

- ``separable``: two numeric attributes, class decided by x1 > 0.5.
- ``credit3``: a credit-scoring shape (6 numeric + 4 nominal attributes)
  labeled by three hidden rules plus 5% label noise, class balance kept
  within 35-65%.
- ``fragmented``: one class lives in 8 disjoint nominal pockets, so covering
  it with single-value conditions takes many rules while set-valued
  conditions can merge pockets.

Numeric values are sampled away from the hidden thresholds (a small margin
band is excluded) so the decision boundaries are recoverable from data.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .schema import Attribute, AttributeSchema, RawDataset, parse_csv

PROFILES = ("separable", "credit3", "fragmented")
MIN_ROWS = 50
MAX_ROWS = 10_000_000  # far above any use; a much larger count is beyond numpy sizes or memory
_MARGIN = 0.02

_CREDIT_NOISE = 0.05
_CREDIT_BALANCE = (0.35, 0.65)

# raw display ranges for credit3's latent [0, 1] draws
_CREDIT_RANGES = {
    "requested_amount": (500.0, 50000.0),
    "salary": (12000.0, 120000.0),
    "cash_balance": (0.0, 50000.0),
    "investments": (0.0, 200000.0),
    "liabilities": (0.0, 80000.0),
    "age": (18.0, 70.0),
}


@dataclass
class SyntheticDataset:
    schema: AttributeSchema
    rows: list[tuple[str, ...]]
    classes: list[str]

    def to_raw(self) -> RawDataset:
        return parse_csv(io.StringIO(self.csv_text()), self.schema)

    def csv_text(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(list(self.schema.attribute_names) + [self.schema.class_attribute])
        for row, label in zip(self.rows, self.classes):
            writer.writerow(list(row) + [label])
        return buf.getvalue()


def _uniform_away_from(
    rng: np.random.Generator, n: int, thresholds: tuple[float, ...]
) -> np.ndarray:
    """Uniform [0, 1] draws with a margin band around each threshold excluded."""
    u = rng.uniform(0.0, 1.0, n)
    while True:
        bad = np.zeros(n, dtype=bool)
        for t in thresholds:
            bad |= np.abs(u - t) < _MARGIN
        if not bad.any():
            return u
        u[bad] = rng.uniform(0.0, 1.0, int(bad.sum()))


def _separable(rows: int, rng: np.random.Generator) -> SyntheticDataset:
    schema = AttributeSchema(
        attributes=(Attribute("x1", "numeric"), Attribute("x2", "numeric")),
        class_attribute="label",
        class_labels=("neg", "pos"),
    )
    x1 = _uniform_away_from(rng, rows, (0.5,))
    x2 = rng.uniform(0.0, 1.0, rows)
    data_rows = [(f"{a:.6f}", f"{b:.6f}") for a, b in zip(x1, x2)]
    classes = ["pos" if a > 0.5 else "neg" for a in x1]
    return SyntheticDataset(schema=schema, rows=data_rows, classes=classes)


_CREDIT_SCHEMA = AttributeSchema(
    attributes=(
        Attribute("requested_amount", "numeric"),
        Attribute("salary", "numeric"),
        Attribute("cash_balance", "numeric"),
        Attribute("investments", "numeric"),
        Attribute("liabilities", "numeric"),
        Attribute("age", "numeric"),
        Attribute("marital_status", "nominal", ("single", "married", "divorced")),
        Attribute("job_type", "nominal", ("employee", "self_employed", "retired", "unemployed")),
        Attribute("purpose", "nominal", ("car", "home", "travel", "business")),
        Attribute("region", "nominal", ("north", "south", "east", "west")),
    ),
    class_attribute="status",
    class_labels=("Deny", "Accept"),
)


def _credit3_once(rows: int, rng: np.random.Generator) -> SyntheticDataset:
    amount = _uniform_away_from(rng, rows, (0.5,))
    salary = _uniform_away_from(rng, rows, (0.5,))
    cash = rng.uniform(0.0, 1.0, rows)
    investments = rng.uniform(0.0, 1.0, rows)
    liabilities = _uniform_away_from(rng, rows, (0.7,))
    age = rng.uniform(0.0, 1.0, rows)
    marital = rng.integers(0, 3, rows)
    # employees are over-represented so the employee rule carries weight
    job = rng.choice(4, size=rows, p=(0.4, 0.2, 0.2, 0.2))
    purpose = rng.integers(0, 4, rows)
    region = rng.integers(0, 4, rows)
    # three hidden rules applied as a decision list, first match wins:
    #   1. liabilities > 0.7                        -> Deny
    #   2. salary >= 0.5                            -> Accept
    #   3. job_type = employee and amount <= 0.5    -> Accept
    #   otherwise                                   -> Deny
    accept = (liabilities <= 0.7) & ((salary >= 0.5) | ((job == 0) & (amount <= 0.5)))
    flip = rng.uniform(0.0, 1.0, rows) < _CREDIT_NOISE
    accept = accept ^ flip

    def money(name: str, u: np.ndarray) -> list[str]:
        lo, hi = _CREDIT_RANGES[name]
        return [f"{lo + v * (hi - lo):.2f}" for v in u]

    columns = [
        money("requested_amount", amount),
        money("salary", salary),
        money("cash_balance", cash),
        money("investments", investments),
        money("liabilities", liabilities),
        [f"{18.0 + v * 52.0:.1f}" for v in age],
        [_CREDIT_SCHEMA.attribute("marital_status").values[i] for i in marital],
        [_CREDIT_SCHEMA.attribute("job_type").values[i] for i in job],
        [_CREDIT_SCHEMA.attribute("purpose").values[i] for i in purpose],
        [_CREDIT_SCHEMA.attribute("region").values[i] for i in region],
    ]
    data_rows = [tuple(col[i] for col in columns) for i in range(rows)]
    classes = ["Accept" if a else "Deny" for a in accept]
    return SyntheticDataset(schema=_CREDIT_SCHEMA, rows=data_rows, classes=classes)


def _credit3(rows: int, rng: np.random.Generator) -> SyntheticDataset:
    lo, hi = _CREDIT_BALANCE
    for _ in range(100):
        data = _credit3_once(rows, rng)
        share = data.classes.count("Accept") / rows
        if lo <= share <= hi:
            return data
    raise ConfigError("could not reach the target class balance; try another seed")


_FRAGMENT_SCHEMA = AttributeSchema(
    attributes=(
        Attribute(
            "sector",
            "nominal",
            ("sector_a", "sector_b", "sector_c", "sector_d",
             "sector_e", "sector_f", "sector_g", "sector_h"),
        ),
        Attribute("band", "nominal", ("band_1", "band_2", "band_3", "band_4")),
        Attribute("score", "numeric"),
    ),
    class_attribute="group",
    class_labels=("common", "rare"),
)


def _fragmented(rows: int, rng: np.random.Generator) -> SyntheticDataset:
    sector = rng.integers(0, 8, rows)
    band = rng.integers(0, 4, rows)
    score = rng.uniform(0.0, 1.0, rows)
    # pocket i is (sector i, band i mod 4): eight disjoint nominal cells
    rare = band == (sector % 4)
    sector_values = _FRAGMENT_SCHEMA.attribute("sector").values
    band_values = _FRAGMENT_SCHEMA.attribute("band").values
    data_rows = [
        (sector_values[s], band_values[b], f"{v:.6f}")
        for s, b, v in zip(sector, band, score)
    ]
    classes = ["rare" if r else "common" for r in rare]
    return SyntheticDataset(schema=_FRAGMENT_SCHEMA, rows=data_rows, classes=classes)


def generate(profile: str, rows: int, seed: int) -> SyntheticDataset:
    """Generate ``rows`` examples of the named profile, deterministically."""
    if profile not in PROFILES:
        raise ConfigError(f"unknown profile {profile!r}; choose from {PROFILES}")
    if not MIN_ROWS <= rows <= MAX_ROWS:
        raise ConfigError(f"rows must lie in [{MIN_ROWS}, {MAX_ROWS}], got {rows}")
    rng = np.random.default_rng(seed)
    if profile == "separable":
        return _separable(rows, rng)
    if profile == "credit3":
        return _credit3(rows, rng)
    return _fragmented(rows, rng)
