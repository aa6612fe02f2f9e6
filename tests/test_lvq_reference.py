"""The LVQ presentation loop against a per-example reference.

The reference below is the loop as first written: numpy row copies through
``move_toward``/``move_away``, ``np.clip``, ``np.argmin`` and an array of
assignments. ``fit_network`` must reproduce it bit for bit: the centroid
positions, the movement trace, the represented counts and the deviations.
The reference places its centroids as ``fit_network`` does, from the first
of the two generators spawned from the seed, and presents from the second.
The reference also reports why it stopped and how often the runner-up was
pushed away, so each case can show it covers what it claims to.
"""

from __future__ import annotations

import numpy as np
import pytest

from conftest import build_encoded, move_away, move_toward
from rulemine import lvq
from rulemine.lvq import (
    LvqConfig,
    _final_statistics,
    _place_centroids,
    fit_network,
)
from rulemine.schema import Attribute, AttributeSchema


def ref_train(data, config):
    place_seed, present_seed = np.random.SeedSequence(config.seed).spawn(2)
    positions, classes = _place_centroids(data, config, np.random.default_rng(place_seed))
    rng = np.random.default_rng(present_seed)
    X, y = data.X, data.y
    n = len(data)
    ratio_sq = lvq.REPULSION_RATIO**2
    prev_assign = None
    trace = []
    stop, repulsions = "max_epochs", 0
    for epoch in range(config.max_epochs):
        rate = lvq.ADAPT_RATE * (1.0 - epoch / config.max_epochs)
        start = positions.copy()
        assign = np.empty(n, dtype=np.int64)
        for i in rng.permutation(n):
            x = X[i]
            diff = positions - x
            d2 = np.einsum("kd,kd->k", diff, diff)
            first = int(np.argmin(d2))
            d2_first = d2[first]
            d2[first] = np.inf
            second = int(np.argmin(d2))
            d2_second = d2[second]
            assign[i] = first
            if classes[first] == y[i]:
                positions[first] = move_toward(positions[first], x, rate)
            else:
                positions[first] = move_away(positions[first], x, rate)
            np.clip(positions[first], 0.0, 1.0, out=positions[first])
            if classes[second] != y[i] and d2_second < ratio_sq * d2_first:
                positions[second] = move_away(positions[second], x, rate)
                np.clip(positions[second], 0.0, 1.0, out=positions[second])
                repulsions += 1
        movement = float(np.mean(np.sqrt(((positions - start) ** 2).sum(axis=1))))
        trace.append(movement)
        if movement < lvq.STABILITY_THRESHOLD:
            stop = "stability"
            break
        if prev_assign is not None and np.array_equal(assign, prev_assign):
            stop = "repeated_assignment"
            break
        prev_assign = assign
    represented_counts, deviations = _final_statistics(positions, data)
    ref = {"positions": positions, "represented_counts": represented_counts,
           "deviations": deviations, "trace": trace}
    return ref, stop, repulsions


SCHEMAS = {
    "mixed": (
        Attribute("colour", "nominal", ("red", "green", "blue")),
        Attribute("size", "numeric"),
        Attribute("shape", "nominal", ("round", "square")),
        Attribute("weight", "numeric"),
    ),
    "nominal_only": (
        Attribute("colour", "nominal", ("red", "green", "blue")),
        Attribute("shape", "nominal", ("round", "square")),
    ),
    "numeric_only": (Attribute("size", "numeric"), Attribute("weight", "numeric")),
    # 24 encoded columns over three nominal blocks and eight numerics
    "wide": (
        Attribute("grade", "nominal", tuple("abcdefghij")),
        *(Attribute(f"m{i}", "numeric") for i in range(8)),
        Attribute("region", "nominal", ("north", "south", "east", "west")),
        Attribute("shape", "nominal", ("round", "square")),
    ),
}


def _dataset(kind, seed, n=90, classes=3, spread=1.0):
    """Random rows; ``spread`` < 1 packs each class's numeric values into
    its own band, which makes assignments settle."""
    schema = AttributeSchema(SCHEMAS[kind], "cls", tuple(f"c{j}" for j in range(classes)))
    rng = np.random.default_rng(seed)
    y = np.arange(n) % classes
    blocks = []
    for attr in schema.attributes:
        if attr.kind == "nominal":
            block = np.zeros((n, len(attr.values)))
            block[np.arange(n), rng.integers(0, len(attr.values), n)] = 1.0
        else:
            band = (y + 0.5) / classes
            block = (band + spread * rng.uniform(-0.5, 0.5, n) / classes)[:, None]
        blocks.append(block)
    return build_encoded(schema, np.hstack(blocks), y)


def _fit_both(data, config):
    got = fit_network(data, config)
    ref, stop, repulsions = ref_train(data, config)
    for name in ("positions", "represented_counts", "deviations"):
        assert getattr(got, name).tobytes() == ref[name].tobytes(), name
    assert np.array(got.trace).tobytes() == np.array(ref["trace"]).tobytes()
    assert got.stop_reason == stop
    return ref, stop, repulsions


@pytest.mark.parametrize("seed", [0, 5])
@pytest.mark.parametrize("centroid_count", [3, 7, 16])
@pytest.mark.parametrize("kind", sorted(SCHEMAS))
def test_matches_reference(kind, centroid_count, seed):
    data = _dataset(kind, seed=seed + centroid_count)
    config = LvqConfig(centroid_count=centroid_count, max_epochs=6, seed=seed)
    _fit_both(data, config)


@pytest.mark.parametrize("kind", sorted(SCHEMAS))
def test_runner_up_repulsion(kind, monkeypatch):
    # a wide repulsion window on overlapping classes pushes runners-up often
    monkeypatch.setattr(lvq, "REPULSION_RATIO", 3.0)
    data = _dataset(kind, seed=2)
    config = LvqConfig(centroid_count=3, max_epochs=4, seed=2)
    _, _, repulsions = _fit_both(data, config)
    assert repulsions > 0


def test_stops_on_stability(monkeypatch):
    monkeypatch.setattr(lvq, "STABILITY_THRESHOLD", 0.5)
    data = _dataset("mixed", seed=3)
    config = LvqConfig(centroid_count=6, max_epochs=20, seed=3)
    ref, stop, _ = _fit_both(data, config)
    assert stop == "stability"
    assert len(ref["trace"]) < config.max_epochs


def test_stops_on_repeated_assignment(monkeypatch):
    # one centroid per class on well-separated numeric bands: every row's
    # nearest centroid is fixed after the first epoch
    monkeypatch.setattr(lvq, "STABILITY_THRESHOLD", 1e-12)
    data = _dataset("numeric_only", seed=4, spread=0.2)
    config = LvqConfig(centroid_count=3, max_epochs=20, seed=4)
    ref, stop, _ = _fit_both(data, config)
    assert stop == "repeated_assignment"
    assert len(ref["trace"]) < config.max_epochs
