"""The LVQ batch step against a per-centroid reference.

The reference below is the batch law written plainly: from each epoch's
starting positions, every row finds its winner and runner-up with
``np.argmin``, and each centroid's new position is the mean of the positions
that ``move_toward``/``move_away`` give it for each row that touches it,
clamped to [0, 1]. That mean equals the position plus ``rate`` times the mean
of the signed differences, which ``fit_network`` sums in another order, so
positions and the movement trace agree to 1e-12, not bit for bit. The
assignments of every epoch, the stop reason, the epoch count, the churn, and
the represented counts and deviations of the final positions must be equal.
The reference places its centroids as ``fit_network`` does, from the first
generator spawned from the seed. It also reports how often a runner-up was
pushed away, so each case can show it covers what it claims to.
"""

from __future__ import annotations

import numpy as np
import pytest

from conftest import build_encoded, move_away, move_toward
from rulemine import lvq
from rulemine.lvq import LvqConfig, _place_centroids, fit_network
from rulemine.schema import Attribute, AttributeSchema


def _nearest_two(positions, x):
    d2 = np.einsum("kd,kd->k", positions - x, positions - x)
    first = int(np.argmin(d2))
    d2_first = d2[first]
    d2[first] = np.inf
    second = int(np.argmin(d2))
    return first, second, d2[second] < lvq.REPULSION_RATIO**2 * d2_first


def ref_train(data, config):
    (place_seed,) = np.random.SeedSequence(config.seed).spawn(1)
    positions, classes = _place_centroids(data, config, np.random.default_rng(place_seed))
    X, y = data.X, data.y
    trace, assignments, churn = [], [], []
    stop, repulsions = "max_epochs", 0
    for epoch in range(config.max_epochs):
        rate = lvq.ADAPT_RATE * (1.0 - epoch / config.max_epochs)
        start = positions.copy()
        winners, pushed = [], []
        for x, label in zip(X, y):
            first, second, within = _nearest_two(start, x)
            winners.append(first)
            pushed.append(second if classes[second] != label and within else None)
        for j, p in enumerate(start):
            moved = []
            for x, label, first, second in zip(X, y, winners, pushed):
                if first == j:
                    moved.append(move_toward(p, x, rate) if classes[j] == label
                                 else move_away(p, x, rate))
                if second == j:
                    moved.append(move_away(p, x, rate))
                    repulsions += 1
            if moved:
                positions[j] = np.clip(np.mean(moved, axis=0), 0.0, 1.0)
        assign = np.array(winners)
        trace.append(float(np.mean(np.sqrt(((positions - start) ** 2).sum(axis=1)))))
        if assignments:
            churn.append(float(np.mean(assign != assignments[-1])))
        assignments.append(assign)
        if trace[-1] < lvq.STABILITY_THRESHOLD:
            stop = "stability"
            break
        if len(assignments) > 1 and np.array_equal(assign, assignments[-2]):
            stop = "repeated_assignment"
            break
    final = np.array([_nearest_two(positions, x)[0] for x in X])
    represented_counts = np.bincount(final, minlength=len(positions))
    deviations = np.zeros_like(positions)
    for k in np.flatnonzero(represented_counts >= 2):
        deviations[k] = np.std(X[final == k], axis=0)
    ref = {"positions": positions, "trace": trace, "assignments": assignments, "churn": churn,
           "represented_counts": represented_counts, "deviations": deviations}
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
            # two neighbouring values per class: the classes overlap, but
            # not so much that every push outweighs every pull
            block[np.arange(n), (y + rng.integers(0, 2, n)) % len(attr.values)] = 1.0
        else:
            band = (y + 0.5) / classes
            block = (band + spread * rng.uniform(-0.5, 0.5, n) / classes)[:, None]
        blocks.append(block)
    return build_encoded(schema, np.hstack(blocks), y)


def _fit_both(data, config, monkeypatch):
    assignments = []
    batch_step = lvq._batch_step

    def recording_step(*args):
        assignments.append(batch_step(*args).copy())
        return assignments[-1]

    monkeypatch.setattr(lvq, "_batch_step", recording_step)
    got = fit_network(data, config)
    ref, stop, repulsions = ref_train(data, config)
    assert got.stop_reason == stop
    assert len(got.trace) == len(ref["trace"])
    for a, b in zip(assignments, ref["assignments"], strict=True):
        assert a.tolist() == b.tolist()
    assert got.churn == ref["churn"]
    np.testing.assert_allclose(got.positions, ref["positions"], rtol=0, atol=1e-12)
    np.testing.assert_allclose(got.trace, ref["trace"], rtol=0, atol=1e-12)
    for name in ("represented_counts", "deviations"):
        assert getattr(got, name).tobytes() == ref[name].tobytes(), name
    return ref, stop, repulsions


@pytest.mark.parametrize("seed", [0, 5])
@pytest.mark.parametrize("centroid_count", [3, 7, 16])
@pytest.mark.parametrize("kind", sorted(SCHEMAS))
def test_matches_reference(kind, centroid_count, seed, monkeypatch):
    data = _dataset(kind, seed=seed + centroid_count)
    config = LvqConfig(centroid_count=centroid_count, max_epochs=6, seed=seed)
    _fit_both(data, config, monkeypatch)


@pytest.mark.parametrize("kind", sorted(SCHEMAS))
def test_runner_up_repulsion(kind, monkeypatch):
    # a wide repulsion window on overlapping classes pushes runners-up often
    monkeypatch.setattr(lvq, "REPULSION_RATIO", 3.0)
    data = _dataset(kind, seed=2)
    config = LvqConfig(centroid_count=3, max_epochs=4, seed=2)
    _, _, repulsions = _fit_both(data, config, monkeypatch)
    assert repulsions > 0


def test_stops_on_stability(monkeypatch):
    # the epochs move 0.176, 0.102 and 0.086: the third is the first below
    monkeypatch.setattr(lvq, "STABILITY_THRESHOLD", 0.095)
    data = _dataset("mixed", seed=3)
    config = LvqConfig(centroid_count=6, max_epochs=20, seed=3)
    ref, stop, _ = _fit_both(data, config, monkeypatch)
    assert stop == "stability"
    assert 1 < len(ref["trace"]) < config.max_epochs


def test_stops_on_repeated_assignment(monkeypatch):
    # one centroid per class on well-separated numeric bands: every row's
    # nearest centroid is fixed after the first epoch
    monkeypatch.setattr(lvq, "STABILITY_THRESHOLD", 1e-12)
    data = _dataset("numeric_only", seed=4, spread=0.2)
    config = LvqConfig(centroid_count=3, max_epochs=20, seed=4)
    ref, stop, _ = _fit_both(data, config, monkeypatch)
    assert stop == "repeated_assignment"
    assert len(ref["trace"]) < config.max_epochs
