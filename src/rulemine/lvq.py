"""Supervised vector quantization over encoded examples.

Centroids are class-labeled points in [0, 1]^d. Training presents examples
one at a time: the nearest centroid is pulled toward same-class examples and
pushed away from different-class ones, and a different-class second-nearest
centroid inside 1.2x the winning distance is pushed away as well. The fitted
centroids, together with the per-dimension spread of the examples each one
represents, later seed the rule search.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError
from .schema import EncodedDataset

ADAPT_RATE = 0.05  # the first epoch's learning rate; _present's range proof needs (0, 1)
STABILITY_THRESHOLD = 1e-4  # an epoch's mean centroid movement below this ends training
REPULSION_RATIO = 1.2  # the runner-up's distance ratio for a push away
MAX_CENTROIDS = 100_000  # far above any use; a larger count overflows numpy sizes


@dataclass(frozen=True)
class LvqConfig:
    """Settings of the competitive network.

    The learning rate falls linearly from ``ADAPT_RATE`` to 0 over
    ``max_epochs``, so ``max_epochs`` is the length of the annealing schedule
    rather than a safety cap: late epochs move centroids little because the
    rate is small, not because training has converged. The default of 5
    costs a quarter of the presentations of 20: each swarm's warm start from
    the best one-condition rule (``pso.seed_swarm``) keeps the credit3
    acceptance protocol at one-condition rules within 0.07 points of
    accuracy, and the fragmented one at 4 rules and 100%, at 5, 10 and 20
    epochs. Training may stop sooner on stability or on a repeated assignment
    (see ``fit_network``).
    """

    centroid_count: int = 30
    max_epochs: int = 5
    seed: int = 0

    def __post_init__(self) -> None:
        if not 1 <= self.centroid_count <= MAX_CENTROIDS:
            raise ConfigError(f"centroid_count must lie in [1, {MAX_CENTROIDS}]")
        if self.max_epochs < 1:
            raise ConfigError("max_epochs must be >= 1")


@dataclass(frozen=True)
class LvqNetwork:
    """A fitted network: centroids as arrays, one row per centroid."""

    positions: np.ndarray  # (k, d)
    class_indices: np.ndarray  # (k,)
    represented_counts: np.ndarray  # (k,) training examples nearest each centroid
    deviations: np.ndarray  # (k, d) per-dimension spread of those examples
    trace: list[float]  # mean movement per epoch
    # share of rows whose nearest centroid changed, per epoch after the first
    churn: list[float]
    stop_reason: str  # "stability", "repeated_assignment" or "max_epochs"


def allocate_per_class(class_counts: np.ndarray, total_centroids: int) -> dict[int, int]:
    """Distribute centroids across classes in proportion to class frequency.

    Every class present in the data gets at least one centroid; the counts
    sum to ``total_centroids`` exactly (largest-remainder correction).
    """
    counts = np.asarray(class_counts, dtype=np.int64)
    present = np.flatnonzero(counts > 0)
    if present.size == 0:
        raise DataError("no class has any examples")
    if total_centroids < present.size:
        raise ConfigError(
            f"centroid_count={total_centroids} is smaller than the "
            f"{present.size} classes present"
        )
    total_examples = int(counts.sum())
    ideal = {int(c): total_centroids * int(counts[c]) / total_examples for c in present}
    alloc = {c: max(1, int(np.floor(share + 0.5))) for c, share in ideal.items()}
    diff = total_centroids - sum(alloc.values())
    while diff > 0:
        c = min(alloc, key=lambda k: (alloc[k] - ideal[k], k))
        alloc[c] += 1
        diff -= 1
    while diff < 0:
        # only classes above the one-centroid floor may give a centroid back
        c = min(
            (k for k in alloc if alloc[k] > 1),
            key=lambda k: (ideal[k] - alloc[k], k),
        )
        alloc[c] -= 1
        diff += 1
    return dict(sorted(alloc.items()))


def _place_centroids(train: EncodedDataset, config: LvqConfig,
                     rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Positions and class indices of centroids placed on randomly chosen
    training examples of each class, class by class.

    Sampling is without replacement unless a class holds fewer examples than
    its allocation.
    """
    alloc = allocate_per_class(train.class_counts(), config.centroid_count)
    rows = []
    for class_index, count in alloc.items():
        members = np.flatnonzero(train.y == class_index)
        rows.append(rng.choice(members, size=count, replace=members.size < count))
    return train.X[np.concatenate(rows)], np.repeat(list(alloc), list(alloc.values()))


def _final_statistics(positions: np.ndarray,
                      train: EncodedDataset) -> tuple[np.ndarray, np.ndarray]:
    """Represented counts and deviations of the final positions."""
    # one clean assignment pass, with the presentation loop's
    # direct-difference distance; one centroid at a time keeps the largest
    # temporary at (n, d)
    d2 = np.empty((len(train), len(positions)))
    for j, position in enumerate(positions):
        diff = train.X - position
        d2[:, j] = np.einsum("nd,nd->n", diff, diff)
    assign = np.argmin(d2, axis=1)
    represented_counts = np.bincount(assign, minlength=len(positions))
    deviations = np.zeros_like(positions)
    for k in np.flatnonzero(represented_counts >= 2):
        deviations[k] = np.std(train.X[assign == k], axis=0)
    return represented_counts, deviations


def _present(positions: np.ndarray, class_indices: np.ndarray, train: EncodedDataset,
             config: LvqConfig, rng: np.random.Generator) -> tuple[list[float], list[float], str]:
    """Move ``positions`` in place for up to ``config.max_epochs`` epochs;
    return the trace, the churn and the stop reason (see ``fit_network``)."""
    # Python lists and in-place row updates into preallocated arrays: per
    # presentation, only the distance, argmin, move and clamp calls touch numpy
    classes = class_indices.tolist()
    labels = train.y.tolist()
    rows = list(train.X)
    n = len(train)
    ratio_sq = REPULSION_RATIO**2
    diff = np.empty_like(positions)
    d2 = np.empty(len(positions))
    prev_assign: list[int] | None = None
    trace: list[float] = []
    churn: list[float] = []

    for epoch in range(config.max_epochs):
        rate = ADAPT_RATE * (1.0 - epoch / config.max_epochs)
        start = positions.copy()
        assign = [0] * n
        for i in rng.permutation(n).tolist():
            x = rows[i]
            np.subtract(positions, x, out=diff)
            # (diff * diff).sum(1) rounds differently
            np.einsum("kd,kd->k", diff, diff, out=d2)
            first = int(d2.argmin())  # the lowest index on ties
            d2_first = d2[first]
            d2[first] = np.inf
            second = int(d2.argmin())
            assign[i] = first
            label = labels[i]
            # move rows in place, each from its row of diff, as the reference
            # loop in tests/test_lvq_reference.py computes with move_toward
            # and move_away. A repulsion can leave [0, 1] and is
            # clamped; an attraction cannot. Per coordinate, with p and x in
            # [0, 1] and 0 < rate < 1, it computes fl(p - fl(rate * fl(p - x))),
            # and round-to-nearest is monotone with fl(v) = v for a double v:
            # - p >= x: 0 <= fl(rate * fl(p - x)) <= fl(p - x) <= fl(p) = p,
            #   so the result lies in [fl(p - p), fl(p)] = [0, p];
            # - p < x: the step is -t with 0 <= t = fl(rate * fl(x - p))
            #   <= fl(x - p) <= fl(1 - p), so the result lies in
            #   [p, fl(p + fl(1 - p))]. fl(1 - p) is exact for p >= 1/2 and
            #   otherwise at most 2**-54 above 1 - p, which fl(p + ...) rounds
            #   away (doubles above 1 are 2**-52 apart): so it is <= 1.
            p = positions[first]
            if classes[first] == label:
                p -= rate * diff[first]
            else:
                p += rate * diff[first]
                np.maximum(p, 0.0, out=p)
                np.minimum(p, 1.0, out=p)
            if classes[second] != label and d2[second] < ratio_sq * d2_first:
                q = positions[second]
                q += rate * diff[second]
                np.maximum(q, 0.0, out=q)
                np.minimum(q, 1.0, out=q)
        movement = float(np.mean(np.sqrt(((positions - start) ** 2).sum(axis=1))))
        trace.append(movement)
        if prev_assign is not None:
            churn.append(sum(a != b for a, b in zip(assign, prev_assign)) / n)
        if movement < STABILITY_THRESHOLD:
            return trace, churn, "stability"
        if assign == prev_assign:
            return trace, churn, "repeated_assignment"
        prev_assign = assign
    return trace, churn, "max_epochs"


def fit_network(train: EncodedDataset, config: LvqConfig) -> LvqNetwork:
    """Place centroids on training examples of each class and train them.

    Presentation order is reshuffled each epoch from the seeded generator,
    and the rate anneals linearly to 0 at max_epochs. Training stops when
    the mean centroid displacement in an epoch falls below the stability
    threshold, when example-to-centroid assignments repeat across two
    consecutive epochs, or at max_epochs. The network records which of the
    three ended it (``stop_reason``), the mean movement per epoch
    (``trace``) and, for every epoch after the first, the share of examples
    whose nearest centroid changed (``churn``).
    """
    if len(train) == 0:
        raise DataError("cannot fit a network to an empty dataset")
    seeds = np.random.SeedSequence(config.seed).spawn(2)
    place_rng, present_rng = map(np.random.default_rng, seeds)
    positions, class_indices = _place_centroids(train, config, place_rng)
    trace, churn, stop_reason = _present(positions, class_indices, train, config, present_rng)
    counts, deviations = _final_statistics(positions, train)
    return LvqNetwork(positions, class_indices, counts, deviations, trace, churn, stop_reason)
