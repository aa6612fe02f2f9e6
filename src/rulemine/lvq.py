"""Supervised vector quantization over encoded examples.

Centroids are class-labeled points in [0, 1]^d. Training takes one batch
step per epoch, as Kohonen's batch map does (*Self-Organizing Maps*, 3rd ed.,
2001): every example picks its nearest centroid at the epoch's start, which
it pulls toward itself if their classes match and pushes away if not, and a
different-class second-nearest centroid inside 1.2x the winning distance is
pushed away as well. Each centroid then moves by the mean of its pulls and
pushes. The fitted centroids, together with the per-dimension spread of the
examples each one represents, later seed the rule search.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError
from .schema import EncodedDataset

ADAPT_RATE = 0.5  # the first epoch's learning rate
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
    epochs is short because each swarm's warm start from the best
    one-condition rule (``pso.seed_swarm``) does most of the seeding work.
    Training may stop sooner on stability or on a repeated assignment (see
    ``fit_network``).
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


def _squared_distances(X: np.ndarray, positions: np.ndarray) -> np.ndarray:
    """(n, k) squared distances from each row to each centroid.

    Direct differences, one centroid at a time: the largest temporary is
    (n, d), and no float matmul rounds a near-tie the wrong way or makes the
    bytes depend on BLAS threads.
    """
    d2 = np.empty((len(X), len(positions)))
    for j, position in enumerate(positions):
        diff = X - position
        d2[:, j] = np.einsum("nd,nd->n", diff, diff)
    return d2


def _final_statistics(positions: np.ndarray,
                      train: EncodedDataset) -> tuple[np.ndarray, np.ndarray]:
    """Represented counts and deviations of the final positions."""
    assign = _squared_distances(train.X, positions).argmin(axis=1)
    represented_counts = np.bincount(assign, minlength=len(positions))
    deviations = np.zeros_like(positions)
    for k in np.flatnonzero(represented_counts >= 2):
        deviations[k] = np.std(train.X[assign == k], axis=0)
    return represented_counts, deviations


def _batch_step(positions: np.ndarray, class_indices: np.ndarray, train: EncodedDataset,
                rate: float) -> np.ndarray:
    """Move ``positions`` in place by one batch epoch; return each row's
    winner at the epoch's start.

    Each row pulls its winner (the lowest index on ties) by +(x - p) if the
    classes match and pushes it by -(x - p) if not; a different-class
    runner-up within ``REPULSION_RATIO`` of the winner's distance is pushed
    by -(x - p) too. Each touched centroid moves by ``rate`` times the mean
    of its terms, and every position is then clamped to [0, 1].
    """
    X, y = train.X, train.y
    rows = np.arange(len(X))
    d2 = _squared_distances(X, positions)
    first = d2.argmin(axis=1)
    d2_first = d2[rows, first]
    d2[rows, first] = np.inf
    second = d2.argmin(axis=1)
    pushed = (class_indices[second] != y) & (d2[rows, second] < REPULSION_RATIO**2 * d2_first)
    sources = np.concatenate([rows, rows[pushed]])
    targets = np.concatenate([first, second[pushed]])
    signs = np.concatenate([np.where(class_indices[first] == y, 1.0, -1.0),
                            np.full(np.count_nonzero(pushed), -1.0)])
    sums = np.zeros_like(positions)
    # unbuffered sums in index order: the bytes cannot depend on BLAS threads
    np.add.at(sums, targets, signs[:, None] * (X[sources] - positions[targets]))
    counts = np.bincount(targets, minlength=len(positions))
    touched = counts > 0
    positions[touched] += rate * (sums[touched] / counts[touched, None])
    np.clip(positions, 0.0, 1.0, out=positions)
    return first


def _present(positions: np.ndarray, class_indices: np.ndarray, train: EncodedDataset,
             config: LvqConfig) -> tuple[list[float], list[float], str]:
    """Move ``positions`` in place for up to ``config.max_epochs`` epochs;
    return the trace, the churn and the stop reason (see ``fit_network``)."""
    prev_assign: np.ndarray | None = None
    trace: list[float] = []
    churn: list[float] = []
    for epoch in range(config.max_epochs):
        rate = ADAPT_RATE * (1.0 - epoch / config.max_epochs)
        start = positions.copy()
        assign = _batch_step(positions, class_indices, train, rate)
        movement = float(np.mean(np.sqrt(((positions - start) ** 2).sum(axis=1))))
        trace.append(movement)
        if prev_assign is not None:
            churn.append(float(np.mean(assign != prev_assign)))
        if movement < STABILITY_THRESHOLD:
            return trace, churn, "stability"
        if prev_assign is not None and np.array_equal(assign, prev_assign):
            return trace, churn, "repeated_assignment"
        prev_assign = assign
    return trace, churn, "max_epochs"


def fit_network(train: EncodedDataset, config: LvqConfig) -> LvqNetwork:
    """Place centroids on training examples of each class and train them.

    Placement draws from the seeded generator; each epoch is one batch
    step, and the rate anneals linearly to 0 at max_epochs. Training stops when
    the mean centroid displacement in an epoch falls below the stability
    threshold, when example-to-centroid assignments repeat across two
    consecutive epochs, or at max_epochs. The network records which of the
    three ended it (``stop_reason``), the mean movement per epoch
    (``trace``) and, for every epoch after the first, the share of examples
    whose nearest centroid changed (``churn``).
    """
    if len(train) == 0:
        raise DataError("cannot fit a network to an empty dataset")
    # the seed's first child: spawn(1)[0] equals spawn(2)[0], so a fixed seed
    # keeps the placement that models fitted with two children had
    (place_seed,) = np.random.SeedSequence(config.seed).spawn(1)
    positions, class_indices = _place_centroids(train, config, np.random.default_rng(place_seed))
    trace, churn, stop_reason = _present(positions, class_indices, train, config)
    counts, deviations = _final_statistics(positions, train)
    return LvqNetwork(positions, class_indices, counts, deviations, trace, churn, stop_reason)
