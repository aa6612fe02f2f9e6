"""Binary particle swarm that searches for one rule antecedent.

Each particle encodes a candidate antecedent: one participation bit per
encoded column plus a (lo, hi) interval gene pair per numeric attribute. The
bits and the genes move by one law: the inertia/cognitive/social velocity
update, clamped to VELOC1_BOUNDS. The bits take it as veloc1; veloc2
accumulates veloc1 and is squashed through a sigmoid to give each bit its
probability of being 1 on the next draw. The genes add their velocity to their
position, which is clamped to [0, 1] with lo <= hi repaired by swapping.

Fitness of a decoded rule is a weighted sum of confidence, support, and a
shortness term, so the swarm prefers pure rules, then broad ones, then short
ones. Confidence is an m-estimate (Cestnik, "Estimating Probabilities", ECAI
1990): a rule that matches few rows is pulled toward its class's base rate,
so a pure fragment of a handful of rows does not outscore a broad rule. The
base rate weighs as a fixed share of the swarm's rows, so it pulls as hard on
200 rows as on 5,000. Each swarm is warm-started with the best one-condition
rule under that fitness. The swarm scores its particles on its own packed rows:
``count_matches`` counts every particle's antecedent on row bitsets at once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError
from .lvq import LvqNetwork
from .rules import NominalMembership, NumericInterval, Rule
from .schema import NOMINAL, ColumnLayout, EncodedDataset

_PERTURB_VELOC_SCALE = 0.1  # fraction of the veloc2 span, for perturbed copies
_PERTURB_GENE_SCALE = 0.05
# the inertia-weight velocity update of Shi and Eberhart (1998)
INERTIA = 0.7
COGNITIVE = 1.4
SOCIAL = 1.4
VELOC1_BOUNDS = (-1.0, 1.0)
VELOC2_BOUNDS = (-4.0, 4.0)
WEIGHT_CONFIDENCE = 0.6  # the three fitness weights sum to 1
WEIGHT_SUPPORT = 0.3
WEIGHT_LENGTH = 0.1
# m, the weight of the class's base rate in every rule's confidence, as a share
# of the swarm's rows: 35 pseudo-rows on credit3's 3,500 training rows, 2 on 200
M_ESTIMATE_SHARE = 0.01
# the warm start's intervals lie between this many quantile points of each
# numeric attribute
WARM_START_QUANTILES = 16
MAX_SWARM_SIZE = 100_000  # far above any use; a larger swarm overflows numpy sizes


@dataclass(frozen=True)
class PsoConfig:
    swarm_size: int = 40
    max_iterations: int = 200
    stagnation_limit: int = 30
    seed: int = 0

    def __post_init__(self) -> None:
        if not 1 <= self.swarm_size <= MAX_SWARM_SIZE:
            raise ConfigError(f"swarm_size must lie in [1, {MAX_SWARM_SIZE}]")
        if self.max_iterations < 1:
            raise ConfigError("max_iterations must be >= 1")
        if self.stagnation_limit < 1:
            raise ConfigError("stagnation_limit must be >= 1")


@dataclass
class Swarm:
    """Particle state as arrays, one row per particle (S particles, d encoded
    columns, a numeric attributes). The global best is particle ``gbest``'s
    personal best, and its fitness is ``trace[-1]``."""

    position: np.ndarray  # (S, d) bits, stored as 0.0/1.0 for velocity arithmetic
    veloc1: np.ndarray  # (S, d)
    veloc2: np.ndarray  # (S, d)
    genes: np.ndarray  # (S, a, 2) rows of (lo, hi)
    gene_veloc: np.ndarray  # (S, a, 2)
    best_position: np.ndarray  # (S, d) personal bests
    best_genes: np.ndarray  # (S, a, 2)
    best_fitness: np.ndarray  # (S,)
    gbest: int
    class_index: int
    rng: np.random.Generator
    rows: PackedRows  # pack_rows of the dataset the swarm was seeded on
    trace: list[float]  # gbest after seeding, then each step
    warm_start_candidates: int  # one-condition rules scored to warm-start it


def sigmoid(values: np.ndarray) -> np.ndarray:
    """1 / (1 + e^-v), as e^v / (1 + e^v) for v < 0 so that e never overflows."""
    v = np.asarray(values, dtype=np.float64)
    e = np.exp(-np.abs(v))
    return np.where(v >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def binarize(veloc2: np.ndarray, draws: np.ndarray) -> np.ndarray:
    """Bits from uniform ``draws`` in [0, 1): each is 1 with probability
    sigmoid(veloc2)."""
    return (draws < sigmoid(veloc2)).astype(np.float64)


def decode_state(
    position: np.ndarray,
    genes: np.ndarray,
    layout: ColumnLayout,
    class_index: int,
) -> Rule:
    """Turn a bit vector plus interval genes into a Rule.

    A nominal attribute with no bits set, or all bits set, places no
    condition. A numeric attribute participates only when its column bit is
    set; its condition is the closed interval held by its gene pair.
    """
    conditions = []
    schema = layout.schema
    numeric_index = {name: i for i, name in enumerate(layout.numeric_names)}
    for attr in schema.attributes:
        if attr.kind == NOMINAL:
            cols = layout.nominal[attr.name]
            bits = position[cols.start : cols.stop]
            chosen = [v for v, b in zip(attr.values, bits) if b >= 0.5]
            if 0 < len(chosen) < len(attr.values):
                conditions.append(NominalMembership(attr.name, frozenset(chosen)))
        else:
            if position[layout.numeric[attr.name]] >= 0.5:
                lo, hi = genes[numeric_index[attr.name]]
                conditions.append(NumericInterval(attr.name, float(lo), float(hi)))
    return Rule(antecedent=tuple(conditions), class_index=class_index)


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
    read off the 1.0 entries of ``X``; a numeric column's is never read. Every
    match mask starts from ``every``, whose padding bits are 0, and is only
    ANDed after that, so no padding bit of another bitset can be counted.
    """

    layout: ColumnLayout
    n_rows: int
    every: np.ndarray  # (W,) all rows
    values: np.ndarray  # (d, W) the rows where each encoded column is 1.0
    numeric: np.ndarray  # (a, 64 W) the numeric attributes' values, 0-padded
    classes: np.ndarray  # (classes, W) the rows of each class


def pack_rows(data: EncodedDataset) -> PackedRows:
    layout = data.layout
    n = len(data)
    return PackedRows(
        layout=layout,
        n_rows=n,
        every=_pack(np.ones((1, n), dtype=bool))[0],
        values=_pack((data.X == 1.0).T),
        numeric=np.pad(data.X[:, layout.numeric_columns].T, ((0, 0), (0, -n % 64))),
        classes=_pack(np.arange(len(layout.schema.class_labels))[:, None] == data.y),
    )


def count_matches(
    rows: PackedRows, position: np.ndarray, genes: np.ndarray, class_index: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Conditions, rows matched, and matched rows of ``class_index`` of each
    particle: (S, d) bits and (S, a, 2) genes -> three (S,) int64 arrays.

    Decodes as decode_state does, without building rules: a nominal block
    places a condition when some but not all of its bits are set, and matches
    the union of its set values' bitsets (every row when none is set); a
    numeric column places one when its bit is set, and matches the rows inside
    its gene interval. A count sums ``np.bitwise_count`` over a bitset's words.
    """
    chosen = position >= 0.5
    conditions = np.zeros(len(position), dtype=np.int64)
    mask = np.tile(rows.every, (len(position), 1))
    # a row holds exactly one value of each attribute and padding bits are 0,
    # so the admitted values' words have disjoint bits: their sum is exactly
    # their union, with no carries
    for cols in rows.layout.blocks:
        block = chosen[:, cols.start : cols.stop]
        n_set = np.count_nonzero(block, axis=1)
        conditions += (n_set > 0) & (n_set < len(cols))
        block[n_set == 0] = True
        mask &= block.astype(np.uint64) @ rows.values[cols.start : cols.stop]
    for i, col in enumerate(rows.layout.numeric_columns):
        on = np.flatnonzero(chosen[:, col])
        conditions[on] += 1
        lo, hi = genes[on, i, 0, None], genes[on, i, 1, None]
        hit = (rows.numeric[i] >= lo) & (rows.numeric[i] <= hi)
        mask[on] &= np.packbits(hit, axis=1, bitorder="little").view("<u8")
    return (
        conditions,
        np.bitwise_count(mask).sum(axis=1, dtype=np.int64),
        np.bitwise_count(mask & rows.classes[class_index]).sum(axis=1, dtype=np.int64),
    )


def fitness(
    position: np.ndarray, genes: np.ndarray, class_index: int, rows: PackedRows
) -> np.ndarray:
    """Fitness of every particle: (S, d) bits and (S, a, 2) genes -> (S,).

    A weighted sum over the ``count_matches`` counts. Confidence is the
    m-estimate (correct + m p) / (matched + m), with m = M_ESTIMATE_SHARE times
    the number of rows and p the share of the rows in class ``class_index``,
    so m p is that share of the class's rows; a rule that matches no row
    scores p. Equal, bit for bit, to the same sum over the ``match_mask``
    counts of each particle's decoded rule on the rows.
    """
    if rows.n_rows == 0:
        raise DataError("support and confidence are undefined on an empty dataset")
    conditions, matched, correct = count_matches(rows, position, genes, class_index)
    support = correct / rows.n_rows
    class_rows = np.bitwise_count(rows.classes[class_index]).sum(dtype=np.int64)
    confidence = (correct + M_ESTIMATE_SHARE * class_rows) / (
        matched + M_ESTIMATE_SHARE * rows.n_rows
    )
    shortness = 1.0 - conditions / len(rows.layout.schema.attributes)
    return (
        WEIGHT_CONFIDENCE * confidence
        + WEIGHT_SUPPORT * support
        + WEIGHT_LENGTH * shortness
    )


def _update_bests(swarm: Swarm, fit: np.ndarray) -> None:
    """Adopt strictly better personal bests, then the global best, and extend
    the trace. argmax takes the first particle on ties, as an in-order scan
    with strict improvement would. Particle gbest's personal best changes only
    by beating the global best, which re-picks gbest here."""
    improved = fit > swarm.best_fitness
    swarm.best_fitness[improved] = fit[improved]
    swarm.best_position[improved] = swarm.position[improved]
    swarm.best_genes[improved] = swarm.genes[improved]
    top = int(np.argmax(swarm.best_fitness))
    if swarm.best_fitness[top] > swarm.trace[-1]:
        swarm.gbest = top
    swarm.trace.append(float(swarm.best_fitness[swarm.gbest]))


def one_condition_rules(data: EncodedDataset) -> tuple[np.ndarray, np.ndarray]:
    """The warm start's candidates as particle states: (C, d) bits and
    (C, a, 2) genes, one condition each, in schema attribute order.

    A nominal attribute of k values gives each value, then each value's
    complement: 2k candidates, where every proper subset would be 2^k - 2
    (a 2-value attribute lists its two values twice). A numeric attribute
    gives each interval [q_i, q_j], i <= j, between WARM_START_QUANTILES
    quantile points of its values in ``data``.
    """
    layout = data.layout
    d, a = layout.dimension, layout.numeric_columns.size
    lo, hi = np.triu_indices(WARM_START_QUANTILES)
    cuts = np.linspace(0.0, 1.0, WARM_START_QUANTILES)
    bits, genes = [], []
    for attr in layout.schema.attributes:
        if attr.kind == NOMINAL:
            cols = layout.nominal[attr.name]
            chosen = np.vstack([np.eye(len(cols)), 1.0 - np.eye(len(cols))])
            block = np.zeros((len(chosen), d))
            block[:, cols.start : cols.stop] = chosen
            bits.append(block)
            genes.append(np.zeros((len(chosen), a, 2)))
        else:
            col = layout.numeric[attr.name]
            i = layout.numeric_names.index(attr.name)
            q = np.quantile(data.X[:, col], cuts)
            block = np.zeros((lo.size, d))
            block[:, col] = 1.0
            gene = np.zeros((lo.size, a, 2))
            gene[:, i, 0], gene[:, i, 1] = q[lo], q[hi]
            bits.append(block)
            genes.append(gene)
    return np.concatenate(bits), np.concatenate(genes)


def seed_swarm(
    network: LvqNetwork,
    class_index: int,
    min_represented: int,
    data: EncodedDataset,
    config: PsoConfig,
) -> Swarm:
    """Build the initial swarm for one rule-search run.

    Seeds come from the network's centroids of the target class that
    represent at least ``min_represented`` examples, or from all centroids of
    the class if none qualify. Extra particles beyond the seed pool are
    perturbed copies of the seeds. The last particle is then replaced by the
    best of ``one_condition_rules`` under ``fitness`` (the first on ties),
    with veloc2 at the bound its bits point to, so that no launch starts
    below the best single condition. That particle is replaced even when it
    is a centroid seed: a 1-particle swarm starts from the warm start alone,
    and a swarm no larger than the seed pool loses its last seed. A network
    with no centroid of the class raises DataError: ``allocate_per_class``
    gives every class present in the training data at least one.
    """
    if len(data) == 0:
        raise DataError("cannot seed a swarm against an empty dataset")
    layout = data.layout
    d = layout.dimension
    numeric_cols = layout.numeric_columns
    numeric_mask = np.zeros(d, dtype=bool)
    numeric_mask[numeric_cols] = True
    S, a = config.swarm_size, numeric_cols.size

    of_class = network.class_indices == class_index
    if not of_class.any():
        label = data.schema.class_labels[class_index]
        raise DataError(f"the network has no centroid of class {label!r} to seed from")
    seeds = np.flatnonzero(of_class & (network.represented_counts >= min_represented))
    if not seeds.size:
        seeds = np.flatnonzero(of_class)

    rng = np.random.default_rng(config.seed)
    lb1, ub1 = VELOC1_BOUNDS
    lb2, ub2 = VELOC2_BOUNDS
    # particle s starts from seed s mod |seeds|. Accumulators: nominal columns
    # reuse the centroid coordinate; numeric columns use 1 - 1.5 * deviation
    # (clamped to [0, 1]), so a dimension the centroid represents tightly is
    # likely to participate; both are rescaled into the veloc2 bounds. Genes
    # span center +- 1.5 * deviation.
    base = seeds[np.arange(S) % seeds.size]
    centers, deviations = network.positions[base], network.deviations[base]
    raw = np.where(numeric_mask, np.clip(1.0 - 1.5 * deviations, 0.0, 1.0), centers)
    veloc2 = lb2 + raw * (ub2 - lb2)
    center = centers[:, numeric_cols]
    spread = 1.5 * deviations[:, numeric_cols]
    genes = np.clip(np.stack([center - spread, center + spread], axis=2), 0.0, 1.0)
    veloc1, gene_veloc, bit_draw = np.empty((S, d)), np.empty((S, a, 2)), np.empty((S, d))
    for s in range(S):
        if s >= seeds.size:  # perturbed copy of a seed
            veloc2[s] = np.clip(
                veloc2[s] + rng.normal(0.0, _PERTURB_VELOC_SCALE * (ub2 - lb2), d),
                lb2,
                ub2,
            )
            genes[s] = np.sort(
                np.clip(genes[s] + rng.normal(0.0, _PERTURB_GENE_SCALE, (a, 2)), 0.0, 1.0),
                axis=1,
            )
        veloc1[s] = rng.uniform(lb1, ub1, d)
        gene_veloc[s] = rng.uniform(lb1, ub1, (a, 2))
        bit_draw[s] = rng.random(d)
    position = binarize(veloc2, bit_draw)
    rows = pack_rows(data)
    # a schema has an attribute, and a nominal one 2 values: never 0 candidates
    warm_bits, warm_genes = one_condition_rules(data)
    best = int(np.argmax(fitness(warm_bits, warm_genes, class_index, rows)))
    position[-1] = warm_bits[best]
    veloc2[-1] = np.where(warm_bits[best] >= 0.5, ub2, lb2)
    on = warm_bits[best, numeric_cols] >= 0.5
    genes[-1, on] = warm_genes[best, on]
    fit = fitness(position, genes, class_index, rows)
    gbest = int(np.argmax(fit))  # the first particle on ties, as _update_bests picks
    return Swarm(
        position=position,
        veloc1=veloc1,
        veloc2=veloc2,
        genes=genes,
        gene_veloc=gene_veloc,
        best_position=position.copy(),
        best_genes=genes.copy(),
        best_fitness=fit,
        gbest=gbest,
        class_index=class_index,
        rng=rng,
        rows=rows,
        trace=[float(fit[gbest])],
        warm_start_candidates=len(warm_bits),
    )


def _velocity(veloc: np.ndarray, state: np.ndarray, best: np.ndarray, gbest: int,
              r1: np.ndarray, r2: np.ndarray) -> np.ndarray:
    """One velocity layer's inertia-weight update, toward each particle's
    personal ``best`` and particle ``gbest``'s, clamped to VELOC1_BOUNDS."""
    return np.clip(
        INERTIA * veloc
        + COGNITIVE * r1 * (best - state)
        + SOCIAL * r2 * (best[gbest] - state),
        *VELOC1_BOUNDS,
    )


def step(swarm: Swarm, data=None, config=None) -> None:
    """Advance the swarm one iteration (synchronous update).

    All particles move against the current global best, then fitness against
    ``swarm.rows``, personal bests, and the global best are updated. Best
    updates require strict improvement. Particle s takes its random numbers
    from row s of one block, in the order r1, r2, bit draw, g1, g2. ``data``
    and ``config`` are not read: they remain because ``bench/probes.py``
    passes them.
    """
    S, d = swarm.position.shape
    g = swarm.genes[0].size
    draws = swarm.rng.random((S, 3 * d + 2 * g))
    r1, r2, bit_draw = draws[:, :d], draws[:, d : 2 * d], draws[:, 2 * d : 3 * d]
    g1 = draws[:, 3 * d : 3 * d + g].reshape(swarm.genes.shape)
    g2 = draws[:, 3 * d + g :].reshape(swarm.genes.shape)
    gbest = swarm.gbest

    swarm.veloc1 = _velocity(swarm.veloc1, swarm.position, swarm.best_position, gbest, r1, r2)
    swarm.veloc2 = np.clip(swarm.veloc2 + swarm.veloc1, *VELOC2_BOUNDS)
    swarm.position = binarize(swarm.veloc2, bit_draw)
    swarm.gene_veloc = _velocity(swarm.gene_veloc, swarm.genes, swarm.best_genes, gbest, g1, g2)
    # clamp to the unit interval, then swap-repair lo > hi
    swarm.genes = np.sort(np.clip(swarm.genes + swarm.gene_veloc, 0.0, 1.0), axis=2)

    fit = fitness(swarm.position, swarm.genes, swarm.class_index, swarm.rows)
    _update_bests(swarm, fit)


def evolve(swarm: Swarm, config: PsoConfig) -> tuple[Rule, str]:
    """Run the swarm until max_iterations or stagnation; return the best rule
    and which ended the run, "max_iterations" when both did.

    Stagnation means the global best has not improved for
    ``config.stagnation_limit`` consecutive iterations; the trace holds one
    entry per step after the seeding round's.
    """
    stale = 0
    while len(swarm.trace) <= config.max_iterations and stale < config.stagnation_limit:
        before = swarm.trace[-1]
        step(swarm)
        stale = 0 if swarm.trace[-1] > before else stale + 1
    stopped = len(swarm.trace) > config.max_iterations
    g = swarm.gbest
    rule = decode_state(
        swarm.best_position[g], swarm.best_genes[g], swarm.rows.layout, swarm.class_index
    )
    return rule, "max_iterations" if stopped else "stagnation"
