"""The array swarm against a per-particle reference.

The reference below seeds and steps one particle object at a time, taking
each particle's random numbers in turn, the way the swarm was written before
its state became arrays. Its warm start scores each one-condition rule on its
own, as a decoded ``Rule``. Given the same seed and data, the array swarm must
reproduce it bit for bit: every trace value, the global best, the returned
rule and the final state of every particle.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import combinations_with_replacement

import numpy as np
import pytest

from conftest import build_encoded, fitness_from_rule
from rulemine import pso
from rulemine.lvq import LvqConfig, fit_network
from rulemine.pso import (
    PsoConfig,
    binarize,
    decode_state,
    evolve,
    seed_swarm,
)
from rulemine.rules import NominalMembership, NumericInterval, Rule
from rulemine.schema import Attribute, AttributeSchema


@dataclass
class RefParticle:
    position: np.ndarray
    veloc1: np.ndarray
    veloc2: np.ndarray
    genes: np.ndarray
    gene_veloc: np.ndarray
    fitness: float
    best_position: np.ndarray
    best_genes: np.ndarray
    best_fitness: float


@dataclass
class RefSwarm:
    particles: list[RefParticle]
    class_index: int
    rng: np.random.Generator
    iteration: int = 0
    best_position: np.ndarray | None = None
    best_genes: np.ndarray | None = None
    best_fitness: float = -np.inf
    trace: list[float] | None = None


def _ref_fitness(p, class_index, data):
    rule = decode_state(p.position, p.genes, data.layout, class_index)
    return fitness_from_rule(rule, data)


def ref_one_condition_rules(data, class_index):
    """Each warm-start candidate as a rule, in schema attribute order: each
    of a nominal attribute's values and then each one's complement; a numeric
    attribute's intervals [q_i, q_j], i <= j, in order of i then j."""
    rules = []
    for attr in data.schema.attributes:
        if attr.kind == "nominal":
            subsets = ([{v} for v in attr.values]
                       + [set(attr.values) - {v} for v in attr.values])
            rules += [Rule((NominalMembership(attr.name, frozenset(c)),), class_index)
                      for c in subsets]
        else:
            values = data.X[:, data.layout.numeric[attr.name]]
            q = np.quantile(values, np.linspace(0.0, 1.0, pso.WARM_START_QUANTILES))
            rules += [Rule((NumericInterval(attr.name, float(lo), float(hi)),), class_index)
                      for lo, hi in combinations_with_replacement(q, 2)]
    return rules


def ref_seed_swarm(network, class_index, min_represented, data, config):
    layout = data.layout
    d = layout.dimension
    numeric_cols = np.array(
        [layout.numeric[n] for n in layout.numeric_names], dtype=np.int64
    )
    numeric_mask = np.zeros(d, dtype=bool)
    numeric_mask[numeric_cols] = True
    of_class = [k for k in range(len(network.positions))
                if network.class_indices[k] == class_index]
    seeds = [k for k in of_class if network.represented_counts[k] >= min_represented]
    if not seeds:
        seeds = of_class

    rng = np.random.default_rng(config.seed)
    lb1, ub1 = pso.VELOC1_BOUNDS
    lb2, ub2 = pso.VELOC2_BOUNDS
    particles = []
    for s in range(config.swarm_size):
        k = seeds[s % len(seeds)]
        position, deviation = network.positions[k], network.deviations[k]
        raw = np.where(
            numeric_mask, np.clip(1.0 - 1.5 * deviation, 0.0, 1.0), position
        )
        veloc2 = lb2 + raw * (ub2 - lb2)
        center = position[numeric_cols]
        spread = 1.5 * deviation[numeric_cols]
        genes = np.clip(np.stack([center - spread, center + spread], axis=1), 0.0, 1.0)
        if s >= len(seeds):
            veloc2 = np.clip(veloc2 + rng.normal(0.0, 0.1 * (ub2 - lb2), d), lb2, ub2)
            genes = np.sort(
                np.clip(genes + rng.normal(0.0, 0.05, genes.shape), 0.0, 1.0), axis=1
            )
        veloc1 = rng.uniform(lb1, ub1, d)
        gene_veloc = rng.uniform(lb1, ub1, genes.shape)
        position = binarize(veloc2, rng.random(d))
        p = RefParticle(position, veloc1, veloc2, genes, gene_veloc, -np.inf,
                        position.copy(), genes.copy(), -np.inf)
        p.fitness = _ref_fitness(p, class_index, data)
        p.best_fitness = p.fitness
        particles.append(p)

    # the last particle becomes the first best one-condition rule, its bits
    # with veloc2 at the bound they point to and its interval in its genes
    best, best_fitness = None, -np.inf
    for rule in ref_one_condition_rules(data, class_index):
        f = fitness_from_rule(rule, data)
        if f > best_fitness:
            best, best_fitness = rule, f
    p = particles[-1]
    (cond,) = best.antecedent
    p.position = np.zeros(d)
    if isinstance(cond, NominalMembership):
        cols = layout.nominal[cond.attribute]
        values = data.schema.attribute(cond.attribute).values
        p.position[cols.start : cols.stop] = [v in cond.allowed for v in values]
    else:
        p.position[layout.numeric[cond.attribute]] = 1.0
        p.genes[layout.numeric_names.index(cond.attribute)] = (cond.lo, cond.hi)
    p.veloc2 = np.where(p.position == 1.0, ub2, lb2)
    p.best_position, p.best_genes = p.position.copy(), p.genes.copy()
    p.fitness = p.best_fitness = _ref_fitness(p, class_index, data)

    swarm = RefSwarm(particles=particles, class_index=class_index, rng=rng, trace=[])
    for p in particles:
        if p.best_fitness > swarm.best_fitness:
            swarm.best_fitness = p.best_fitness
            swarm.best_position = p.best_position.copy()
            swarm.best_genes = p.best_genes.copy()
    swarm.trace.append(swarm.best_fitness)
    return swarm


def ref_step(swarm, data):
    rng = swarm.rng
    lb1, ub1 = pso.VELOC1_BOUNDS
    lb2, ub2 = pso.VELOC2_BOUNDS
    w, c1, c2 = pso.INERTIA, pso.COGNITIVE, pso.SOCIAL
    gbest_position, gbest_genes = swarm.best_position, swarm.best_genes
    for p in swarm.particles:
        r1 = rng.random(p.position.shape)
        r2 = rng.random(p.position.shape)
        p.veloc1 = np.clip(
            w * p.veloc1
            + c1 * r1 * (p.best_position - p.position)
            + c2 * r2 * (gbest_position - p.position),
            lb1,
            ub1,
        )
        p.veloc2 = np.clip(p.veloc2 + p.veloc1, lb2, ub2)
        p.position = binarize(p.veloc2, rng.random(p.veloc2.shape))
        if p.genes.size:
            g1 = rng.random(p.genes.shape)
            g2 = rng.random(p.genes.shape)
            p.gene_veloc = np.clip(
                w * p.gene_veloc
                + c1 * g1 * (p.best_genes - p.genes)
                + c2 * g2 * (gbest_genes - p.genes),
                lb1,
                ub1,
            )
            p.genes = np.sort(np.clip(p.genes + p.gene_veloc, 0.0, 1.0), axis=1)
    for p in swarm.particles:
        p.fitness = _ref_fitness(p, swarm.class_index, data)
        if p.fitness > p.best_fitness:
            p.best_fitness = p.fitness
            p.best_position = p.position.copy()
            p.best_genes = p.genes.copy()
        if p.best_fitness > swarm.best_fitness:
            swarm.best_fitness = p.best_fitness
            swarm.best_position = p.best_position.copy()
            swarm.best_genes = p.best_genes.copy()
    swarm.iteration += 1
    swarm.trace.append(swarm.best_fitness)


def ref_evolve(swarm, data, config):
    stale = 0
    while swarm.iteration < config.max_iterations and stale < config.stagnation_limit:
        before = swarm.best_fitness
        ref_step(swarm, data)
        stale = 0 if swarm.best_fitness > before else stale + 1
    return decode_state(swarm.best_position, swarm.best_genes, data.layout, swarm.class_index)


SCHEMAS = {
    "mixed": (
        Attribute("colour", "nominal", ("red", "green", "blue")),
        Attribute("size", "numeric"),
        Attribute("weight", "numeric"),
    ),
    "nominal_only": (
        Attribute("colour", "nominal", ("red", "green", "blue")),
        Attribute("shape", "nominal", ("round", "square")),
    ),
    "numeric_only": (Attribute("size", "numeric"), Attribute("weight", "numeric")),
}


def _dataset(kind, seed, n=80):
    schema = AttributeSchema(SCHEMAS[kind], "cls", ("neg", "pos"))
    rng = np.random.default_rng(seed)
    blocks = []
    for attr in schema.attributes:
        if attr.kind == "nominal":
            block = np.zeros((n, len(attr.values)))
            block[np.arange(n), rng.integers(0, len(attr.values), n)] = 1.0
        else:
            block = rng.uniform(0.0, 1.0, (n, 1))
        blocks.append(block)
    X = np.hstack(blocks)
    # class 1 follows the first encoded column, with 10% label noise
    y = (X[:, 0] > 0.5).astype(np.int64)
    flip = rng.uniform(0.0, 1.0, n) < 0.1
    y[flip] = 1 - y[flip]
    y[:2] = [0, 1]
    return build_encoded(schema, X, y)


@pytest.mark.parametrize("pso_seed", [3, 8])
@pytest.mark.parametrize("seeding", ["centroids", "fallback", "random"])
@pytest.mark.parametrize("swarm_size", [1, 7, 25])
@pytest.mark.parametrize("kind", sorted(SCHEMAS))
def test_array_swarm_matches_per_particle_reference(kind, swarm_size, seeding, pso_seed):
    data = _dataset(kind, seed=swarm_size + pso_seed)
    target = 1
    network = fit_network(data, LvqConfig(centroid_count=4, max_epochs=5, seed=pso_seed))
    if seeding == "random":
        # centroids anywhere in the unit cube with any spread, so that seeding
        # clamps accumulators and genes at both bounds, as trained ones rarely do
        rng = np.random.default_rng(pso_seed)
        shape = network.positions.shape
        network = replace(network, positions=rng.uniform(0.0, 1.0, shape),
                          deviations=rng.uniform(0.0, 1.0, shape))
    # "fallback": no centroid represents that many rows, so all of the class seed
    min_represented = len(data) + 1 if seeding == "fallback" else 1
    config = PsoConfig(swarm_size=swarm_size, max_iterations=25, stagnation_limit=8,
                       seed=pso_seed)

    swarm = seed_swarm(network, target, min_represented, data, config)
    ref = ref_seed_swarm(network, target, min_represented, data, config)
    rule, stop_reason = evolve(swarm, config)
    ref_rule = ref_evolve(ref, data, config)

    assert swarm.trace == ref.trace
    assert len(swarm.trace) - 1 == ref.iteration
    assert swarm.trace[-1] == swarm.best_fitness[swarm.gbest] == ref.best_fitness
    assert np.array_equal(swarm.best_position[swarm.gbest], ref.best_position)
    assert np.array_equal(swarm.best_genes[swarm.gbest], ref.best_genes)
    assert rule == ref_rule
    assert stop_reason == ("max_iterations" if ref.iteration == config.max_iterations
                           else "stagnation")
    for name in ("position", "veloc1", "veloc2", "genes", "gene_veloc",
                 "best_position", "best_genes", "best_fitness"):
        expected = np.array([getattr(p, name) for p in ref.particles])
        assert np.array_equal(getattr(swarm, name), expected), name
