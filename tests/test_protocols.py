"""Credit3 arms beyond the acceptance criteria: the rule list a credit officer
reads must not depend on the master seed, and the miner must stay near the
hidden rules' accuracy when more of the labels are noise.

Both run the criterion-3 protocol's config (the benchmark's credit3 config):
5,000 credit3 rows, a 0.3 stratified split, ``support_factor`` 0.45, 3
attempts per class and a 60-particle swarm of up to 400 steps.
"""

from __future__ import annotations

import numpy as np

from rulemine import synth
from rulemine.evaluation import evaluate
from rulemine.miner import MinerConfig, mine
from rulemine.pso import PsoConfig
from rulemine.schema import encode, stratified_split
from rulemine.synth import generate

CRITERION_3 = dict(
    support_factor=0.45,
    min_confidence=0.85,
    max_attempts_per_class=3,
    pso=PsoConfig(swarm_size=60, max_iterations=400, stagnation_limit=60),
)
# the held-out accuracy of credit3's three hidden rules at 10% label noise,
# synth seeds 1-10 with the split drawn from the same seed
HIDDEN_RULES_AT_10_PCT = 89.98


def _shape(rule_list) -> tuple:
    """Each rule's attribute set and class, in list order."""
    return tuple((frozenset(c.attribute for c in rule.antecedent), rule.class_index)
                 for rule in rule_list.rules)


def test_rule_shape_is_the_same_for_every_master_seed():
    # synth seed 1 and the split fixed at seed 1, as the benchmark trains
    data = encode(generate("credit3", 5000, 1).to_raw())
    train, _ = stratified_split(data, 0.3, 1)
    shapes = {_shape(mine(train, MinerConfig(seed=seed, **CRITERION_3))[0])
              for seed in range(1, 6)}
    assert len(shapes) == 1
    (shape,) = shapes
    assert len(shape) >= 1


def test_ten_percent_noise_arm_stays_within_a_point_of_the_hidden_rules(monkeypatch):
    monkeypatch.setattr(synth, "_CREDIT_NOISE", 0.1)
    accuracies, counts = [], []
    for seed in range(1, 11):
        data = encode(generate("credit3", 5000, seed).to_raw())
        train, test = stratified_split(data, 0.3, seed)
        config = MinerConfig(seed=seed, **{**CRITERION_3, "min_confidence": 0.7})
        rule_list, _ = mine(train, config)
        accuracies.append(evaluate(rule_list, test).accuracy * 100.0)
        counts.append(len(rule_list.rules))
    assert min(counts) >= 1, counts
    assert float(np.mean(accuracies)) >= HIDDEN_RULES_AT_10_PCT - 1.0, accuracies
