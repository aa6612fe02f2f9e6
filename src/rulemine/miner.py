"""Iterative rule learning over a fitted centroid network.

One swarm run produces one candidate rule for the class that has failed the
fewest times in a row, and among those the one with the most uncovered
examples: a failed launch covers nothing, so it waits behind the classes whose
search can still change. A candidate is emitted only if the rows it classifies
correctly reach the floor in force for its class and it meets the confidence
threshold; an emitted rule removes every uncovered example it matches, as
first-match scoring fires it on all of them. The floor is a row count,
``support_factor * uncovered_c``, so a candidate needs one correct row at
least: the floor shrinks as mining progresses, but never so fast that
single-digit fragments qualify while a class is still broadly uncovered.
Classes retire after too many failed attempts in a row. A candidate with an
empty antecedent would match every remaining row, so it ends mining as the
default class instead of as a rule. Once the rows left are all of one class,
that candidate is the only one a swarm can emit, so they fold into the
default without a launch.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from .errors import ConfigError, DataError
from .lvq import LvqConfig, LvqNetwork, fit_network
from .pso import PsoConfig, evolve, seed_swarm
from .rules import Rule, RuleList, choose_default_class, match_mask, rule_to_dict
from .schema import AttributeSchema, EncodedDataset, json_object

STOP_ALL_COVERED = "all_covered"
STOP_NO_VIABLE_CLASS = "no_viable_class"
# the gates a candidate must pass to be emitted, in the order they are judged
GATES = ("floor", "min_confidence")


@dataclass(frozen=True)
class MinerConfig:
    support_factor: float = 0.1
    min_confidence: float = 0.85
    max_attempts_per_class: int = 5
    min_represented: int = 2
    lvq: LvqConfig = field(default_factory=LvqConfig)
    pso: PsoConfig = field(default_factory=PsoConfig)
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 < self.support_factor <= 1.0:
            raise ConfigError("support_factor must lie in (0, 1]")
        if not 0.0 < self.min_confidence <= 1.0:
            raise ConfigError("min_confidence must lie in (0, 1]")
        if self.max_attempts_per_class < 1:
            raise ConfigError("max_attempts_per_class must be >= 1")
        if self.min_represented < 0:
            raise ConfigError("min_represented must be >= 0")

    @staticmethod
    def from_dict(doc: dict) -> "MinerConfig":
        """Build a config from a JSON-style dict of overrides."""
        return _config_from_dict(MinerConfig, doc, "config")

    def to_dict(self) -> dict:
        return asdict(self)


# the JSON kind of each config field's type (annotations are strings here)
_FIELD_KINDS = {"int": "int", "float": "number", "LvqConfig": "object", "PsoConfig": "object"}


def _config_from_dict(cls: type, doc, what: str):
    """A ``cls`` config built from a JSON object of overrides of its fields;
    a nested config field builds from its own object."""
    kinds = {f.name: _FIELD_KINDS[f.type] for f in fields(cls)}
    kwargs = json_object(doc, ConfigError, what, {}, kinds)
    for f in fields(cls):
        if kinds[f.name] == "object" and f.name in kwargs:
            section = f"config section {f.name!r}"
            kwargs[f.name] = _config_from_dict(f.default_factory, kwargs[f.name], section)
    return cls(**kwargs)


@dataclass
class SwarmLog:
    trace: list[float]
    stop_reason: str  # "stagnation" or "max_iterations"
    candidate: Rule  # the swarm's best rule, emitted or not; its class is the launch's
    support: float  # its correct rows over the rows it was mined on
    confidence: float  # its correct rows over the rows it matches there, 0.0 for none
    correct: int  # the rows it matches and classifies correctly
    floor: float  # the correct rows it needed: support_factor * uncovered_c
    outcome: str  # "emitted", "folded" into the default, or the first gate failed
    warm_start_candidates: int  # one-condition rules scored before the first round


@dataclass
class MiningReport:
    """The swarm logs, one per launch in launch order, are the record of the
    run: the rules, their support and confidence, launch numbers and failure
    counts are read off them."""

    swarm_logs: list[SwarmLog]
    stop_reason: str
    uncovered_residue: dict[int, int]
    covered_by: np.ndarray  # per training row: k once rule k covered it, else 0
    swarm_size: int
    network: LvqNetwork

    def uncovered_before(self, k: int) -> np.ndarray:
        """The training rows rule ``k`` was mined and measured on."""
        return np.flatnonzero((self.covered_by == 0) | (self.covered_by >= k))

    def to_dict(self, schema: AttributeSchema) -> dict:
        labels = schema.class_labels
        launches = list(enumerate(self.swarm_logs, start=1))
        emitted = [i for i, log in launches if log.outcome == "emitted"]
        failed_attempts = dict.fromkeys(range(len(labels)), 0)
        for log in self.swarm_logs:
            failed_attempts[log.candidate.class_index] += log.outcome in GATES
        return {
            "stop_reason": self.stop_reason,
            "train_size": len(self.covered_by),
            "total_iterations": len(self.swarm_logs),
            # rule k is the candidate of swarm_logs[iteration - 1]
            "rules": [
                {
                    "iteration": i,
                    "covered_count": int(np.count_nonzero(self.covered_by == k)),
                    "uncovered_before": len(self.uncovered_before(k)),
                }
                for k, i in enumerate(emitted, start=1)
            ],
            "failed_attempts": {labels[c]: n for c, n in failed_attempts.items()},
            "uncovered_residue": {
                labels[c]: n for c, n in sorted(self.uncovered_residue.items())
            },
            "swarm_logs": [
                {
                    "iteration": i,
                    "class": labels[log.candidate.class_index],
                    "outcome": log.outcome,
                    "candidate": rule_to_dict(log.candidate, schema),
                    "support": log.support,
                    "confidence": log.confidence,
                    "correct": log.correct,
                    "floor": log.floor,
                    "stop_reason": log.stop_reason,
                    "warm_start_candidates": log.warm_start_candidates,
                    # one fitness evaluation per warm-start candidate, and one
                    # per particle per round
                    "fitness_evals": (log.warm_start_candidates
                                      + self.swarm_size * len(log.trace)),
                    "best_fitness_trace": list(log.trace),
                }
                for i, log in launches
            ],
            "network": _network_to_dict(self.network, schema),
        }


def _network_to_dict(network: LvqNetwork, schema: AttributeSchema) -> dict:
    """The fitted network as run provenance: scoring never reads it, so it
    goes in the report, not the model."""
    labels = schema.class_labels
    classes, counts = np.unique(network.class_indices, return_counts=True)
    return {
        "allocation": {labels[c]: int(n) for c, n in zip(classes, counts)},
        "centroids": [
            {
                "position": position.tolist(),
                "class": labels[class_index],
                "represented_count": int(count),
                "deviation": deviation.tolist(),
            }
            for position, class_index, count, deviation in zip(
                network.positions,
                network.class_indices,
                network.represented_counts,
                network.deviations,
            )
        ],
        "trace": list(network.trace),
        "churn": list(network.churn),
        "stop_reason": network.stop_reason,
    }


def mine(train: EncodedDataset, config: MinerConfig) -> tuple[RuleList, MiningReport]:
    """Mine an ordered rule list from encoded training data.

    The centroid network is fitted once up front and only re-filtered by
    class between swarm runs. Each launch targets the viable class with the
    fewest consecutive failures, then the most uncovered rows, then the lowest
    index. Mining ends with ``all_covered`` once the rows left hold one class
    or none: on rows of one class ``IF TRUE`` scores 1.0 (m-estimate
    confidence, support and shortness all 1) and any rule with a condition
    scores less, so no swarm is launched there. Sub-seeds for the network
    fit and for every swarm launch are drawn from the master seed, so a given
    (data, config) pair reproduces the identical rule list.
    """
    n = len(train)
    if n == 0:
        raise DataError("cannot mine an empty dataset")
    n_classes = len(train.schema.class_labels)
    total_counts = train.class_counts()
    if np.count_nonzero(total_counts) < 2:
        raise DataError("mining needs at least 2 classes present in the data")

    master = np.random.default_rng(config.seed)

    def draw_seed() -> int:
        return int(master.integers(0, 2**63 - 1))

    network = fit_network(train, replace(config.lvq, seed=draw_seed()))

    covered_by = np.zeros(n, dtype=np.int64)
    consecutive_failures = {c: 0 for c in range(n_classes)}
    rules: list[Rule] = []
    swarm_logs: list[SwarmLog] = []
    # each launch either covers >= 1 example or increments a failure counter
    # that only resets on coverage
    launch_bound = n * (1 + config.max_attempts_per_class) + n_classes * config.max_attempts_per_class
    default = None  # set by a folded IF TRUE candidate, which ends mining
    stop_reason = STOP_ALL_COVERED

    while default is None:
        uncovered_idx = np.flatnonzero(covered_by == 0)
        uncovered_counts = np.bincount(train.y[uncovered_idx], minlength=n_classes)
        # a residue of one class, or none, ends mining: IF TRUE would fold there
        if np.count_nonzero(uncovered_counts) < 2:
            break
        # a class stays viable while anything of it is uncovered (a rule
        # covering all of it always clears the floor, support_factor <= 1)
        # and it has failed fewer than max_attempts_per_class times in a row
        viable = [
            c for c in range(n_classes)
            if uncovered_counts[c] > 0
            and consecutive_failures[c] < config.max_attempts_per_class
        ]
        if not viable:
            stop_reason = STOP_NO_VIABLE_CLASS
            break
        target = min(viable, key=lambda c: (consecutive_failures[c],
                                            -int(uncovered_counts[c]), c))
        if len(swarm_logs) >= launch_bound:
            raise RuntimeError("mining loop exceeded its iteration bound")

        sub = train.subset(uncovered_idx)
        swarm_config = replace(config.pso, seed=draw_seed())
        swarm = seed_swarm(network, target, config.min_represented, sub, swarm_config)
        candidate, swarm_stop = evolve(swarm, swarm_config)

        matched = match_mask(candidate.antecedent, sub)
        hits = int(np.count_nonzero(matched))
        correct = int(np.count_nonzero(sub.y[matched] == target))
        support_value, confidence_value = correct / len(sub), (correct / hits if hits else 0.0)
        floor = config.support_factor * int(uncovered_counts[target])
        passed = (correct >= floor, confidence_value >= config.min_confidence)
        outcome = next((gate for gate, ok in zip(GATES, passed) if not ok), "emitted")
        if outcome != "emitted":
            consecutive_failures[target] += 1
        elif candidate.antecedent:
            rules.append(candidate)
            covered_by[uncovered_idx[matched]] = len(rules)
            consecutive_failures[target] = 0
        else:  # IF TRUE fires on every row left: its class becomes the default
            outcome, default = "folded", target
        swarm_logs.append(SwarmLog(swarm.trace, swarm_stop, candidate, support_value,
                                   confidence_value, correct, floor, outcome,
                                   swarm.warm_start_candidates))

    residue_y = train.y[covered_by == 0]
    if default is None:
        default = choose_default_class(residue_y, total_counts)
    residue_counts = np.bincount(residue_y, minlength=n_classes)
    report = MiningReport(
        swarm_logs=swarm_logs,
        stop_reason=stop_reason,
        uncovered_residue={c: int(residue_counts[c]) for c in range(n_classes)},
        covered_by=covered_by,
        swarm_size=config.pso.swarm_size,
        network=network,
    )
    return RuleList(rules=tuple(rules), default_class=default), report
