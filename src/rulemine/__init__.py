"""rulemine: ordered classification rules from mixed tabular data.

A prototype layer (supervised vector quantization) summarizes the training
data per class; a binary particle swarm seeded from those prototypes searches
for one high-confidence rule at a time; an iterative covering loop assembles
the results into an ordered rule list with a default class.
"""

from .errors import ConfigError, DataError, RulemineError, SchemaError
from .evaluation import ConfusionMatrix, EvalReport, evaluate, mine_greedy_baseline
from .lvq import LvqConfig, LvqNetwork, fit_network
from .miner import MinerConfig, MiningReport, mine
from .model_io import ModelArtifact, load_model, save_model
from .pso import PsoConfig, Swarm, evolve, seed_swarm, step
from .rules import (
    NominalMembership,
    NumericInterval,
    Rule,
    RuleList,
    classify_dataset,
    render_rule,
    render_rule_list,
)
from .schema import (
    Attribute,
    AttributeSchema,
    EncodedDataset,
    RawDataset,
    encode,
    load_schema,
    parse_csv,
    save_schema,
    stratified_split,
)
from .synth import generate

__version__ = "0.1.0"

__all__ = [
    "Attribute",
    "AttributeSchema",
    "ConfigError",
    "ConfusionMatrix",
    "DataError",
    "EncodedDataset",
    "EvalReport",
    "LvqConfig",
    "LvqNetwork",
    "MinerConfig",
    "MiningReport",
    "ModelArtifact",
    "NominalMembership",
    "NumericInterval",
    "PsoConfig",
    "RawDataset",
    "Rule",
    "RuleList",
    "RulemineError",
    "SchemaError",
    "Swarm",
    "classify_dataset",
    "encode",
    "evaluate",
    "evolve",
    "fit_network",
    "generate",
    "load_model",
    "load_schema",
    "mine",
    "mine_greedy_baseline",
    "parse_csv",
    "render_rule",
    "render_rule_list",
    "save_model",
    "save_schema",
    "seed_swarm",
    "step",
    "stratified_split",
]
