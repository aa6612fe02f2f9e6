"""Versioned JSON model artifacts.

A saved model holds what scoring reads: schema, the numeric scaling ranges
observed at training time, the mined rule list (antecedents and classes), and
the mining configuration, whose ``seed`` is the run's seed. The fitted network
and each rule's support and confidence are run provenance: the train report
holds them. Models written with a ``network`` section, a top-level copy of the
seed, now-constant LVQ and swarm settings, or a ``provenance`` on each rule
still load, those unread. Floats serialize at full repr precision, and nothing
time- or host-dependent is written, so one run always writes identical bytes.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

from .errors import ConfigError, DataError
from .miner import MinerConfig
from .rules import RuleList, rule_list_from_dict, rule_list_to_dict
from .schema import AttributeSchema, json_object, json_pair, json_value, read_json, write_json

FORMAT_VERSION = 1

# miner_config keys of settings now fixed in lvq and pso: a model may hold them
_RETIRED_KEYS = {"lvq": {"adapt_rate", "stability_threshold", "repulsion_ratio"},
                 "pso": {"inertia", "cognitive", "social", "veloc1_bounds", "veloc2_bounds",
                         "weight_confidence", "weight_support", "weight_length"}}


@dataclass
class ModelArtifact:
    schema: AttributeSchema
    numeric_ranges: dict[str, tuple[float, float]]
    rule_list: RuleList
    miner_config: MinerConfig


def model_to_dict(artifact: ModelArtifact) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "schema": artifact.schema.to_dict(),
        "numeric_ranges": {
            name: [lo, hi] for name, (lo, hi) in sorted(artifact.numeric_ranges.items())
        },
        "miner_config": artifact.miner_config.to_dict(),
        "rule_list": rule_list_to_dict(artifact.rule_list, artifact.schema),
    }


def model_from_dict(doc: Mapping) -> ModelArtifact:
    # the version first, so a newer format is named as such
    version = json_value(doc, "object", DataError, "model").get("format_version")
    if version != FORMAT_VERSION:
        raise DataError(
            f"unsupported model format version {version!r}; expected {FORMAT_VERSION}"
        )
    objects = ("schema", "numeric_ranges", "miner_config", "rule_list")
    sections = {"format_version": "int", **dict.fromkeys(objects, "object")}
    # models written before the network moved to the train report carry it,
    # and models written before the seed lived only in miner_config carry both
    doc = json_object(doc, DataError, "model", sections, {"network": None, "seed": "int"})
    schema = AttributeSchema.from_dict(doc["schema"])
    ranges = {
        name: json_pair(pair, DataError, f"numeric range {name!r}")
        for name, pair in doc["numeric_ranges"].items()
    }
    if set(ranges) != {a.name for a in schema.numeric_attributes}:
        raise DataError("numeric_ranges do not match the schema's numeric attributes")
    for name, (lo, hi) in ranges.items():
        # equal ends are a constant training column; reversed ends scale wrongly
        if lo > hi:
            raise DataError(
                f"numeric range {name!r} must be [low, high] with low <= high, "
                f"got {[lo, hi]}"
            )
    config_doc = dict(doc["miner_config"])
    for name, retired in _RETIRED_KEYS.items():
        if isinstance(config_doc.get(name), dict):
            config_doc[name] = {k: v for k, v in config_doc[name].items() if k not in retired}
    try:
        miner_config = MinerConfig.from_dict(config_doc)
    except ConfigError as exc:
        raise DataError(f"malformed miner_config: {exc}") from exc
    return ModelArtifact(
        schema=schema,
        numeric_ranges=ranges,
        rule_list=rule_list_from_dict(doc["rule_list"], schema),
        miner_config=miner_config,
    )


def save_model(artifact: ModelArtifact, path: str | Path) -> None:
    write_json(model_to_dict(artifact), path)


def load_model(path: str | Path) -> ModelArtifact:
    return model_from_dict(read_json(path, DataError, "model"))
