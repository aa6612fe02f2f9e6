"""Versioned JSON model artifacts.

A saved model is self-contained: schema, the numeric scaling ranges observed
at training time, the fitted centroid network, the mined rule list with
provenance, the mining configuration, and the seed. Floats serialize at full
repr precision, and nothing time- or host-dependent is written, so the same
training run always produces byte-identical files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

import numpy as np

from .errors import ConfigError, DataError
from .lvq import LvqNetwork
from .miner import MinerConfig
from .rules import RuleList, rule_list_from_dict, rule_list_to_dict
from .schema import AttributeSchema, ColumnLayout

FORMAT_VERSION = 1


@dataclass
class ModelArtifact:
    schema: AttributeSchema
    numeric_ranges: dict[str, tuple[float, float]]
    network: LvqNetwork
    rule_list: RuleList
    miner_config: MinerConfig
    seed: int


def _network_to_dict(network: LvqNetwork, schema: AttributeSchema) -> dict:
    labels = schema.class_labels
    return {
        "allocation": {labels[c]: n for c, n in sorted(network.allocation.items())},
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
    }


def _network_from_dict(doc: Mapping, schema: AttributeSchema) -> LvqNetwork:
    label_index = {label: i for i, label in enumerate(schema.class_labels)}
    try:
        entries = doc["centroids"]
        network = LvqNetwork(
            positions=np.array([e["position"] for e in entries], dtype=np.float64),
            class_indices=np.array(
                [label_index[e["class"]] for e in entries], dtype=np.int64
            ),
            represented_counts=np.array(
                [int(e["represented_count"]) for e in entries], dtype=np.int64
            ),
            deviations=np.array([e["deviation"] for e in entries], dtype=np.float64),
            allocation={label_index[k]: int(v) for k, v in doc["allocation"].items()},
        )
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise DataError(f"malformed network section: {exc}") from exc
    shape = (len(entries), ColumnLayout(schema).dimension)
    if network.positions.shape != shape or network.deviations.shape != shape:
        raise DataError(
            f"network positions and deviations must have shape {shape}, got "
            f"{network.positions.shape} and {network.deviations.shape}"
        )
    return network


def model_to_dict(artifact: ModelArtifact) -> dict:
    return {
        "format_version": FORMAT_VERSION,
        "seed": artifact.seed,
        "schema": artifact.schema.to_dict(),
        "numeric_ranges": {
            name: [lo, hi] for name, (lo, hi) in sorted(artifact.numeric_ranges.items())
        },
        "miner_config": artifact.miner_config.to_dict(),
        "network": _network_to_dict(artifact.network, artifact.schema),
        "rule_list": rule_list_to_dict(artifact.rule_list, artifact.schema),
    }


def model_from_dict(doc: Mapping) -> ModelArtifact:
    if not isinstance(doc, Mapping):
        raise DataError("model document must be a JSON object")
    version = doc.get("format_version")
    if version != FORMAT_VERSION:
        raise DataError(
            f"unsupported model format version {version!r}; expected {FORMAT_VERSION}"
        )
    for key in ("schema", "numeric_ranges", "miner_config", "network", "rule_list", "seed"):
        if key not in doc:
            raise DataError(f"model document missing key {key!r}")
    schema = AttributeSchema.from_dict(doc["schema"])
    try:
        ranges = {
            str(name): (float(lo), float(hi))
            for name, (lo, hi) in doc["numeric_ranges"].items()
        }
    except (AttributeError, TypeError, ValueError) as exc:
        raise DataError(f"malformed numeric_ranges: {exc}") from exc
    declared_numeric = {a.name for a in schema.numeric_attributes}
    if set(ranges) != declared_numeric:
        raise DataError("numeric_ranges do not match the schema's numeric attributes")
    try:
        miner_config = MinerConfig.from_dict(doc["miner_config"])
    except ConfigError as exc:
        raise DataError(f"malformed miner_config: {exc}") from exc
    seed = doc["seed"]
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise DataError(f"seed {seed!r} is not an integer")
    return ModelArtifact(
        schema=schema,
        numeric_ranges=ranges,
        network=_network_from_dict(doc["network"], schema),
        rule_list=rule_list_from_dict(doc["rule_list"], schema),
        miner_config=miner_config,
        seed=seed,
    )


def save_model(artifact: ModelArtifact, path: str | Path) -> None:
    text = json.dumps(model_to_dict(artifact), indent=2)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
        fh.write("\n")


def load_model(path: str | Path) -> ModelArtifact:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise DataError(f"cannot read model file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise DataError(f"model file is not valid JSON: {exc}") from exc
    return model_from_dict(doc)
