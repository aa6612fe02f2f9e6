"""Direct, timed calls on single layers, on a workload's own inputs.

Only names exported in ``rulemine.__all__`` are called. When one of them has
been renamed or removed, the metrics that need it are reported as missing and
the rest of the run goes on.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

SEED_SWARM_REPEATS = 5
STEP_REPEATS = 10
IO_REPEATS = 5


class MissingName(Exception):
    pass


def _median_s(repeats: int, fn, *args):
    """(last result, median seconds) over ``repeats`` calls."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn(*args)
        times.append(time.perf_counter() - t0)
    return out, statistics.median(times)


class Probes:
    def __init__(self, rm) -> None:
        self.rm = rm
        self.metrics: dict[str, float] = {}
        self.missing: list[str] = []

    def _fns(self, *names: str) -> list:
        absent = [n for n in names if n not in self.rm.__all__]
        if absent:
            raise MissingName(", ".join(f"rulemine.{n}" for n in absent))
        return [getattr(self.rm, n) for n in names]

    def _skip(self, metrics: tuple[str, ...], exc: MissingName) -> None:
        self.missing.append(f"{', '.join(metrics)}: {exc} not exported")

    def training(self, csv_path: Path, schema_path: Path, overrides: dict,
                 seed: int, test_fraction: float) -> None:
        """LVQ fit, swarm seeding, swarm steps and a full ``mine`` on the
        training split the CLI mines (same split seed and config)."""
        lvq_names = ("lvq.fit_s", "lvq.epochs", "lvq.presentations",
                     "lvq.us_per_presentation", "lvq.final_movement", "lvq.stopped_early")
        pso_names = ("pso.seed_swarm_ms", "pso.step_ms")
        try:
            load_schema, parse_csv, encode, split, miner_config, fit_network = self._fns(
                "load_schema", "parse_csv", "encode", "stratified_split",
                "MinerConfig", "fit_network")
        except MissingName as exc:
            self._skip(lvq_names + pso_names + ("miner.mine_s",), exc)
            return
        schema = load_schema(schema_path)
        train, _ = split(encode(parse_csv(csv_path, schema)), test_fraction, seed)
        config = miner_config.from_dict({**overrides, "seed": seed})

        lvq_config = replace(config.lvq, seed=seed)
        network, fit_s = _median_s(1, fit_network, train, lvq_config)
        epochs = len(network.trace)
        presentations = epochs * len(train)
        self.metrics.update({
            "lvq.fit_s": fit_s,
            "lvq.epochs": epochs,
            "lvq.presentations": presentations,
            "lvq.us_per_presentation": 1e6 * fit_s / presentations,
            "lvq.final_movement": network.trace[-1],
            "lvq.stopped_early": int(epochs < lvq_config.max_epochs),
        })

        try:
            seed_swarm, step = self._fns("seed_swarm", "step")
        except MissingName as exc:
            self._skip(pso_names, exc)
        else:
            pso_config = replace(config.pso, seed=seed)
            target = int(np.argmax(np.bincount(train.y)))
            swarm, seed_s = _median_s(SEED_SWARM_REPEATS, seed_swarm, network, target,
                                      config.min_represented, train, pso_config)
            _, step_s = _median_s(STEP_REPEATS, step, swarm, train, pso_config)
            self.metrics["pso.seed_swarm_ms"] = 1e3 * seed_s
            self.metrics["pso.step_ms"] = 1e3 * step_s

        try:
            (mine,) = self._fns("mine")
        except MissingName as exc:
            self._skip(("miner.mine_s",), exc)
        else:
            _, self.metrics["miner.mine_s"] = _median_s(1, mine, train, config)

    def model(self, model_path: Path, scratch_path: Path, scored) -> None:
        """Model load and save, and ``evaluate`` over the rows the workload scores."""
        self.metrics["model_io.model_bytes"] = model_path.stat().st_size
        try:
            load_model, save_model, evaluate = self._fns("load_model", "save_model", "evaluate")
        except MissingName as exc:
            self._skip(("model_io.load_s", "model_io.save_s", "evaluation.evaluate_s"), exc)
            return
        artifact, self.metrics["model_io.load_s"] = _median_s(IO_REPEATS, load_model, model_path)
        _, self.metrics["model_io.save_s"] = _median_s(
            IO_REPEATS, save_model, artifact, scratch_path)
        _, self.metrics["evaluation.evaluate_s"] = _median_s(
            IO_REPEATS, evaluate, artifact.rule_list, scored)
