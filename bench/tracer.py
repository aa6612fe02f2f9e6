"""Spans around the public functions of each rulemine layer.

Run as a program, it executes one rulemine CLI command in this process with
every function in ``WRAPPED`` replaced by a timing wrapper, then writes the
spans to a ``.npz`` file:

    python3 bench/tracer.py SPANS.npz -- train --data d.csv --schema d.schema.json ...

Wrappers are installed at the names the callers look up: ``from .x import y``
binds ``y`` into the importing module, so ``rulemine.miner.fit_network`` is
wrapped rather than ``rulemine.lvq.fit_network``. Nothing under ``src/`` is
edited. A span records its name, start, end and parent span; spans stay in
memory until the command ends.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array

import numpy as np

# (module, name the caller looks up) -> layer of the function behind it.
# The span is named "<layer>.<name>"; the command itself is the "cli.main" span.
WRAPPED = {
    ("rulemine.cli", "load_schema"): "schema",
    ("rulemine.cli", "parse_csv"): "schema",
    ("rulemine.cli", "encode"): "schema",
    ("rulemine.cli", "stratified_split"): "schema",
    ("rulemine.cli", "read_header"): "schema",
    ("rulemine.cli", "coerce_row"): "schema",
    ("rulemine.cli", "encode_row"): "schema",
    ("rulemine.schema", "coerce_row"): "schema",
    ("rulemine.schema", "encode_row"): "schema",
    ("rulemine.cli", "mine"): "miner",
    ("rulemine.miner", "fit_network"): "lvq",
    ("rulemine.miner", "seed_swarm"): "pso",
    ("rulemine.miner", "evolve"): "pso",
    ("rulemine.pso", "step"): "pso",
    ("rulemine.pso", "fitness"): "pso",
    ("rulemine.miner", "match_mask"): "rules",
    ("rulemine.pso", "match_mask"): "rules",
    ("rulemine.rules", "match_mask"): "rules",
    ("rulemine.cli", "classify"): "rules",
    ("rulemine.cli", "render_rule"): "rules",
    ("rulemine.cli", "render_rule_list"): "rules",
    ("rulemine.evaluation", "classify_dataset"): "rules",
    ("rulemine.cli", "evaluate"): "evaluation",
    ("rulemine.cli", "save_model"): "model_io",
    ("rulemine.cli", "load_model"): "model_io",
}

LAYERS = ("cli", "schema", "lvq", "pso", "miner", "rules", "evaluation", "model_io")


class Tracer:
    """In-memory span recorder for one thread of calls."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]

    def wrap(self, span_name: str, fn):
        nid = self._ids.setdefault(span_name, len(self._ids))
        if nid == len(self.names):
            self.names.append(span_name)
        ids, parents, starts, ends, stack = (
            self.name_id, self.parent, self.start, self.end, self._stack
        )
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            ids.append(nid)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                starts[idx] = t0
                stack.pop()

        return traced

    def install(self, targets: dict[tuple[str, str], str]) -> list[str]:
        """Wrap each target in place; return the targets that do not exist."""
        missing = []
        for (module_name, attr), layer in targets.items():
            try:
                module = importlib.import_module(module_name)
            except ImportError:
                module = None
            fn = getattr(module, attr, None)
            if not callable(fn):
                missing.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self.wrap(f"{layer}.{attr}", fn))
        return missing

    def save(self, path: str, missing: list[str]) -> None:
        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            name_id=np.frombuffer(self.name_id, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            missing=np.array(missing, dtype=str),
        )


def summarize(path: str) -> dict:
    """Per-span-name totals and per-layer self time from a saved spans file.

    Self time is a span's duration minus the time its child spans cover;
    spans of one thread nest, so that is the sum of the children's durations.
    """
    with np.load(path, allow_pickle=False) as f:
        names = [str(n) for n in f["names"]]
        name_id, parent = f["name_id"], f["parent"]
        duration = f["end"] - f["start"]
        missing = [str(m) for m in f["missing"]]
    has_parent = parent >= 0
    covered = np.bincount(
        parent[has_parent], weights=duration[has_parent], minlength=duration.size
    )
    self_time = duration - covered
    total = np.bincount(name_id, weights=duration, minlength=len(names))
    calls = np.bincount(name_id, minlength=len(names))
    self_by_name = np.bincount(name_id, weights=self_time, minlength=len(names))
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for i, span_name in enumerate(names):
        layer_self[span_name.split(".", 1)[0]] += float(self_by_name[i])
    return {
        "total_s": {n: float(total[i]) for i, n in enumerate(names)},
        "calls": {n: int(calls[i]) for i, n in enumerate(names)},
        "layer_self_s": layer_self,
        "spans": int(duration.size),
        "missing": missing,
    }


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py SPANS.npz -- <rulemine cli arguments>", file=sys.stderr)
        return 2
    import rulemine.cli

    tracer = Tracer()
    missing = tracer.install(WRAPPED)
    command = tracer.wrap("cli.main", rulemine.cli.main)
    try:
        return command(argv[2:])
    finally:
        tracer.save(argv[0], missing)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
