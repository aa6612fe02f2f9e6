"""Pinned bytes of the command-line walkthrough.

``synth``, ``train``, ``predict`` and ``evaluate --baseline`` run in process
with the arguments CI's console-script smoke run gives the installed
``rulemine``, on 600 credit3 rows and on 600 fragmented rows, and again on
the benchmark's two training sets with its two ``--config`` files, and the
SHA-256 of everything they write is compared with pinned values. Same seed, same bytes is a
contract on every supported Python and numpy: a platform that gives other
bytes breaks it. A change meant to alter these outputs updates the pins and
says so.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json

import pytest

from rulemine import cli

_SWARM = {"swarm_size": 60, "max_iterations": 400, "stagnation_limit": 60}
# each case's profile, rows and --config; the -bench cases are the training
# runs of bench/run.py, with its rows, synth seed 1 and configs
CASES = {
    "credit3": ("credit3", 600, None),
    "fragmented": ("fragmented", 600, None),
    "credit3-bench": ("credit3", 5000, {"support_factor": 0.45, "min_confidence": 0.85,
                                        "max_attempts_per_class": 3, "pso": _SWARM}),
    "fragmented-bench": ("fragmented", 2000, {"min_confidence": 0.9,
                                              "lvq": {"max_epochs": 15}, "pso": _SWARM}),
}
GOLDEN = {
    "credit3": {
        "data.csv": "e6d9f774dec73b9280057d042074a7b2aae7c9c6bf73e0119e693298103c9a16",
        "train.stdout": "f12feec13b81d96b1a1eab4d52e2d9cec7f4a96950a4c543e9d9b7b4d5deb12d",
        "model.json": "15eb81cc21f99fbad7351ad245c74c83fe67a4237ed052dc1e1cf2dfe13e0166",
        "model.report.json": "686f63caa3c7ac229ac6d6796e01a6d66fd3c9905f90d9350b3981af446c312f",
        "scored.csv": "4f8850fc229f0e9d1836c64d7294011b3f1cd36969ff83f37745ca9242781218",
        "eval.json": "7cc7348a57f75b645266582e833f4d5aef14a4d5baaa47516a813a65b7b6baf2",
    },
    "fragmented": {
        "data.csv": "76ff151eeec3651a3611c261aa4029b38189f2c958dab80f87c3e2e5db06a7c9",
        "train.stdout": "f3a3e01eb0c325fb2de186e98322acea0451722790cd4e57535b7d5505ad5753",
        "model.json": "115503e1461c92aa214cd13bddb9bc5afa70693e3dff540b29a8c7afea44871e",
        "model.report.json": "29be80a14c7834df19704f244a5d738b85a14e70489a64e06375bdbd4b4e2657",
        "scored.csv": "f61566eb0a8fe071215a5334167580cef854be3ec35a7e48d2cff2d81b8978ad",
        "eval.json": "1cb7b5400c48aee4de785df608a516cfe075e02bc6c64be398f380768a4575e5",
    },
    "credit3-bench": {
        "data.csv": "66dd76bf23b594076cb0d2b6bc879ac3f6dbd038bca9a46b9ab464f091d17bca",
        "train.stdout": "05a412e22966c1466303b906d966e9cf12335ecb2f9a39ea4a3b119d69880431",
        "model.json": "efb7ec4cd26918eddc8300ae02a9f65b350aecdbdbf0103132ca0f2da6f24d24",
        "model.report.json": "a432d6ad2e231510fa39b53881484b1450f7fb09b2bf00df967f6201364c55b1",
        "scored.csv": "ba7fbd143e96c959b2553bbe5e7819760fd4c11572abde030c72b0976c2ebbe5",
        "eval.json": "b081696e7019e416789aab4546cf6c6b12d36f92c1fb04d4fe2d6b19b6894c13",
    },
    "fragmented-bench": {
        "data.csv": "d6ba65f98883dd50340c27348792a2c69613c034ea4cfc8e03753cae32685de6",
        "train.stdout": "ed1bd52588a16ed1d6f42450f8b825d9f0fba1d725f8dac190f95308ba73b65e",
        "model.json": "ec7923192ce25a25341cab8879090a1bd81121efeb99bd61e7cdb6928c82f03f",
        "model.report.json": "58d7cf496844e48f83ecf80984a4c84e174bc541a829155b287c21492a04bce0",
        "scored.csv": "0074d64ab267e00f5efdf9e34c27310d9b2ccb0cc67e6a84239a1d2879afcd1c",
        "eval.json": "3e71f7aea78af656870a8f0a6c5098b62112d72f6ad42229d298ff26d2a79e1f",
    },
}


def _run(argv: list[str]) -> str:
    """Run one command in process; it must exit 0. Returns stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(argv) == cli.EXIT_OK, argv
    return out.getvalue()


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_walkthrough_bytes(case, tmp_path):
    profile, rows, config = CASES[case]
    d = str(tmp_path)
    options = []
    if config is not None:
        (tmp_path / "config.json").write_text(json.dumps(config), encoding="utf-8")
        options = ["--config", f"{d}/config.json"]
    _run(["synth", "--rows", str(rows), "--seed", "1", "--profile", profile,
          "--out", f"{d}/data"])
    train_out = _run(["train", "--data", f"{d}/data.csv", "--schema", f"{d}/data.schema.json",
                      "--out", f"{d}/model.json", "--seed", "1", "--test-fraction", "0.3",
                      *options])
    (tmp_path / "train.stdout").write_text(train_out, encoding="utf-8")
    _run(["predict", "--model", f"{d}/model.json", "--input", f"{d}/data.csv",
          "--out", f"{d}/scored.csv"])
    _run(["evaluate", "--model", f"{d}/model.json", "--data", f"{d}/data.csv",
          "--baseline", "--out", f"{d}/eval.json"])
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
           for name in GOLDEN[case]}
    assert got == GOLDEN[case]
