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
        "train.stdout": "7d359ea336029665fc276f3ec91360f457a29ebf1d060c6f0ec8e6f325eca45e",
        "model.json": "c1b145df47779c77c4fe0cfc37a4c30cc794ea2e98ce5149a77ec9aa278b76fb",
        "model.report.json": "4a4e4df3c39329a312692db94d89e9fca0ada281fb3b47d822581f36c1e6c2b7",
        "scored.csv": "18216c6e6a9aa4112aac86ff7a51e82ae386123fd9ff116797e9d47549f7787f",
        "eval.json": "5a805c9577b0ef91448d2cf2658ef0642121af616e0fdfd502416239bb5ce766",
    },
    "fragmented": {
        "data.csv": "76ff151eeec3651a3611c261aa4029b38189f2c958dab80f87c3e2e5db06a7c9",
        "train.stdout": "f3a3e01eb0c325fb2de186e98322acea0451722790cd4e57535b7d5505ad5753",
        "model.json": "115503e1461c92aa214cd13bddb9bc5afa70693e3dff540b29a8c7afea44871e",
        "model.report.json": "bb5bc0614e71026136f59c4be48cc432f729b0bf2afa1070f1ed3410ef6f8785",
        "scored.csv": "f61566eb0a8fe071215a5334167580cef854be3ec35a7e48d2cff2d81b8978ad",
        "eval.json": "1cb7b5400c48aee4de785df608a516cfe075e02bc6c64be398f380768a4575e5",
    },
    "credit3-bench": {
        "data.csv": "66dd76bf23b594076cb0d2b6bc879ac3f6dbd038bca9a46b9ab464f091d17bca",
        "train.stdout": "4b0ca9c5ac3ae544eedbe0760a0ff99d95a57cdb8a9b8731daad3e0682db6ff7",
        "model.json": "2f8dea1a087d4951ac5c6e50bc0aea7c5f4cfb9306c99b3f3aded524582f7c09",
        "model.report.json": "3407148affd37e051c8f1c6fdd0e46e50f903352ca3307563a9bc07de989b3e4",
        "scored.csv": "3865c0073e0f22d4bb3402d191757a7a65e4d11ad13faf709d60f79daa0e3019",
        "eval.json": "b081696e7019e416789aab4546cf6c6b12d36f92c1fb04d4fe2d6b19b6894c13",
    },
    "fragmented-bench": {
        "data.csv": "d6ba65f98883dd50340c27348792a2c69613c034ea4cfc8e03753cae32685de6",
        "train.stdout": "85d5de1bc7c5e88a77279bf3993bb4b25c754c1079749c16ec270fcfd2122c3e",
        "model.json": "922264cc6e6954bf8f28af14d0ead32cd999adc8a19723b2b5eaf30415dbad66",
        "model.report.json": "f6972577a11a801951b98d1ae1deb04a26467f07cf2f9a362353cdf5326cb63c",
        "scored.csv": "15867bde59b1c4836040d10101af095a574af74890194870c966a3d8ac40c6e0",
        "eval.json": "e7ba2107e8bb17aa17c26c132861d6646514e7cb5b6bd524761ecadf50c269f1",
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
        (tmp_path / "config.json").write_text(json.dumps(config))
        options = ["--config", f"{d}/config.json"]
    _run(["synth", "--rows", str(rows), "--seed", "1", "--profile", profile,
          "--out", f"{d}/data"])
    train_out = _run(["train", "--data", f"{d}/data.csv", "--schema", f"{d}/data.schema.json",
                      "--out", f"{d}/model.json", "--seed", "1", "--test-fraction", "0.3",
                      *options])
    (tmp_path / "train.stdout").write_text(train_out)
    _run(["predict", "--model", f"{d}/model.json", "--input", f"{d}/data.csv",
          "--out", f"{d}/scored.csv"])
    _run(["evaluate", "--model", f"{d}/model.json", "--data", f"{d}/data.csv",
          "--baseline", "--out", f"{d}/eval.json"])
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
           for name in GOLDEN[case]}
    assert got == GOLDEN[case]
