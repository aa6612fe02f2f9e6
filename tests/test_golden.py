"""Pinned bytes of the command-line walkthrough.

``train``, ``predict`` and ``evaluate`` run as the CI walkthrough runs them,
on 600 credit3 rows and on 600 fragmented rows, and the SHA-256 of everything
they write is compared with pinned values. Same seed, same bytes is a
contract on every supported Python and numpy: a platform that gives other
bytes breaks it. A change meant to alter these outputs updates the pins and
says so.
"""

from __future__ import annotations

import contextlib
import hashlib
import io

import pytest

from rulemine import cli

GOLDEN = {
    "credit3": {
        "data.csv": "e6d9f774dec73b9280057d042074a7b2aae7c9c6bf73e0119e693298103c9a16",
        "train.stdout": "002ddf931402ee1a2bef56518686f61f60dd3a19066bdff665806e497aef2da7",
        "model.json": "8d06c8b64f7c7c5ffd7780791912688b87bdd9e5b44f15bf3c7cebcdd592f92a",
        "model.report.json": "51f1e8bd82b5d39c78cc1bd7850ab3451fa28a4531593b470dab447f46d9bbaa",
        "scored.csv": "d3079bbd30a791984ea0e3cf5bd4f230167e014a0412a36c5e8ecccd952c117b",
        "eval.json": "268f9e3b803c49d58ec96bc6fe352c5b76ef2338c6f71751275c7ebee76e2b16",
    },
    "fragmented": {
        "data.csv": "76ff151eeec3651a3611c261aa4029b38189f2c958dab80f87c3e2e5db06a7c9",
        "train.stdout": "0a799319028db7dcae9a730c40ec0fced2e22da16b24a4c840a9f3a52d81da21",
        "model.json": "f5cd8fac29f42862033b5f19e7856a2671ac4e88bd725a733442fcc631c5bb1f",
        "model.report.json": "3b4659fe01831405fa75dce0dc92383412b434c41f54ccba3ea39c543b1de29d",
        "scored.csv": "97fb011c43cf38fd893cd31381f0130896971278e8fb60dca0f856234520a8b5",
        "eval.json": "f3b9426558e9980556fd58ae7798c8e9cd849113696102d7c388ccb07b7e5f6b",
    },
}


def _run(argv: list[str]) -> str:
    """Run one command in process; its exit code must be 0. Returns stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(argv) == cli.EXIT_OK, argv
    return out.getvalue()


@pytest.mark.parametrize("profile", sorted(GOLDEN))
def test_walkthrough_bytes(profile, tmp_path):
    d = str(tmp_path)
    _run(["synth", "--rows", "600", "--seed", "1", "--profile", profile,
          "--out", f"{d}/data"])
    train_out = _run(["train", "--data", f"{d}/data.csv", "--schema", f"{d}/data.schema.json",
                      "--out", f"{d}/model.json", "--seed", "1", "--test-fraction", "0.3"])
    (tmp_path / "train.stdout").write_text(train_out)
    _run(["predict", "--model", f"{d}/model.json", "--input", f"{d}/data.csv",
          "--out", f"{d}/scored.csv"])
    _run(["evaluate", "--model", f"{d}/model.json", "--data", f"{d}/data.csv",
          "--baseline", "--out", f"{d}/eval.json"])
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
           for name in GOLDEN[profile]}
    assert got == GOLDEN[profile]
