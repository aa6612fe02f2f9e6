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
        "train.stdout": "aa6b192ce18db1e3dbd1e30115d235c25ffc1a56c1599c31687da91e5da8e8eb",
        "model.json": "6e0678b0ad18ac2c5d9002061cd4f756d569b3ec0b6f1663c161e79501ba0a0c",
        "model.report.json": "1503095803371ea4e240148a5ee88377d59f3f5711647da6960f18a463f8a093",
        "scored.csv": "c25b43ab9cd3841b1ac6306493f7a4c2bf85a183a04113b3afa467ed2541394d",
        "eval.json": "4411f3aa59d8116cd48143ee554fb70d924dc27f9d149110309268a21fd2b6db",
    },
    "fragmented": {
        "data.csv": "76ff151eeec3651a3611c261aa4029b38189f2c958dab80f87c3e2e5db06a7c9",
        "train.stdout": "f3a3e01eb0c325fb2de186e98322acea0451722790cd4e57535b7d5505ad5753",
        "model.json": "0e908823e040dc95ca94dc047d5f50e618f7f2187619fa33889c8b5020a24bb6",
        "model.report.json": "4bdf239f739e93658a32874d46dbb518d5186020dbaf0d19f991759fba8e7e81",
        "scored.csv": "f61566eb0a8fe071215a5334167580cef854be3ec35a7e48d2cff2d81b8978ad",
        "eval.json": "1cb7b5400c48aee4de785df608a516cfe075e02bc6c64be398f380768a4575e5",
    },
}


def _run(argv: list[str]) -> str:
    """Run one command in process; it must exit 0. Returns stdout."""
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
