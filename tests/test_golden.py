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
        "train.stdout": "dfb544f0b163be8719adb5206c7a2849e8a702f139a9e13eb53d9f16668ee1ab",
        "model.json": "25a162f9e8c30e94f2ae3b744c5c1ef79e2e0cf9373e5faf10ab6749d60da22c",
        "model.report.json": "b7cce6eff9bbc584b5fc8155e174e712bfafd6d1f7e1bb7652d5d52d4eb7522a",
        "scored.csv": "b84960090f276dad07e508e9ae7001f8c5d4f12761dbb3237dc3566184d70a0f",
        "eval.json": "4df1cfad7c3a842175b01ea0311a79af112c2b002591a07f3112146dc4bae4de",
    },
    "fragmented": {
        "data.csv": "76ff151eeec3651a3611c261aa4029b38189f2c958dab80f87c3e2e5db06a7c9",
        "train.stdout": "b9eacb51c2f1bc0522bff14a00287ef5e4580ce484e3d35dcd520f5b591ceb89",
        "model.json": "e7bb88f7e804e1928512f7d0f99ffab3877ab73c9ccb86a4f05260cefe92d73c",
        "model.report.json": "4df9b024277991675dcee1cd650905790b8c2f57660219eb77dbb4de14e64fd5",
        "scored.csv": "9b8be0e19c3684c6558fc8ad41a7db577aa20ebaf76c89d79d103055238de8d7",
        "eval.json": "25290612181aca325476641750f67ac463ac0133d76c09dd2bcc1b5416bd7dd5",
    },
}


# on 600 fragmented rows the first swarm finds only IF TRUE THEN common,
# which folds into the default: training ends with no rule (exit 3)
TRAIN_EXIT = {"credit3": cli.EXIT_OK, "fragmented": cli.EXIT_NO_RULES}


def _run(argv: list[str], code: int = cli.EXIT_OK) -> str:
    """Run one command in process; it must exit with ``code``. Returns stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(argv) == code, argv
    return out.getvalue()


@pytest.mark.parametrize("profile", sorted(GOLDEN))
def test_walkthrough_bytes(profile, tmp_path):
    d = str(tmp_path)
    _run(["synth", "--rows", "600", "--seed", "1", "--profile", profile,
          "--out", f"{d}/data"])
    train_out = _run(["train", "--data", f"{d}/data.csv", "--schema", f"{d}/data.schema.json",
                      "--out", f"{d}/model.json", "--seed", "1", "--test-fraction", "0.3"],
                     TRAIN_EXIT[profile])
    (tmp_path / "train.stdout").write_text(train_out)
    _run(["predict", "--model", f"{d}/model.json", "--input", f"{d}/data.csv",
          "--out", f"{d}/scored.csv"])
    _run(["evaluate", "--model", f"{d}/model.json", "--data", f"{d}/data.csv",
          "--baseline", "--out", f"{d}/eval.json"])
    got = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
           for name in GOLDEN[profile]}
    assert got == GOLDEN[profile]
