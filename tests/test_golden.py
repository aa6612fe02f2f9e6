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
        "train.stdout": "7d359ea336029665fc276f3ec91360f457a29ebf1d060c6f0ec8e6f325eca45e",
        "model.json": "c1b145df47779c77c4fe0cfc37a4c30cc794ea2e98ce5149a77ec9aa278b76fb",
        "model.report.json": "ea87e984139492961eb722513faa38fd2f6b96ffb669d07306d7c7241068632a",
        "scored.csv": "18216c6e6a9aa4112aac86ff7a51e82ae386123fd9ff116797e9d47549f7787f",
        "eval.json": "5a805c9577b0ef91448d2cf2658ef0642121af616e0fdfd502416239bb5ce766",
    },
    "fragmented": {
        "data.csv": "76ff151eeec3651a3611c261aa4029b38189f2c958dab80f87c3e2e5db06a7c9",
        "train.stdout": "57cc93523bfa5b1fe64d875c2e4d448681154b2622ea38b624ea531d7e6eea6f",
        "model.json": "26176c4a18b21021522ca9020712fca088c7992ec854a3b3e6a0d6654ebce660",
        "model.report.json": "82e9a85fe5dee54651aab0fa0d325c7db7fde53e8cf4ba7a5e4fb1a168e2f522",
        "scored.csv": "f1c15d2d9cff0a8437c52e12b771cb85e1dc66047f5cccc8d663bbaf0583f069",
        "eval.json": "155eed4e53384c45f24e35c9f2755e59c0e85e8f0e3172a61ea87416a1e7f005",
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
