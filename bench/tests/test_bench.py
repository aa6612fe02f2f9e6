"""Self-tests of the benchmark. Run from the repository root:

    python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "bench"
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checker  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench_command(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_emits_every_metric_with_its_unit(workload, trace, tmp_path):
    record = tmp_path / "record.json"
    done = bench_command("--workload", workload, "--seed", "5", "--seconds", "0",
                         "--trace", trace, "--size", "tiny", "--out", str(record))
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert json.loads(record.read_text())["workloads"][0]["inputs"]
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert isinstance(result["metrics"][m["name"]]["value"], (int, float))


def test_code_and_spec_name_the_same_metrics():
    assert [m["name"] for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in SPEC["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


@pytest.fixture
def bench():
    """A tiny credit3 run with its inputs written and its model trained."""
    b = run.Bench(ROOT, run.load_rulemine(ROOT), "credit3", seed=7, size="tiny")
    try:
        b.prepare()
        b.train()
        b.require_model()
        yield b
    finally:
        b.close()


def test_checker_catches_wrong_output(bench):
    assert bench.predict().code == 0 and bench.failed == 0
    reference = bench.reference
    lines = checker.read_predictions(bench.work / "predictions.csv")
    assert checker.count_failed_rows(reference, lines) == 0

    valid = next(i for i, want in enumerate(reference.expected) if want is not None)
    mutated = [list(line) for line in lines]
    labels = bench.artifact.schema.class_labels
    mutated[valid][0] = next(label for label in labels if label != lines[valid][0])
    assert checker.count_failed_rows(reference, mutated) / len(lines) > 0

    error = min(bench.malformed)
    assert lines[error][:2] == ["ERROR", "-"]
    dropped = lines[:error] + lines[error + 1:]
    assert checker.count_failed_rows(reference, dropped) / len(lines) > 0

    assert checker.count_failed_rows(reference, None) == len(reference.expected)


def test_checker_catches_a_flipped_model_byte(bench):
    attempted, failed = bench.attempted, bench.failed
    good = bench.model_bytes
    bench.model_bytes = good[:-2] + bytes([good[-2] ^ 1]) + good[-1:]
    bench.train()
    assert bench.attempted == attempted + 1
    assert (bench.failed - failed) / (bench.attempted - attempted) > 0

    bench.model_path.write_bytes(good[: len(good) // 2])
    assert checker.train_run_failed(bench.rm, 0, bench.model_path, None)[0]


def test_bare_directory_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = bench_command("--workload", "credit3", "--seed", "1", "--seconds", "1",
                         "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert "no src/rulemine" in done.stderr
    assert "correct" not in done.stdout


def test_self_time_excludes_child_spans(tmp_path):
    t = tracer.Tracer()
    inner = t.wrap("rules.inner", lambda: time.sleep(0.02))

    def outer_body():
        time.sleep(0.01)
        inner()

    outer = t.wrap("cli.outer", outer_body)
    outer()
    path = tmp_path / "spans.npz"
    t.save(str(path), [])
    summary = tracer.summarize(str(path))
    assert summary["spans"] == 2
    assert summary["calls"] == {"rules.inner": 1, "cli.outer": 1}
    self_s = summary["layer_self_s"]
    assert self_s["rules"] == pytest.approx(summary["total_s"]["rules.inner"])
    assert self_s["cli"] + self_s["rules"] == pytest.approx(summary["total_s"]["cli.outer"])
    assert 0.005 < self_s["cli"] < 0.02
