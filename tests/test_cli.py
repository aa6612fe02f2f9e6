import contextlib
import copy
import csv
import gc
import hashlib
import io
import itertools
import json
import os
import random
import shutil
import subprocess
import sys
import threading
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import rulemine
import rulemine.schema
from rulemine import cli
from rulemine.errors import DataError
from rulemine.evaluation import evaluate, mine_greedy_baseline
from rulemine.miner import MinerConfig
from rulemine.model_io import load_model
from rulemine.rules import classify_dataset, render_rule
from rulemine.schema import (
    RawDataset,
    coerce_row,
    encode,
    parse_csv,
    read_header,
    split_csv,
    stratified_split,
)

GOLDEN_SEPARABLE_SHA256 = (
    "8c1e5afd314395a1b7fef6fe6c2ad26f6de378bd2bd4c7124294cfef2115e950"
)

_DELETE = object()  # marks a key to remove from a JSON document

SMALL_CONFIG = {
    "max_attempts_per_class": 2,
    "lvq": {"centroid_count": 6, "max_epochs": 15},
    "pso": {"swarm_size": 10, "max_iterations": 25, "stagnation_limit": 10},
}


# the settings that became lvq and pso constants, at the values they had
RETIRED_DEFAULTS = {
    "lvq": {"adapt_rate": 0.05, "stability_threshold": 1e-4, "repulsion_ratio": 1.2},
    "pso": {"inertia": 0.7, "cognitive": 1.4, "social": 1.4,
            "veloc1_bounds": [-1.0, 1.0], "veloc2_bounds": [-4.0, 4.0],
            "weight_confidence": 0.6, "weight_support": 0.3, "weight_length": 0.1},
}


def _silent(argv):
    """Run a command for fixture setup, swallowing its output."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(
        io.StringIO()
    ):
        return cli.main(argv)


def _mutated(doc, path, value):
    """A copy of a JSON document with the key or index at ``path`` deleted
    (``value`` is _DELETE) or set to ``value``."""
    doc = copy.deepcopy(doc)
    node = doc
    for key in path[:-1]:
        node = node[key]
    if value is _DELETE:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return doc


def _run_to_error(argv, capsys, exit_code, message="..."):
    """Run ``argv`` in process, check that it exits ``exit_code`` with one
    line on stderr, ``error: `` and ``message``, and return its stdout. A
    message ending in "..." gives the start of the line, where the rest is
    Python's own text; the default takes any error line."""
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == exit_code, captured.err
    if message.endswith("..."):
        assert captured.err.startswith(f"error: {message[:-3]}"), captured.err
        assert captured.err.count("\n") == 1 and captured.err.endswith("\n"), captured.err
    else:
        assert captured.err == f"error: {message}\n"
    return captured.out


def _write_interleaved(directory):
    """A dataset where classes alternate along x: nothing clears a 0.995
    confidence bar, so training emits no rules at all."""
    rng = np.random.default_rng(11)
    x = rng.uniform(0, 1, 60)
    csv_path = directory / "interleaved.csv"
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write("x,label\n")
        for i, v in enumerate(x):
            fh.write(f"{v:.6f},{'a' if i % 2 == 0 else 'b'}\n")
    schema_path = directory / "interleaved.schema.json"
    schema_path.write_text(
        json.dumps(
            {
                "attributes": [{"name": "x", "kind": "numeric"}],
                "class_attribute": "label",
                "class_labels": ["a", "b"],
            }
        ),
        encoding="utf-8",
    )
    config_path = directory / "strict.json"
    config_path.write_text(
        json.dumps(
            {
                "min_confidence": 0.995,
                "max_attempts_per_class": 1,
                "support_factor": 1.0,
                "lvq": {"centroid_count": 4, "max_epochs": 10},
                "pso": {"swarm_size": 8, "max_iterations": 10, "stagnation_limit": 5},
            }
        ),
        encoding="utf-8",
    )
    return csv_path, schema_path, config_path


def _run_into_closed_pipe(argv):
    """Run a command unbuffered, with a stdout pipe whose read end is closed
    before the child starts: its first print meets the closed pipe at once,
    and no output can get through."""
    env = {**os.environ, "PYTHONPATH": str(Path(rulemine.__file__).parents[1]),
           "PYTHONUNBUFFERED": "1"}
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        return subprocess.run([sys.executable, "-m", "rulemine.cli", *argv],
                              stdout=write_end, stderr=subprocess.PIPE, encoding="utf-8",
                              env=env, timeout=120)
    finally:
        os.close(write_end)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """Shared artifacts: synthetic datasets plus trained models."""
    d = tmp_path_factory.mktemp("cli")
    assert _silent(["synth", "--rows", "200", "--seed", "7",
                    "--profile", "separable", "--out", str(d / "sep")]) == 0
    assert _silent(["train", "--data", str(d / "sep.csv"),
                    "--schema", str(d / "sep.schema.json"),
                    "--out", str(d / "model.json"),
                    "--seed", "7", "--test-fraction", "0.3"]) == 0

    (d / "small.json").write_text(json.dumps(SMALL_CONFIG), encoding="utf-8")
    assert _silent(["synth", "--rows", "200", "--seed", "4",
                    "--profile", "fragmented", "--out", str(d / "frag")]) == 0
    assert _silent(["train", "--data", str(d / "frag.csv"),
                    "--schema", str(d / "frag.schema.json"),
                    "--out", str(d / "fmodel.json"),
                    "--seed", "2", "--config", str(d / "small.json")]) == 0

    csv_path, schema_path, config_path = _write_interleaved(d)
    assert _silent(["train", "--data", str(csv_path), "--schema", str(schema_path),
                    "--out", str(d / "zero.json"),
                    "--seed", "5", "--config", str(config_path)]) == cli.EXIT_NO_RULES
    return d


class TestSynth:
    def test_writes_both_files(self, tmp_path, capsys):
        code = cli.main(["synth", "--rows", "80", "--seed", "1",
                         "--profile", "separable", "--out", str(tmp_path / "toy")])
        out = capsys.readouterr().out
        assert code == 0
        assert (tmp_path / "toy.csv").exists()
        assert (tmp_path / "toy.schema.json").exists()
        assert "toy.csv" in out and "toy.schema.json" in out
        assert "80 rows" in out

    def test_golden_file_checksum(self, tmp_path, capsys):
        cli.main(["synth", "--rows", "200", "--seed", "42",
                  "--profile", "separable", "--out", str(tmp_path / "g")])
        capsys.readouterr()
        digest = hashlib.sha256((tmp_path / "g.csv").read_bytes()).hexdigest()
        assert digest == GOLDEN_SEPARABLE_SHA256

    # too few rows, or more than synth.MAX_ROWS up to counts beyond numpy's
    # reach: each is refused before anything is drawn
    @pytest.mark.parametrize("rows", ["10", "10000001", "2147483648",
                                      "9223372036854775808", "100000000000000000000"])
    def test_too_few_rows_is_config_error(self, tmp_path, capsys, rows):
        code = cli.main(["synth", "--rows", rows, "--seed", "1",
                         "--profile", "separable", "--out", str(tmp_path / "toy")])
        err = capsys.readouterr().err
        assert code == cli.EXIT_CONFIG
        assert err.startswith("error: rows must lie in ")
        assert list(tmp_path.iterdir()) == []

    def test_seed_env_fallback(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("RULEMINE_SEED", "42")
        cli.main(["synth", "--rows", "200", "--profile", "separable",
                  "--out", str(tmp_path / "env")])
        capsys.readouterr()
        digest = hashlib.sha256((tmp_path / "env.csv").read_bytes()).hexdigest()
        assert digest == GOLDEN_SEPARABLE_SHA256

    def test_invalid_seed_env(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("RULEMINE_SEED", "not-a-number")
        code = cli.main(["synth", "--rows", "80", "--profile", "separable",
                         "--out", str(tmp_path / "toy")])
        err = capsys.readouterr().err
        assert code == cli.EXIT_CONFIG
        assert "RULEMINE_SEED" in err


@pytest.mark.parametrize("source", ["flag", "env"])
@pytest.mark.parametrize("command", ["synth", "train"])
def test_negative_seed_is_config_error(workdir, tmp_path, capsys, monkeypatch, command, source):
    argv = {
        "synth": ["synth", "--rows", "60", "--profile", "fragmented",
                  "--out", str(tmp_path / "toy")],
        "train": ["train", "--data", str(workdir / "sep.csv"),
                  "--schema", str(workdir / "sep.schema.json"),
                  "--config", str(workdir / "small.json"), "--out", str(tmp_path / "m.json")],
    }[command]
    if source == "flag":
        argv += ["--seed", "-1"]
    else:
        monkeypatch.setenv("RULEMINE_SEED", "-1")
    code = cli.main(argv)
    err = capsys.readouterr().err
    assert code == cli.EXIT_CONFIG
    assert err.startswith("error: ") and "Traceback" not in err
    assert ("--seed" if source == "flag" else "RULEMINE_SEED") in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "command, output, named",
    [
        ("train", "--out", "--data"),
        ("train", "--out", "--schema"),
        ("train", "--out", "--config"),
        ("train", "--report", "--data"),
        ("train", "--report", "--schema"),
        ("train", "--report", "--config"),
        ("predict", "--out", "--model"),
        ("evaluate", "--out", "--model"),
        ("evaluate", "--out", "--data"),
    ],
)
def test_output_naming_an_input_is_config_error(
    workdir, tmp_path, capsys, command, output, named
):
    # writing the output would replace the input it names: exit 2, nothing
    # written, every input intact (predict's --out/--input: TestPredict)
    inputs = {
        "train": {"--data": "sep.csv", "--schema": "sep.schema.json", "--config": "small.json"},
        "predict": {"--model": "model.json", "--input": "sep.csv"},
        "evaluate": {"--model": "model.json", "--data": "sep.csv"},
    }[command]
    for name in inputs.values():
        shutil.copy(workdir / name, tmp_path / name)
    before = {path.name: path.read_bytes() for path in tmp_path.iterdir()}
    outputs = {"--out": "m.json"} if output == "--report" else {}
    outputs[output] = inputs[named]
    argv = [command] + [arg for flag, name in {**inputs, **outputs}.items()
                        for arg in (flag, str(tmp_path / name))]
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == cli.EXIT_CONFIG
    assert captured.err == f"error: {output} must not name the {named} file\n"
    assert captured.out == ""
    assert {path.name: path.read_bytes() for path in tmp_path.iterdir()} == before


@pytest.mark.parametrize("command", ["train", "evaluate"])
def test_data_without_the_class_column_is_data_error(workdir, tmp_path, capsys, command):
    # predict scores such a file; train and evaluate need its labels
    data = tmp_path / "unlabeled.csv"
    data.write_text("x1,x2\n0.9,0.1\n0.1,0.9\n", encoding="utf-8")
    argv = {
        "train": ["train", "--data", str(data), "--schema", str(workdir / "sep.schema.json"),
                  "--out", str(tmp_path / "m.json")],
        "evaluate": ["evaluate", "--model", str(workdir / "model.json"), "--data", str(data)],
    }[command]
    code = cli.main(argv)
    err = capsys.readouterr().err
    assert code == cli.EXIT_DATA
    assert err.startswith("error: missing column 'label'")
    assert not (tmp_path / "m.json").exists()


class TestTrain:
    def test_train_with_holdout(self, workdir, tmp_path, capsys):
        code = cli.main(["train", "--data", str(workdir / "sep.csv"),
                         "--schema", str(workdir / "sep.schema.json"),
                         "--out", str(tmp_path / "m.json"),
                         "--seed", "7", "--test-fraction", "0.3"])
        out = capsys.readouterr().out
        assert code == 0
        assert "THEN label = " in out  # rendered rule list
        assert "accuracy (%)" in out
        assert "100.00" in out  # the separable profile is learned perfectly
        assert (tmp_path / "m.json").exists()
        report = json.loads((tmp_path / "m.report.json").read_text(encoding="utf-8"))
        assert report["mining"]["stop_reason"] == "all_covered"
        assert report["evaluation"]["accuracy_percent"] == pytest.approx(100.0)

    def test_small_credit3_mines_rules_of_both_kinds(self, tmp_path, capsys):
        # 200 rows under the small config: the base rate's weight in the
        # m-estimate is a share of the launch's rows, so it does not drown a
        # launch this small. A fixed m of 20 rows would leave every launch's
        # rule below min_confidence, and train would exit 3 with no model
        assert _silent(["synth", "--rows", "200", "--seed", "3", "--profile", "credit3",
                        "--out", str(tmp_path / "credit")]) == 0
        (tmp_path / "small.json").write_text(json.dumps(SMALL_CONFIG), encoding="utf-8")
        code = cli.main(["train", "--data", str(tmp_path / "credit.csv"),
                         "--schema", str(tmp_path / "credit.schema.json"),
                         "--out", str(tmp_path / "m.json"),
                         "--seed", "3", "--config", str(tmp_path / "small.json")])
        capsys.readouterr()
        assert code == cli.EXIT_OK
        rules = json.loads((tmp_path / "m.json").read_text(encoding="utf-8"))["rule_list"]["rules"]
        assert len(rules) >= 1
        assert {cond["kind"] for rule in rules for cond in rule["antecedent"]} == {
            "membership", "interval"}

    def test_network_goes_to_report_not_model(self, workdir):
        model = json.loads((workdir / "fmodel.json").read_text(encoding="utf-8"))
        report = json.loads((workdir / "fmodel.report.json").read_text(encoding="utf-8"))
        assert "network" not in model
        network = report["mining"]["network"]
        assert sum(network["allocation"].values()) == SMALL_CONFIG["lvq"]["centroid_count"]
        assert len(network["centroids"]) == SMALL_CONFIG["lvq"]["centroid_count"]
        assert 1 <= len(network["trace"]) <= SMALL_CONFIG["lvq"]["max_epochs"]
        assert len(network["churn"]) == len(network["trace"]) - 1
        assert all(0.0 <= share <= 1.0 for share in network["churn"])
        assert network["stop_reason"] in ("stability", "repeated_assignment", "max_epochs")

    def test_same_seed_same_bytes(self, workdir, tmp_path, capsys):
        args = ["train", "--data", str(workdir / "sep.csv"),
                "--schema", str(workdir / "sep.schema.json"),
                "--seed", "7", "--test-fraction", "0.3"]
        assert cli.main(args + ["--out", str(tmp_path / "m1.json")]) == 0
        assert cli.main(args + ["--out", str(tmp_path / "m2.json")]) == 0
        capsys.readouterr()
        assert (tmp_path / "m1.json").read_bytes() == (tmp_path / "m2.json").read_bytes()

    def test_without_holdout_skips_evaluation(self, workdir, tmp_path, capsys):
        code = cli.main(["train", "--data", str(workdir / "sep.csv"),
                         "--schema", str(workdir / "sep.schema.json"),
                         "--out", str(tmp_path / "m.json"), "--seed", "7"])
        out = capsys.readouterr().out
        assert code == 0
        assert "accuracy (%)" not in out
        report = json.loads((tmp_path / "m.report.json").read_text(encoding="utf-8"))
        assert report["evaluation"] is None

    @pytest.mark.parametrize("fraction", ["-0.3", "nan"])
    def test_test_fraction_outside_unit_interval_is_config_error(
        self, workdir, tmp_path, capsys, fraction
    ):
        # only 0 means "no hold-out"; anything else must be a fraction in (0, 1)
        code = cli.main(["train", "--data", str(workdir / "sep.csv"),
                         "--schema", str(workdir / "sep.schema.json"),
                         "--out", str(tmp_path / "m.json"), "--test-fraction", fraction])
        err = capsys.readouterr().err
        assert code == cli.EXIT_CONFIG, err
        assert err.startswith("error: ") and "test_fraction" in err
        assert not (tmp_path / "m.json").exists()

    def test_custom_report_path(self, workdir, tmp_path, capsys):
        code = cli.main(["train", "--data", str(workdir / "sep.csv"),
                         "--schema", str(workdir / "sep.schema.json"),
                         "--out", str(tmp_path / "m.json"),
                         "--report", str(tmp_path / "custom-report.json"),
                         "--seed", "7"])
        capsys.readouterr()
        assert code == 0
        assert (tmp_path / "custom-report.json").exists()
        assert not (tmp_path / "m.report.json").exists()

    @pytest.mark.parametrize("report", ["m.json", "./m.json", "link.json"],
                             ids=["same-path", "dot-slash", "symlink"])
    def test_report_naming_out_is_config_error(
        self, tmp_path, capsys, monkeypatch, report
    ):
        # the report is written after the model and would replace it; the
        # inputs do not exist, so the check comes before anything is read
        monkeypatch.chdir(tmp_path)
        os.symlink("m.json", "link.json")
        code = cli.main(["train", "--data", "none.csv", "--schema", "none.json",
                         "--out", "m.json", "--report", report])
        captured = capsys.readouterr()
        assert code == cli.EXIT_CONFIG
        assert captured.err == "error: --report must not name the --out file\n"
        assert captured.out == ""
        assert sorted(os.listdir(tmp_path)) == ["link.json"]

    def test_missing_data_file_is_data_error(self, workdir, tmp_path, capsys):
        code = cli.main(["train", "--data", str(tmp_path / "absent.csv"),
                         "--schema", str(workdir / "sep.schema.json"),
                         "--out", str(tmp_path / "m.json")])
        err = capsys.readouterr().err
        assert code == cli.EXIT_DATA
        assert "cannot read input file" in err

    def test_no_rules_exit_code_still_writes_model(self, tmp_path, capsys):
        csv_path, schema_path, config_path = _write_interleaved(tmp_path)
        code = cli.main(["train", "--data", str(csv_path), "--schema", str(schema_path),
                         "--out", str(tmp_path / "zero.json"),
                         "--seed", "5", "--config", str(config_path)])
        captured = capsys.readouterr()
        assert code == cli.EXIT_NO_RULES
        assert "no rules" in captured.err
        artifact = load_model(tmp_path / "zero.json")
        assert artifact.rule_list.rules == ()

    def test_a_lone_if_true_rule_folds_into_the_default(self, tmp_path, capsys):
        # on these 60 rows the first swarm's best rule is IF TRUE THEN common,
        # which passes min_confidence 0.6: it becomes the default, so the
        # model keeps no rule
        d = str(tmp_path)
        assert _silent(["synth", "--rows", "60", "--seed", "1", "--profile", "fragmented",
                        "--out", f"{d}/tiny"]) == 0
        (tmp_path / "small.json").write_text(
            json.dumps({**SMALL_CONFIG, "min_confidence": 0.6}), encoding="utf-8")
        code = cli.main(["train", "--data", f"{d}/tiny.csv", "--schema", f"{d}/tiny.schema.json",
                         "--out", f"{d}/model.json", "--seed", "2",
                         "--config", f"{d}/small.json"])
        assert code == cli.EXIT_NO_RULES
        assert "warning: no rules were emitted" in capsys.readouterr().err
        mining = json.loads((tmp_path / "model.report.json").read_text(encoding="utf-8"))["mining"]
        assert [log["outcome"] for log in mining["swarm_logs"]] == ["folded"]
        assert mining["rules"] == [] and mining["failed_attempts"] == {"common": 0, "rare": 0}
        model = json.loads((tmp_path / "model.json").read_text(encoding="utf-8"))
        assert model["rule_list"] == {"rules": [], "default_class": 0}
        # the list as mined without the fold: the rule, then a default it hides
        unfolded = copy.deepcopy(model)
        unfolded["rule_list"] = {"rules": [{"antecedent": [], "class_index": 0}],
                                 "default_class": 1}
        (tmp_path / "unfolded.json").write_text(json.dumps(unfolded), encoding="utf-8")
        outputs = {}
        for name in ("model", "unfolded"):
            assert cli.main(["predict", "--model", f"{d}/{name}.json",
                             "--input", f"{d}/tiny.csv"]) == cli.EXIT_OK
            outputs[name] = capsys.readouterr()
        folded, kept = outputs["model"].out, outputs["unfolded"].out
        # the same predictions; each row fires the default in place of rule 1
        assert folded == kept.replace("common,1,IF TRUE THEN group = common\n",
                                      "common,default,-\n")
        assert kept.count("common,1,IF TRUE") == 60
        assert outputs["model"].err == "scored 60 rows, 0 ERROR, 60 default\n"

    @pytest.mark.parametrize("test_fraction", ["0", "0.3"])
    def test_single_class_data_is_data_error(self, tmp_path, capsys, test_fraction):
        # one class leaves nothing to separate: a fault of the data (exit 1)
        assert _silent(["synth", "--rows", "800", "--seed", "1", "--profile", "credit3",
                        "--out", str(tmp_path / "credit")]) == 0
        header, *rows = (tmp_path / "credit.csv").read_text(encoding="utf-8").splitlines()
        deny = [row for row in rows if row.endswith(",Deny")][:300]
        assert len(deny) == 300
        (tmp_path / "deny.csv").write_text("\n".join([header, *deny]) + "\n", encoding="utf-8")
        code = cli.main(["train", "--data", str(tmp_path / "deny.csv"),
                         "--schema", str(tmp_path / "credit.schema.json"),
                         "--out", str(tmp_path / "m.json"), "--test-fraction", test_fraction])
        err = capsys.readouterr().err
        assert code == cli.EXIT_DATA
        assert err == "error: mining needs at least 2 classes present in the data\n"
        assert not (tmp_path / "m.json").exists()


class TestPredict:
    def test_scores_rows_with_fired_rule_detail(self, workdir, capsys, tmp_path):
        points = tmp_path / "points.csv"
        points.write_text("x1,x2\n0.900000,0.100000\n0.100000,0.900000\n", encoding="utf-8")
        code = cli.main(["predict", "--model", str(workdir / "model.json"),
                         "--input", str(points)])
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert code == 0
        assert lines[0] == "prediction,fired_rule,rule"
        assert len(lines) == 3
        first = csv_fields(lines[1])
        second = csv_fields(lines[2])
        assert first[0] == "pos" and second[0] == "neg"
        for fields in (first, second):
            if fields[1] == "default":
                assert fields[2] == "-"
            else:
                assert fields[1].isdigit()
                assert fields[2].startswith("IF ")

    def test_labeled_input_is_accepted(self, workdir, capsys, tmp_path):
        # the class column is not read: a declared label, an undeclared one
        # and an empty field all score as the rows without the column do
        rows = [("0.900000,0.100000", "pos"), ("0.100000,0.900000", "positive"),
                ("0.900000,0.100000", "")]
        labeled = tmp_path / "labeled.csv"
        labeled.write_text("x1,x2,label\n" + "".join(f"{x},{c}\n" for x, c in rows),
                           encoding="utf-8")
        bare = tmp_path / "bare.csv"
        bare.write_text("x1,x2\n" + "".join(f"{x}\n" for x, _ in rows), encoding="utf-8")
        outputs = []
        for points in (labeled, bare):
            code = cli.main(["predict", "--model", str(workdir / "model.json"),
                             "--input", str(points)])
            assert code == 0
            outputs.append(capsys.readouterr())
        assert outputs[0] == outputs[1]
        assert outputs[0].out.splitlines()[1].startswith("pos,")
        assert outputs[0].err.startswith("scored 3 rows, 0 ERROR")

    def test_default_only_model_reports_default(self, workdir, capsys):
        code = cli.main(["predict", "--model", str(workdir / "zero.json"),
                         "--input", str(workdir / "interleaved.csv")])
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert code == 0
        assert len(lines) == 61  # header + every input row
        assert all(line == "a,default,-" for line in lines[1:])

    def test_bad_rows_become_error_rows(self, workdir, capsys, tmp_path):
        score = tmp_path / "score.csv"
        score.write_text(
            "sector,band,score\n"
            "sector_a,band_1,0.5\n"
            "sector_z,band_1,0.5\n"      # undeclared nominal value
            "sector_b,band_2,oops\n"     # unparsable numeric
            "sector_c,band_4,0.25\n",
            encoding="utf-8",
        )
        code = cli.main(["predict", "--model", str(workdir / "fmodel.json"),
                         "--input", str(score)])
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert code == 0  # errors are reported per row, the run still succeeds
        assert len(lines) == 5
        assert lines[2].startswith("ERROR,-,") and "sector_z" in lines[2]
        assert lines[3].startswith("ERROR,-,") and "oops" in lines[3]
        assert not lines[1].startswith("ERROR")
        assert not lines[4].startswith("ERROR")

    def test_out_flag_writes_file(self, workdir, capsys, tmp_path):
        points = tmp_path / "points.csv"
        points.write_text("x1,x2\n0.900000,0.100000\n", encoding="utf-8")
        dest = tmp_path / "scored.csv"
        code = cli.main(["predict", "--model", str(workdir / "model.json"),
                         "--input", str(points), "--out", str(dest)])
        out = capsys.readouterr().out
        assert code == 0
        assert "prediction" not in out  # CSV went to the file, not stdout
        assert dest.read_text(encoding="utf-8").startswith("prediction,fired_rule,rule\n")

    @pytest.mark.parametrize("link", [None, os.symlink, os.link],
                             ids=["same-path", "symlink", "hard-link"])
    def test_out_naming_input_is_config_error(self, workdir, capsys, tmp_path, link):
        # opening --out would truncate the input while it is still being read
        points = tmp_path / "points.csv"
        points.write_bytes((workdir / "sep.csv").read_bytes())
        out = points
        if link is not None:
            out = tmp_path / "alias.csv"
            link(points, out)
        code = cli.main(["predict", "--model", str(workdir / "model.json"),
                         "--input", str(points), "--out", str(out)])
        captured = capsys.readouterr()
        assert code == cli.EXIT_CONFIG
        assert captured.err == "error: --out must not name the --input file\n"
        assert captured.out == ""
        assert points.read_bytes() == (workdir / "sep.csv").read_bytes()

    def test_header_only_input_is_data_error(self, workdir, capsys, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("x1,x2\n", encoding="utf-8")
        code = cli.main(["predict", "--model", str(workdir / "model.json"),
                         "--input", str(empty)])
        err = capsys.readouterr().err
        assert code == cli.EXIT_DATA
        assert "no data rows" in err

    def test_closed_stdout_ends_quietly_with_ok(self, workdir, tmp_path):
        # far more output than a pipe buffers, so predict is still writing
        # when the reader goes away after the first line, as `| head -1` does
        text = (workdir / "frag.csv").read_text(encoding="utf-8")
        header, *rows = text.splitlines(keepends=True)
        score = tmp_path / "score.csv"
        score.write_text(header + "".join(rows * 50), encoding="utf-8")
        env = {**os.environ, "PYTHONPATH": str(Path(rulemine.__file__).parents[1])}
        with subprocess.Popen(
            [sys.executable, "-m", "rulemine.cli", "predict",
             "--model", str(workdir / "fmodel.json"), "--input", str(score)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, encoding="utf-8", env=env,
        ) as proc:
            assert proc.stdout.readline() == "prediction,fired_rule,rule\n"
            proc.stdout.close()
            stderr = proc.stderr.read()
            code = proc.wait(timeout=120)
        assert code == cli.EXIT_OK, stderr
        assert stderr == ""

    @pytest.mark.parametrize("command", ["train", "evaluate"])
    def test_closed_stdout_still_writes_every_file(self, workdir, tmp_path, command):
        if command == "train":
            argv = ["train", "--data", str(workdir / "frag.csv"),
                    "--schema", str(workdir / "frag.schema.json"),
                    "--out", str(tmp_path / "m.json"), "--seed", "2",
                    "--config", str(workdir / "small.json"), "--test-fraction", "0.3"]
        else:
            argv = ["evaluate", "--model", str(workdir / "fmodel.json"),
                    "--data", str(workdir / "frag.csv"), "--baseline",
                    "--out", str(tmp_path / "e.json")]
        proc = _run_into_closed_pipe(argv)
        assert proc.returncode == cli.EXIT_OK, proc.stderr
        assert proc.stderr == ""
        if command == "train":
            assert load_model(tmp_path / "m.json").rule_list.rules
            report = json.loads((tmp_path / "m.report.json").read_text(encoding="utf-8"))
            assert report["mining"] and report["evaluation"]
        else:
            doc = json.loads((tmp_path / "e.json").read_text(encoding="utf-8"))
            assert doc["model"] and doc["baseline"]

    def test_closed_stdout_keeps_the_no_rules_exit_and_warning(self, tmp_path):
        # the warning and the exit code are settled before the first print
        csv_path, schema_path, config_path = _write_interleaved(tmp_path)
        argv = ["train", "--data", str(csv_path), "--schema", str(schema_path),
                "--out", str(tmp_path / "zero.json"),
                "--seed", "5", "--config", str(config_path)]
        proc = _run_into_closed_pipe(argv)
        assert proc.returncode == cli.EXIT_NO_RULES, proc.stderr
        assert proc.stderr == (
            "warning: no rules were emitted; model falls back to the default class\n")
        assert load_model(tmp_path / "zero.json").rule_list.rules == ()

    def test_summary_line_on_stderr(self, workdir, capsys, tmp_path):
        score = tmp_path / "score.csv"
        score.write_text(
            "sector,band,score\n"
            "sector_a,band_1,0.5\n"
            "sector_z,band_1,0.5\n"
            "\n"
            "sector_c,band_4,0.25\n",
            encoding="utf-8",
        )
        dest = tmp_path / "scored.csv"
        code = cli.main(["predict", "--model", str(workdir / "fmodel.json"),
                         "--input", str(score), "--out", str(dest)])
        captured = capsys.readouterr()
        lines = dest.read_text(encoding="utf-8").splitlines()
        assert code == 0
        assert captured.out == ""
        assert len(lines) == 4  # the summary is not part of the CSV
        defaults = sum(line.split(",")[1] == "default" for line in lines[1:])
        assert captured.err == f"scored 2 rows, 1 ERROR, {defaults} default\n"

    def test_all_rows_bad_is_data_error_with_summary(self, workdir, capsys, tmp_path):
        score = tmp_path / "score.csv"
        score.write_text("sector,band,score\nsector_z,band_1,0.5\nsector_a,band_1,\n",
                         encoding="utf-8")
        code = cli.main(["predict", "--model", str(workdir / "fmodel.json"),
                         "--input", str(score)])
        captured = capsys.readouterr()
        assert code == cli.EXIT_DATA
        assert captured.out.splitlines()[1].startswith("ERROR,-,row 1:")
        assert captured.err == "scored 0 rows, 2 ERROR, 0 default\n"

    @pytest.mark.parametrize("parts", [1, 2, 3])
    @pytest.mark.parametrize("labeled", [False, True])
    def test_chunked_output_matches_per_row_oracle(
        self, workdir, capsys, tmp_path, monkeypatch, labeled, parts
    ):
        monkeypatch.setattr(rulemine.schema, "CHUNK_ROWS", 7)
        monkeypatch.setattr(cli, "usable_cpus", lambda: parts)
        part_reads = _parent_part_reads(monkeypatch)
        header, *rows = (workdir / "frag.csv").read_text(encoding="utf-8").splitlines()[:101]
        if not labeled:
            header = header.rsplit(",", 1)[0]
            rows = [row.rsplit(",", 1)[0] for row in rows]
        # the four kinds of malformed row, alone and in a run longer than a chunk
        breakers = [
            lambda f: ["sector_z", *f[1:]],          # undeclared nominal value
            lambda f: [*f[:2], "12.5.0", *f[3:]],    # unparsable numeric
            lambda f: [*f, "extra"],                 # wrong field count
            lambda f: [*f[:2], "", *f[3:]],          # missing value
        ]
        for n, i in enumerate([3, 8, 13, 19, *range(25, 41)]):
            rows[i] = ",".join(breakers[n % 4](rows[i].split(",")))
        for i in (0, 10, 11, 33, 52):
            rows.insert(i, "")
        points = tmp_path / "points.csv"
        points.write_text(header + "\n" + "\n".join(rows) + "\n", encoding="utf-8")
        assert len(split_csv(points, parts)) == parts

        code = cli.main(["predict", "--model", str(workdir / "fmodel.json"),
                         "--input", str(points)])
        captured = capsys.readouterr()
        assert code == 0
        got = [csv_fields(line) for line in captured.out.splitlines()[1:]]
        expected = _per_row_oracle(workdir / "fmodel.json", header, rows)
        assert sum(line[0] == "ERROR" for line in expected) == 20
        assert got == expected
        defaults = sum(line[1] == "default" for line in expected)
        assert captured.err == f"scored {len(expected) - 20} rows, 20 ERROR, {defaults} default\n"
        assert part_reads == []  # the parent reads --input once, through one reader
        _assert_no_child_left()

    @pytest.mark.parametrize("parts, where", [
        (2, "last"), (3, "last"), (3, "first-of-part-1"), (3, "first-of-part-2"),
        (3, "part-0"), (3, "last-of-part-0"),
    ])
    @pytest.mark.parametrize("line", [
        b"sector_a,band_1,0.\xe9",              # a byte that is not UTF-8
        b"sector_a,band_1," + b"1" * 140_000,     # past csv's field limit
    ], ids=["latin1-byte", "huge-field"])
    def test_unreadable_line_in_a_part_reads_as_one_reader(
        self, workdir, capsys, tmp_path, monkeypatch, parts, where, line
    ):
        # the reader of a failed part is replaced by one reader of the whole
        # file, so the lines before the failure, the error and the exit code
        # are those of a run in one part: a byte that is not UTF-8 stops the
        # reader at the start of the 8 KB block it is decoded in
        monkeypatch.setattr(rulemine.schema, "CHUNK_ROWS", 7)
        header, *rows = (workdir / "frag.csv").read_bytes().splitlines()
        rows = (rows * 3)[:600]
        points = tmp_path / "points.csv"
        points.write_bytes(b"\n".join([header, *rows]) + b"\n")
        cut = split_csv(points, parts)
        number = {"last": len(rows), "first-of-part-1": cut[1].first_row,
                  "first-of-part-2": cut[-1].first_row, "part-0": 5,
                  "last-of-part-0": cut[1].first_row - 1}[where]
        rows[number - 1] = line
        points.write_bytes(b"\n".join([header, *rows]) + b"\n")
        assert len(split_csv(points, parts)) == parts
        argv = ["predict", "--model", str(workdir / "fmodel.json"), "--input", str(points)]
        part_reads = _parent_part_reads(monkeypatch)
        runs = []
        for n in (1, parts):
            monkeypatch.setattr(cli, "usable_cpus", lambda: n)
            code = cli.main(argv)
            runs.append((code, *capsys.readouterr()))
        assert runs[0][0] == cli.EXIT_DATA
        assert runs[0][2].startswith("error: cannot read input CSV: ")
        assert runs[1] == runs[0]
        assert part_reads == []
        _assert_no_child_left()

    def test_a_part_left_without_a_child_is_read_by_the_parent(
        self, workdir, capsys, tmp_path, monkeypatch
    ):
        # with no process to spare, the second fork fails: the parent copies
        # the first child's lines and reads the last part itself
        monkeypatch.setattr(rulemine.schema, "CHUNK_ROWS", 7)
        header, *rows = (workdir / "frag.csv").read_text(encoding="utf-8").splitlines()
        points = tmp_path / "points.csv"
        points.write_text("\n".join([header, *rows * 3]) + "\n", encoding="utf-8")
        argv = ["predict", "--model", str(workdir / "fmodel.json"), "--input", str(points)]
        monkeypatch.setattr(cli, "usable_cpus", lambda: 1)
        one = (cli.main(argv), *capsys.readouterr())
        fork, forks = os.fork, []

        def one_fork():
            if forks:
                raise BlockingIOError(11, "Resource temporarily unavailable")
            forks.append(fork())
            return forks[-1]

        monkeypatch.setattr(os, "fork", one_fork)
        monkeypatch.setattr(cli, "usable_cpus", lambda: 3)
        assert (cli.main(argv), *capsys.readouterr()) == one
        assert one[0] == 0 and len(forks) == 1
        _assert_no_child_left()

    @pytest.mark.parametrize("kind", ["quote", "crlf", "fifo"])
    def test_inputs_that_are_never_split(self, workdir, capsys, tmp_path, monkeypatch, kind):
        # before a quote or a carriage return a line end may not end a
        # record, and a pipe cannot be read twice
        monkeypatch.setattr(rulemine.schema, "CHUNK_ROWS", 7)
        monkeypatch.setattr(cli, "usable_cpus", lambda: 3)

        def fork():
            raise AssertionError("predict forked")

        monkeypatch.setattr(os, "fork", fork)
        header, *rows = (workdir / "frag.csv").read_text(encoding="utf-8").splitlines()[:61]
        end = "\r\n" if kind == "crlf" else "\n"
        if kind == "quote":
            rows[2] = '"' + rows[2].replace(",", '",', 1)
        text = end.join([header, *rows]) + end
        points = tmp_path / "points.csv"
        writer = None
        if kind == "fifo":
            os.mkfifo(points)
            writer = threading.Thread(target=points.write_text, args=(text,),
                                      kwargs={"encoding": "utf-8"})
            writer.start()
        else:
            points.write_text(text, encoding="utf-8", newline="")
        try:
            code = cli.main(["predict", "--model", str(workdir / "fmodel.json"),
                             "--input", str(points)])
        finally:
            if writer is not None:
                writer.join(timeout=60)
                assert not writer.is_alive()
        assert code == 0
        assert len(capsys.readouterr().out.splitlines()) == 61

    @pytest.mark.parametrize("at", ["first-chunk", "copy"])
    def test_closed_stdout_leaves_no_child(self, workdir, tmp_path, monkeypatch, at):
        # stdout goes away while part 0 is scored, with the children still
        # at work, or while the first child's lines are copied out
        monkeypatch.setattr(rulemine.schema, "CHUNK_ROWS", 7)
        monkeypatch.setattr(cli, "usable_cpus", lambda: 3)
        header, *rows = (workdir / "frag.csv").read_text(encoding="utf-8").splitlines()
        points = tmp_path / "points.csv"
        points.write_text("\n".join([header, *rows * 3]) + "\n", encoding="utf-8")

        class ClosedStdout(io.StringIO):
            def write(self, text):
                # a chunk is 7 lines; a child's lines come in one write
                if (self.tell() > 0) if at == "first-chunk" else (len(text) > 2000):
                    raise BrokenPipeError(32, "Broken pipe")
                return super().write(text)

        args = cli.build_parser().parse_args(
            ["predict", "--model", str(workdir / "fmodel.json"), "--input", str(points)])
        with contextlib.redirect_stdout(ClosedStdout()), pytest.raises(BrokenPipeError):
            cli.cmd_predict(args)
        _assert_no_child_left()

    def test_split_input_in_a_subprocess(self, workdir, capsys, tmp_path, monkeypatch):
        # over 8 x 4,096 rows: two parts at the default chunk size, so the
        # program forks a child where it may use 2 CPUs or more
        header, *rows = (workdir / "frag.csv").read_text(encoding="utf-8").splitlines()
        points = tmp_path / "points.csv"
        points.write_text("\n".join([header, *rows * 165]) + "\n", encoding="utf-8")
        assert len(split_csv(points, 2)) == 2
        argv = ["predict", "--model", str(workdir / "fmodel.json"), "--input", str(points)]
        env = {**os.environ, "PYTHONPATH": str(Path(rulemine.__file__).parents[1]),
               "PYTHONIOENCODING": "utf-8"}
        proc = subprocess.run([sys.executable, "-m", "rulemine.cli", *argv],
                              capture_output=True, env=env, timeout=120)
        monkeypatch.setattr(cli, "usable_cpus", lambda: 1)
        dest = tmp_path / "one.csv"
        assert cli.main([*argv, "--out", str(dest)]) == proc.returncode == 0
        assert proc.stdout == dest.read_bytes()
        assert proc.stderr.decode("utf-8") == capsys.readouterr().err

    def test_bad_header_writes_nothing(self, workdir, capsys, tmp_path):
        points = tmp_path / "points.csv"
        points.write_text("x1,x3\n0.9,0.1\n", encoding="utf-8")
        code = cli.main(["predict", "--model", str(workdir / "model.json"),
                         "--input", str(points)])
        captured = capsys.readouterr()
        assert code == cli.EXIT_DATA
        assert captured.out == ""
        assert "missing column 'x2'" in captured.err

    def test_bad_header_opens_no_out_file(self, workdir, capsys, tmp_path):
        # the header is matched before --out is opened
        points = tmp_path / "points.csv"
        points.write_text("x1,x3\n0.9,0.1\n", encoding="utf-8")
        dest = tmp_path / "scored.csv"
        code = cli.main(["predict", "--model", str(workdir / "model.json"),
                         "--input", str(points), "--out", str(dest)])
        assert code == cli.EXIT_DATA
        assert "missing column 'x2'" in capsys.readouterr().err
        assert not dest.exists()

    @pytest.mark.parametrize("chunk_rows", [3, rulemine.schema.CHUNK_ROWS])
    def test_edge_spellings_match_per_row_oracle(
        self, workdir, capsys, tmp_path, monkeypatch, chunk_rows
    ):
        # odd numeric and nominal spellings, a byte-order mark, blank lines,
        # too-wide and too-narrow rows and a shuffled, padded header, each
        # checked against coerce_row on its own row
        monkeypatch.setattr(rulemine.schema, "CHUNK_ROWS", chunk_rows)
        scores = ["1_000", "\u0663", "+.5", "1e-320", "-0", "infinity", "nan", "1e400",
                  "0x10", "12.5.0", "", "  ", " 0.5 ", "0.25"]
        sectors = [" sector_a ", "SECTOR_A", "sector_b", "sector_z", ""]
        header = " score , band ,sector"
        rows = [f"{x},band_{1 + i % 4},{c}" for i, (x, c) in
                enumerate(itertools.product(scores, sectors))]
        rows[3:3] = ["", "0.5,band_1,sector_a,extra", ""]
        rows[30:30] = ["0.5,band_1", ""]
        points = tmp_path / "points.csv"
        points.write_text("\ufeff" + header + "\n" + "\n".join(rows) + "\n", encoding="utf-8")

        code = cli.main(["predict", "--model", str(workdir / "fmodel.json"),
                         "--input", str(points)])
        captured = capsys.readouterr()
        assert code == 0
        got = [csv_fields(line) for line in captured.out.splitlines()[1:]]
        expected = _per_row_oracle(workdir / "fmodel.json", header, rows)
        assert got == expected
        errors = sum(line[0] == "ERROR" for line in expected)
        assert 0 < errors < len(expected)
        assert captured.err.startswith(f"scored {len(expected) - errors} rows, {errors} ERROR,")


def _parent_part_reads(monkeypatch):
    """A list of the arguments of each ``cli.read_part`` call in this
    process: a forked child records its calls in its own copy of it."""
    calls, read_part = [], cli.read_part

    def record(*args, **kwargs):
        calls.append(args)
        return read_part(*args, **kwargs)

    monkeypatch.setattr(cli, "read_part", record)
    return calls


def _assert_no_child_left():
    """Every child this process forked is reaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _per_row_oracle(model_path, header, rows):
    """Expected predict output rows, checking each input row on its own
    through coerce_row (its width, then its values) and scoring it alone.
    Blank rows give no output but count in the row numbers."""
    artifact = load_model(model_path)
    names = next(csv.reader([header]))
    positions, _ = read_header(names, artifact.schema, labels=False)
    return [_oracle_line(artifact, next(csv.reader([row])), len(names), positions, k)
            for k, row in enumerate(rows, start=1) if row]


def _oracle_line(artifact, fields, width, positions, row_number):
    """The predict output fields for one CSV row, checked and scored alone."""
    schema, ranges = artifact.schema, artifact.numeric_ranges
    try:
        values, _ = coerce_row(schema, fields, width, positions, None, row_number)
    except DataError as exc:
        return ["ERROR", "-", str(exc)]
    raw = RawDataset(schema, np.array([values], dtype=np.float64), np.empty(0, np.int64))
    predicted, fired = classify_dataset(artifact.rule_list, encode(raw, ranges_from=ranges))
    label, f = schema.class_labels[predicted[0]], int(fired[0])
    if f == 0:
        return [label, "default", "-"]
    return [label, str(f), render_rule(artifact.rule_list.rules[f - 1], schema, ranges)]


class TestEvaluate:
    def test_matches_library_evaluation(self, workdir, capsys, tmp_path):
        dest = tmp_path / "eval.json"
        code = cli.main(["evaluate", "--model", str(workdir / "model.json"),
                         "--data", str(workdir / "sep.csv"), "--out", str(dest)])
        out = capsys.readouterr().out
        assert code == 0
        assert "accuracy (%)" in out
        doc = json.loads(dest.read_text(encoding="utf-8"))
        artifact = load_model(workdir / "model.json")
        raw = parse_csv(str(workdir / "sep.csv"), artifact.schema)
        data = encode(raw, ranges_from=artifact.numeric_ranges)
        expected = evaluate(artifact.rule_list, data)
        assert doc["model"]["accuracy"] == expected.accuracy
        assert doc["model"]["confusion"]["counts"] == expected.confusion.counts.tolist()
        assert doc["baseline"] is None

    def test_baseline_comparison(self, workdir, capsys, tmp_path):
        dest = tmp_path / "cmp.json"
        code = cli.main(["evaluate", "--model", str(workdir / "fmodel.json"),
                         "--data", str(workdir / "frag.csv"),
                         "--baseline", "--out", str(dest)])
        out = capsys.readouterr().out
        assert code == 0
        assert "rule count comparison" in out
        doc = json.loads(dest.read_text(encoding="utf-8"))
        comparison = doc["baseline"]
        # on the pocket data the swarm-mined list is the more parsimonious one
        assert comparison["model"]["rule_count"] < comparison["greedy"]["rule_count"]
        # both are scored on the 30% the baseline was not fit on
        artifact = load_model(workdir / "fmodel.json")
        data = encode(parse_csv(str(workdir / "frag.csv"), artifact.schema),
                      ranges_from=artifact.numeric_ranges)
        fit_rows, compared_rows = stratified_split(data, 0.3, artifact.miner_config.seed)
        assert (comparison["fit_rows"], comparison["compared_rows"]) == (
            len(fit_rows), len(compared_rows)) == (140, 60)
        assert "on 60 held-out rows; the baseline was fit on the other 140:" in out
        held_out = evaluate(artifact.rule_list, compared_rows)
        assert comparison["model"] == json.loads(json.dumps(held_out.to_dict()))
        baseline = mine_greedy_baseline(
            fit_rows, min_confidence=artifact.miner_config.min_confidence)
        assert comparison["greedy"] == json.loads(
            json.dumps(evaluate(baseline, compared_rows).to_dict()))
        # the model's main table stays on all rows
        assert doc["model"]["confusion"]["counts"] == evaluate(
            artifact.rule_list, data).confusion.counts.tolist()

    def test_one_class_test_set(self, workdir, capsys, tmp_path):
        lines = (workdir / "sep.csv").read_text(encoding="utf-8").splitlines()
        pos_only = [lines[0]] + [l for l in lines[1:] if l.endswith(",pos")]
        data = tmp_path / "onlypos.csv"
        data.write_text("\n".join(pos_only) + "\n", encoding="utf-8")
        code = cli.main(["evaluate", "--model", str(workdir / "model.json"),
                         "--data", str(data)])
        out = capsys.readouterr().out
        assert code == 0
        assert "type I error" in out

    def test_unknown_label_is_data_error(self, workdir, capsys, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("x1,x2,label\n0.9,0.1,positive\n", encoding="utf-8")
        code = cli.main(["evaluate", "--model", str(workdir / "model.json"),
                         "--data", str(bad)])
        err = capsys.readouterr().err
        assert code == cli.EXIT_DATA
        assert "not declared" in err


class TestByteOrderMark:
    """A UTF-8 byte-order mark, as Excel's "CSV UTF-8" writes, changes no
    output of any command, on CSV files and on schema, config and model
    files alike."""

    def _run(self, argv, capsys):
        code = cli.main([str(a) for a in argv])
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    def _both(self, workdir, tmp_path, capsys, make_argv):
        """(plain run, BOM run) of ``make_argv(files, out)``, where ``files``
        maps each input's name to its path and ``out`` names a fresh file."""
        names = ["frag.csv", "frag.schema.json", "small.json", "fmodel.json"]
        runs = []
        for kind in ("plain", "bom"):
            d = tmp_path / kind
            d.mkdir()
            bom = b"\xef\xbb\xbf" if kind == "bom" else b""
            files = {}
            for name in names:
                files[name] = d / name
                files[name].write_bytes(bom + (workdir / name).read_bytes())
            out = d / "out"
            result = self._run(make_argv(files, out), capsys)
            runs.append((result, out.read_bytes() if out.exists() else None))
        return runs

    def test_train(self, workdir, tmp_path, capsys):
        plain, bom = self._both(workdir, tmp_path, capsys, lambda f, out: [
            "train", "--data", f["frag.csv"], "--schema", f["frag.schema.json"],
            "--config", f["small.json"], "--out", out, "--seed", "2",
            "--test-fraction", "0.3"])
        assert plain[0][0] == 0 and plain[1] is not None
        assert bom == plain

    def test_predict(self, workdir, tmp_path, capsys):
        plain, bom = self._both(workdir, tmp_path, capsys, lambda f, out: [
            "predict", "--model", f["fmodel.json"], "--input", f["frag.csv"]])
        assert plain[0][0] == 0 and plain[0][1].startswith("prediction,")
        assert bom == plain

    def test_evaluate(self, workdir, tmp_path, capsys):
        plain, bom = self._both(workdir, tmp_path, capsys, lambda f, out: [
            "evaluate", "--model", f["fmodel.json"], "--data", f["frag.csv"],
            "--baseline", "--out", out])
        assert plain[0][0] == 0 and plain[1] is not None
        assert bom == plain


def csv_fields(line):
    import csv as _csv

    return next(_csv.reader([line]))


def _latin1_csv(path):
    path.write_bytes(b"x1,x2,label\n0.5,0.5,pos\n0.1,0.9,n\xe9g\n")


def _huge_field_csv(path):
    # one field past the csv module's 131,072-character limit
    path.write_text("x1,x2,label\n0.5,0.5,pos\n" + "1" * 200_000 + ",0.5,neg\n", encoding="utf-8")


class TestNoTraceback:
    """Undecodable input and unwritable outputs are data errors (exit 1)."""

    @pytest.mark.parametrize("make_csv", [_latin1_csv, _huge_field_csv],
                             ids=["latin1-byte", "huge-field"])
    @pytest.mark.parametrize("command", ["train", "predict", "evaluate"])
    def test_unreadable_csv(self, workdir, tmp_path, capsys, command, make_csv):
        data = tmp_path / "bad.csv"
        make_csv(data)
        model = str(workdir / "model.json")
        argv = {
            "train": ["train", "--data", str(data), "--schema",
                      str(workdir / "sep.schema.json"), "--out", str(tmp_path / "m.json")],
            "predict": ["predict", "--model", model, "--input", str(data)],
            "evaluate": ["evaluate", "--model", model, "--data", str(data)],
        }[command]
        _run_to_error(argv, capsys, cli.EXIT_DATA)
        assert not (tmp_path / "m.json").exists()

    def test_bad_row_before_a_late_unreadable_byte(self, workdir, tmp_path, capsys):
        # the byte that is not UTF-8 sits on row 1,001, past the decoder's
        # first 8 KB block and in the same 4,096-line chunk as the bad row 1
        lines = (workdir / "sep.csv").read_bytes().splitlines(keepends=True)
        header, rows = lines[0], (lines[1:] * 6)[:1001]
        x1, rest = rows[0].split(b",", 1)
        rows[0] = b"lots," + rest
        rows[-1] = rows[-1].replace(b"\n", b"\xe9\n")
        data = tmp_path / "bad.csv"
        data.write_bytes(header + b"".join(rows))
        # train reports the first bad row, as it does without the late byte
        code = cli.main(["train", "--data", str(data), "--schema",
                         str(workdir / "sep.schema.json"), "--out", str(tmp_path / "m.json")])
        assert code == cli.EXIT_DATA
        assert capsys.readouterr().err.startswith("error: row 1: cannot parse 'lots'")
        # predict turns the bad row into an ERROR line and then stops at the byte
        out = tmp_path / "scored.csv"
        code = cli.main(["predict", "--model", str(workdir / "model.json"),
                         "--input", str(data), "--out", str(out)])
        assert code == cli.EXIT_DATA
        assert "can't decode byte 0xe9" in capsys.readouterr().err
        scored = out.read_text(encoding="utf-8").splitlines()
        assert scored[1].startswith("ERROR,-,row 1: cannot parse 'lots'")

    @pytest.mark.parametrize("command", ["train", "train-report", "predict", "evaluate", "synth"])
    def test_out_in_missing_directory(self, workdir, tmp_path, capsys, command):
        # a failed run leaves no file: train-report fails after the model is
        # written, and takes it away
        missing = str(tmp_path / "missing" / "out")
        sep, model = str(workdir / "sep.csv"), str(workdir / "model.json")
        train = ["train", "--data", sep, "--schema", str(workdir / "sep.schema.json"),
                 "--config", str(workdir / "small.json")]
        argv = {
            "train": train + ["--out", missing],
            "train-report": train + ["--out", str(tmp_path / "m.json"), "--report", missing],
            "predict": ["predict", "--model", model, "--input", sep, "--out", missing],
            "evaluate": ["evaluate", "--model", model, "--data", sep, "--out", missing],
            "synth": ["synth", "--rows", "80", "--profile", "separable", "--out", missing],
        }[command]
        assert _run_to_error(argv, capsys, cli.EXIT_DATA,
                             "[Errno 2] No such file or directory: ...") == ""
        assert os.listdir(tmp_path) == []


def test_only_the_program_freezes_the_heap(tmp_path, capsys, monkeypatch):
    # main freezes what the imports built when it runs as the program, with
    # no argv; a caller that passes argv keeps its collector as it was
    argv = ["synth", "--rows", "80", "--profile", "separable", "--out", str(tmp_path / "s")]
    frozen = gc.get_freeze_count()
    try:
        assert cli.main(argv) == cli.EXIT_OK
        assert gc.get_freeze_count() == frozen
        monkeypatch.setattr(sys, "argv", ["rulemine", *argv])
        assert cli.main() == cli.EXIT_OK
        assert gc.get_freeze_count() > frozen
    finally:
        gc.unfreeze()


_MALFORMED_CSVS = [
    ("train", "sector,band,score,score,group\n", "duplicate column 'score' in header"),
    ("evaluate", "sector,band,score,score,group\n", "duplicate column 'score' in header"),
    ("predict", "sector,band,score,score,group\n", "duplicate column 'score' in header"),
    ("train", "", "CSV is empty (no header row)"),
    ("evaluate", "", "CSV is empty (no header row)"),
    ("predict", "", "CSV is empty (no header row)"),
    ("train", "sector,band,score,group\n", "cannot encode an empty dataset"),
    ("evaluate", "sector,band,score,group\n", "cannot encode an empty dataset"),
]


class TestMalformedInputs:
    """A CSV that breaks a rule of its kind exits 1 with the error that names
    the fault, and writes no output file."""

    @pytest.mark.parametrize("command, text, message", _MALFORMED_CSVS,
                             ids=[f"{c}-{m}" for c, _, m in _MALFORMED_CSVS])
    def test_csv(self, workdir, tmp_path, capsys, command, text, message):
        data = tmp_path / "data.csv"
        data.write_text(text, encoding="utf-8")
        argv = {
            "train": ["train", "--data", str(data),
                      "--schema", str(workdir / "frag.schema.json"),
                      "--out", str(tmp_path / "m.json")],
            "evaluate": ["evaluate", "--model", str(workdir / "fmodel.json"),
                         "--data", str(data), "--out", str(tmp_path / "e.json")],
            "predict": ["predict", "--model", str(workdir / "fmodel.json"),
                        "--input", str(data), "--out", str(tmp_path / "p.csv")],
        }[command]
        assert _run_to_error(argv, capsys, cli.EXIT_DATA, message) == ""
        assert sorted(os.listdir(tmp_path)) == ["data.csv"]


# The rules of the three JSON input files, one table per file kind. A row is
# (edit, value, message). The edit is a path into the file's document, whose
# key or index is deleted (value _DELETE) or set to value; or a name, and
# value is the raw file body (None: no file). The message is what follows
# "error: " on stderr, or, ending in "...", its start, where Python's own
# text follows; a model row with no message loads.
_RULE, _COND = ("rule_list", "rules", 0), ("rule_list", "rules", 0, "antecedent", 0)
_JUNK = random.Random(0).randbytes(100)


def _unmatchable(what, text):
    return f"{what} {text!r} has surrounding whitespace, which no CSV field can match"


_SCHEMA_ROWS = [
    ("no-file", None, "cannot read schema file: ..."),
    ("random-bytes", _JUNK, "schema file is not valid JSON: ..."),
    ("not-an-object", b"[1, 2, 3]", "schema must be a JSON object, got [1, 2, 3]"),
    # keys and JSON types: a wrong type is an error, never a coerced value
    (("class_labels",), _DELETE, "schema is missing key 'class_labels'"),
    (("extra",), 1, "schema has unknown key 'extra'"),
    (("class_labels",), [0, 1], "schema key 'class_labels' must be strings"),
    (("class_attribute",), 7, "schema key 'class_attribute' must be a string, got 7"),
    (("attributes", 0, "name"), None, "attribute key 'name' must be a string, got None"),
    (("attributes", 0, "values"), "yes", "'values' of 'sector' must be a list, got 'yes'"),
    (("attributes", 0, "values"), {"y": 1},
     "'values' of 'sector' must be a list, got {'y': 1}"),
    (("attributes", 0, "values"), 3, "'values' of 'sector' must be a list, got 3"),
    (("attributes", 0, "values"), list(range(8)), "'values' of 'sector' must be strings"),
    (("attributes", 0, "values", 0), 5, "'values' of 'sector' must be strings"),
    (("attributes", 0, "values", 1), None, "'values' of 'sector' must be strings"),
    (("attributes", 0, "values", 1), ["a"], "'values' of 'sector' must be strings"),
    # the attributes and labels a schema declares
    (("attributes",), [], "schema declares no predictor attributes"),
    (("attributes", 1, "name"), "sector", "attribute names must be unique"),
    (("attributes", 2, "kind"), "ordinal", "attribute 'score': unknown kind 'ordinal'"),
    (("attributes", 1, "values"), ["band_1"],
     "nominal attribute 'band' must declare at least 2 values"),
    (("attributes", 1, "values", 1), "band_1", "nominal attribute 'band' repeats a value"),
    (("attributes", 2, "values"), ["a", "b"],
     "numeric attribute 'score' must not declare values"),
    (("class_attribute",), "sector", "class attribute 'sector' also appears as a predictor"),
    (("class_labels",), ["common"], "schema must declare at least 2 class labels"),
    (("class_labels", 1), "common", "class labels must be unique"),
    # spellings no CSV field can match: fields are read stripped of their
    # surrounding whitespace, and an empty field is a missing value
    (("attributes", 0, "name"), " sector", _unmatchable("attribute name", " sector")),
    (("attributes", 2, "name"), "score\t", _unmatchable("attribute name", "score\t")),
    (("class_attribute",), "group ", _unmatchable("class attribute", "group ")),
    (("class_labels", 1), " rare ", _unmatchable("class label", " rare ")),
    (("attributes", 0, "values", 0), " sector_a",
     _unmatchable("nominal attribute 'sector': value", " sector_a")),
    (("attributes", 0, "values", 1), "sector_b\n",
     _unmatchable("nominal attribute 'sector': value", "sector_b\n")),
    (("attributes", 0, "values", 2), "sector_c\u00a0",
     _unmatchable("nominal attribute 'sector': value", "sector_c\u00a0")),
    (("attributes", 0, "values", 3), "  ",
     _unmatchable("nominal attribute 'sector': value", "  ")),
    (("attributes", 1, "values", 3), "band_4 ",
     _unmatchable("nominal attribute 'band': value", "band_4 ")),
    (("attributes", 0, "values", 0), "", "nominal attribute 'sector' declares an empty "
     "value, but an empty field is a missing value"),
]

_MODEL_ROWS = [
    ("no-file", None, "cannot read model file: ..."),
    ("not-json", b"{not json", "model file is not valid JSON: ..."),
    ("random-bytes", _JUNK, "model file is not valid JSON: ..."),
    ("too-deep", b"[" * 100_000 + b"]" * 100_000, "model file is not valid JSON: ..."),
    ("not-an-object", b"[1, 2, 3]", "model must be a JSON object, got [1, 2, 3]"),
    # its sections
    (("format_version",), 2, "unsupported model format version 2; expected 1"),
    (("schema",), _DELETE, "model is missing key 'schema'"),
    (("numeric_ranges",), _DELETE, "model is missing key 'numeric_ranges'"),
    (("miner_config",), _DELETE, "model is missing key 'miner_config'"),
    (("rule_list",), _DELETE, "model is missing key 'rule_list'"),
    (("note",), "unknown key", "model has unknown key 'note'"),
    (("seed",), True, "model key 'seed' must be an integer, got True"),
    (("seed",), "abc", "model key 'seed' must be an integer, got 'abc'"),
    (("miner_config",), "abc", "model key 'miner_config' must be a JSON object, got 'abc'"),
    (("rule_list",), [], "model key 'rule_list' must be a JSON object, got []"),
    # numeric ranges: equal ends are what a constant training column gives,
    # reversed ends would scale every value to 0.0
    (("numeric_ranges", "score"), 5, "numeric range 'score' must be a list, got 5"),
    (("numeric_ranges", "score"), ["18", "70"],
     "numeric range 'score' must be a number, got '18'"),
    (("numeric_ranges", "score"), [False, True],
     "numeric range 'score' must be a number, got False"),
    (("numeric_ranges", "score"), [0, 10**400],  # no float holds it
     "numeric range 'score' must be a number, got 1" + "0" * 59 + "…"),
    (("numeric_ranges", "score"), [0.9, 0.1],
     "numeric range 'score' must be [low, high] with low <= high, got [0.9, 0.1]"),
    (("numeric_ranges", "score"), [0.5, 0.5], None),
    (("numeric_ranges", "bogus"), [0.0, 1.0],
     "numeric_ranges do not match the schema's numeric attributes"),
    (("numeric_ranges", "score"), _DELETE,
     "numeric_ranges do not match the schema's numeric attributes"),
    # the miner config, by the config file's rules
    (("miner_config", "pso", "swarm_size"), "abc", "malformed miner_config: config "
     "section 'pso' key 'swarm_size' must be an integer, got 'abc'"),
    (("miner_config", "seed"), -1, "malformed miner_config: seed must be >= 0"),
    (("miner_config", "seed"), 1.5,
     "malformed miner_config: config key 'seed' must be an integer, got 1.5"),
    (("miner_config", "lvq", "seed"), "abc", "malformed miner_config: config section "
     "'lvq' key 'seed' must be an integer, got 'abc'"),
    (("miner_config", "pso", "seed"), False, "malformed miner_config: config section "
     "'pso' key 'seed' must be an integer, got False"),
    # the rule list, a rule and a condition
    (("rule_list", "rules"), 5, "rule list key 'rules' must be a list, got 5"),
    (("rule_list", "default_class"), _DELETE, "rule list is missing key 'default_class'"),
    (("rule_list", "default_class"), 0.9,
     "rule list key 'default_class' must be an integer, got 0.9"),
    (("rule_list", "default_class"), "1",
     "rule list key 'default_class' must be an integer, got '1'"),
    (("rule_list", "default_class"), 5, "default class index 5 out of range"),
    (("rule_list", "default_class"), -1, "default class index -1 out of range"),
    (_RULE + ("antecedent",), _DELETE, "rule is missing key 'antecedent'"),
    (_RULE + ("note",), "unknown key", "rule has unknown key 'note'"),
    (_RULE + ("class_index",), True, "rule key 'class_index' must be an integer, got True"),
    (_RULE + ("class_index",), 1.7, "rule key 'class_index' must be an integer, got 1.7"),
    (_RULE + ("class_index",), "0", "rule key 'class_index' must be an integer, got '0'"),
    (_RULE + ("class_index",), "abc",
     "rule key 'class_index' must be an integer, got 'abc'"),
    (_RULE + ("provenance",), None, "rule key 'provenance' must be a JSON object, got None"),
    (_RULE + ("provenance",), "abc",
     "rule key 'provenance' must be a JSON object, got 'abc'"),
    (_RULE + ("provenance",), [1], "rule key 'provenance' must be a JSON object, got [1]"),
    (_RULE + ("antecedent",), [{"kind": "membership", "attribute": "score", "allowed": ["x"]}],
     "invalid rule in document: 'score' is not a nominal attribute"),
    (_RULE + ("antecedent",),
     [{"kind": "interval", "attribute": "sector", "lo": 0.1, "hi": 0.5}],
     "invalid rule in document: 'sector' is not a numeric attribute"),
    (_COND + ("attribute",), _DELETE, "membership condition is missing key 'attribute'"),
    (_COND + ("allowed",), 5, "membership condition key 'allowed' must be a list, got 5"),
    (_COND + ("note",), "unknown key", "membership condition has unknown key 'note'"),
    (_COND, {"kind": "interval", "attribute": "score", "lo": "0.5", "hi": 0.9},
     "interval condition key 'lo' must be a number, got '0.5'"),
    (_COND, {"kind": "interval", "attribute": "score", "lo": 0.9, "hi": 0.1},
     "invalid rule in document: interval for 'score' must satisfy 0 <= lo <= hi <= 1, "
     "got [0.9, 0.1]"),
] + [
    # a model's schema follows the schema file's rules
    (("schema", *edit), value, message) for edit, value, message in _SCHEMA_ROWS
    if not isinstance(edit, str)
]


def _integer_rule(path, value):
    where = "config" if len(path) == 1 else f"config section {path[0]!r}"
    return f"{where} key {path[-1]!r} must be an integer, got {value!r}"


_CONFIG_ROWS = [
    ("no-file", None, "cannot read config file: ..."),
    ("random-bytes", _JUNK, "config file is not valid JSON: ..."),
    ("not-an-object", b"[1, 2, 3]", "config must be a JSON object, got [1, 2, 3]"),
    (("support_fraction",), 0.2, "config has unknown key 'support_fraction'"),
    (("pso", "swarm"), 10, "config section 'pso' has unknown key 'swarm'"),
    (("pso",), [10], "config key 'pso' must be a JSON object, got [10]"),
    # an integral float is no JSON integer either
    (("lvq", "centroid_count"), 2.0, _integer_rule(("lvq", "centroid_count"), 2.0)),
    # values out of range
    (("support_factor",), 0.0, "support_factor must lie in (0, 1]"),
    (("support_factor",), 1.5, "support_factor must lie in (0, 1]"),
    (("min_confidence",), 0.0, "min_confidence must lie in (0, 1]"),
    (("min_confidence",), 1.01, "min_confidence must lie in (0, 1]"),
    (("max_attempts_per_class",), 0, "max_attempts_per_class must be >= 1"),
    (("min_represented",), -1, "min_represented must be >= 0"),
    (("lvq", "max_epochs"), 0, "max_epochs must be >= 1"),
    (("pso", "max_iterations"), 0, "max_iterations must be >= 1"),
    (("pso", "stagnation_limit"), 0, "stagnation_limit must be >= 1"),
] + [
    ((section, key), value, f"{key} must lie in [1, 100000]")
    for section, key in (("lvq", "centroid_count"), ("pso", "swarm_size"))
    for value in (0, 100_001, 10**20, 2**63)
] + [
    # every integer setting, the seeds aside, takes only a JSON integer
    (path, value, _integer_rule(path, value))
    for path in (("max_attempts_per_class",), ("min_represented",),
                 ("lvq", "centroid_count"), ("lvq", "max_epochs"), ("pso", "swarm_size"),
                 ("pso", "max_iterations"), ("pso", "stagnation_limit"))
    for value in (2.5, True, "abc")
] + [
    # mine draws every seed from --seed, whatever the file would set
    (path, value, "a config file cannot set 'seed': use --seed or RULEMINE_SEED")
    for path in (("seed",), ("lvq", "seed"), ("pso", "seed"))
    for value in (5, -1, 2.5, True, "abc")
] + [
    # the settings that became lvq and pso constants
    ((section, key), value, f"config section {section!r} has unknown key {key!r}")
    for section, values in RETIRED_DEFAULTS.items() for key, value in values.items()
]


def _table(rows):
    """A table's rows as pytest params, each named by its edit."""
    def name(edit, value):
        if isinstance(edit, str):
            return edit
        return "/".join(map(str, edit)) + "=" + (
            "deleted" if value is _DELETE else json.dumps(value)[:70])
    return [pytest.param(*row, id=name(*row[:2])) for row in rows]


def _edited(source, dest, edit, value):
    """Write ``dest`` as the JSON file ``source`` with one table edit, or
    as the raw body of a named row, and return its path."""
    if isinstance(edit, str):
        if value is not None:
            dest.write_bytes(value)
    else:
        doc = json.loads(source.read_text(encoding="utf-8"))
        dest.write_text(json.dumps(_mutated(doc, edit, value)), encoding="utf-8")
    return str(dest)


@pytest.mark.parametrize("edit, value, message", _table(_MODEL_ROWS))
def test_model_file(workdir, tmp_path, capsys, edit, value, message):
    model = _edited(workdir / "fmodel.json", tmp_path / "model.json", edit, value)
    argv = ["predict", "--model", model, "--input", str(workdir / "frag.csv")]
    if message is None:
        assert cli.main(argv) == cli.EXIT_OK
        assert capsys.readouterr().err.startswith("scored 200 rows, 0 ERROR")
    else:
        assert _run_to_error(argv, capsys, cli.EXIT_DATA, message) == ""


@pytest.mark.parametrize("edit, value, message", _table(_SCHEMA_ROWS))
def test_schema_file(workdir, tmp_path, capsys, edit, value, message):
    schema = _edited(workdir / "frag.schema.json", tmp_path / "schema.json", edit, value)
    argv = ["train", "--data", str(workdir / "frag.csv"), "--schema", schema,
            "--out", str(tmp_path / "m.json")]
    assert _run_to_error(argv, capsys, cli.EXIT_DATA, message) == ""
    assert set(os.listdir(tmp_path)) <= {"schema.json"}


@pytest.mark.parametrize("edit, value, message", _table(_CONFIG_ROWS))
def test_config_file(workdir, tmp_path, capsys, edit, value, message):
    config = _edited(workdir / "small.json", tmp_path / "config.json", edit, value)
    argv = ["train", "--data", str(workdir / "frag.csv"),
            "--schema", str(workdir / "frag.schema.json"), "--config", config,
            "--out", str(tmp_path / "m.json")]
    assert _run_to_error(argv, capsys, cli.EXIT_CONFIG, message) == ""
    assert set(os.listdir(tmp_path)) <= {"config.json"}


def _legacy_edits(doc, mining, form):
    """The edits that give the current model ``doc`` an older form: the
    LVQ network of its run, a top-level seed, the retired settings at their
    old values or junk ones, or a provenance on each rule, true, junk or empty."""
    logs = [mining["swarm_logs"][rule["iteration"] - 1] for rule in mining["rules"]]
    true = [{"emission_order": k, "support": log["support"], "confidence": log["confidence"]}
            for k, log in enumerate(logs, start=1)]

    def on_each_rule(provenances):
        return [(("rule_list", "rules", i, "provenance"), p) for i, p in enumerate(provenances)]

    network = {key: mining["network"][key] for key in ("allocation", "centroids")}
    forms = {
        "network": [(("network",), network)],
        "seed": [(("seed",), doc["miner_config"]["seed"])],
        "other-seed": [(("seed",), 12345)],
        "retired": [(("miner_config", section, key), value)
                    for section, values in RETIRED_DEFAULTS.items()
                    for key, value in values.items()],
        "retired-junk": [(("miner_config", section, key), "abc")
                         for section, values in RETIRED_DEFAULTS.items() for key in values],
        "provenance": on_each_rule(true),
        "provenance-junk": on_each_rule([{"emission_order": 99}] * len(logs)),
        "provenance-empty": on_each_rule([{}] * len(logs)),
    }
    forms["all"] = forms["network"] + forms["seed"] + forms["retired"] + forms["provenance"]
    return forms[form]


@pytest.mark.parametrize("form", ["network", "seed", "other-seed", "retired", "retired-junk",
                                  "provenance", "provenance-junk", "provenance-empty", "all"])
def test_legacy_model_form(workdir, tmp_path, capsys, form):
    # models written by older versions carry these, unread: each loads as the
    # current model and gives the same predict and evaluate --baseline bytes
    doc = json.loads((workdir / "fmodel.json").read_text(encoding="utf-8"))
    mining = json.loads((workdir / "fmodel.report.json").read_text(encoding="utf-8"))["mining"]
    assert len(doc["rule_list"]["rules"]) == len(mining["rules"]) >= 1
    for edit, value in _legacy_edits(doc, mining, form):
        doc = _mutated(doc, edit, value)
    (tmp_path / "old.json").write_text(json.dumps(doc, indent=2), encoding="utf-8")
    outputs = []
    for model in (str(workdir / "fmodel.json"), str(tmp_path / "old.json")):
        assert cli.main(["predict", "--model", model, "--input", str(workdir / "frag.csv")]) == 0
        assert cli.main(["evaluate", "--model", model, "--data", str(workdir / "frag.csv"),
                         "--baseline", "--out", str(tmp_path / "eval.json")]) == 0
        outputs.append((capsys.readouterr(), (tmp_path / "eval.json").read_bytes()))
    assert outputs[0] == outputs[1]
    assert load_model(tmp_path / "old.json") == load_model(workdir / "fmodel.json")


def test_malformed_model_is_one_error_line_in_a_subprocess(workdir, tmp_path):
    # the tables run in process, where an unhandled exception fails the row;
    # python -m rulemine.cli ends in one error line too, with no traceback
    doc = _mutated(json.loads((workdir / "fmodel.json").read_text(encoding="utf-8")), _COND,
                   {"kind": "interval", "attribute": "score", "lo": 0.9, "hi": 0.1})
    (tmp_path / "model.json").write_text(json.dumps(doc), encoding="utf-8")
    env = {**os.environ, "PYTHONPATH": str(Path(rulemine.__file__).parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "rulemine.cli", "predict", "--model", str(tmp_path / "model.json"),
         "--input", str(workdir / "frag.csv")],
        capture_output=True, encoding="utf-8", env=env, timeout=120,
    )
    assert proc.returncode == cli.EXIT_DATA
    assert proc.stdout == ""
    assert proc.stderr == ("error: invalid rule in document: interval for 'score' must "
                           "satisfy 0 <= lo <= hi <= 1, got [0.9, 0.1]\n")


def test_hash_seed_leaves_the_model_and_report(workdir, tmp_path):
    # no set or dict order that string hashing decides may reach a written byte
    env = {**os.environ, "PYTHONPATH": str(Path(rulemine.__file__).parents[1])}
    written = []
    for hash_seed in ("0", "1"):
        (tmp_path / hash_seed).mkdir()
        model = tmp_path / hash_seed / "model.json"
        subprocess.run(
            [sys.executable, "-m", "rulemine.cli", "train", "--data", str(workdir / "frag.csv"),
             "--schema", str(workdir / "frag.schema.json"), "--out", str(model),
             "--seed", "3"],
            capture_output=True, env={**env, "PYTHONHASHSEED": hash_seed}, timeout=120,
            check=True,
        )
        written.append((model.read_bytes(), model.with_suffix(".report.json").read_bytes()))
    assert written[0] == written[1]


# a mutation deletes a key (or list item) or sets it to one of these; no
# large numbers, so a mutated count cannot make a run slow or large
_FUZZ_VALUES = [_DELETE, -1, 0, 2.5, "x", [], {}, None, True]
_FUZZ_SETTINGS = settings(max_examples=150, derandomize=True, deadline=None, database=None)


def _paths(node, prefix=()):
    """The path of every key and list index in a JSON document, at any depth."""
    if isinstance(node, dict):
        children = node.items()
    elif isinstance(node, list):
        children = enumerate(node)
    else:
        return
    for key, child in children:
        yield prefix + (key,)
        yield from _paths(child, prefix + (key,))


@pytest.fixture(scope="module")
def fuzzdir(tmp_path_factory):
    """A 60-row dataset, its schema, the full small config and a model.

    The model has nominal and numeric conditions for the fuzz to reach: on
    synth seed 4 the small config mines only IF TRUE, which folds into the
    default and leaves no rule."""
    d = tmp_path_factory.mktemp("fuzz")
    assert _silent(["synth", "--rows", "60", "--seed", "5",
                    "--profile", "fragmented", "--out", str(d / "tiny")]) == 0
    # every settable key; the seeds come from --seed
    config = MinerConfig.from_dict(SMALL_CONFIG).to_dict()
    for section in (config, config["lvq"], config["pso"]):
        del section["seed"]
    (d / "config.json").write_text(json.dumps(config), encoding="utf-8")
    assert _silent(["train", "--data", str(d / "tiny.csv"),
                    "--schema", str(d / "tiny.schema.json"), "--out", str(d / "model.json"),
                    "--seed", "2", "--config", str(d / "config.json")]) == 0
    rules = json.loads((d / "model.json").read_text(encoding="utf-8"))["rule_list"]["rules"]
    assert {cond["kind"] for rule in rules for cond in rule["antecedent"]} == {
        "membership", "interval"}
    return d


class TestJsonFuzz:
    """A mutated model, config or schema document ends in an exit code and
    never in an exception."""

    def _mutate(self, data, path):
        doc = json.loads(path.read_text(encoding="utf-8"))
        key_path = data.draw(st.sampled_from(list(_paths(doc))), label="path")
        value = data.draw(st.sampled_from(_FUZZ_VALUES), label="value")
        mutated = path.with_name("mutated.json")
        mutated.write_text(json.dumps(_mutated(doc, key_path, value)), encoding="utf-8")
        return str(mutated)

    def _train(self, d, **files):
        files = {"schema": d / "tiny.schema.json", "config": d / "config.json", **files}
        return _silent(["train", "--data", str(d / "tiny.csv"),
                        "--schema", str(files["schema"]), "--config", str(files["config"]),
                        "--out", str(d / "out.json"), "--seed", "2"])

    @_FUZZ_SETTINGS
    @given(data=st.data())
    def test_model(self, fuzzdir, data):
        model = self._mutate(data, fuzzdir / "model.json")
        code = _silent(["predict", "--model", model, "--input", str(fuzzdir / "tiny.csv")])
        assert code in (cli.EXIT_OK, cli.EXIT_DATA)

    @_FUZZ_SETTINGS
    @given(data=st.data())
    def test_config(self, fuzzdir, data):
        code = self._train(fuzzdir, config=self._mutate(data, fuzzdir / "config.json"))
        assert code in (cli.EXIT_OK, cli.EXIT_DATA, cli.EXIT_CONFIG, cli.EXIT_NO_RULES)

    @_FUZZ_SETTINGS
    @given(data=st.data())
    def test_schema(self, fuzzdir, data):
        code = self._train(fuzzdir, schema=self._mutate(data, fuzzdir / "tiny.schema.json"))
        assert code in (cli.EXIT_OK, cli.EXIT_DATA, cli.EXIT_CONFIG, cli.EXIT_NO_RULES)


# what the CSV fuzz inserts: quoting and field syntax, line ends, a NUL,
# byte-order marks and a number no float holds
_CSV_TOKENS = ['"', ",", "\n", "\r", "\x00", "\ufeff", "9e999"]


@pytest.fixture(scope="module")
def csvfuzz(tmp_path_factory):
    """A credit3 model, loaded and on disk, and the text of a 60-row credit3
    file to mutate."""
    d = tmp_path_factory.mktemp("csvfuzz")
    assert _silent(["synth", "--rows", "200", "--seed", "3",
                    "--profile", "credit3", "--out", str(d / "credit")]) == 0
    (d / "small.json").write_text(json.dumps(SMALL_CONFIG), encoding="utf-8")
    assert _silent(["train", "--data", str(d / "credit.csv"),
                    "--schema", str(d / "credit.schema.json"), "--out", str(d / "model.json"),
                    "--seed", "3", "--config", str(d / "small.json")]) == 0
    lines = (d / "credit.csv").read_text(encoding="utf-8").splitlines(keepends=True)
    return d, load_model(d / "model.json"), "".join(lines[:61])


def _file_oracle(artifact, text):
    """predict's expected output records and exit code for a CSV text with a
    well-formed header: the records csv.reader gives, after one leading
    byte-order mark is dropped, each checked and scored on its own. A line
    csv.reader cannot read ends the output there, with exit code 1."""
    records = csv.reader(io.StringIO(text.removeprefix("\ufeff"), newline=""))
    header = next(records)
    positions, _ = read_header(header, artifact.schema, labels=False)
    expected = [["prediction", "fired_rule", "rule"]]
    try:
        for k, fields in enumerate(records, start=1):
            if fields:
                expected.append(_oracle_line(artifact, fields, len(header), positions, k))
    except csv.Error:
        return expected, cli.EXIT_DATA
    scored = any(line[0] != "ERROR" for line in expected[1:])
    return expected, cli.EXIT_OK if scored else cli.EXIT_DATA


class TestCsvFuzz:
    """A CSV file with quotes, commas, line ends, NULs, byte-order marks or
    an overflowing number inserted in its rows gives, at any chunk size, the
    predict output and exit code of reading each record and scoring it
    alone."""

    @_FUZZ_SETTINGS
    @given(data=st.data())
    def test_predict_matches_per_row_oracle(self, csvfuzz, data):
        d, artifact, text = csvfuzz
        body = text.index("\n") + 1  # the header line stays whole
        edits = data.draw(st.lists(
            st.tuples(st.integers(body, len(text)), st.sampled_from(_CSV_TOKENS)),
            min_size=1, max_size=8), label="edits")
        for position, token in sorted(edits, reverse=True):
            text = text[:position] + token + text[position:]
        if data.draw(st.booleans(), label="leading byte-order mark"):
            text = "\ufeff" + text
        chunk_rows = data.draw(st.sampled_from([1, 2, 3, 7, 4096]), label="chunk_rows")
        points = d / "mutated.csv"
        points.write_text(text, encoding="utf-8", newline="")
        out = io.StringIO()
        with mock.patch.object(rulemine.schema, "CHUNK_ROWS", chunk_rows), \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(["predict", "--model", str(d / "model.json"),
                             "--input", str(points)])
        expected, expected_code = _file_oracle(artifact, text)
        assert code == expected_code
        assert list(csv.reader(io.StringIO(out.getvalue(), newline=""))) == expected
