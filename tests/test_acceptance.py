"""End-to-end acceptance checks for the whole package.

Each criterion prints one visible PASS/FAIL line (bypassing pytest's
capture) with the measured numbers, then asserts the same condition, so a
plain ``pytest -v`` run shows the scorecard inline.
"""

import json
import time

import numpy as np
from conftest import brute_force_counts, move_away, move_toward, random_mixed_dataset

from rulemine import cli
from rulemine.evaluation import (
    ConfusionMatrix,
    accuracy_from_matrix,
    evaluate,
    mine_greedy_baseline,
    type_i_error_from_matrix,
)
from rulemine.lvq import LvqConfig, fit_network
from rulemine.miner import MinerConfig, mine
from rulemine.pso import PsoConfig, binarize, sigmoid
from rulemine.rules import classify_dataset
from rulemine.schema import encode, stratified_split
from rulemine.synth import generate

# (matrix cells, expected accuracy %, expected type I error)
REFERENCE_MATRICES = [
    ([[1422.60, 244.18], [181.61, 398.61]], 81.05, 0.11),
    ([[1407.15, 238.58], [197.04, 404.23]], 80.61, 0.11),
    ([[1450.26, 314.73], [152.75, 329.26]], 79.20, 0.14),
]


def report_line(capsys, ok: bool, text: str) -> None:
    with capsys.disabled():
        print(("PASS " if ok else "FAIL ") + text, flush=True)
    assert ok, text


def test_criterion_1_metric_oracle(capsys):
    worst_acc = worst_t1 = 0.0
    for cells, want_acc, want_t1 in REFERENCE_MATRICES:
        matrix = ConfusionMatrix(np.array(cells), labels=("first", "second"))
        acc = accuracy_from_matrix(matrix) * 100.0
        t1 = type_i_error_from_matrix(matrix, positive_class=1)
        worst_acc = max(worst_acc, abs(acc - want_acc))
        worst_t1 = max(worst_t1, abs(t1 - want_t1))
    ok = worst_acc <= 0.01 and worst_t1 <= 0.005
    report_line(
        capsys,
        ok,
        "criterion 1: reference confusion matrices reproduce accuracy within "
        f"±0.01 (max dev {worst_acc:.4f}) and type I error within ±0.005 "
        f"(max dev {worst_t1:.5f})",
    )


def test_criterion_2_rule_parsimony(capsys):
    t0 = time.time()
    miner_rules, miner_accs, base_rules, base_accs = [], [], [], []
    for seed in (1, 2, 3, 4, 5):
        data = encode(generate("fragmented", 2000, seed).to_raw())
        train, test = stratified_split(data, 0.3, seed)
        rules, _ = mine(train, MinerConfig(seed=seed, min_confidence=0.9))
        miner_rules.append(len(rules.rules))
        miner_accs.append(evaluate(rules, test).accuracy * 100.0)
        baseline = mine_greedy_baseline(train, min_confidence=0.9)
        base_rules.append(len(baseline.rules))
        base_accs.append(evaluate(baseline, test).accuracy * 100.0)
    elapsed = time.time() - t0
    mr, br = float(np.mean(miner_rules)), float(np.mean(base_rules))
    ma, ba = float(np.mean(miner_accs)), float(np.mean(base_accs))
    ok = mr < br and ma >= ba - 5.0 and elapsed < 120.0
    report_line(
        capsys,
        ok,
        f"criterion 2: fragmented profile — mean rules {mr:.2f} (miner) vs "
        f"{br:.2f} (baseline), mean accuracy {ma:.2f}% vs {ba:.2f}%, "
        f"{elapsed:.0f}s total",
    )


def test_criterion_3_recovery(capsys):
    accs, counts, lengths, per_seed = [], [], [], []
    for seed in (1, 2, 3, 4, 5):
        t0 = time.time()
        data = encode(generate("credit3", 5000, seed).to_raw())
        train, test = stratified_split(data, 0.3, seed)
        config = MinerConfig(
            seed=seed,
            support_factor=0.45,
            min_confidence=0.85,
            max_attempts_per_class=3,
            pso=PsoConfig(swarm_size=60, max_iterations=400, stagnation_limit=60),
        )
        rules, _ = mine(train, config)
        accs.append(evaluate(rules, test).accuracy * 100.0)
        counts.append(len(rules.rules))
        lengths.extend(len(rule) for rule in rules.rules)
        per_seed.append(time.time() - t0)
    acc, n_rules = float(np.mean(accs)), float(np.mean(counts))
    ant = float(np.mean(lengths))
    ok = acc >= 90.0 and n_rules <= 6.0 and ant <= 4.0 and max(per_seed) < 60.0
    report_line(
        capsys,
        ok,
        f"criterion 3: credit3 recovery — mean accuracy {acc:.2f}%, mean rules "
        f"{n_rules:.2f}, mean antecedent length {ant:.2f}, "
        f"{max(per_seed):.1f}s max per seed",
    )


def test_criterion_4_separable_toy(capsys):
    t0 = time.time()
    data = encode(generate("separable", 200, 7).to_raw())
    rules, _ = mine(data, MinerConfig(seed=7))
    train_acc = evaluate(rules, data).accuracy * 100.0
    elapsed = time.time() - t0
    ok = len(rules.rules) <= 2 and train_acc == 100.0 and elapsed < 5.0
    report_line(
        capsys,
        ok,
        f"criterion 4: separable toy — {len(rules.rules)} rules, training "
        f"accuracy {train_acc:.2f}%, {elapsed:.2f}s",
    )


def test_criterion_5_centroid_geometry(capsys):
    rng = np.random.default_rng(501)
    worst = 0.0
    for _ in range(10_000):
        dim = int(rng.integers(1, 7))
        c = rng.uniform(0, 1, dim)
        x = rng.uniform(0, 1, dim)
        alpha = float(rng.uniform(0.001, 0.999))
        toward = x - move_toward(c, x, alpha)
        away = x - move_away(c, x, alpha)
        worst = max(
            worst,
            float(np.max(np.abs(toward - (1 - alpha) * (x - c)))),
            float(np.max(np.abs(away - (1 + alpha) * (x - c)))),
        )
    laws_ok = worst <= 1e-12

    clamp_ok = True
    data_rng = np.random.default_rng(77)
    for i in range(5):
        data = random_mixed_dataset(data_rng)
        network = fit_network(data, LvqConfig(centroid_count=8, max_epochs=20, seed=i))
        positions = network.positions
        clamp_ok = clamp_ok and bool((positions >= 0.0).all() and (positions <= 1.0).all())

    ok = laws_ok and clamp_ok
    report_line(
        capsys,
        ok,
        "criterion 5: centroid move laws hold to 1e-12 over 10000 triples "
        f"(max dev {worst:.2e}); all centroids stay inside the unit cube",
    )


def test_criterion_6_binarization_statistics(capsys):
    rng = np.random.default_rng(606)
    draws = 100_000
    worst_sigmas = 0.0
    for v in (-4.0, -1.0, 0.0, 1.0, 4.0):
        bits = binarize(np.full(draws, v), rng.random(draws))
        p = float(sigmoid(np.array([v]))[0])
        sigma = (p * (1 - p) / draws) ** 0.5
        worst_sigmas = max(worst_sigmas, abs(float(bits.mean()) - p) / sigma)
    ok = worst_sigmas <= 3.0
    report_line(
        capsys,
        ok,
        "criterion 6: bit activation frequency within 3 binomial sigma of "
        f"sigmoid(v) for v in {{-4,-1,0,1,4}} at {draws} draws "
        f"(worst {worst_sigmas:.2f} sigma)",
    )


def test_criterion_7_coverage_accounting(capsys, criterion_7_runs):
    rules_checked = 0
    ok = True
    for data, _, rule_list, report in criterion_7_runs:
        covered = np.count_nonzero(report.covered_by > 0)
        ok = ok and covered + sum(report.uncovered_residue.values()) == len(data)
        # mining covers a row with the rule first-match scoring fires on it
        ok = ok and np.array_equal(report.covered_by, classify_dataset(rule_list, data)[1])
        emitted = [log for log in report.swarm_logs if log.outcome == "emitted"]
        ok = ok and [log.candidate for log in emitted] == list(rule_list.rules)
        for k, log in enumerate(emitted, start=1):
            sub = data.subset(report.uncovered_before(k))
            matched, correct = brute_force_counts(log.candidate, sub)
            ok = ok and (matched and correct / matched) == log.confidence
            ok = ok and correct / len(sub) == log.support
            rules_checked += 1
        if not ok:
            break
    report_line(
        capsys,
        ok,
        "criterion 7: coverage identities and recorded support/confidence "
        f"re-verify on 100 random datasets ({rules_checked} rules checked)",
    )


def test_criterion_8_determinism(capsys, tmp_path):
    assert cli.main(["synth", "--rows", "200", "--seed", "4",
                     "--profile", "fragmented", "--out", str(tmp_path / "d")]) == 0
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({
        "max_attempts_per_class": 2,
        "lvq": {"centroid_count": 6, "max_epochs": 15},
        "pso": {"swarm_size": 10, "max_iterations": 25, "stagnation_limit": 10},
    }), encoding="utf-8")
    base = ["train", "--data", str(tmp_path / "d.csv"),
            "--schema", str(tmp_path / "d.schema.json"),
            "--config", str(config_path), "--seed", "2"]
    assert cli.main(base + ["--out", str(tmp_path / "m1.json")]) == 0
    assert cli.main(base + ["--out", str(tmp_path / "m2.json")]) == 0
    identical = (tmp_path / "m1.json").read_bytes() == (tmp_path / "m2.json").read_bytes()

    report = json.loads((tmp_path / "m1.report.json").read_text(encoding="utf-8"))
    logs = report["mining"]["swarm_logs"]
    monotone = len(logs) > 0 and all(
        all(a <= b for a, b in zip(log["best_fitness_trace"],
                                   log["best_fitness_trace"][1:]))
        for log in logs
    )
    ok = identical and monotone
    report_line(
        capsys,
        ok,
        "criterion 8: fixed-seed training writes byte-identical models; all "
        f"{len(logs)} logged gbest traces are monotone non-decreasing",
    )
