import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import rulemine
from conftest import build_encoded, move_away, move_toward
from rulemine import lvq
from rulemine.errors import ConfigError, DataError
from rulemine.lvq import (
    LvqConfig,
    _final_statistics,
    _place_centroids,
    _present,
    allocate_per_class,
    fit_network,
)
from rulemine.miner import MinerConfig, mine
from rulemine.schema import encode, stratified_split
from rulemine.synth import generate


def _uniform_data(schema, n, seed, classes=2):
    rng = np.random.default_rng(seed)
    X = rng.uniform(0, 1, (n, 2))
    y = rng.integers(0, classes, n)
    for c in range(classes):        # every class present
        y[c] = c
    return build_encoded(schema, X, y)


class TestConfig:
    def test_defaults(self):
        cfg = LvqConfig()
        assert cfg.centroid_count == 30
        assert lvq.REPULSION_RATIO == 1.2


class TestAllocation:
    def test_exact_proportional_split(self):
        assert allocate_per_class(np.array([600, 400]), 30) == {0: 18, 1: 12}

    def test_minimum_one_guarantee(self):
        alloc = allocate_per_class(np.array([990, 10]), 30)
        assert alloc == {0: 29, 1: 1}

    def test_k_below_class_count(self):
        with pytest.raises(ConfigError):
            allocate_per_class(np.array([1, 1, 1]), 2)

    def test_absent_class_gets_nothing(self):
        alloc = allocate_per_class(np.array([10, 0, 10]), 4)
        assert 1 not in alloc
        assert sum(alloc.values()) == 4

    def test_no_examples_at_all(self):
        with pytest.raises(DataError):
            allocate_per_class(np.array([0, 0]), 3)

    @given(
        st.lists(st.integers(min_value=1, max_value=500), min_size=1, max_size=6),
        st.integers(min_value=1, max_value=60),
    )
    @settings(max_examples=100, deadline=None)
    def test_sums_to_total_with_min_one(self, counts, extra):
        counts = np.array(counts)
        total = len(counts) + extra
        alloc = allocate_per_class(counts, total)
        assert sum(alloc.values()) == total
        assert all(v >= 1 for v in alloc.values())
        assert set(alloc) == set(range(len(counts)))


class TestInit:
    def test_positions_are_distinct_examples(self, numeric_schema):
        X = np.array([[0.1, 0.1], [0.3, 0.3], [0.5, 0.5], [0.7, 0.7], [0.9, 0.9]])
        data = build_encoded(numeric_schema, X, [0] * 5)
        cfg = LvqConfig(centroid_count=3)
        positions, _ = _place_centroids(data, cfg, np.random.default_rng(1))
        rows = {tuple(position) for position in positions}
        assert len(rows) == 3
        assert rows <= {tuple(r) for r in X}

    def test_small_class_allows_duplicates(self, numeric_schema):
        X = np.array([[0.1, 0.1], [0.9, 0.9], [0.2, 0.2], [0.3, 0.3], [0.4, 0.4]])
        y = [1, 1, 0, 0, 0]
        data = build_encoded(numeric_schema, X, y)
        # force class 1 (2 examples) to hold 3 centroids
        cfg = LvqConfig(centroid_count=6)
        _, class_indices = _place_centroids(data, cfg, np.random.default_rng(0))
        assert np.count_nonzero(class_indices == 1) >= 1

    def test_determinism(self, numeric_schema):
        data = _uniform_data(numeric_schema, 50, 4)
        cfg = LvqConfig(centroid_count=8)
        a, _ = _place_centroids(data, cfg, np.random.default_rng(11))
        b, _ = _place_centroids(data, cfg, np.random.default_rng(11))
        assert np.array_equal(a, b)

    def test_empty_data_rejected(self, numeric_schema):
        data = build_encoded(numeric_schema, np.zeros((0, 2)), [])
        with pytest.raises(DataError):
            fit_network(data, LvqConfig(centroid_count=2))


class TestMoveLaws:
    def test_attraction_formula(self):
        c = np.array([0.0, 0.0])
        x = np.array([1.0, 0.0])
        assert np.allclose(move_toward(c, x, 0.05), [0.05, 0.0])

    def test_degenerate_repulsion_is_noop(self):
        c = np.array([0.5, 0.5])
        assert np.array_equal(move_away(c, c.copy(), 0.3), c)

    def test_contraction_and_expansion_randomized(self):
        rng = np.random.default_rng(99)
        for _ in range(1000):
            d = int(rng.integers(1, 8))
            c = rng.uniform(0, 1, d)
            x = rng.uniform(0, 1, d)
            a = float(rng.uniform(0.001, 0.999))
            base = np.linalg.norm(c - x)
            assert abs(np.linalg.norm(move_toward(c, x, a) - x) - (1 - a) * base) < 1e-12
            assert abs(np.linalg.norm(move_away(c, x, a) - x) - (1 + a) * base) < 1e-12

    @given(
        p=st.floats(0.0, 1.0),
        x=st.floats(0.0, 1.0),
        rate=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    )
    @settings(max_examples=500, deadline=None)
    def test_attraction_stays_in_unit_interval(self, p, x, rate):
        position, example = np.array([p]), np.array([x])
        moved = move_toward(position, example, rate)
        assert 0.0 <= moved[0] <= 1.0
        # the step from the offset rounds as the step toward the example does
        assert moved.tobytes() == (position + rate * (example - position)).tobytes()
        away = move_away(position, example, rate)
        assert away.tobytes() == (position - rate * (example - position)).tobytes()


class TestTraining:
    def test_one_class_trace_never_increases(self, numeric_schema):
        rng = np.random.default_rng(0)
        X = rng.uniform(0, 1, (80, 2))
        data = build_encoded(numeric_schema, X, np.zeros(80, dtype=np.int64))
        net = fit_network(data, LvqConfig(centroid_count=4, seed=3))
        assert len(net.trace) >= 1
        for a, b in zip(net.trace, net.trace[1:]):
            assert b <= a + 1e-12

    def test_positions_stay_in_unit_cube(self, numeric_schema):
        data = _uniform_data(numeric_schema, 200, 8)
        net = fit_network(data, LvqConfig(centroid_count=10, seed=5))
        assert np.all(net.positions >= 0.0) and np.all(net.positions <= 1.0)

    def test_represented_counts_sum_to_train_size(self, numeric_schema):
        data = _uniform_data(numeric_schema, 137, 2)
        net = fit_network(data, LvqConfig(centroid_count=7, seed=1))
        assert net.represented_counts.sum() == 137

    def test_single_member_deviation_is_zero(self, numeric_schema):
        # three far-apart one-class examples, three centroids: a stable 1-1 map
        X = np.array([[0.05, 0.05], [0.5, 0.95], [0.95, 0.05]])
        data = build_encoded(numeric_schema, X, [0, 0, 0])
        net = fit_network(data, LvqConfig(centroid_count=3, seed=0))
        singles = net.represented_counts == 1
        assert np.count_nonzero(singles) == 3
        assert np.all(net.deviations[singles] == 0.0)

    def test_deviation_nonnegative(self, numeric_schema):
        data = _uniform_data(numeric_schema, 90, 12)
        net = fit_network(data, LvqConfig(centroid_count=4, seed=2))
        assert np.all(net.deviations >= 0.0)

    def test_bitwise_determinism(self, numeric_schema):
        data = _uniform_data(numeric_schema, 120, 6)
        cfg = LvqConfig(centroid_count=8, seed=21)
        a = fit_network(data, cfg)
        b = fit_network(data, cfg)
        assert np.array_equal(a.positions, b.positions)
        assert np.array_equal(a.deviations, b.deviations)
        assert np.array_equal(a.represented_counts, b.represented_counts)
        assert a.trace == b.trace

    def test_max_epochs_bounds_trace(self, numeric_schema, monkeypatch):
        monkeypatch.setattr(lvq, "STABILITY_THRESHOLD", 1e-30)
        data = _uniform_data(numeric_schema, 60, 3)
        cfg = LvqConfig(centroid_count=4, seed=0, max_epochs=5)
        net = fit_network(data, cfg)
        assert len(net.trace) <= 5

    @pytest.mark.parametrize(
        "max_epochs, threshold, stop",
        # seed 2 moves 0.0511-0.0588 in epochs 1-5 and 0.0352 in epoch 6;
        # its assignment first repeats in epoch 13
        [(5, 1e-30, "max_epochs"), (40, 1e-30, "repeated_assignment"), (40, 0.04, "stability")],
    )
    def test_churn_and_stop_reason(
        self, numeric_schema, monkeypatch, max_epochs, threshold, stop
    ):
        monkeypatch.setattr(lvq, "STABILITY_THRESHOLD", threshold)
        data = _uniform_data(numeric_schema, 60, 3)
        cfg = LvqConfig(centroid_count=4, seed=2, max_epochs=max_epochs)
        net = fit_network(data, cfg)
        assert net.stop_reason == stop
        assert len(net.churn) == len(net.trace) - 1
        # a zero churn before the last epoch would have stopped training there
        assert all(0.0 < share <= 1.0 for share in net.churn[:-1])
        assert (net.churn[-1] == 0.0) == (stop == "repeated_assignment")

    def test_stability_stop_fires_at_the_default_threshold(self):
        # the separable profile as mine fits it on a 20-epoch schedule: the
        # last epoch's movement (8.79e-5) is the first below the default
        # threshold of 1e-4
        data = encode(generate("separable", rows=2000, seed=1).to_raw())
        train_part, _ = stratified_split(data, 0.3, 1)
        config = MinerConfig(seed=1, lvq=LvqConfig(max_epochs=20))
        network = mine(train_part, config)[1].network
        assert lvq.STABILITY_THRESHOLD == 1e-4
        assert network.stop_reason == "stability"
        assert len(network.trace) == 20
        assert network.trace[-1] < 1e-4 <= min(network.trace[:-1])

    def test_final_assignment_uses_the_direct_difference(self, numeric_schema):
        # a near-tie below the rounding error of |x|^2 - 2x.c + |c|^2: the
        # row is nearer centroid 0, which the expanded form cannot resolve
        X = np.array([[0.7, 0.9]])
        positions = np.array([[0.7 + 3e-9, 0.9], [0.7 - 4e-9, 0.9]])
        expanded = (
            np.einsum("nd,nd->n", X, X)[:, None]
            - 2.0 * X @ positions.T
            + np.einsum("kd,kd->k", positions, positions)[None, :]
        )
        assert int(expanded.argmin()) == 1
        represented_counts, _ = _final_statistics(positions, build_encoded(numeric_schema, X, [0]))
        assert represented_counts.tolist() == [1, 0]

    def test_train_does_not_grow_network(self, numeric_schema):
        data = _uniform_data(numeric_schema, 40, 9)
        trained = fit_network(data, LvqConfig(centroid_count=6, seed=7))
        assert len(trained.positions) == 6
        assert len(trained.class_indices) == 6

    def test_tie_takes_lower_index(self, numeric_schema):
        # two coincident centroids of the example's class: the lower index
        # wins and moves; the runner-up shares the class, so it stays put
        start = np.array([[0.5, 0.5], [0.5, 0.5], [0.0, 1.0]])
        positions = start.copy()
        data = build_encoded(numeric_schema, np.array([[0.9, 0.1]]), [0])
        cfg = LvqConfig(centroid_count=3, max_epochs=1)
        _present(positions, np.array([0, 0, 1]), data, cfg)
        moved = np.any(positions != start, axis=1)
        assert moved.tolist() == [True, False, False]
        represented_counts, _ = _final_statistics(positions, data)
        assert represented_counts.tolist() == [1, 0, 0]

    def test_blas_thread_count_leaves_the_positions(self):
        # same seed, same bytes: a float matmul in training would let the
        # BLAS thread count reach the centroids
        script = (
            "import sys\n"
            "from rulemine import LvqConfig, encode, fit_network, generate, stratified_split\n"
            "data = encode(generate('credit3', rows=3000, seed=1).to_raw())\n"
            "train, _ = stratified_split(data, 0.3, 1)\n"
            "sys.stdout.write(fit_network(train, LvqConfig(seed=1)).positions.tobytes().hex())\n"
        )
        env = {**os.environ, "PYTHONPATH": str(Path(rulemine.__file__).parents[1])}
        outputs = [
            subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                           env={**env, "OPENBLAS_NUM_THREADS": threads}, timeout=120,
                           check=True).stdout
            for threads in ("1", "2")
        ]
        assert outputs[0] == outputs[1] != ""

    def test_fitted_network_is_frozen(self, numeric_schema):
        net = fit_network(_uniform_data(numeric_schema, 40, 9), LvqConfig(centroid_count=4))
        with pytest.raises(dataclasses.FrozenInstanceError):
            net.positions = np.zeros_like(net.positions)
        with pytest.raises(dataclasses.FrozenInstanceError):
            net.stop_reason = "max_epochs"
