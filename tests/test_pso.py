import numpy as np
import pytest

from conftest import brute_force_counts, build_encoded, fitness_from_rule
from rulemine import pso
from rulemine.errors import DataError
from rulemine.lvq import LvqConfig, LvqNetwork, fit_network
from rulemine.miner import MinerConfig, mine
from rulemine.pso import (
    PsoConfig,
    binarize,
    count_matches,
    decode_state,
    evolve,
    fitness,
    one_condition_rules,
    pack_rows,
    seed_swarm,
    sigmoid,
    step,
)
from rulemine.rules import (
    NominalMembership,
    NumericInterval,
    Rule,
    validate_rule,
)
from rulemine.schema import Attribute, AttributeSchema, encode
from rulemine.synth import generate

# 10-digit reference values for the logistic squash
SIGMOID_TABLE = {
    -4.0: 0.0179862100,
    -1.0: 0.2689414214,
    0.0: 0.5,
    1.0: 0.7310585786,
    4.0: 0.9820137900,
}


def _credit_data(credit_schema, n=40, seed=0):
    rng = np.random.default_rng(seed)
    marital = rng.integers(0, 3, n)
    X = np.zeros((n, 5))
    X[np.arange(n), marital] = 1.0
    X[:, 3] = rng.uniform(0, 1, n)
    X[:, 4] = rng.uniform(0, 1, n)
    y = (X[:, 3] > 0.5).astype(np.int64)
    y[:2] = [0, 1]
    return build_encoded(credit_schema, X, y)


class TestSigmoid:
    def test_reference_values(self):
        for v, expected in SIGMOID_TABLE.items():
            assert sigmoid(np.array([v]))[0] == pytest.approx(expected, abs=1e-9)

    def test_extreme_arguments_stay_finite(self):
        out = sigmoid(np.array([-1000.0, 1000.0]))
        assert np.all(np.isfinite(out))
        assert out[0] == pytest.approx(0.0, abs=1e-12)
        assert out[1] == pytest.approx(1.0, abs=1e-12)

    def test_symmetry(self):
        v = np.linspace(-6, 6, 25)
        assert np.allclose(sigmoid(v) + sigmoid(-v), 1.0, atol=1e-12)

    def test_monotone(self):
        v = np.linspace(-8, 8, 100)
        out = sigmoid(v)
        assert np.all(np.diff(out) > 0)

    def test_equals_the_two_branch_formula_bit_for_bit(self):
        # 1 / (1 + e^-v) for v >= 0 and e^v / (1 + e^v) below, each branch
        # on its own rows: the swarm's bits, and so every model, depend on
        # these exact values
        edges = [0.0, 5e-324, 1e-17, 4.0, 745.0, 1000.0]
        v = np.concatenate([edges, np.negative(edges),
                            np.random.default_rng(0).uniform(-4, 4, 10_000)])
        expected = np.empty_like(v)
        pos = v >= 0
        expected[pos] = 1.0 / (1.0 + np.exp(-v[pos]))
        ev = np.exp(v[~pos])
        expected[~pos] = ev / (1.0 + ev)
        assert np.array_equal(sigmoid(v).view(np.uint64), expected.view(np.uint64))


class TestBinarize:
    def test_bit_frequency_tracks_sigmoid(self):
        # 3-sigma band around the expected rate, per accumulator value
        rng = np.random.default_rng(123)
        n = 20_000
        for v, p in SIGMOID_TABLE.items():
            bits = binarize(np.full(n, v), rng.random(n))
            sd = np.sqrt(p * (1 - p) / n)
            assert abs(bits.mean() - p) < 3 * sd

    def test_output_is_binary_float(self):
        rng = np.random.default_rng(0)
        bits = binarize(np.linspace(-4, 4, 50), rng.random(50))
        assert bits.dtype == np.float64
        assert set(np.unique(bits)) <= {0.0, 1.0}


class TestDecode:
    def test_all_zero_bits_gives_empty_antecedent(self, credit_schema):
        data = _credit_data(credit_schema)
        rule = decode_state(np.zeros(5), np.zeros((2, 2)), data.layout, 1)
        assert rule.antecedent == ()
        assert rule.class_index == 1

    def test_full_value_set_is_dropped(self, credit_schema):
        # selecting every value of a nominal attribute constrains nothing
        data = _credit_data(credit_schema)
        position = np.array([1.0, 1.0, 1.0, 0.0, 0.0])
        rule = decode_state(position, np.zeros((2, 2)), data.layout, 0)
        assert rule.antecedent == ()

    def test_partial_value_set_becomes_membership(self, credit_schema):
        data = _credit_data(credit_schema)
        position = np.array([0.0, 1.0, 1.0, 0.0, 0.0])
        rule = decode_state(position, np.zeros((2, 2)), data.layout, 0)
        assert rule.antecedent == (
            NominalMembership("marital_status", frozenset({"married", "divorced"})),
        )

    def test_numeric_bit_reads_gene_interval(self, credit_schema):
        data = _credit_data(credit_schema)
        genes = np.array([[0.2, 0.8], [0.0, 1.0]])
        salary_row = data.layout.numeric_names.index("salary")
        assert salary_row == 0
        position = np.zeros(5)
        position[data.layout.numeric["salary"]] = 1.0
        rule = decode_state(position, genes, data.layout, 1)
        assert rule.antecedent == (NumericInterval("salary", 0.2, 0.8),)

    def test_random_states_always_decode_valid(self, credit_schema):
        data = _credit_data(credit_schema)
        rng = np.random.default_rng(7)
        for _ in range(200):
            position = (rng.random(5) < 0.5).astype(float)
            genes = np.sort(rng.random((2, 2)), axis=1)
            rule = decode_state(position, genes, data.layout, int(rng.integers(0, 2)))
            validate_rule(rule, credit_schema)


class TestFitness:
    def _ten_row_data(self):
        # 8 predictor attributes so the shortness term has a coarse scale
        schema = AttributeSchema(
            attributes=tuple(Attribute(f"a{i}", "numeric") for i in range(8)),
            class_attribute="cls",
            class_labels=("no", "yes"),
        )
        X = np.full((10, 8), 0.9)
        X[:4, 0] = 0.1  # rows 0-3 match a0 <= 0.5
        X[:4, 1] = 0.1  # ... and a1 <= 0.5
        y = np.zeros(10, dtype=np.int64)
        y[[0, 1, 2]] = 1  # 3 of the 4 matched rows are positive
        return schema, build_encoded(schema, X, y)

    def test_hand_computed_weighted_sum(self):
        schema, data = self._ten_row_data()
        rule = Rule(
            antecedent=(
                NumericInterval("a0", 0.0, 0.5),
                NumericInterval("a1", 0.0, 0.5),
            ),
            class_index=1,
        )
        # confidence (3 + 0.1 * 3/10) / (4 + 0.1), the m-estimate of 3 of 4
        # matched rows at the class's 3/10 share with m = 0.01 * 10 rows;
        # support 3/10, shortness 1 - 2/8
        expected = 0.6 * (3.03 / 4.1) + 0.3 * 0.3 + 0.1 * 0.75
        got = fitness_from_rule(rule, data)
        assert got == pytest.approx(expected, abs=1e-12)

    def test_empty_antecedent_on_pure_class_is_one(self, numeric_schema):
        X = np.random.default_rng(1).uniform(0, 1, (20, 2))
        data = build_encoded(numeric_schema, X, np.ones(20, dtype=np.int64))
        rule = Rule(antecedent=(), class_index=1)
        assert fitness_from_rule(rule, data) == pytest.approx(1.0, abs=1e-12)

    def test_match_nothing_scores_the_class_share_and_shortness(self, numeric_schema):
        # no matched row leaves the m-estimate at the class's share, 3/10
        X = np.full((10, 2), 0.5)
        data = build_encoded(numeric_schema, X, [0] * 7 + [1] * 3)
        rule = Rule(antecedent=(NumericInterval("x", 0.9, 1.0),), class_index=1)
        assert fitness_from_rule(rule, data) == pytest.approx(
            pso.WEIGHT_CONFIDENCE * 0.3 + pso.WEIGHT_LENGTH * (1 - 1 / 2), abs=1e-12
        )

    def test_matches_support_confidence_recomputation(self, credit_schema):
        data = _credit_data(credit_schema, n=60, seed=3)
        rng = np.random.default_rng(5)
        for _ in range(50):
            position = (rng.random(5) < 0.5).astype(float)
            genes = np.sort(rng.random((2, 2)), axis=1)
            rule = decode_state(position, genes, data.layout, 1)
            direct = fitness_from_rule(rule, data)
            matched, correct = brute_force_counts(rule, data)
            class_rows = np.count_nonzero(data.y == 1)
            support = correct / len(data)
            confidence = (correct + pso.M_ESTIMATE_SHARE * class_rows) / (
                matched + pso.M_ESTIMATE_SHARE * len(data))
            recomputed = (
                pso.WEIGHT_CONFIDENCE * confidence
                + pso.WEIGHT_SUPPORT * support
                + pso.WEIGHT_LENGTH
                * (1 - len(rule.antecedent) / len(credit_schema.attributes))
            )
            assert direct == recomputed  # identical arithmetic, not just close
            assert 0.0 <= direct <= 1.0


NINE = Attribute("nine", "nominal", tuple(f"n{i}" for i in range(9)))
SEVENTEEN = Attribute("seventeen", "nominal", tuple(f"s{i}" for i in range(17)))
U, V = Attribute("u", "numeric"), Attribute("v", "numeric")
GRID = (0.0, 0.25, 0.5, 0.75, 1.0)
PACKED_SCHEMAS = {
    "mixed": (NINE, U, SEVENTEEN, V),
    "nominal_only": (NINE, SEVENTEEN),
    "numeric_only": (U, V),
    "small": (Attribute("three", "nominal", ("r", "g", "b")), U,
              Attribute("two", "nominal", ("p", "q")), V),
}


def _packed_data(kind, n, seed):
    """n rows over nominal attributes of 3 and 2 values, or of 9 and 17 so
    that a nominal block is wider than one byte, and numeric values on a grid,
    so that many rows tie on an interval end. No row takes the last value of
    a nominal attribute of more than two values."""
    schema = AttributeSchema(PACKED_SCHEMAS[kind], "cls", ("a", "b", "c"))
    rng = np.random.default_rng(seed)
    blocks = []
    for attr in schema.attributes:
        if attr.kind == "nominal":
            block = np.zeros((n, len(attr.values)))
            block[np.arange(n), rng.integers(0, max(2, len(attr.values) - 1), n)] = 1.0
        else:
            block = rng.choice(GRID, (n, 1))
        blocks.append(block)
    return build_encoded(schema, np.hstack(blocks), rng.integers(0, 3, n))


class TestPackedKernel:
    """``count_matches`` decodes raw particle states and counts on packed row
    bits, and ``fitness`` scores a swarm from those counts in one pass: the
    condition counts must equal the lengths of the ``decode_state`` rules, the
    matched and correct counts the brute-force double loop, and ``fitness``
    ``fitness_from_rule`` byte for byte, at word edges, across narrow and wide
    nominal blocks and on ties."""

    def _check(self, position, genes, data):
        layout = data.layout
        rules = [decode_state(p, g, layout, 0) for p, g in zip(position, genes)]
        rows = pack_rows(data)
        for class_index in range(3):
            conditions, matched, correct = count_matches(
                rows, position, genes, class_index)
            assert conditions.tolist() == [len(r) for r in rules]
            expected = [brute_force_counts(Rule(r.antecedent, class_index), data)
                        for r in rules]
            assert list(zip(matched.tolist(), correct.tolist())) == expected
            got = fitness(position, genes, class_index, rows)
            want = np.array([fitness_from_rule(Rule(r.antecedent, class_index), data)
                             for r in rules])
            assert got.tobytes() == want.tobytes()
        return rules

    @staticmethod
    def _states(rng, data, S, density):
        """S states with bits set at ``density``, and intervals that end on
        grid values (every row value) or between, and in particle 2 on a tie
        (lo == hi)."""
        position = (rng.random((S, data.dimension)) < density).astype(float)
        shape = (S, data.layout.numeric_columns.size, 2)
        genes = np.sort(np.where(rng.random(shape) < 0.7, rng.choice(GRID, shape),
                                 rng.random(shape)), axis=2)
        genes[2:3, :, 1] = genes[2:3, :, 0]
        return position, genes

    @pytest.mark.parametrize("n", [1, 63, 64, 65, 129])
    @pytest.mark.parametrize("kind", sorted(PACKED_SCHEMAS))
    def test_word_edges(self, kind, n):
        data = _packed_data(kind, n, seed=n)
        rng = np.random.default_rng(n + 1)
        for density in (0.2, 0.5, 0.8):
            self._check(*self._states(rng, data, 24, density), data)

    @pytest.mark.parametrize("swarm_size", [1, 2, 40])
    @pytest.mark.parametrize("kind", sorted(PACKED_SCHEMAS))
    def test_swarm_sizes_and_weights(self, kind, swarm_size, monkeypatch):
        # weights and an m share other than the defaults, which fitness and the
        # oracle both read
        for name, weight in [("CONFIDENCE", 0.5), ("SUPPORT", 0.2), ("LENGTH", 0.3)]:
            monkeypatch.setattr(pso, f"WEIGHT_{name}", weight)
        monkeypatch.setattr(pso, "M_ESTIMATE_SHARE", 0.3)
        data = _packed_data(kind, 70, seed=swarm_size)
        rng = np.random.default_rng(swarm_size + 1)
        for density in (0.2, 0.5, 0.8):
            self._check(*self._states(rng, data, swarm_size, density), data)

    @pytest.mark.parametrize("n", [1, 63, 64, 65, 129, "encoded"])
    def test_packed_layout(self, n):
        data = _credit3_sample(130, 1) if n == "encoded" else _packed_data("mixed", n, seed=n)
        n = len(data)
        rows = pack_rows(data)
        words = -(-n // 64)
        padding = [0] * (64 * words - n)
        def unpack(bits):
            return np.unpackbits(bits.view(np.uint8), bitorder="little").tolist()
        assert rows.every.shape == (words,)
        assert unpack(rows.every) == [1] * n + padding
        for c in range(len(data.schema.class_labels)):
            assert unpack(rows.classes[c]) == (data.y == c).tolist() + padding
        assert rows.values.shape == (data.dimension, words)
        for cols in data.layout.blocks:
            for j in cols:
                assert unpack(rows.values[j]) == (data.X[:, j] == 1.0).tolist() + padding

    @pytest.mark.parametrize("kind", sorted(PACKED_SCHEMAS))
    def test_all_zero_and_all_one_states(self, kind):
        # particles 0 and 2 set no bit, 1 and 3 every bit; 0 and 1 take the
        # whole unit interval, so both match every row
        data = _packed_data(kind, 65, seed=4)
        position, genes = self._states(np.random.default_rng(4), data, 4, 0.5)
        position[:] = [[0.0], [1.0], [0.0], [1.0]]
        genes[:2] = [0.0, 1.0]
        rules = self._check(position, genes, data)
        numeric = len(data.schema.numeric_attributes)
        assert [len(rule) for rule in rules] == [0, numeric, 0, numeric]
        assert [brute_force_counts(rule, data)[0] for rule in rules[:2]] == [65, 65]

    @pytest.mark.parametrize("n", [1, 64, 129])
    @pytest.mark.parametrize("kind", sorted(PACKED_SCHEMAS))
    def test_empty_match(self, kind, n):
        data = _packed_data(kind, n, seed=5)
        layout = data.layout
        position = np.zeros((2, data.dimension))
        genes = np.tile([0.0, 1.0], (2, layout.numeric_columns.size, 1))
        if kind == "numeric_only":
            position[:, layout.numeric["u"]] = 1.0
            genes[0, 0] = [0.1, 0.2]  # between grid values
            genes[1, 0] = [0.3, 0.3]
        else:
            # last values, which no row takes: in the widest block past its first byte
            position[0, layout.blocks[0].stop - 1] = 1.0
            position[1, max(layout.blocks, key=len).stop - 1] = 1.0
        rules = self._check(position, genes, data)
        assert [brute_force_counts(rule, data) for rule in rules] == [(0, 0), (0, 0)]
        # the m-estimate of no matched row is the class's share of the rows
        m = pso.M_ESTIMATE_SHARE
        for c in range(3):
            expected = (pso.WEIGHT_CONFIDENCE * (m * np.count_nonzero(data.y == c) / (m * n))
                        + pso.WEIGHT_SUPPORT * 0.0
                        + pso.WEIGHT_LENGTH * (1 - 1 / len(data.schema.attributes)))
            assert fitness(position, genes, c, pack_rows(data)).tolist() == [expected] * 2

    def test_empty_dataset_rejected(self, numeric_schema):
        data = build_encoded(numeric_schema, np.zeros((0, 2)), [])
        with pytest.raises(DataError):
            fitness(np.ones((2, 2)), np.zeros((2, 2, 2)), 0, pack_rows(data))


def _network(positions, deviations, represented, class_indices):
    return LvqNetwork(
        positions=np.array(positions, dtype=np.float64),
        class_indices=np.array(class_indices, dtype=np.int64),
        represented_counts=np.array(represented, dtype=np.int64),
        deviations=np.array(deviations, dtype=np.float64),
        trace=[0.0],
        churn=[],
        stop_reason="stability",
    )


def _hand_network(position, numeric_deviation, represented=5, class_index=0):
    # deviation spans every encoded column; only the last two (salary, age)
    # matter for the credit layout's numeric seeding
    deviation = np.zeros(len(position))
    deviation[3:] = numeric_deviation
    return _network([position], [deviation], [represented], [class_index])


class TestSeeding:
    # two particles: particle 0 is seeded from the centroid, and the last one
    # is replaced by the warm start
    def test_tight_numeric_dimension_saturates_accumulator(self, credit_schema):
        # zero deviation -> raw participation 1.0 -> top of the veloc2 range
        data = _credit_data(credit_schema)
        net = _hand_network([1.0, 0.0, 0.0, 0.4, 0.5], [0.0, 0.2])
        swarm = seed_swarm(net, 0, 1, data, PsoConfig(swarm_size=2, seed=0))
        v2 = swarm.veloc2[0]
        assert v2[3] == 4.0  # salary: deviation 0
        assert v2[0] == 4.0  # nominal coordinate 1.0
        assert v2[1] == -4.0  # nominal coordinate 0.0

    def test_loose_numeric_dimension_floors_accumulator(self, credit_schema):
        data = _credit_data(credit_schema)
        net = _hand_network([0.0, 1.0, 0.0, 0.5, 0.5], [0.8, 0.25])
        swarm = seed_swarm(net, 0, 1, data, PsoConfig(swarm_size=2, seed=0))
        v2 = swarm.veloc2[0]
        assert v2[3] == -4.0  # 1 - 1.5*0.8 clamps to 0
        assert v2[4] == pytest.approx(-4.0 + (1 - 1.5 * 0.25) * 8.0, abs=1e-12)

    def test_genes_span_center_plus_minus_spread(self, credit_schema):
        data = _credit_data(credit_schema)
        net = _hand_network([0.0, 1.0, 0.0, 0.4, 0.9], [0.2, 0.2])
        swarm = seed_swarm(net, 0, 1, data, PsoConfig(swarm_size=2, seed=0))
        genes = swarm.genes[0]
        assert genes[0] == pytest.approx([0.1, 0.7], abs=1e-12)
        assert genes[1] == pytest.approx([0.6, 1.0], abs=1e-12)  # clipped at 1

    def test_representation_filter_picks_heavy_centroids(self, credit_schema):
        data = _credit_data(credit_schema)
        light = [0.0, 0.0, 1.0, 0.9, 0.9]
        heavy = [1.0, 0.0, 0.0, 0.3, 0.3]
        net = _network([light, heavy], np.zeros((2, 5)), [1, 9], [0, 0])
        swarm = seed_swarm(net, 0, 3, data, PsoConfig(swarm_size=2, seed=0))
        # only the heavy centroid qualifies, so particle 0 mirrors it exactly
        assert np.array_equal(swarm.genes[0][0], [0.3, 0.3])

    def test_filter_falls_back_to_all_class_centroids(self, credit_schema):
        data = _credit_data(credit_schema)
        net = _network([[0.0, 0.0, 1.0, 0.9, 0.9]], np.zeros((1, 5)), [1], [0])
        swarm = seed_swarm(net, 0, 5, data, PsoConfig(swarm_size=2, seed=0))
        assert np.array_equal(swarm.genes[0][0], [0.9, 0.9])

    def test_one_particle_is_the_warm_start(self, credit_schema):
        # the warm start replaces the last particle even when it is the only
        # centroid seed: the centroid would set salary's veloc2 to 4.0 and
        # age's to 1.6, the warm start sets every veloc2 to +-4
        data = _credit_data(credit_schema)
        net = _hand_network([1.0, 0.0, 0.0, 0.4, 0.5], [0.0, 0.2])
        swarm = seed_swarm(net, 0, 1, data, PsoConfig(swarm_size=1, seed=0))
        bits, genes = one_condition_rules(data)
        best = int(np.argmax(fitness(bits, genes, 0, pack_rows(data))))
        assert np.array_equal(swarm.position[0], bits[best])
        assert np.array_equal(swarm.veloc2[0], np.where(bits[best] == 1.0, 4.0, -4.0))
        assert swarm.trace == [fitness(bits, genes, 0, pack_rows(data))[best]]

    def test_class_without_centroids_is_rejected(self, credit_schema):
        data = _credit_data(credit_schema)
        net = _hand_network([1.0, 0.0, 0.0, 0.4, 0.5], [0.0, 0.2], class_index=0)
        cfg = PsoConfig(swarm_size=6, seed=2)
        label = credit_schema.class_labels[1]
        with pytest.raises(DataError, match=f"no centroid of class {label!r}"):
            seed_swarm(net, 1, 1, data, cfg)

    def test_initial_invariants(self, credit_schema):
        data = _credit_data(credit_schema)
        net = _hand_network([1.0, 0.0, 0.0, 0.4, 0.5], [0.1, 0.2])
        cfg = PsoConfig(swarm_size=12, seed=4)
        swarm = seed_swarm(net, 0, 1, data, cfg)
        lb1, ub1 = pso.VELOC1_BOUNDS
        assert np.all(swarm.veloc1 >= lb1) and np.all(swarm.veloc1 <= ub1)
        assert np.all(swarm.genes[:, :, 0] <= swarm.genes[:, :, 1])
        assert set(np.unique(swarm.position)) <= {0.0, 1.0}
        assert np.array_equal(
            swarm.best_fitness,
            fitness(swarm.position, swarm.genes, 0, pack_rows(data)),
        )
        assert swarm.gbest == np.argmax(swarm.best_fitness)
        assert swarm.trace == [swarm.best_fitness.max()]

    def test_tied_first_round_takes_the_first_best(self, credit_schema, monkeypatch):
        # particles 1 and 2 tie for the best first-round fitness: the global
        # best is particle 1, and the seeding round adds one trace entry
        monkeypatch.setattr(pso, "fitness", lambda *args: np.array([0.2, 0.5, 0.5]))
        data = _credit_data(credit_schema)
        net = _hand_network([1.0, 0.0, 0.0, 0.4, 0.5], [0.1, 0.2])
        swarm = seed_swarm(net, 0, 1, data, PsoConfig(swarm_size=3, seed=0))
        assert swarm.gbest == 1
        assert swarm.trace == [0.5]
        assert swarm.best_fitness.tolist() == [0.2, 0.5, 0.5]

    def test_empty_dataset_rejected(self, credit_schema):
        empty = build_encoded(credit_schema, np.zeros((0, 5)), [])
        net = _hand_network([1.0, 0.0, 0.0, 0.4, 0.5], [0.1, 0.2])
        with pytest.raises(DataError):
            seed_swarm(net, 0, 1, empty, PsoConfig(swarm_size=2, seed=0))


class TestStep:
    def _swarm(self, data, cfg, class_index=1):
        net = fit_network(data, LvqConfig(centroid_count=4, seed=0))
        return seed_swarm(net, class_index, 1, data, cfg)

    def test_global_best_never_decreases(self, credit_schema):
        data = _credit_data(credit_schema, n=50, seed=1)
        cfg = PsoConfig(swarm_size=10, seed=3)
        swarm = self._swarm(data, cfg)
        for _ in range(30):
            before = swarm.trace[-1]
            step(swarm)
            assert swarm.trace[-1] >= before
            # the global best is particle gbest's personal best, and the top one
            assert swarm.trace[-1] == swarm.best_fitness[swarm.gbest] == swarm.best_fitness.max()
        assert len(swarm.trace) == 31
        assert swarm.trace == sorted(swarm.trace)

    def test_motion_respects_bounds(self, credit_schema):
        data = _credit_data(credit_schema, n=50, seed=2)
        cfg = PsoConfig(swarm_size=8, seed=9)
        swarm = self._swarm(data, cfg)
        for _ in range(20):
            step(swarm)
        lb1, ub1 = pso.VELOC1_BOUNDS
        lb2, ub2 = pso.VELOC2_BOUNDS
        assert np.all(swarm.veloc1 >= lb1) and np.all(swarm.veloc1 <= ub1)
        assert np.all(swarm.veloc2 >= lb2) and np.all(swarm.veloc2 <= ub2)
        assert np.all(swarm.genes >= 0.0) and np.all(swarm.genes <= 1.0)
        assert np.all(swarm.genes[:, :, 0] <= swarm.genes[:, :, 1])

    def test_rest_state_generates_no_velocity(self, credit_schema):
        # cognitive and social terms vanish when position == pbest == gbest
        data = _credit_data(credit_schema, n=30, seed=4)
        cfg = PsoConfig(swarm_size=1, seed=5)
        swarm = self._swarm(data, cfg)
        swarm.veloc1 = np.zeros_like(swarm.veloc1)
        swarm.gene_veloc = np.zeros_like(swarm.gene_veloc)
        swarm.best_position = swarm.position.copy()
        swarm.best_genes = swarm.genes.copy()
        swarm.gbest = 0
        v2_before = swarm.veloc2.copy()
        genes_before = swarm.genes.copy()
        step(swarm)
        assert np.all(swarm.veloc1 == 0.0)
        assert np.array_equal(swarm.veloc2, v2_before)
        assert np.array_equal(swarm.genes, genes_before)

    def test_determinism(self, credit_schema):
        data = _credit_data(credit_schema, n=40, seed=6)
        cfg = PsoConfig(swarm_size=6, seed=11)
        a = self._swarm(data, cfg)
        b = self._swarm(data, cfg)
        for _ in range(10):
            step(a)
            step(b)
        assert a.trace == b.trace
        assert a.gbest == b.gbest
        assert np.array_equal(a.best_position, b.best_position)
        assert np.array_equal(a.best_genes, b.best_genes)


class TestEvolve:
    def test_returns_best_decodable_rule(self, credit_schema):
        data = _credit_data(credit_schema, n=60, seed=8)
        cfg = PsoConfig(swarm_size=10, max_iterations=40, stagnation_limit=10, seed=1)
        net = fit_network(data, LvqConfig(centroid_count=4, seed=0))
        swarm = seed_swarm(net, 1, 1, data, cfg)
        rule, _ = evolve(swarm, cfg)
        validate_rule(rule, credit_schema)
        assert rule.class_index == 1
        # the reported best is the fitness of the rule actually returned
        assert fitness_from_rule(rule, data) == swarm.trace[-1]

    def test_stagnation_stops_early(self, credit_schema):
        data = _credit_data(credit_schema, n=30, seed=9)
        cfg = PsoConfig(swarm_size=6, max_iterations=500, stagnation_limit=5, seed=2)
        net = fit_network(data, LvqConfig(centroid_count=4, seed=0))
        swarm = seed_swarm(net, 0, 1, data, cfg)
        _, stop_reason = evolve(swarm, cfg)
        assert len(swarm.trace) - 1 < 500
        assert stop_reason == "stagnation"

    def test_iteration_cap_respected(self, credit_schema):
        data = _credit_data(credit_schema, n=30, seed=10)
        cfg = PsoConfig(swarm_size=4, max_iterations=7, stagnation_limit=100, seed=3)
        net = fit_network(data, LvqConfig(centroid_count=4, seed=0))
        swarm = seed_swarm(net, 0, 1, data, cfg)
        _, stop_reason = evolve(swarm, cfg)
        assert len(swarm.trace) - 1 <= 7
        assert stop_reason == "max_iterations"


class TestSubsetSwarm:
    """A swarm seeded on a subset, as ``mine`` seeds one on the uncovered
    rows, scores against that subset's packed rows and nothing else."""

    def test_fitness_and_rule_come_from_the_subset(self, credit_schema):
        data = _credit_data(credit_schema, n=90, seed=12)
        sub = data.subset(np.flatnonzero(np.arange(90) % 3 != 0))
        cfg = PsoConfig(swarm_size=8, max_iterations=20, stagnation_limit=6, seed=4)
        net = fit_network(data, LvqConfig(centroid_count=4, seed=0))
        swarm = seed_swarm(net, 1, 1, sub, cfg)
        assert swarm.rows.n_rows == len(sub)
        for _ in range(3):
            got = fitness(swarm.position, swarm.genes, 1, pack_rows(sub))
            expected = np.array([
                fitness_from_rule(decode_state(p, g, sub.layout, 1), sub)
                for p, g in zip(swarm.position, swarm.genes)
            ])
            assert got.tobytes() == expected.tobytes()
            assert got.tobytes() == fitness(
                swarm.position, swarm.genes, 1, swarm.rows).tobytes()
            # the full dataset scores the same particles differently
            assert got.tobytes() != fitness(
                swarm.position, swarm.genes, 1, pack_rows(data)).tobytes()
            step(swarm)
        rule, _ = evolve(swarm, cfg)
        g = swarm.gbest
        assert rule == decode_state(
            swarm.best_position[g], swarm.best_genes[g], swarm.rows.layout, 1)
        assert fitness_from_rule(rule, sub) == swarm.trace[-1]


def _credit3_sample(rows, seed):
    return encode(generate("credit3", rows, seed).to_raw())


WARM_START_CASES = {
    # (data, target class): a nominal block of 3 values, blocks of 9 and 17
    # values (only single values and their complements), and credit3's mix
    "small_nominal": (lambda: _packed_data("small", 70, seed=4), 1),
    "wide_nominal": (lambda: _packed_data("mixed", 150, seed=5), 2),
    "credit3": (lambda: _credit3_sample(300, 2), 0),
}


class TestWarmStart:
    """Each swarm starts with the best one-condition rule in its last
    particle, so no launch returns a rule that scores below it."""

    @staticmethod
    def _best_one_condition(data, class_index):
        bits, genes = one_condition_rules(data)
        scores = [fitness_from_rule(decode_state(b, g, data.layout, class_index), data)
                  for b, g in zip(bits, genes)]
        return bits[int(np.argmax(scores))], max(scores)

    def test_candidates_are_one_condition_rules(self, credit_schema):
        data = _credit_data(credit_schema)
        bits, genes = one_condition_rules(data)
        rules = [decode_state(b, g, data.layout, 0) for b, g in zip(bits, genes)]
        assert all(len(rule) == 1 for rule in rules)
        # marital_status's 3 values and then their complements, then 136
        # intervals between 16 quantile points of each numeric attribute
        assert len(rules) == 6 + 2 * 136
        assert [set(r.antecedent[0].allowed) for r in rules[:6]] == [
            {"single"}, {"married"}, {"divorced"},
            {"married", "divorced"}, {"single", "divorced"}, {"single", "married"}]
        salary = data.X[:, data.layout.numeric["salary"]]
        lo = [r.antecedent[0].lo for r in rules[6 : 6 + 136]]
        hi = [r.antecedent[0].hi for r in rules[6 : 6 + 136]]
        assert (lo[0], hi[-1]) == (salary.min(), salary.max())
        assert all(a <= b for a, b in zip(lo, hi))

    def test_wide_nominal_attributes_give_values_and_complements(self):
        data = _packed_data("mixed", 150, seed=5)
        bits, genes = one_condition_rules(data)
        # 9 and 17 values give 18 and 34 candidates, not 510 and 131,070
        assert len(bits) == 2 * 9 + 136 + 2 * 17 + 136
        sets = [set(decode_state(b, g, data.layout, 0).antecedent[0].allowed)
                for b, g in zip(bits[:18], genes[:18])]
        values = set(NINE.values)
        assert sets == [{v} for v in NINE.values] + [values - {v} for v in NINE.values]

    @pytest.mark.parametrize("pso_seed", [1, 2, 3])
    @pytest.mark.parametrize("case", sorted(WARM_START_CASES))
    def test_no_launch_returns_below_its_warm_start(self, case, pso_seed):
        make, target = WARM_START_CASES[case]
        data = make()
        net = fit_network(data, LvqConfig(centroid_count=6, max_epochs=5, seed=pso_seed))
        cfg = PsoConfig(swarm_size=6, max_iterations=30, stagnation_limit=8, seed=pso_seed)
        swarm = seed_swarm(net, target, 1, data, cfg)
        best_bits, best = self._best_one_condition(data, target)
        assert swarm.warm_start_candidates == len(one_condition_rules(data)[0])
        # the last particle is the best candidate, its veloc2 at the bounds
        assert np.array_equal(swarm.position[-1], best_bits)
        assert np.array_equal(swarm.veloc2[-1], np.where(best_bits == 1.0, 4.0, -4.0))
        assert swarm.best_fitness[-1] == best
        rule, _ = evolve(swarm, cfg)
        assert fitness_from_rule(rule, data) >= best

    def test_no_launch_of_mine_returns_below_its_warm_start(self):
        data = _credit3_sample(400, 3)
        config = MinerConfig(
            seed=4,
            lvq=LvqConfig(centroid_count=6),
            pso=PsoConfig(swarm_size=10, max_iterations=40, stagnation_limit=10),
        )
        _, report = mine(data, config)
        assert len(report.swarm_logs) > 1
        k = 1
        for log in report.swarm_logs:
            # each launch is scored on the rows left uncovered before it
            rows = data.subset(report.uncovered_before(k))
            _, best = self._best_one_condition(rows, log.candidate.class_index)
            assert fitness_from_rule(log.candidate, rows) >= best
            k += log.outcome == "emitted"
