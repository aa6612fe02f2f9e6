import hashlib

import numpy as np
import pytest

from rulemine import synth
from rulemine.errors import ConfigError
from rulemine.schema import encode
from rulemine.synth import MIN_ROWS, PROFILES, generate

# frozen fingerprint of one fully specified draw; any change to the generator
# or its formatting is a breaking change to downstream reproducibility
SEPARABLE_200_SEED42_SHA256 = (
    "8c1e5afd314395a1b7fef6fe6c2ad26f6de378bd2bd4c7124294cfef2115e950"
)


class TestContracts:
    def test_rejects_tiny_requests(self):
        with pytest.raises(ConfigError):
            generate("separable", MIN_ROWS - 1, 0)

    def test_minimum_size_is_allowed(self):
        data = generate("separable", MIN_ROWS, 0)
        assert len(data.rows) == MIN_ROWS

    def test_unknown_profile_named_in_error(self):
        with pytest.raises(ConfigError, match="gaussian"):
            generate("gaussian", 100, 0)

    @pytest.mark.parametrize("profile", PROFILES)
    def test_deterministic_and_seed_sensitive(self, profile):
        a = generate(profile, 120, 9).csv_text()
        b = generate(profile, 120, 9).csv_text()
        c = generate(profile, 120, 10).csv_text()
        assert a == b
        assert a != c

    @pytest.mark.parametrize("profile", PROFILES)
    def test_output_encodes_cleanly(self, profile):
        data = generate(profile, 100, 3)
        encoded = encode(data.to_raw())
        assert len(encoded) == 100
        assert encoded.X.min() >= 0.0 and encoded.X.max() <= 1.0


class TestSeparable:
    def test_golden_checksum(self):
        text = generate("separable", 200, 42).csv_text()
        assert hashlib.sha256(text.encode()).hexdigest() == SEPARABLE_200_SEED42_SHA256
        lines = text.splitlines()
        assert lines[0] == "x1,x2,label"
        assert lines[1] == "0.773956,0.121833,pos"
        assert lines[2] == "0.438878,0.506330,neg"

    def test_labels_follow_first_coordinate(self):
        data = generate("separable", 300, 5)
        for row, label in zip(data.rows, data.classes):
            x1 = float(row[0])
            assert label == ("pos" if x1 > 0.5 else "neg")

    def test_margin_keeps_boundary_clear(self):
        data = generate("separable", 300, 5)
        for row in data.rows:
            assert abs(float(row[0]) - 0.5) > 0.0199  # 0.02 minus print rounding


class TestCredit:
    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_class_balance(self, seed):
        data = generate("credit3", 1000, seed)
        share = data.classes.count("Accept") / 1000
        assert 0.35 <= share <= 0.65

    def test_schema_shape(self):
        data = generate("credit3", 100, 0)
        schema = data.schema
        assert len(schema.attributes) == 10
        assert schema.class_labels == ("Deny", "Accept")
        kinds = [a.kind for a in schema.attributes]
        assert kinds.count("numeric") == 6 and kinds.count("nominal") == 4
        assert schema.attribute("job_type").values[0] == "employee"

    @staticmethod
    def _hidden_label(row) -> str:
        """The label credit3's three hidden rules give a row, read off its
        printed money values: liabilities above 0.7 of 80,000 deny, a salary
        from 0.5 of 12,000-120,000 accepts, as does an employee asking at
        most 0.5 of 500-50,000."""
        amount, salary, liabilities, job = float(row[0]), float(row[1]), float(row[4]), row[7]
        if liabilities > 56000.0:
            return "Deny"
        if salary >= 66000.0 or (job == "employee" and amount <= 25250.0):
            return "Accept"
        return "Deny"

    @pytest.mark.parametrize("noise, low, high", [(0.0, 0.0, 0.0), (0.1, 0.08, 0.12)])
    def test_noise_flips_that_share_of_labels(self, noise, low, high, monkeypatch):
        monkeypatch.setattr(synth, "_CREDIT_NOISE", noise)
        data = generate("credit3", 2000, 3)
        flipped = np.mean([label != self._hidden_label(row)
                           for row, label in zip(data.rows, data.classes)])
        assert low <= flipped <= high

    def test_values_look_like_money_and_categories(self):
        data = generate("credit3", 100, 0)
        row = data.rows[0]
        float(row[0])  # requested_amount parses
        float(row[5])  # age parses
        assert row[6] in ("single", "married", "divorced")
        assert row[9] in ("north", "south", "east", "west")


class TestFragmented:
    def test_rare_means_matching_pocket(self):
        data = generate("fragmented", 800, 4)
        sectors = data.schema.attribute("sector").values
        bands = data.schema.attribute("band").values
        for row, label in zip(data.rows, data.classes):
            s = sectors.index(row[0])
            b = bands.index(row[1])
            assert label == ("rare" if b == s % 4 else "common")

    def test_all_eight_pockets_appear(self):
        data = generate("fragmented", 800, 4)
        pockets = {
            (row[0], row[1])
            for row, label in zip(data.rows, data.classes)
            if label == "rare"
        }
        assert len(pockets) == 8

    def test_rare_fraction_near_quarter(self):
        # each sector has exactly one rare band out of four
        data = generate("fragmented", 2000, 1)
        share = data.classes.count("rare") / 2000
        assert 0.20 <= share <= 0.30
