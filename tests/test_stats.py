import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import exact_u_distribution_p
from explaudit import stats
from explaudit.errors import DataError


class TestMannWhitneyU:
    def test_fully_separated_small(self):
        u, p = stats.mann_whitney_u([1, 2, 3], [4, 5, 6])
        assert u == 0.0
        assert p == pytest.approx(0.1, abs=1e-12)

    def test_identical_lists(self):
        u, p = stats.mann_whitney_u([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert p == 1.0

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            stats.mann_whitney_u([], [1.0])

    def test_nan_rejected(self):
        # a NaN has no rank; the pipeline drops missing scores before testing
        with pytest.raises(DataError, match="NaN"):
            stats.mann_whitney_u([0.1, math.nan, 0.3], [0.2, 0.5])

    def test_strong_separation_asymptotic(self):
        rng = np.random.default_rng(42)
        a = rng.normal(0, 1, 30).tolist()
        b = rng.normal(3, 1, 30).tolist()
        _, p = stats.mann_whitney_u(a, b)
        assert p < 1e-6

    def test_exact_matches_enumeration_oracle(self):
        # every sample size of the exact branch, and every U value of it
        for size in range(2, stats.EXACT_LIMIT + 1):
            for n_a in range(1, size):
                seen = set()
                for picked in combinations(range(size), n_a):
                    a = [float(r) for r in picked]
                    b = [float(r) for r in range(size) if r not in picked]
                    u, p = stats.mann_whitney_u(a, b)
                    if u not in seen:
                        seen.add(u)
                        assert p == exact_u_distribution_p(a, b)
                assert len(seen) == n_a * (size - n_a) + 1

    def test_u_counts_pairs_with_half_ties(self, rng):
        # U_a = #{a_i > b_j} + 1/2 #{a_i = b_j}, on tie-heavy samples
        for _ in range(200):
            a = rng.integers(0, 4, rng.integers(1, 16)).astype(float)
            b = rng.integers(0, 4, rng.integers(1, 16)).astype(float)
            u, _ = stats.mann_whitney_u(a, b)
            diff = a[:, None] - b[None, :]
            assert u == (diff > 0).sum() + 0.5 * (diff == 0).sum()

    def test_complement_identity(self, rng):
        a = rng.uniform(0, 1, 5).tolist()
        b = rng.uniform(0, 1, 7).tolist()
        u_a, _ = stats.mann_whitney_u(a, b)
        u_b, _ = stats.mann_whitney_u(b, a)
        assert u_a + u_b == len(a) * len(b)

    def test_monotone_transform_invariance(self, rng):
        a = rng.uniform(0, 1, 6).tolist()
        b = rng.uniform(0, 1, 6).tolist()
        _, p1 = stats.mann_whitney_u(a, b)
        _, p2 = stats.mann_whitney_u([math.exp(3 * x) for x in a],
                                     [math.exp(3 * x) for x in b])
        assert p1 == pytest.approx(p2, abs=1e-12)

    def test_exact_vs_asymptotic_gap(self, rng, monkeypatch):
        for _ in range(20):
            n_a = int(rng.integers(3, 7))
            n_b = int(rng.integers(3, 13 - n_a))
            a = rng.uniform(0, 1, n_a).tolist()
            b = rng.uniform(0, 1, n_b).tolist()
            _, p_exact = stats.mann_whitney_u(a, b)
            monkeypatch.setattr(stats, "EXACT_LIMIT", 0)
            _, p_asym = stats.mann_whitney_u(a, b)
            monkeypatch.setattr(stats, "EXACT_LIMIT", 12)
            assert abs(p_exact - p_asym) <= 0.05

    def test_ties_use_asymptotic_mode(self):
        a = [1.0, 1.0, 2.0]
        b = [1.0, 3.0, 3.0]
        _, p = stats.mann_whitney_u(a, b)
        assert 0.0 <= p <= 1.0
        assert stats.mann_whitney_mode(3, 3, has_ties=True) == "asymptotic"
        assert stats.mann_whitney_mode(3, 3, has_ties=False) == "exact"
        assert stats.mann_whitney_mode(10, 10, has_ties=False) == "asymptotic"

    def test_all_equal_values(self):
        _, p = stats.mann_whitney_u([2.0] * 8, [2.0] * 8)
        assert p == 1.0

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.floats(-100, 100), min_size=1, max_size=20),
           st.lists(st.floats(-100, 100), min_size=1, max_size=20))
    def test_p_in_unit_interval(self, a, b):
        _, p = stats.mann_whitney_u(a, b)
        assert 0.0 <= p <= 1.0


class TestCohensD:
    def test_equal_means(self):
        assert stats.cohens_d([1.0, 3.0], [0.0, 4.0]) == 0.0

    def test_hand_computed(self):
        d = stats.cohens_d([0.0, 2.0], [-1.0, 1.0])
        assert d == pytest.approx(1 / math.sqrt(2), abs=1e-9)

    def test_antisymmetric(self, rng):
        a = rng.uniform(0, 1, 5).tolist()
        b = rng.uniform(0, 1, 5).tolist()
        assert stats.cohens_d(a, b) == pytest.approx(-stats.cohens_d(b, a))

    def test_degenerate_zero_variance(self):
        assert stats.cohens_d([2.0, 2.0], [2.0, 2.0]) == 0.0
        assert stats.cohens_d([3.0, 3.0], [2.0, 2.0]) == math.inf
        assert stats.cohens_d([1.0, 1.0], [2.0, 2.0]) == -math.inf

    def test_small_groups_rejected(self):
        with pytest.raises(DataError):
            stats.cohens_d([1.0], [2.0, 3.0])


class TestDisparityTest:
    def _test(self, a, b):
        return stats.disparity_test(a, b, "MALE", "FEMALE")

    def test_identical_scores_not_significant(self):
        res = self._test([0.2, 0.4, 0.6], [0.2, 0.4, 0.6])
        assert not res.significant
        assert res.cohens_d is None  # only computed when significant
        assert not res.considerable

    def test_shifted_scores_significant(self, rng):
        base = rng.normal(0, 0.25, 20)
        res = self._test((base + 1.0).tolist(), base.tolist())
        assert res.significant
        assert res.cohens_d is not None and res.cohens_d > 0
        assert res.direction == "MALE"
        assert res.considerable

    def test_small_effect_not_considerable(self, rng):
        # large n makes a tiny shift significant while |d| stays < 0.2
        rng = np.random.default_rng(0)
        base = rng.normal(0, 1, 2000)
        res = self._test((base + 0.1).tolist(), base.tolist())
        assert res.significant
        assert abs(res.cohens_d) < 0.2
        assert not res.considerable

    def test_to_dict_fields(self):
        d = self._test([1, 2, 3], [4, 5, 6]).to_dict()
        assert d["mode"] == "exact"
        assert d["n_A"] == 3 and d["n_B"] == 3
        assert set(d) >= {"U", "p", "d", "significant", "considerable",
                          "direction"}


def _pred(subgroup, true, predicted, probs, pair_id=None):
    return stats.LabeledPrediction(subgroup, true, predicted,
                                   np.asarray(probs, dtype=float), pair_id)


class TestBiasAnalysis:
    def test_all_correct(self):
        preds = [_pred("MALE", 1, 1, [0.1, 0.9], "p1"),
                 _pred("FEMALE", 0, 0, [0.9, 0.1], "p1")]
        rep = stats.bias_analysis(preds, "MALE", "FEMALE", 1, 0)
        assert rep.tpr == 1.0 and rep.tnr == 1.0
        assert rep.apd == pytest.approx(0.0)

    def test_symmetric_half_half_outputs(self):
        # a weight-tied model outputs identical (0.5, 0.5) for both pair
        # variants, so p(pos | x_M) = p(neg | x_F) and APD is exactly 0
        preds = [_pred("MALE", 1, 0, [0.5, 0.5], "p1"),
                 _pred("FEMALE", 0, 0, [0.5, 0.5], "p1")]
        rep = stats.bias_analysis(preds, "MALE", "FEMALE", 1, 0)
        assert rep.apd == 0.0

    def test_subgroup_accuracies(self):
        preds = [_pred("MALE", 1, 1, [0.2, 0.8], "p1"),
                 _pred("MALE", 1, 0, [0.6, 0.4], "p2"),
                 _pred("FEMALE", 0, 0, [0.7, 0.3], "p1"),
                 _pred("FEMALE", 0, 0, [0.8, 0.2], "p2")]
        rep = stats.bias_analysis(preds, "MALE", "FEMALE", 1, 0)
        assert rep.tpr == 0.5 and rep.tnr == 1.0
        # pairs contribute |0.8 - 0.7| and |0.4 - 0.8|
        assert rep.apd == pytest.approx((0.1 + 0.4) / 2)

    def test_no_pairs_warns(self):
        preds = [_pred("MALE", 1, 1, [0.2, 0.8]),
                 _pred("FEMALE", 0, 0, [0.7, 0.3])]
        with pytest.warns(UserWarning, match="APD omitted"):
            rep = stats.bias_analysis(preds, "MALE", "FEMALE", 1, 0)
        assert rep.apd is None

    def test_missing_subgroup_rejected(self):
        preds = [_pred("MALE", 1, 1, [0.2, 0.8], "p1")]
        with pytest.raises(DataError):
            stats.bias_analysis(preds, "MALE", "FEMALE", 1, 0)
