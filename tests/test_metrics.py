"""Accuracy and class-size-weighted F1 against hand counts and a brute oracle."""

import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import brute_weighted_f1
from hyperclass.metrics import evaluate


@st.composite
def pred_gold_sets(draw):
    m = draw(st.integers(2, 5))
    n = draw(st.integers(1, 30))
    preds = draw(st.lists(st.integers(0, m - 1), min_size=n, max_size=n))
    golds = draw(st.lists(st.integers(0, m - 1), min_size=n, max_size=n))
    return m, preds, golds


class TestWorkedExamples:
    def test_three_one_split(self):
        # golds AAAB, preds AABB: class A P=1 R=2/3 F1=0.8; class B P=0.5 R=1
        # F1=2/3; weighted = 0.75*0.8 + 0.25*2/3
        res = evaluate([0, 0, 1, 1], [0, 0, 0, 1], num_classes=2)
        assert res.accuracy == 0.75
        assert abs(res.weighted_f1 - (0.75 * 0.8 + 0.25 * (2.0 / 3.0))) < 1e-12
        assert abs(res.weighted_f1 - 0.7666666666666667) < 1e-12

    def test_collapse_to_one_class(self):
        res = evaluate([0, 0, 0, 0], [0, 1, 2, 3], num_classes=4)
        assert res.accuracy == 0.25
        assert abs(res.weighted_f1 - 0.1) < 1e-12
        n_c = [row[0] for row in res.per_class]
        assert n_c == [1, 1, 1, 1]

    def test_perfect(self):
        res = evaluate([0, 1, 2], [0, 1, 2], num_classes=3)
        assert res.accuracy == 1.0
        assert res.weighted_f1 == 1.0

    def test_confusion_rows_are_gold(self):
        res = evaluate([1, 1, 0], [0, 1, 0], num_classes=2)
        np.testing.assert_array_equal(res.confusion, [[1, 1], [0, 1]])

    def test_absent_class_contributes_zero(self):
        res = evaluate([0, 0], [0, 0], num_classes=3)
        assert res.weighted_f1 == 1.0
        assert res.per_class[1] == (0, 0.0, 0.0, 0.0)
        assert res.per_class[2] == (0, 0.0, 0.0, 0.0)


class TestErrors:
    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            evaluate([0], [0, 1], num_classes=2)

    def test_empty(self):
        with pytest.raises(ValueError, match="zero samples"):
            evaluate([], [], num_classes=2)

    def test_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            evaluate([2], [0], num_classes=2)
        with pytest.raises(ValueError, match="out of range"):
            evaluate([0], [-1], num_classes=2)
        # Both bounds of both columns: m itself is out of range.
        for preds, golds in (([-1], [0]), ([0], [2]), ([2], [0])):
            with pytest.raises(ValueError, match="out of range"):
                evaluate(preds, golds, num_classes=2)
        # The message names the first bad pair.
        with pytest.raises(ValueError, match=r"pred=1 gold=5 m=2$"):
            evaluate([0, 1, 7], [1, 5, 0], num_classes=2)


class TestProperties:
    @given(pred_gold_sets())
    def test_matches_brute_force(self, case):
        m, preds, golds = case
        res = evaluate(preds, golds, m)
        assert abs(res.weighted_f1 - brute_weighted_f1(preds, golds, m)) < 1e-12
        assert res.accuracy == np.mean(np.array(preds) == np.array(golds))

    @given(pred_gold_sets(), st.integers(0, 2**31 - 1))
    def test_joint_permutation_invariance(self, case, seed):
        m, preds, golds = case
        perm = np.random.default_rng(seed).permutation(len(preds))
        base = evaluate(preds, golds, m)
        shuffled = evaluate([preds[i] for i in perm], [golds[i] for i in perm], m)
        assert shuffled.accuracy == base.accuracy
        assert abs(shuffled.weighted_f1 - base.weighted_f1) < 1e-12

    @given(pred_gold_sets(), st.integers(0, 2**31 - 1))
    def test_class_relabeling_invariance(self, case, seed):
        m, preds, golds = case
        relabel = np.random.default_rng(seed).permutation(m)
        base = evaluate(preds, golds, m)
        mapped = evaluate([int(relabel[p]) for p in preds], [int(relabel[g]) for g in golds], m)
        assert mapped.accuracy == base.accuracy
        assert abs(mapped.weighted_f1 - base.weighted_f1) < 1e-12

    @given(pred_gold_sets())
    def test_bounds_and_perfect_iff_equal(self, case):
        m, preds, golds = case
        res = evaluate(preds, golds, m)
        assert 0.0 <= res.accuracy <= 1.0
        assert 0.0 <= res.weighted_f1 <= 1.0 + 1e-12
        if preds == golds:
            assert res.accuracy == 1.0 and abs(res.weighted_f1 - 1.0) < 1e-12
        if res.weighted_f1 > 1.0 - 1e-9:
            assert preds == golds

    @given(pred_gold_sets())
    def test_confusion_totals(self, case):
        m, preds, golds = case
        res = evaluate(preds, golds, m)
        assert res.confusion.sum() == len(golds)
        assert res.accuracy == np.trace(res.confusion) / len(golds)


def test_to_dict_is_json_serializable():
    res = evaluate([0, 1, 0], [0, 1, 1], num_classes=2)
    blob = json.loads(json.dumps(res.to_dict()))
    assert blob["accuracy"] == res.accuracy
    assert blob["confusion"] == [[1, 0], [1, 1]]
