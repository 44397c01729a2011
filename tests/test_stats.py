"""Test statistics against scipy, closed-form tails and textbook values."""

import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.special
import scipy.stats

from finnets import stats
from finnets.errors import DegenerateGroups
from finnets.rng import rng_for


def test_levene_matches_scipy_mean_centered():
    a = [1.0, 2.0, 3.0, 4.0, 5.0]
    b = [10.0, 20.0, 30.0, 40.0, 50.0]
    w, p = stats.levene_test([a, b])
    want_w, want_p = scipy.stats.levene(a, b, center="mean")
    assert w == pytest.approx(float(want_w), abs=1e-9)
    assert p == pytest.approx(float(want_p), rel=1e-12, abs=0.0)


def test_levene_random_groups_match_scipy():
    rng = rng_for(3, "levene")
    for _ in range(20):
        groups = [
            rng.standard_normal(int(rng.integers(5, 30))) * rng.uniform(0.5, 3.0)
            for _ in range(int(rng.integers(2, 5)))
        ]
        w, p = stats.levene_test(groups)
        want_w, want_p = scipy.stats.levene(*groups, center="mean")
        assert w == pytest.approx(float(want_w), rel=1e-9)
        assert p == pytest.approx(float(want_p), rel=1e-12, abs=0.0)


def test_levene_far_tail_matches_closed_form():
    # F(2, d2) has the exact upper tail (1 + 2W/d2)^(-d2/2); 1 - cdf gives 0
    base = np.array([-1.0, 1.0, -1.01, 1.01])
    groups = [base, 2.0 * base, 10.0 * base]
    w, p = stats.levene_test(groups)
    assert w > 8e4
    assert p > 0.0
    assert p == pytest.approx((1.0 + 2.0 * w / 9.0) ** -4.5, rel=1e-12, abs=0.0)
    assert p == pytest.approx(
        float(scipy.stats.levene(*groups, center="mean").pvalue),
        rel=1e-12, abs=0.0,
    )


def test_levene_degenerate_groups():
    with pytest.raises(DegenerateGroups):
        stats.levene_test([[1.0, 1.0, 1.0], [2.0, 2.0]])
    with pytest.raises(ValueError):
        stats.levene_test([[1.0, 2.0]])
    # identical deviations within groups but different between them: the
    # within-group sum of squares is 0, so W is undefined, not infinite
    with pytest.raises(DegenerateGroups):
        stats.levene_test([[0.0, 2.0], [0.0, 8.0]])


def test_levene_size_guard_names_its_rule():
    for groups in ([[1.0, 2.0, 3.0]], [[1.0, 2.0, 3.0], [4.0]], []):
        with pytest.raises(ValueError, match="need at least two groups of two observations"):
            stats.levene_test(groups)


def test_levene_degeneracy_is_decided_from_the_samples():
    # the accuracies of a two-run knn against a constant linear-margin: the
    # rounded means leave a within-group sum of squares near 1e-33, which
    # read as W = 1.0016e+30 and p = 9.98e-31
    knn, margin = [0.66666666666666663, 0.55555555555555558], [0.55555555555555558] * 2
    for groups in ([knn, margin], [knn, [0.5, 0.75]], [knn, knn, [0.1, 0.9]]):
        with pytest.raises(DegenerateGroups):
            stats.levene_test(groups)
    # constant groups whose means do and do not round: (inf, 0.0) before
    for groups in ([[0.1] * 3, [0.2] * 3], [[0.5] * 3, [0.25] * 4], [[0.2] * 3, knn]):
        with pytest.raises(DegenerateGroups):
            stats.levene_test(groups)
    # controls: groups of three with varying deviations, and one constant
    # group beside a varying one, still give scipy's W
    for groups in ([[0.1, 0.2, 0.4], [0.3, 0.35, 0.5]], [[0.2] * 3, [0.1, 0.2, 0.4]],
                   [knn, [0.1, 0.2, 0.4]]):
        w, p = stats.levene_test(groups)
        want = scipy.stats.levene(*groups, center="mean")
        assert w == pytest.approx(float(want.statistic), rel=1e-9)
        assert 0.0 < p <= 1.0


def test_welch_textbook_example():
    a = [27.5, 21.0, 19.0, 23.6, 17.0, 17.9, 16.9, 20.1, 21.9, 22.6, 23.1, 19.6, 19.0, 21.7, 21.4]
    b = [27.1, 22.0, 20.8, 23.4, 23.4, 23.5, 25.8, 22.0, 24.8, 20.2, 21.9, 22.1, 22.9, 30.0, 23.9]
    t, p_less = stats.welch_t_one_tailed(a, b, alternative="less")
    want = scipy.stats.ttest_ind(a, b, equal_var=False, alternative="less")
    assert t == pytest.approx(float(want.statistic), abs=1e-9)
    assert p_less == pytest.approx(float(want.pvalue), rel=1e-12, abs=0.0)


def test_welch_random_samples_match_scipy():
    rng = rng_for(4, "welch")
    for _ in range(20):
        a = rng.standard_normal(int(rng.integers(5, 40))) + rng.uniform(-1, 1)
        b = 2.0 * rng.standard_normal(int(rng.integers(5, 40)))
        for alternative in ("greater", "less"):
            t, p = stats.welch_t_one_tailed(a, b, alternative=alternative)
            want = scipy.stats.ttest_ind(
                a, b, equal_var=False, alternative=alternative
            )
            assert t == pytest.approx(float(want.statistic), rel=1e-9)
            assert p == pytest.approx(float(want.pvalue), rel=1e-12, abs=0.0)


@pytest.mark.parametrize("m", [1e3, 1e7])
def test_welch_far_tail_matches_closed_form(m):
    # a = [m, m+1], b = [0, 1]: df = 2 exactly and t = m·√2, whose exact
    # upper tail is 1 / (s·(s + t)) with s = √(t² + 2)
    a, b = [m, m + 1.0], [0.0, 1.0]
    t, p = stats.welch_t_one_tailed(a, b, "greater")
    s = math.sqrt(t * t + 2.0)
    exact = 1.0 / (s * (s + t))
    assert t == pytest.approx(m * math.sqrt(2.0), rel=1e-12, abs=0.0)
    assert p == pytest.approx(exact, rel=1e-12, abs=0.0)
    t_rev, p_rev = stats.welch_t_one_tailed(b, a, "less")
    assert t_rev == -t
    assert p_rev == pytest.approx(exact, rel=1e-12, abs=0.0)
    want = scipy.stats.ttest_ind(a, b, equal_var=False, alternative="greater")
    assert p == pytest.approx(float(want.pvalue), rel=1e-12, abs=0.0)


def test_welch_swap_symmetry():
    rng = rng_for(5, "swap")
    a = rng.standard_normal(12)
    b = rng.standard_normal(9) + 0.4
    t_ab, p_ab = stats.welch_t_one_tailed(a, b, "greater")
    t_ba, p_ba = stats.welch_t_one_tailed(b, a, "less")
    assert t_ab == pytest.approx(-t_ba, abs=1e-12)
    assert p_ab == pytest.approx(p_ba, abs=1e-12)


def test_welch_degenerate_and_bad_alternative():
    with pytest.raises(DegenerateGroups):
        stats.welch_t_one_tailed([1.0, 1.0, 1.0], [2.0, 2.0])
    with pytest.raises(ValueError):
        stats.welch_t_one_tailed([1.0, 2.0], [3.0, 4.0], alternative="two-sided")


@pytest.mark.filterwarnings("ignore:Precision loss:RuntimeWarning")  # scipy, on [0.2] * 3
def test_welch_two_constant_samples_are_degenerate_whatever_their_means():
    # var([0.2] * 3) is 1.2e-33, not 0, because the mean rounds: t read 4.6e15
    assert np.var([0.2] * 3, ddof=1) > 0.0
    for a, b in (([0.2] * 3, [0.1] * 3), ([0.5] * 3, [0.25] * 3), ([0.1] * 2, [0.3] * 4)):
        for alternative in ("greater", "less"):
            with pytest.raises(DegenerateGroups, match="both samples are constant"):
                stats.welch_t_one_tailed(a, b, alternative)
    # control: a constant sample against a varying one gives scipy's finite t
    a, b = [0.2] * 3, [0.1, 0.12, 0.15]
    t, p = stats.welch_t_one_tailed(a, b, "greater")
    want = scipy.stats.ttest_ind(a, b, equal_var=False, alternative="greater")
    assert math.isfinite(t) and t == pytest.approx(float(want.statistic), rel=1e-9)
    assert p == pytest.approx(float(want.pvalue), rel=1e-9, abs=0.0)


def test_welch_size_guard_names_its_rule():
    for a, b in (([1.0], [1.0, 2.0, 3.0]), ([1.0, 2.0, 3.0], [])):
        with pytest.raises(ValueError, match="each sample needs at least two observations"):
            stats.welch_t_one_tailed(a, b)


def test_bonferroni():
    assert stats.bonferroni([0.01, 0.4]) == [0.02, 0.8]
    assert stats.bonferroni([0.6, 0.5, 0.9]) == [1.0, 1.0, 1.0]
    assert stats.bonferroni([]) == []
    corrected = stats.bonferroni([0.03])
    assert corrected == [0.03]
    # min(1.0, nan * m) is 1.0, so a NaN row would read as not significant
    for ps in ([1.5], [0.2, -0.1], [np.nan, 0.01], [0.01, np.nan]):
        with pytest.raises(ValueError, match=r"p-values must lie in \[0, 1\]"):
            stats.bonferroni(ps)
    assert stats.bonferroni([0.0, 1.0]) == [0.0, 1.0]


def test_sign_test_exact_binomial():
    # 9 of 10 positive: p = (C(10,9) + C(10,10)) / 2^10
    wins, n, p = stats.sign_test_one_sided([1.0] * 9 + [-1.0])
    assert (wins, n) == (9, 10)
    assert p == pytest.approx(11.0 / 1024.0, abs=1e-15)

    wins, n, p = stats.sign_test_one_sided([1.0] * 15 + [-1.0] * 5)
    assert (wins, n) == (15, 20)
    assert p == pytest.approx(
        sum(scipy.special.comb(20, k, exact=True) for k in range(15, 21)) / 2 ** 20,
        abs=1e-15,
    )


def test_sign_test_drops_zeros():
    wins, n, p = stats.sign_test_one_sided([0.0, 0.0, 1.0, 1.0, -1.0])
    assert (wins, n) == (2, 3)
    # all ties: no evidence either way, conservatively not significant
    assert stats.sign_test_one_sided([0.0, 0.0]) == (0, 0, 1.0)


def test_sign_test_all_wins():
    wins, n, p = stats.sign_test_one_sided([0.5] * 8)
    assert (wins, n) == (8, 8)
    assert p == pytest.approx(1.0 / 256.0, abs=1e-15)


def test_sign_test_beyond_float_range_of_two_to_the_n():
    # 2.0 ** n overflows from n = 1024 on; the exact ratio does not
    wins, n, p = stats.sign_test_one_sided([1.0] * 1100)
    assert (wins, n, p) == (1100, 1100, 0.0)  # 2^-1100 is below the subnormals
    wins, n, p = stats.sign_test_one_sided([1.0] * 600 + [-1.0] * 500)
    assert (wins, n) == (600, 1100)
    want = Fraction(sum(math.comb(1100, j) for j in range(600, 1101)), 2 ** 1100)
    assert 0.0 < p < 0.01
    assert p == pytest.approx(float(want), rel=1e-12, abs=0.0)
