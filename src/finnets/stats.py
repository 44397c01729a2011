"""Statistical tests used by the benchmark harness.

Levene's variance test, Welch's one-tailed t-test, Bonferroni correction,
and an exact one-sided sign test. p-values come from scipy's t and F
survival functions (`scipy.special.stdtr`, `fdtrc`), each tail computed
directly rather than as `1 - cdf`, so a far tail stays a small positive
number instead of cancelling to 0.
"""

import math

import numpy as np
import scipy.special

from .errors import DegenerateGroups


def levene_test(groups) -> tuple:
    """Levene's W over absolute deviations from each group's mean.

    Returns (W, p) with p from F(k-1, N-k). Raises `DegenerateGroups` when
    no group's absolute deviations vary, as in every group of two: W's
    denominator is then 0 in exact arithmetic, however the means round.
    """
    arrays = [np.asarray(g, dtype=np.float64) for g in groups]
    if len(arrays) < 2 or any(a.size < 2 for a in arrays):
        raise ValueError("need at least two groups of two observations")
    k = len(arrays)
    n_total = sum(a.size for a in arrays)
    devs = [np.abs(a - a.mean()) for a in arrays]
    if all(d.size == 2 or np.ptp(d) == 0.0 for d in devs):
        raise DegenerateGroups("no variation in absolute deviations")
    group_means = np.array([d.mean() for d in devs])
    grand = sum(d.sum() for d in devs) / n_total
    numer = sum(d.size * (m - grand) ** 2 for d, m in zip(devs, group_means))
    denom = sum(((d - m) ** 2).sum() for d, m in zip(devs, group_means))
    w = (n_total - k) / (k - 1) * numer / denom
    return float(w), float(scipy.special.fdtrc(k - 1, n_total - k, w))


def welch_t_one_tailed(a, b, alternative: str = "greater") -> tuple:
    """Welch's unequal-variance t-test with a one-sided p-value.

    alternative "greater" tests mean(a) > mean(b); "less" the reverse.
    Raises `DegenerateGroups` when both samples are constant, however
    their means round.
    """
    if alternative not in ("greater", "less"):
        raise ValueError("alternative must be 'greater' or 'less'")
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.size < 2 or b.size < 2:
        raise ValueError("each sample needs at least two observations")
    if np.ptp(a) == 0.0 and np.ptp(b) == 0.0:
        raise DegenerateGroups("both samples are constant")
    va, vb = a.var(ddof=1), b.var(ddof=1)
    sa, sb = va / a.size, vb / b.size
    se = math.sqrt(sa + sb)
    t = (a.mean() - b.mean()) / se
    df = (sa + sb) ** 2 / (sa ** 2 / (a.size - 1) + sb ** 2 / (b.size - 1))
    p = scipy.special.stdtr(df, -t if alternative == "greater" else t)
    return float(t), float(p)


def bonferroni(p_values) -> list:
    """min(1, p·m) for each of the m p-values. A p-value outside [0, 1],
    NaN included, is a `ValueError`."""
    ps = [float(p) for p in p_values]
    if any(not (0.0 <= p <= 1.0) for p in ps):
        raise ValueError("p-values must lie in [0, 1]")
    m = len(ps)
    return [min(1.0, p * m) for p in ps]


def sign_test_one_sided(differences) -> tuple:
    """Exact binomial sign test for median(differences) > 0.

    Zero differences are dropped. Returns (wins, n_nonzero, p) where p is
    the probability of at least `wins` positives under a fair coin.
    """
    diffs = np.asarray(differences, dtype=np.float64)
    nonzero = diffs[diffs != 0.0]
    n = int(nonzero.size)
    if n == 0:
        return 0, 0, 1.0
    wins = int((nonzero > 0.0).sum())
    # int / int is exact and correctly rounded; 2.0 ** n overflows at n = 1024
    p = sum(math.comb(n, j) for j in range(wins, n + 1)) / 2 ** n
    return wins, n, float(p)
