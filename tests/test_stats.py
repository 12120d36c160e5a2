import math
import random

import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats as scipy_stats

from divgen.metrics.stats import bootstrap_std, holm_bonferroni, mcnemar, significance
from divgen.metrics.text import type_token_ratio


def test_bootstrap_constant_metric_is_zero():
    assert bootstrap_std(list(range(10)), lambda xs: 4.2, seed=1) == 0.0


def test_bootstrap_same_seed_identical():
    items = list(range(30))
    fn = lambda xs: sum(xs) / len(xs)  # noqa: E731
    assert bootstrap_std(items, fn, seed=9) == bootstrap_std(items, fn, seed=9)
    assert bootstrap_std(items, fn, seed=9) != bootstrap_std(items, fn, seed=10)


def test_bootstrap_matches_independent_reimplementation():
    corpus = [
        "book the red hotel", "find a cheap flight", "play some quiet jazz",
        "convert forty euros", "list open museums", "check the tide tables",
        "summarize this memo", "translate the menu", "rank these shoes",
        "plan a short hike",
    ]
    got = bootstrap_std(corpus, type_token_ratio, seed=7)
    # oracle: re-derive the documented stream (one sample() per resample)
    rng = random.Random(7)
    size = math.floor(0.8 * len(corpus))
    vals = [type_token_ratio(rng.sample(corpus, size)) for _ in range(100)]
    mean = math.fsum(vals) / len(vals)
    want = math.sqrt(math.fsum((v - mean) ** 2 for v in vals) / len(vals))
    assert got == pytest.approx(want, abs=1e-15)


def test_significance_examples():
    sig, direction = significance(4.32, 0.01, 3.40, 0.16)
    assert sig and direction == 1
    assert significance(1.0, 0.5, 1.0, 0.5) == (False, 0)
    assert significance(2.0, 0.0, 1.0, 0.0) == (True, 1)
    # boundary is strict
    assert significance(1.0, 0.0, 1.0 + 1.96 * 0.0, 0.0) == (False, 0)


def test_mcnemar_balanced_exact_is_one():
    assert mcnemar(7, 7) == 1.0
    assert mcnemar(0, 0) == 1.0


def test_mcnemar_exact_5_15():
    # binomial two-sided tail: (sum_{i<=5} + sum_{i>=15}) C(20,i) / 2^20
    want = (sum(math.comb(20, i) for i in range(6))
            + sum(math.comb(20, i) for i in range(15, 21))) / 2 ** 20
    got = mcnemar(5, 15)
    assert got == pytest.approx(want, abs=0.0)
    assert got == pytest.approx(0.0414, abs=5e-4)
    oracle = 2 * scipy_stats.binom.cdf(5, 20, 0.5)
    assert got == pytest.approx(float(oracle), abs=1e-12)


def test_mcnemar_asymptotic_50_80():
    chi2 = (abs(50 - 80) - 1) ** 2 / 130
    assert chi2 == pytest.approx(6.4692, abs=5e-5)
    got = mcnemar(50, 80)
    oracle = float(scipy_stats.chi2.sf(chi2, df=1))
    assert got == pytest.approx(oracle, abs=1e-12)
    assert got == pytest.approx(0.0110, abs=5e-4)


@settings(max_examples=80, deadline=None)
@given(b=st.integers(0, 60), c=st.integers(0, 60))
def test_mcnemar_symmetric_and_bounded(b, c):
    p = mcnemar(b, c)
    assert p == mcnemar(c, b)
    assert 0.0 <= p <= 1.0


def test_mcnemar_threshold_switch():
    # just below the default threshold: exact; at it: chi-square path
    exact = mcnemar(12, 12)      # b + c = 24 < 25 -> exact, perfectly balanced
    assert exact == 1.0
    asym = mcnemar(12, 13)       # b + c = 25 -> continuity-corrected chi-square
    chi2 = (abs(12 - 13) - 1) ** 2 / 25
    assert asym == pytest.approx(float(scipy_stats.chi2.sf(chi2, df=1)), abs=1e-12)


def test_holm_single_p_rejects():
    assert holm_bonferroni([0.04], alpha=0.05) == [True]


def test_holm_all_equal_above_first_threshold_rejects_none():
    assert holm_bonferroni([0.03, 0.03, 0.03], alpha=0.05) == [False, False, False]


def test_holm_step_down_passes_every_threshold():
    # thresholds 0.05/3, 0.05/2, 0.05: 0.01, 0.02, 0.04 all pass stepwise
    assert holm_bonferroni([0.02, 0.01, 0.04], alpha=0.05) == [True, True, True]


def test_holm_halts_at_first_failure():
    # sorted: 0.01 <= 0.05/3 rejects; 0.03 > 0.05/2 halts; 0.04 untested.
    # Known divergence: the acceptance sheet expects all three rejected here,
    # which contradicts the step-down thresholds (0.0167, 0.025, 0.05).
    assert holm_bonferroni([0.01, 0.03, 0.04], alpha=0.05) == [True, False, False]


def test_holm_decisions_map_back_to_input_order():
    decisions = holm_bonferroni([0.04, 0.001], alpha=0.05)
    assert decisions == [True, True]
    decisions = holm_bonferroni([0.9, 0.001], alpha=0.05)
    assert decisions == [False, True]


def test_holm_validates_pvalues():
    with pytest.raises(ValueError):
        holm_bonferroni([1.5])


@settings(max_examples=60, deadline=None)
@given(ps=st.lists(st.floats(0, 1), min_size=1, max_size=8),
       alpha=st.floats(0.01, 0.2))
def test_holm_never_rejects_more_than_plain_threshold(ps, alpha):
    decisions = holm_bonferroni(ps, alpha)
    for p, rejected in zip(ps, decisions):
        if rejected:
            assert p <= alpha  # Holm is at least as strict as uncorrected
