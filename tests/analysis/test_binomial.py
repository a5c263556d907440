"""The binomial of Eqs 9 and 16 against exact rational arithmetic.

``math.comb`` and ``fractions.Fraction`` give every entry exactly, so
the reference is better than a second floating-point library — and the
bounds are the ones the dtype allows: ``log C(n, k)`` is three reads of
a ``log(i!)`` table, off by a few ulps of ``log(n!)`` (2e-13 at
n = 300, 1.5e-11 at n = 10 648), and that absolute error of the
exponent is the relative error of the pmf entry.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from repro.analysis import analyze_tree, entity_count_distribution
from repro.analysis.markov import _binomial_pmf, _log_binomial

RATES = [0.0, 1e-9, 0.02, 0.5, 1 - 1e-9, 1.0]


def sampled_ks(n, r):
    """Every k up to n = 300; beyond, both ends and the mode's flanks."""
    if n <= 300:
        return list(range(n + 1))
    mode = int(n * r)
    around = [mode + step for step in (-150, -40, -1, 0, 1, 40, 150)]
    return sorted({k for k in [0, 1, 2, n - 2, n - 1, n, *around] if 0 <= k <= n})


def exact_pmf(n, k, r):
    """``(numerator, denominator)`` of the entry at the double's exact
    value — unreduced integers: a gcd of 500 000-bit numbers per entry
    is the slow part of ``Fraction``, and nothing here needs it."""
    hit, scale = float(r).as_integer_ratio()
    return math.comb(n, k) * hit ** k * (scale - hit) ** (n - k), scale ** n


@pytest.mark.parametrize("n", [1, 2, 22, 66, 300, 10_648])
def test_log_binomial_is_exact_to_1e_12(n):
    ks = np.array(sampled_ks(n, 0.5))
    got = _log_binomial(n, ks)
    for k, value in zip(ks.tolist(), got.tolist()):
        exact = math.log(math.comb(n, k))
        assert value == pytest.approx(exact, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("r", RATES)
@pytest.mark.parametrize(
    "n, inverse_tolerance",
    [(1, 10 ** 12), (2, 10 ** 12), (22, 10 ** 12), (66, 10 ** 12),
     (300, 10 ** 12), (10_648, 10 ** 10)],
)
def test_pmf_matches_exact_rationals(n, inverse_tolerance, r):
    pmf = _binomial_pmf(n, r)
    assert pmf.shape == (n + 1,)
    assert np.all(pmf >= 0.0)
    assert pmf.sum() == pytest.approx(1.0, abs=1e-11)
    for k in sampled_ks(n, r):
        top, bottom = exact_pmf(n, k, r)
        if top == 0:
            assert pmf[k] == 0.0            # the r = 0 / r = 1 ends
        elif top * 10 ** 300 > bottom:
            got_top, got_bottom = float(pmf[k]).as_integer_ratio()
            # |got - exact| <= exact / inverse_tolerance, cross-multiplied.
            assert (
                abs(got_top * bottom - top * got_bottom) * inverse_tolerance
                <= top * got_bottom
            ), (n, k, r, float(pmf[k]))


def test_degenerate_rates_are_exact_points():
    assert _binomial_pmf(5, 0.0).tolist() == [1, 0, 0, 0, 0, 0]
    assert _binomial_pmf(5, 1.0).tolist() == [0, 0, 0, 0, 0, 1]
    assert _binomial_pmf(0, 0.3).tolist() == [1.0]


def test_eq16_first_level_is_the_binomial():
    """``g_1 ~ Binom(a p_1, r_1)``: the tree model reads this pmf."""
    analysis = analyze_tree(0.5, 6, 2, 2, 3)
    susceptible = int(math.floor(6 * analysis.interest_probabilities[0] + 0.5))
    r_1 = analysis.node_infection_probabilities[0]
    got = entity_count_distribution(analysis, 1)
    for k, value in enumerate(got):
        assert value == pytest.approx(
            float(Fraction(*exact_pmf(susceptible, k, r_1))), rel=1e-12
        )
