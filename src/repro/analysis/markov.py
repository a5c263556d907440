"""The flat-group infection Markov chain (paper §4.2, Eqs 8–10).

The spreading of one event in a "flat" group (a tree of depth 1) of
effective size ``n`` with effective fanout ``F``:

* Eq 8 — the probability that one infected process reaches one given
  process in a round::

      p(n, F) = (F / (n - 1)) * (1 - ε) * (1 - τ),   q = 1 - p

* Eq 9 — the transition probability from ``j`` to ``k`` infected::

      p_jk = C(n - j, k - j) * (1 - q^j)^(k - j) * q^(j (n - k))

* Eq 10 — the distribution of the number infected after ``t`` rounds,
  computed by iterating the chain from ``s_0 = 1``.

Effective sizes from the paper are often fractional (``n·p_d``); the
chain needs integer states, so sizes are rounded half-up, with a floor
of one process (the publisher).  All heavy lifting is vectorized numpy.

The binomials (Eq 9's coefficient, Eq 16's pmf) are computed here, in
logs, from one ``log(i!)`` table filled with ``math.lgamma`` — numpy is
the package's only dependency.  Against exact rational arithmetic a pmf
entry is within 1e-12 relative for n ≤ 300 and 1e-10 at n = 10 648 (a
few ulps of ``log(n!)``, all a double can hold); rows and pmfs are
renormalised by their callers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import AnalysisError

__all__ = [
    "reach_probability",
    "transition_matrix",
    "state_distribution",
    "expected_infected",
    "InfectionChain",
]


def _effective_size(n: float) -> int:
    if n < 0:
        raise AnalysisError(f"group size {n} must be >= 0")
    # Half-up as documented: round() would be banker's (2.5 -> 2).
    return max(int(math.floor(n + 0.5)), 1)


def reach_probability(
    n: float,
    fanout: float,
    loss_probability: float = 0.0,
    crash_fraction: float = 0.0,
) -> float:
    """Eq 8: probability one infected process infects one given process.

    The fanout is capped so the probability stays a probability even
    for tiny effective groups (``F > n - 1`` means every peer is hit).
    """
    if fanout < 0:
        raise AnalysisError(f"fanout {fanout} must be >= 0")
    if not 0.0 <= loss_probability < 1.0:
        raise AnalysisError(f"loss {loss_probability} not in [0, 1)")
    if not 0.0 <= crash_fraction < 1.0:
        raise AnalysisError(f"crash fraction {crash_fraction} not in [0, 1)")
    size = _effective_size(n)
    if size <= 1:
        return 0.0
    choose = min(fanout / (size - 1), 1.0)
    return choose * (1.0 - loss_probability) * (1.0 - crash_fraction)


#: ``log(i!)`` for ``i = 0 .. len - 1`` from ``math.lgamma``, grown by
#: doubling on demand.
_log_factorials = np.zeros(2)


def _log_binomial(n, k) -> np.ndarray:
    """log C(n, k) element-wise, for integer counts ``0 <= k <= n``.

    Three reads of the ``log(i!)`` table: the arguments are counts, so
    each entry is right to the ulp and the difference is off by a few
    ulps of ``log(n!)`` — under 1e-12 of the value itself
    (tests/analysis/test_binomial.py).  Staying in logs is what keeps
    big groups stable.
    """
    global _log_factorials
    n = np.asarray(n, dtype=np.intp)
    k = np.asarray(k, dtype=np.intp)
    top = int(n.max(initial=0))
    if top >= len(_log_factorials):
        _log_factorials = np.array(
            [
                math.lgamma(i + 1.0)
                for i in range(max(top + 1, 2 * len(_log_factorials)))
            ]
        )
    table = _log_factorials
    return table[n] - table[k] - table[n - k]


def _binomial_pmf(n: int, r: float) -> np.ndarray:
    """``P[Binom(n, r) = k]`` for ``k = 0..n`` (Eq 16's inner term).

    ``exp(log C(n, k) + k log r + (n - k) log1p(-r))`` with the
    ``r = 0`` / ``r = 1`` ends exact; the relative error of an entry is
    the absolute error of its exponent, a few ulps of its largest term.
    """
    if 0.0 < r < 1.0:
        ks = np.arange(n + 1)
        return np.exp(
            _log_binomial(n, ks)
            + ks * math.log(r)
            + (n - ks) * math.log1p(-r)
        )
    pmf = np.zeros(n + 1)
    pmf[n if r >= 1.0 else 0] = 1.0
    return pmf


def transition_matrix(
    n: float,
    fanout: float,
    loss_probability: float = 0.0,
    crash_fraction: float = 0.0,
) -> np.ndarray:
    """Eq 9 as a dense (size+1) x (size+1) row-stochastic matrix.

    Row ``j``, column ``k`` is ``P[s_{t+1} = k | s_t = j]``; states 0
    and ``j > k`` rows follow the absorbing/upper-triangular structure
    of the rumor chain (infection never recedes).
    """
    size = _effective_size(n)
    p = reach_probability(size, fanout, loss_probability, crash_fraction)
    q = 1.0 - p
    matrix = np.zeros((size + 1, size + 1))
    matrix[0, 0] = 1.0
    if q >= 1.0:
        # p == 0, or p so small (ε or τ within one ulp of 1) that
        # 1 - p rounds back to 1: either way log1p(-q^j) would hit
        # log(0) below, and the chain cannot advance — identity.
        np.fill_diagonal(matrix, 1.0)
        return matrix
    js = np.arange(1, size + 1)
    for j in js:
        ks = np.arange(j, size + 1)
        fresh = ks - j
        missed = size - ks
        # (1 - q^j) underflows to 0 only when p is 0, handled above.
        log_hit = np.log1p(-np.power(q, j))
        log_q = np.log(q) if q > 0.0 else -np.inf
        with np.errstate(invalid="ignore"):
            log_terms = (
                _log_binomial(size - j, fresh)
                + fresh * log_hit
                + (j * missed) * log_q
            )
        if q == 0.0:
            # Everyone is reached in one round: jump straight to n.
            row = np.zeros(len(ks))
            row[-1] = 1.0
        else:
            row = np.exp(log_terms)
        matrix[j, j:] = row
        total = matrix[j].sum()
        if total > 0:
            matrix[j] /= total
    return matrix


def state_distribution(
    n: float,
    fanout: float,
    rounds: int,
    loss_probability: float = 0.0,
    crash_fraction: float = 0.0,
) -> np.ndarray:
    """Eq 10: the distribution of ``s_t`` after ``rounds`` rounds.

    Starts from ``s_0 = 1`` (the event is injected at one process) and
    returns a vector over states ``0..size``.
    """
    if rounds < 0:
        raise AnalysisError(f"rounds {rounds} must be >= 0")
    matrix = transition_matrix(n, fanout, loss_probability, crash_fraction)
    size = matrix.shape[0] - 1
    distribution = np.zeros(size + 1)
    distribution[min(1, size)] = 1.0
    for __ in range(rounds):
        distribution = distribution @ matrix
    return distribution


def expected_infected(
    n: float,
    fanout: float,
    rounds: int,
    loss_probability: float = 0.0,
    crash_fraction: float = 0.0,
) -> float:
    """Eq 14's building block: ``E[s_t]`` after ``rounds`` rounds."""
    distribution = state_distribution(
        n, fanout, rounds, loss_probability, crash_fraction
    )
    return float(distribution @ np.arange(len(distribution)))


@dataclass(frozen=True)
class InfectionChain:
    """The chain of one (n, F, ε, τ) quadruple, queried at several
    round counts (the tree model, Eq 14, asks for several)."""

    n: float
    fanout: float
    loss_probability: float = 0.0
    crash_fraction: float = 0.0

    def after(self, rounds: int) -> np.ndarray:
        """The Eq 10 distribution after ``rounds`` rounds."""
        return state_distribution(
            self.n,
            self.fanout,
            rounds,
            self.loss_probability,
            self.crash_fraction,
        )

    def expected_after(self, rounds: int) -> float:
        """``E[s_t]`` after ``rounds`` rounds."""
        return expected_infected(
            self.n,
            self.fanout,
            rounds,
            self.loss_probability,
            self.crash_fraction,
        )
