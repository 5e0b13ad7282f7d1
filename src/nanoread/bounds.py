"""Counting bounds for codes correcting one in-run deletion.

All combinatorial quantities are exact integers or fractions, taken
from the run histogram below, which counts words instead of listing
them; only the closed-form redundancy bound uses floating point, since
it mixes logs and exp.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction


def rho_geq_histogram(n: int, a: int) -> list[int]:
    """Histogram of rho_geq(., a) over all 2^n words of length n.

    Entry r is the number of words with exactly r maximal runs of length
    >= a.  A transfer-matrix count: the state is the length of the last
    run, capped at a, and each state carries its counts indexed by r.
    Appending a bit either extends the last run or starts a new one, and
    a run is counted when its length reaches a.  O(n^2) additions.
    """
    if a < 1:
        raise ValueError("run-length threshold must be >= 1")
    if n < 0:
        raise ValueError("word length must be >= 0")
    size = n // a + 1
    # by_run[c][r]: words whose last run has capped length c; the empty
    # word has a run of length 0, and both ways out of it give length 1
    by_run = [[0] * size for _ in range(a + 1)]
    by_run[0][0] = 1
    for _ in range(n):
        nxt = [[0] * size for _ in range(a + 1)]
        for c in range(a + 1):
            grown = min(c + 1, a)
            for r, k in enumerate(by_run[c]):
                if k:
                    nxt[1][r + (a == 1)] += k
                    nxt[grown][r + (c + 1 == a)] += k
        by_run = nxt
    return [sum(col) for col in zip(*by_run)]


def redundancy_lower_bound(n: int, window: int) -> float:
    """Closed-form lower bound, in bits, on single-deletion redundancy.

    Defined for window >= 2 and n > 2 * window (the log argument needs
    1 - 2*window/n > 0).  Approaches log2(n) - window + 1 - 1 for large n.
    """
    if window < 2:
        raise ValueError("bound requires window >= 2")
    if n <= 2 * window:
        raise ValueError("bound requires n > 2 * window")
    inner = 2.0 / (1.0 - 2.0 * window / n) + (
        2.0**-window * n * math.exp(-(n - 1) / 2 ** (2 * window + 1))
    )
    return math.log2(n) - window + 1 - math.log2(inner)


def weighted_sum(n: int, window: int) -> Fraction:
    """Exact sphere-packing upper bound on the in-run-deletion code size.

    Sums, over all words y of length n-1, 1/rho_geq(y, window) when
    positive and 1 otherwise.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    hist = rho_geq_histogram(n - 1, window)
    return Fraction(hist[0]) + sum(Fraction(k, r) for r, k in enumerate(hist) if r)


def tail_count(n: int, a: int) -> int:
    """Number of length-n words with rho_geq(., a) below the tail cutoff.

    The cutoff is (n - 2a + 4) / 2^(a+1); the comparison is done in
    integers so the count is exact.
    """
    hist = rho_geq_histogram(n, a)
    shift = 2 ** (a + 1)
    return sum(k for r, k in enumerate(hist) if r * shift < n - 2 * a + 4)


def expected_runs(n: int, a: int) -> Fraction:
    """Mean of rho_geq(., a) over uniform length-n words: (n-a+2) / 2^a."""
    if not 1 <= a <= n:
        raise ValueError("need 1 <= a <= n")
    return Fraction(n - a + 2, 2**a)


def packing_chain(n: int, window: int) -> tuple[Fraction, Fraction, float]:
    """Successive upper bounds on the maximum in-run-deletion code size.

    Returns (exact weighted sum, tail-split bound, relaxed closed form);
    each term is at most the next wherever all are defined.  The closed
    form is a float, and ``math.inf`` once it passes the float range.
    """
    ws = weighted_sum(n, window)

    hist = rho_geq_histogram(n - 1, window)
    shift = 2 ** (window + 1)
    cutoff_num = n - 2 * window + 3  # threshold times 2^(window+1)
    tail = sum(k for r, k in enumerate(hist) if r * shift < cutoff_num)
    t = -((-cutoff_num) // shift)  # ceil of the cutoff
    bulk = sum(k for r, k in enumerate(hist) if r >= t)
    split = Fraction(tail) + Fraction(bulk, t) if t >= 1 else Fraction(tail + bulk)

    try:
        closed = math.ldexp(
            math.exp(-(n - 1) / 2 ** (2 * window + 1)), n - 1
        ) + 2 ** (n + window) / (n - 2 * window + 3)
    except OverflowError:  # beyond float range; the chain still holds
        closed = math.inf
    return ws, split, closed


def _float_or_none(q: Fraction | None) -> float | None:
    """float(q), or None when q is None or lies beyond the float range."""
    if q is None:
        return None
    try:
        return float(q)
    except OverflowError:
        return None


@dataclass(frozen=True)
class BoundReport:
    n: int
    window: int
    lower_bound_bits: float | None
    weighted_sum: Fraction | None
    tail_count: int | None
    expected_runs: Fraction | None

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "window": self.window,
            "lower_bound_bits": self.lower_bound_bits,
            "weighted_sum": (
                str(self.weighted_sum) if self.weighted_sum is not None else None
            ),
            "weighted_sum_float": _float_or_none(self.weighted_sum),
            "tail_count": self.tail_count,
            "expected_runs": (
                str(self.expected_runs) if self.expected_runs is not None else None
            ),
        }


def bound_report(n: int, window: int) -> BoundReport:
    """Populate every field that is defined at (n, window).

    Fields outside their domain are left absent rather than approximated.
    """
    lower = None
    if window >= 2 and n > 2 * window:
        lower = redundancy_lower_bound(n, window)
    ws = weighted_sum(n, window)
    tail = tail_count(n - 1, window) if n >= 2 else None
    exp_runs = expected_runs(n, window) if 1 <= window <= n else None
    return BoundReport(
        n=n,
        window=window,
        lower_bound_bits=lower,
        weighted_sum=ws,
        tail_count=tail,
        expected_runs=exp_runs,
    )
