"""Counting bounds for codes correcting one in-run deletion.

All combinatorial quantities are exact integers or fractions, taken
from the run histogram below, which counts words instead of listing
them: a transfer-matrix count whose count vectors are each packed into
one int of fixed-width slots, so each of its n - 1 steps is O(a) int
additions and shifts.  A bound report or packing chain builds its
histogram once and takes every field from it.  Only the closed-form
redundancy bound uses floating point, since it mixes logs and exp.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction


def rho_geq_histogram(n: int, a: int) -> list[int]:
    """Histogram of rho_geq(., a) over all 2^n words of length n.

    Entry r is the number of words with exactly r maximal runs of length
    >= a.  A transfer-matrix count: the state is the length of the last
    run, capped at a, and each state carries its count vector indexed by
    r.  Appending a bit either starts a new run (every state goes to
    length 1) or extends the last one (length c goes to c + 1, and the
    run is counted, a one-place shift of its vector, when it reaches a).

    Each count vector is packed into one int, entry r in the r-th slot
    of ``8 * ((n + 8) // 8)`` bits.  A count never exceeds 2^n, which
    fits in a slot, so no slot carries into the next: adding two vectors
    is one int addition and counting one more run is one left shift by
    a slot.  The n - 1 steps each take O(a) int operations, and the
    packed result is unpacked once, through its bytes.
    """
    if a < 1:
        raise ValueError("run-length threshold must be >= 1")
    if n < 0:
        raise ValueError("word length must be >= 0")
    if n == 0:
        return [1]
    size = n // a + 1
    slot_bytes = (n + 8) // 8
    shift = 8 * slot_bytes
    # by_run[c - 1]: packed vector of the words whose last run has
    # capped length c; both one-bit words end in a run of length 1,
    # counted when a == 1
    by_run = [0] * a
    by_run[0] = 2 << (shift if a == 1 else 0)
    for _ in range(n - 1):
        nxt = [sum(by_run)] + by_run[:-1]
        # the vector now in state a holds runs that just reached a (one
        # more run each) plus the runs already capped at a
        nxt[-1] = (nxt[-1] << shift) + by_run[-1]
        by_run = nxt
    packed = sum(by_run).to_bytes(size * slot_bytes, "little")
    return [
        int.from_bytes(packed[i : i + slot_bytes], "little")
        for i in range(0, len(packed), slot_bytes)
    ]


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
    positive and 1 otherwise, from the run histogram of length n-1.
    """
    return _weighted_sum(_output_histogram(n, window))


def _output_histogram(n: int, window: int) -> list[int]:
    """Run histogram of the length-(n-1) words one deletion leaves."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return rho_geq_histogram(n - 1, window)


def _weighted_sum(hist: list[int]) -> Fraction:
    """Sum of hist[r] / r over r >= 1, plus hist[0].

    Taken over the common denominator lcm(1..R), R the largest r, so
    the sum is integer arithmetic with one reduction at the end.
    """
    den = math.lcm(*range(1, len(hist)))
    return Fraction(sum(k * (den // max(r, 1)) for r, k in enumerate(hist)), den)


def tail_count(n: int, a: int) -> int:
    """Number of length-n words with rho_geq(., a) below the tail cutoff.

    The cutoff is (n - 2a + 4) / 2^(a+1); the comparison is done in
    integers so the count is exact.
    """
    return _tail_count(rho_geq_histogram(n, a), n, a)


def _tail_count(hist: list[int], n: int, a: int) -> int:
    """``tail_count(n, a)`` from ``hist = rho_geq_histogram(n, a)``."""
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
    form is a float.  It is ``math.inf`` once it passes the float range,
    and wherever n - 2*window + 3 <= 0: there its denominator is zero or
    negative and it bounds nothing.
    """
    hist = _output_histogram(n, window)
    ws = _weighted_sum(hist)

    shift = 2 ** (window + 1)
    cutoff_num = n - 2 * window + 3  # threshold times 2^(window+1)
    tail = _tail_count(hist, n - 1, window)  # words with r * shift < cutoff_num
    t = -((-cutoff_num) // shift)  # ceil of the cutoff
    bulk = sum(hist) - tail  # words with r >= t
    split = Fraction(tail) + Fraction(bulk, t) if t >= 1 else Fraction(tail + bulk)

    if cutoff_num <= 0:
        return ws, split, math.inf
    try:
        closed = math.ldexp(
            math.exp(-(n - 1) / 2 ** (2 * window + 1)), n - 1
        ) + 2 ** (n + window) / cutoff_num
    except OverflowError:  # beyond float range; the chain still holds
        closed = math.inf
    return ws, split, closed


def _float_or_none(q: Fraction) -> float | None:
    """float(q), or None when q lies beyond the float range."""
    try:
        return float(q)
    except OverflowError:
        return None


@dataclass(frozen=True)
class BoundReport:
    n: int
    window: int
    lower_bound_bits: float | None
    weighted_sum: Fraction
    tail_count: int | None
    expected_runs: Fraction | None

    def to_dict(self) -> dict:
        return {
            "n": self.n,
            "window": self.window,
            "lower_bound_bits": self.lower_bound_bits,
            "weighted_sum": str(self.weighted_sum),
            "weighted_sum_float": _float_or_none(self.weighted_sum),
            "tail_count": self.tail_count,
            "expected_runs": (
                str(self.expected_runs) if self.expected_runs is not None else None
            ),
        }


def bound_report(n: int, window: int) -> BoundReport:
    """Populate every field that is defined at (n, window).

    Fields outside their domain are left absent rather than approximated:
    ``lower_bound_bits`` exists only for window >= 2 and n > 2 * window.
    ``weighted_sum`` bounds the in-run (sticky) deletion code, the
    ``packing_size`` of ``oracle.exact_max_sticky_code``, not a code for
    the read channel.
    """
    lower = None
    if window >= 2 and n > 2 * window:
        lower = redundancy_lower_bound(n, window)
    hist = _output_histogram(n, window)
    ws = _weighted_sum(hist)
    tail = _tail_count(hist, n - 1, window) if n >= 2 else None
    exp_runs = expected_runs(n, window) if 1 <= window <= n else None
    return BoundReport(
        n=n,
        window=window,
        lower_bound_bits=lower,
        weighted_sum=ws,
        tail_count=tail,
        expected_runs=exp_runs,
    )
