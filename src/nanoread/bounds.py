"""Counting bounds for codes correcting one in-run deletion.

All combinatorial quantities are exact integers or fractions, taken
from the run histogram below, which counts words instead of listing
them: the histogram of all length-k words is one int H_k of fixed-width
slots, and its prefix sums T_k = H_0 + ... + H_k follow one recurrence,
T_k = 2 T_(k-1) + (u - 1) T_(k-a), at four int operations a step for
every threshold a.  One routine, ``_histograms``, steps every sweep: a
bound table's, one per window through all its rows, and the one-row
sweep behind ``rho_geq_histogram``, from which a bound report or
packing chain takes every field; it unpacks with ``_unpack``.
Only the closed-form redundancy bound uses floating point, since it
mixes logs and exp.
"""

from __future__ import annotations

import math
import struct
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Iterable, Iterator

# bytes per slot -> struct code of that standard size ("<" byte order)
_SLOT_FORMATS = {1: "B", 2: "H", 4: "I", 8: "Q"}


def rho_geq_histogram(n: int, a: int) -> list[int]:
    """Histogram of rho_geq(., a) over all 2^n words of length n.

    Entry r is the number of words with exactly r maximal runs of length
    >= a.  Packed into slots of ``8 * ((n + 8) // 8)`` bits, the
    histogram H_k of the length-k words is a polynomial in u = 2^(slot
    bits), and a run that counts multiplies by u.  A word of length
    k >= 1 is a shorter word and one last run of length j, counted when
    j >= a; set H_0 = 2, the two symbols a first run may take.  In the
    prefix sums T_k = H_0 + ... + H_k, with T_i = 0 for i < 0, that is
    H_k = T_(k-1) + (u - 1) T_(k-a), so T_k = 2 T_(k-1) + (u - 1) T_(k-a).

    No a needs a branch: at a = 1, T_(k-a) is T_(k-1), and a threshold
    past k leaves it 0, so H_k = 2^k.  Length 0 reads T_0 - T_(-1) with
    T_(-1) = 1, its one word.  No count exceeds 2^n, so each slot of H_k
    holds its entry exactly.  The prefix sums are exact values at u too,
    but their slots may overflow or go below 0, so only
    H_k = T_k - T_(k-1) is unpacked, once, through its bytes.  A one-row
    sweep of ``_histograms`` does the work.
    """
    if a < 1:
        raise ValueError("run-length threshold must be >= 1")
    if n < 0:
        raise ValueError("word length must be >= 0")
    # run to its end: closing a suspended generator costs a GeneratorExit
    [hist] = _histograms(a, [n], _count_slot_bytes(n))
    return hist


def _count_slot_bytes(n: int) -> int:
    """Bytes per packed count slot: room for a count up to 2^n."""
    return (n + 8) // 8


def _histograms(a: int, ks: Iterable[int], slot_bytes: int) -> Iterator[list[int]]:
    """``rho_geq_histogram(k, a)`` for each k in ks, from one sweep.

    The sweep steps the prefix sums T_k on from the last k; it starts
    again only where k goes down.  ``sums`` keeps the last a of them, so
    T_(k-a) is its first once it is full, and 0 before.  The step takes
    T_(k-1) - T_(k-a) first: at a = 1 the two are one int, and the
    difference is 0 without a new int.  Every k must be below
    8 * slot_bytes, so that each entry of H_k fits its slot.
    """
    shift = 8 * slot_bytes
    k = math.inf  # no sweep yet: the first k starts one
    for target in ks:
        if target < k:
            k, total, sums = -1, 1, deque(maxlen=a)
        for k in range(k + 1, target + 1):
            old = sums[0] if len(sums) == a else 0
            prev, total = total, (total - old) + total + (old << shift)
            sums.append(total)
        yield list(_unpack(total - prev, target // a + 1, slot_bytes))


def _unpack(value: int, slots: int, k: int) -> tuple[int, ...]:
    """The first ``slots`` slots of value, k bytes each, little-endian.

    Any k >= 1 serves; the widths of ``_SLOT_FORMATS`` take one call,
    any other one slice per slot.
    """
    raw = value.to_bytes(k * slots, "little")
    if k in _SLOT_FORMATS:
        return struct.unpack(f"<{slots}{_SLOT_FORMATS[k]}", raw)
    return tuple(
        [int.from_bytes(raw[i : i + k], "little") for i in range(0, len(raw), k)]
    )


def redundancy_lower_bound(n: int, window: int) -> float:
    """Closed-form lower bound, in bits, on single-deletion redundancy.

    Defined for window >= 2 and n > 2 * window (the log argument needs
    1 - 2*window/n > 0).  Approaches log2(n) - window, the paper's bound,
    for large n: the argument of the second log tends to 2.
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
    size = len(hist)
    den = math.lcm(*range(1, size))
    weighted = sum(map(mul, hist[1:], map(den.__floordiv__, range(1, size))))
    return Fraction(weighted + hist[0] * den, den)


def tail_count(n: int, a: int) -> int:
    """Number of length-n words with rho_geq(., a) below the tail cutoff.

    The cutoff is (n - 2a + 4) / 2^(a+1); the comparison is done in
    integers so the count is exact.
    """
    return _tail_count(rho_geq_histogram(n, a), n, a)


def _tail_count(hist: list[int], n: int, a: int) -> int:
    """``tail_count(n, a)`` from ``hist = rho_geq_histogram(n, a)``."""
    return sum(hist[: _tail_len(n, a)])


def _tail_len(n: int, a: int) -> int:
    """The least r >= 0 at or above the cutoff (n - 2a + 4) / 2^(a+1);
    0 where the cutoff is not above 0, with no 2^(a+1) formed."""
    return 0 if 2 * a - 4 >= n else -((2 * a - 4 - n) // 2 ** (a + 1))


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

    t = _tail_len(n - 1, window)
    tail = _tail_count(hist, n - 1, window)  # words below the cutoff
    bulk = sum(hist[t:])  # words with r >= t
    split = Fraction(tail) + Fraction(bulk, t) if t >= 1 else Fraction(tail + bulk)

    cutoff_num = n - 2 * window + 3  # threshold times 2^(window+1)
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
    return _report(n, window, _output_histogram(n, window))


def bound_table(ns: Iterable[int], windows: Iterable[int]) -> Iterator[BoundReport]:
    """``bound_report(n, window)`` for each n in ns, and within it each window.

    One run-histogram sweep per window serves every row: its slots are
    sized for the largest n, and it steps on from one n to the next, so
    a table up to N costs O(N) steps per window instead of O(N) per
    row.  Bad arguments raise here, before any row is built.
    """
    ns, windows = list(ns), list(windows)
    if any(n < 1 for n in ns):
        raise ValueError("n must be >= 1")
    if any(w < 1 for w in windows):
        raise ValueError("run-length threshold must be >= 1")
    ks = [n - 1 for n in ns]
    slot_bytes = _count_slot_bytes(max(ks, default=0))
    sweeps = [_histograms(w, ks, slot_bytes) for w in windows]
    return (
        _report(n, w, next(sweep)) for n in ns for w, sweep in zip(windows, sweeps)
    )


def _report(n: int, window: int, hist: list[int]) -> BoundReport:
    """The row at (n, window) from ``hist = rho_geq_histogram(n - 1, window)``."""
    lower = None
    if window >= 2 and n > 2 * window:
        lower = redundancy_lower_bound(n, window)
    return BoundReport(
        n=n,
        window=window,
        lower_bound_bits=lower,
        weighted_sum=_weighted_sum(hist),
        tail_count=_tail_count(hist, n - 1, window) if n >= 2 else None,
        expected_runs=expected_runs(n, window) if 1 <= window <= n else None,
    )
