"""Sliding-window read transform and its mod-2 inverse.

A binary word x of length n passes under a window of length ``window``;
at each shift the window's Hamming weight is emitted, with positions
outside the word reading as 0.  The output ("read vector") has length
n + window - 1 over the alphabet {0, ..., window}.
"""

from __future__ import annotations

from itertools import accumulate, product
from operator import sub
from typing import Iterator, Sequence

Word = tuple[int, ...]
Levels = tuple[int, ...]

MAX_ENUM_N = 24


class LengthMismatchError(ValueError):
    """Two sequences that must share a length do not."""


class ResourceLimitError(RuntimeError):
    """Requested enumeration exceeds the guarded problem size."""


def all_words(n: int) -> Iterator[Word]:
    """All binary words of length n in lexicographic order.

    The size guard is checked when this is called, not when the first
    word is drawn.
    """
    if n > MAX_ENUM_N:
        raise ResourceLimitError(f"word enumeration guarded at n <= {MAX_ENUM_N}")
    return product((0, 1), repeat=n)


def weight(x: Sequence[int]) -> int:
    """Hamming weight (number of ones)."""
    return sum(1 for b in x if b)


def hamming_distance(u: Sequence[int], v: Sequence[int]) -> int:
    if len(u) != len(v):
        raise LengthMismatchError(f"length mismatch: {len(u)} vs {len(v)}")
    return sum(1 for a, b in zip(u, v) if a != b)


def read_vector(x: Sequence[int], window: int) -> Levels:
    """Window-weight transform of a binary word.

    Entry i (1-based) is the weight of x[i-window+1 .. i], out-of-range
    positions reading as 0.  Output length is len(x) + window - 1.
    Computed as the running sum of x_i - x_{i-window}.
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    x = tuple(x)
    steps = map(sub, x + (0,) * (window - 1), (0,) * window + x)
    # a list first, so that the tuple is allocated at its final size: one
    # grown from the iterator is reallocated on the way, which fragmented
    # the heap and raised the exhaustive oracles' peak memory
    return tuple(list(accumulate(steps)))


def recover_from_mod2(prefix: Sequence[int], window: int) -> Word:
    """Invert the mod-2 truncated transform.

    Given the first n entries of read_vector(x, window) taken mod 2,
    returns x via the recurrence
    x[i] = (prefix[i] - prefix[i-1] + x[i-window]) mod 2.
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    x = [0] * window  # bits before the word read as 0
    prev = 0
    for s in prefix:
        x.append((s - prev + x[-window]) % 2)
        prev = s
    return tuple(x[window:])


def _word_of(levels: Sequence[int], window: int, n: int) -> Word | None:
    """The binary word of length n whose read vector is levels, or None.

    levels must have length n + window - 1.  Consecutive entries give
    x_i = c_i - c_{i-1} + x_{i-window}: the first n of these must be
    bits, and the window - 1 past the end of the word must be 0.  Then,
    and only then, the running window sums of x reproduce levels.
    """
    x = [0] * window  # x[i] holds bit i - window; bits before the word are 0
    prev = 0
    for s in levels[:n]:
        bit = s - prev + x[-window]
        if bit != 0 and bit != 1:
            return None
        x.append(bit)
        prev = s
    for i in range(n, len(levels)):
        if levels[i] - prev + x[i]:
            return None
        prev = levels[i]
    return tuple(x[window:])


def _is_one_deletion(short: tuple[int, ...], full: tuple[int, ...]) -> bool:
    """Whether deleting one entry of full leaves short, in one scan."""
    i = 0
    while i < len(short) and short[i] == full[i]:
        i += 1
    return short[i:] == full[i + 1 :]


def is_valid_read_vector(levels: Sequence[int], window: int, n: int) -> bool:
    """True iff some binary word of length n has this read vector."""
    if window < 1:
        raise ValueError("window must be >= 1")
    if n < 0:
        raise ValueError("n must be >= 0")
    if len(levels) != n + window - 1:
        raise LengthMismatchError(
            f"candidate length {len(levels)} != n + window - 1 = {n + window - 1}"
        )
    return _word_of(levels, window, n) is not None


# --- serialization -----------------------------------------------------
#
# Words are ASCII bit strings ("101100").  Read vectors are digit
# strings for window <= 9 and comma-separated otherwise.


def parse_word(text: str) -> Word:
    bits = []
    for ch in text.strip():
        if ch not in "01":
            raise ValueError(f"invalid bit {ch!r} in word {text!r}")
        bits.append(int(ch))
    if not bits:
        raise ValueError("empty word")
    return tuple(bits)


def format_word(x: Sequence[int]) -> str:
    return "".join(str(b) for b in x)


def parse_levels(text: str) -> Levels:
    text = text.strip()
    if "," in text:
        return tuple(int(t) for t in text.split(","))
    return tuple(int(ch) for ch in text)


def format_levels(levels: Sequence[int], window: int) -> str:
    if window > 9:
        return ",".join(str(s) for s in levels)
    return "".join(str(s) for s in levels)
