"""Sliding-window read transform and its mod-2 inverse.

A binary word x of length n passes under a window of length ``window``;
at each shift the window's Hamming weight is emitted, with positions
outside the word reading as 0.  The output ("read vector") has length
n + window - 1 over the alphabet {0, ..., window}.
"""

from __future__ import annotations

from typing import Iterator, Sequence

Word = tuple[int, ...]
Levels = tuple[int, ...]

MAX_ENUM_N = 24


class LengthMismatchError(ValueError):
    """Two sequences that must share a length do not."""


class ResourceLimitError(RuntimeError):
    """Requested enumeration exceeds the guarded problem size."""


def all_words(n: int) -> Iterator[Word]:
    """All binary words of length n in lexicographic order."""
    if n > MAX_ENUM_N:
        raise ResourceLimitError(f"word enumeration guarded at n <= {MAX_ENUM_N}")
    for v in range(1 << n):
        yield tuple((v >> (n - 1 - i)) & 1 for i in range(n))


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
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    n = len(x)
    out = []
    acc = 0
    for i in range(n + window - 1):
        if i < n:
            acc += x[i]
        if i - window >= 0:
            acc -= x[i - window]
        out.append(acc)
    return tuple(out)


def recover_from_mod2(prefix: Sequence[int], window: int) -> Word:
    """Invert the mod-2 truncated transform.

    Given the first n entries of read_vector(x, window) taken mod 2,
    returns x via the recurrence
    x[i] = (prefix[i] - prefix[i-1] + x[i-window]) mod 2.
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    n = len(prefix)
    x = [0] * n
    prev = 0
    for i in range(n):
        back = x[i - window] if i - window >= 0 else 0
        x[i] = (prefix[i] - prev + back) % 2
        prev = prefix[i]
    return tuple(x)


def is_valid_read_vector(levels: Sequence[int], window: int, n: int) -> bool:
    """True iff some binary word of length n has this read vector.

    One pass: the word is recovered from the mod-2 prefix (as in
    ``recover_from_mod2``) while it is re-transformed (as in
    ``read_vector``), and the candidate is legitimate exactly when every
    entry of the round trip reproduces it.  Stops at the first mismatch.
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    if n < 0:
        raise ValueError("n must be >= 0")
    if len(levels) != n + window - 1:
        raise LengthMismatchError(
            f"candidate length {len(levels)} != n + window - 1 = {n + window - 1}"
        )
    x = []
    acc = prev = 0
    for i, s in enumerate(levels):
        back = x[i - window] if i >= window else 0
        if i < n:
            bit = (s - prev + back) % 2
            x.append(bit)
            acc += bit
            prev = s
        acc -= back
        if s != acc:
            return False
    return True


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
