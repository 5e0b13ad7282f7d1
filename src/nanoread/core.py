"""Sliding-window read transform and its mod-2 inverse.

A binary word x of length n passes under a window of length ``window``;
at each shift the window's Hamming weight is emitted, with positions
outside the word reading as 0.  The output ("read vector") has length
n + window - 1 over the alphabet {0, ..., window}.

The kernel works on sequences packed into one Python int, one byte per
position.  A read entry is the weight of the word bits under the
window, at most min(window, n) of them, so a byte holds every entry
while min(window, n) <= 255; beyond that the kernel raises
``ResourceLimitError``, a size guard like ``MAX_ENUM_N``.  As
polynomials the read vector is c(z) = x(z) * (1 + z + ... +
z^(window-1)), so the transform is one multiplication by the window's
all-ones number S, and a candidate is a read vector exactly when it
divides by S with a quotient whose bytes are bits.  ``oracle.word_of``
keeps the per-entry recurrence as ground truth.

Each job on the packed format has one owner here: ``_ones`` builds S
and keeps the guard, ``_read_bytes`` multiplies (a word's bits are
already its packed bytes), ``_word_bytes`` divides, and ``_parities``
takes the mod-2 prefix off packed bytes: of a read of either length
for the decoder, and of a word's read vector for the syndrome.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
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

    The length and size guards are checked when this is called, not when
    the first word is drawn.
    """
    if n < 0:
        raise ValueError("word length must be >= 0")
    if n > MAX_ENUM_N:
        raise ResourceLimitError(f"word enumeration guarded at n <= {MAX_ENUM_N}")
    return product((0, 1), repeat=n)


_BITS = b"\x00\x01"
_PARITY = _BITS * 128  # byte -> its low bit, a bytes.translate table
_NOT_BITS = "word entries must be bits (0 or 1)"
# the largest entry one byte holds: read entries reach min(window, n)
_MAX_ENTRY = 255


@lru_cache(maxsize=64)
def _ones(window: int, n: int) -> int:
    """S, the all-ones number of a window over words of n bits: a 1 in
    each of its first ``window`` bytes.

    Multiplying a word packed one bit per byte by S adds every window
    of it, which is the read transform.  No window sum carries, as each
    is at most min(window, n); ``ResourceLimitError`` when that may
    pass a byte, which is exactly when min(window, n) > 255.
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    if min(window, n) > _MAX_ENTRY:
        raise ResourceLimitError(
            f"one byte per read entry: guarded at min(window, n) <= {_MAX_ENTRY}"
        )
    return (1 << 8 * window) // 255


def _bit_bytes(x: Sequence[int]) -> bytes:
    """x as one byte per entry; ``ValueError`` unless every entry is 0 or 1."""
    x = tuple(x)  # bytes() would read an int as a length, a buffer as raw bytes
    try:
        raw = bytes(x)
    except (TypeError, ValueError) as exc:  # an entry outside range(256)
        raise ValueError(_NOT_BITS) from exc
    if raw.translate(None, _BITS):
        raise ValueError(_NOT_BITS)
    return raw


def _read_bytes(x: Sequence[int], window: int) -> bytes:
    """x's read vector, one byte per entry: the bytes of the product of
    x, packed one bit per byte, and the window's all-ones S.

    Raises like ``read_vector``.
    """
    x = tuple(x)  # its length sizes the guard before its bits are checked
    ones = _ones(window, len(x))
    raw = _bit_bytes(x)
    c = int.from_bytes(raw, "little") * ones
    return c.to_bytes(len(raw) + window - 1, "little")


def read_vector(x: Sequence[int], window: int) -> Levels:
    """Window-weight transform of a binary word.

    Entry i (1-based) is the weight of x[i-window+1 .. i], out-of-range
    positions reading as 0.  Output length is len(x) + window - 1.
    Every entry of x must be 0 or 1; any other raises ``ValueError``.
    ``ResourceLimitError`` when min(window, len(x)) > 255.

    As polynomials, c(z) = x(z) * (1 + z + ... + z^(window-1)): one
    multiplication of the packed word by the window's all-ones number.
    """
    return tuple(_read_bytes(x, window))


def recover_from_mod2(prefix: Sequence[int], window: int) -> Word:
    """Invert the mod-2 truncated transform.

    Given the first n entries of read_vector(x, window) taken mod 2,
    returns x via the recurrence
    x[i] = prefix[i] xor prefix[i-1] xor x[i-window].  Every entry of
    prefix must be 0 or 1; any other raises ``ValueError``.
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    raw = _bit_bytes(prefix)
    n = len(raw)
    x = _xor_doubling(int.from_bytes(raw, "little"), n, window)
    return tuple(x.to_bytes(n, "little"))


def _xor_doubling(p: int, n: int, window: int) -> int:
    """x packed one bit per byte, from its mod-2 prefix p packed alike.

    y = p xor (p shifted one slot), and x is the xor of y shifted by
    every multiple of the window: log2(n / window) doubling steps.  Xor
    never carries, so one byte serves every window.  p must hold n
    bits; they are not checked again.
    """
    x = p ^ (p << 8)
    stride = window
    while stride < n:
        x ^= x << 8 * stride
        stride *= 2
    return x & ((1 << 8 * n) - 1)


def _word_bytes(levels: Sequence[int], ones: int, n: int) -> bytes | None:
    """The binary word of length n whose read vector is levels, one byte
    per bit, or None; ones is ``_ones(window, n)``.

    levels must have length n + window - 1.  Packed one byte per entry
    as C, levels is a read vector exactly when C = Q * S for the
    all-ones S and every byte of Q is a bit: the remainder of C by S is
    0, and Q then is the word.  C < 2^(8(n+window-1)) and S >=
    2^(8(window-1)), so Q always fits in n bytes.  An entry outside
    [0, 256) cannot be a window sum and gives None.
    """
    try:
        c = int.from_bytes(bytes(levels), "little")
    except (TypeError, ValueError):  # an entry no byte holds
        return None
    q, r = divmod(c, ones)
    if r:
        return None
    raw = q.to_bytes(n, "little")
    return None if raw.translate(None, _BITS) else raw


def _parities(raw: bytes, count: int) -> bytes:
    """The parities of the first count bytes of raw, one byte each."""
    return raw[:count].translate(_PARITY)


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
    return _word_bytes(levels, _ones(window, n), n) is not None


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
