"""Sliding-window read transform and its mod-2 inverse.

A binary word x of length n passes under a window of length ``window``;
at each shift the window's Hamming weight is emitted, with positions
outside the word reading as 0.  The output ("read vector") has length
n + window - 1 over the alphabet {0, ..., window}.

The kernel works on sequences packed into one Python int, one
fixed-width slot per position (one byte while window < 256, wider
above, so that no window sum carries).  As polynomials the read vector
is c(z) = x(z) * (1 + z + ... + z^(window-1)), so the transform is one
multiplication by the window's all-ones number S, and a candidate is a
read vector exactly when it divides by S with a quotient whose slots
are bits.  ``oracle.word_of`` keeps the per-entry recurrence as
ground truth.

Each job on the packed format has one owner here: ``_slot_bytes``
packs, in one call per sequence (``_PACK_ERRORS`` names what it raises
for an entry no slot holds), ``_unpack`` unpacks slots of any width
(the run histograms of ``bounds`` use it too), and ``_parities`` takes
the mod-2 prefix off packed bytes: of a read of either length for the
decoder, and of a word's read vector through ``_word_parities``, for
the syndrome.  At one byte per slot a word's bits are already its
packed bytes, so ``read_vector`` and ``_word_parities`` multiply them
as they are and read the product's bytes back without ``_unpack``.
"""

from __future__ import annotations

import struct
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


# bytes per slot -> struct code of that standard size ("<" byte order)
_SLOT_FORMATS = {1: "B", 2: "H", 4: "I", 8: "Q"}
_BITS = b"\x00\x01"
_PARITY = _BITS * 128  # byte -> its low bit, a bytes.translate table
_NOT_BITS = "word entries must be bits (0 or 1)"
# what ``_slot_bytes`` raises for an entry its slots cannot hold
_PACK_ERRORS = (TypeError, ValueError, struct.error)


@lru_cache(maxsize=64)
def _window_slots(window: int) -> tuple[int, int]:
    """(k, S) for a window: k bytes per packed slot and the all-ones S.

    k is the narrowest of 1, 2, 4 and 8 bytes whose slot holds
    ``window``, so that no window sum carries into the next slot: one
    byte while window < 256.  S has a 1 in each of its first ``window``
    slots; multiplying a packed word by S adds every window of it,
    which is the read transform.
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    k = next((k for k in _SLOT_FORMATS if window >> 8 * k == 0), None)
    if k is None:
        raise OverflowError(f"window {window} does not fit a packed slot")
    return k, (1 << 8 * k * window) // ((1 << 8 * k) - 1)


def _slot_bytes(entries: Sequence[int], k: int) -> bytes:
    """Entry i in slot i, k bytes wide, little-endian.

    Raises one of ``_PACK_ERRORS`` for an entry that is not an int in
    [0, 256^k).
    """
    if k == 1:
        return bytes(entries)
    return struct.pack(f"<{len(entries)}{_SLOT_FORMATS[k]}", *entries)


def _unpack(value: int, slots: int, k: int) -> tuple[int, ...]:
    """The first ``slots`` slots of value, k bytes each, little-endian:
    the inverse of ``_slot_bytes`` read as one little-endian int.

    Any k >= 1 serves; the widths of ``_SLOT_FORMATS`` take one call,
    any other one slice per slot.
    """
    raw = value.to_bytes(k * slots, "little")
    if k == 1:
        return tuple(raw)
    if k in _SLOT_FORMATS:
        return struct.unpack(f"<{slots}{_SLOT_FORMATS[k]}", raw)
    return tuple(
        [int.from_bytes(raw[i : i + k], "little") for i in range(0, len(raw), k)]
    )


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


def read_vector(x: Sequence[int], window: int) -> Levels:
    """Window-weight transform of a binary word.

    Entry i (1-based) is the weight of x[i-window+1 .. i], out-of-range
    positions reading as 0.  Output length is len(x) + window - 1.
    Every entry of x must be 0 or 1; any other raises ``ValueError``.

    As polynomials, c(z) = x(z) * (1 + z + ... + z^(window-1)): one
    multiplication of the packed word by the window's all-ones number,
    in slots wide enough that no window sum carries.
    """
    k, ones = _window_slots(window)
    raw = _bit_bytes(x)
    m = len(raw) + window - 1
    c = int.from_bytes(raw if k == 1 else _slot_bytes(raw, k), "little") * ones
    return tuple(c.to_bytes(m, "little")) if k == 1 else _unpack(c, m, k)


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


def _word_bytes(levels: Sequence[int], window: int, n: int) -> bytes | None:
    """The binary word of length n whose read vector is levels, one byte
    per bit, or None.

    levels must have length n + window - 1.  Packed in the window's
    slots as C, levels is a read vector exactly when C = Q * S for the
    all-ones S and every slot of Q is a bit: the remainder of C by S is
    0 and no byte of Q but the low byte of a slot is set, and those are
    0 or 1.  Q then is the word.  C < 2^(8k(n+window-1)) and S >=
    2^(8k(window-1)), so Q always fits in n slots.  An entry outside
    [0, 256^k) cannot be a window sum and gives None.
    """
    k, ones = _window_slots(window)
    try:
        c = int.from_bytes(_slot_bytes(levels, k), "little")
    except _PACK_ERRORS:
        return None
    q, r = divmod(c, ones)
    if r:
        return None
    raw = q.to_bytes(n * k, "little")
    low = raw[::k]  # raw itself when k == 1
    if raw.translate(None, _BITS) or k > 1 and raw.count(1) != low.count(1):
        return None
    return low


def _parities(raw: bytes, k: int, count: int) -> bytes:
    """The parities of the first count k-byte slots of raw, one byte each."""
    return raw[: k * count : k].translate(_PARITY)


def _word_parities(x: Sequence[int], window: int) -> bytes:
    """The parities of the first len(x) entries of x's read vector, one
    byte each, off the bytes of the packed product: no tuple is built.

    Raises like ``read_vector``.
    """
    k, ones = _window_slots(window)
    raw = _bit_bytes(x)
    n = len(raw)
    c = int.from_bytes(raw if k == 1 else _slot_bytes(raw, k), "little") * ones
    return _parities(c.to_bytes(k * (n + window - 1), "little"), k, n)


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
    return _word_bytes(levels, window, n) is not None


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
