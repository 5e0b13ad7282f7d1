"""Single-deletion read code: checksum membership, encoding, decoding.

Codewords are binary words whose read-vector mod-2 prefix satisfies a
weighted checksum fixed modulo n+1.  Decoding recovers that prefix and
inverts it, for a read of either length: a full-length read holds all
n parities; a deletion deletes one of them or cuts off the last, so VT
insertion on the first n - 1 recovers the codeword.  A gap of 2
between adjacent entries only names the path.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from typing import Sequence

from .core import (
    LengthMismatchError,
    Word,
    _bit_bytes,
    _ones,
    _parities,
    _read_bytes,
    _xor_doubling,
    all_words,
)


class DecodeFailure(ValueError):
    """No codeword is consistent with the received sequence."""


class MalformedInputError(DecodeFailure):
    """Input cannot arise from a single deletion on any read vector, so
    no codeword explains it."""


@dataclass(frozen=True)
class CodeParams:
    n: int
    window: int
    residue: int

    def __post_init__(self) -> None:
        if not 1 <= self.window <= self.n:
            raise ValueError("need n >= window >= 1")
        if not 0 <= self.residue <= self.n:
            raise ValueError("residue must lie in {0, ..., n}")


@dataclass(frozen=True)
class DecodeOutcome:
    word: Word
    path: str  # "no-deletion", "immediate" (the deletion left a gap of 2) or "vt"


def _checksum(bits: Sequence[int], n: int) -> int:
    """sum(i * bits_i) mod n+1, positions counted from 1; bits are 0 or 1."""
    return sum(compress(range(1, len(bits) + 1), bits)) % (n + 1)


def syndrome(x: Sequence[int], n: int, window: int) -> int:
    """Weighted checksum of the read vector's mod-2 prefix, mod n+1."""
    if len(x) != n:
        raise LengthMismatchError(f"word length {len(x)} != n = {n}")
    return _checksum(_parities(_read_bytes(x, window), n), n)


def is_member(x: Sequence[int], params: CodeParams) -> bool:
    return syndrome(x, params.n, params.window) == params.residue


def enumerate_code(params: CodeParams) -> list[Word]:
    """All codewords in lexicographic order (guarded by ``all_words``)."""
    return [x for x in all_words(params.n) if is_member(x, params)]


def best_residue(n: int, window: int) -> tuple[int, int]:
    """Residue with the largest code, ties broken by smallest residue.

    The syndrome of x is the checksum sum(i * p_i) mod n+1 of p, the
    read vector's mod-2 prefix, and x -> p is a bijection on length-n
    words for every window (``recover_from_mod2`` inverts it).  So
    class a holds as many words as there are binary p with that
    checksum equal to a: the Varshamov-Tenengolts class sizes.  Class 0
    is always a largest one (Sloane, arXiv math/0207197), of size

        |VT_0(n)| = 1/(2(n+1)) * sum over odd d | n+1 of phi(d) * 2^((n+1)/d)

    (Ginzburg 1967).  The window does not matter; it stays a parameter
    so that callers name the code they mean.
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    if n < 0:
        raise ValueError("word length must be >= 0")
    m = n + 1
    total = sum(phi << (m // d) for d, phi in _odd_divisors(m).items())
    return 0, total // (2 * m)


def _odd_divisors(m: int) -> dict[int, int]:
    """Every odd divisor d of m >= 1, mapped to phi(d).

    Built from one trial-division factorisation of m's odd part.
    """
    while m % 2 == 0:
        m //= 2
    divisors = {1: 1}
    p = 3
    while m > 1:
        if p * p > m:
            p = m  # what is left is prime
        k = 0
        while m % p == 0:
            m //= p
            k += 1
        if k:
            grown = dict(divisors)
            for d, phi in divisors.items():
                q, phi_q = d, phi * (p - 1)
                for _ in range(k):
                    q *= p
                    grown[q] = phi_q
                    phi_q *= p
            divisors = grown
        p += 2
    return divisors


def encode(message_index: int, params: CodeParams) -> Word:
    """Codeword at the given lexicographic rank."""
    codewords = enumerate_code(params)
    if not 0 <= message_index < len(codewords):
        raise ValueError(
            f"message index {message_index} out of range [0, {len(codewords)})"
        )
    return codewords[message_index]


def immediate_correct(candidate: Sequence[int]) -> tuple[int, ...] | None:
    """Repair a deletion that left a gap of 2 between adjacent entries.

    Returns the repaired read vector, or None when every adjacent
    difference is at most 1.  A wider gap, or an entry the scan reaches
    that is not a number, raises ``MalformedInputError``: ``decode``
    calls it on a shortened read it cannot decode, to type the error.
    """
    candidate = tuple(candidate)
    for i in range(len(candidate) - 1):
        try:
            d = candidate[i + 1] - candidate[i]
            if -2 < d < 2:
                continue
        except TypeError:
            raise MalformedInputError(
                f"entries at positions {i + 1} and {i + 2} are not both numbers"
            ) from None
        if d == 2 or d == -2:
            mid = candidate[i] + (1 if d > 0 else -1)
            return candidate[: i + 1] + (mid,) + candidate[i + 1 :]
        raise MalformedInputError(
            f"adjacent gap of {d} at position {i + 1} cannot arise "
            "from a single deletion"
        )
    return None


def vt_insert(received: Sequence[int], residue: int, n: int) -> tuple[int, ...]:
    """Recover the length-n bit sequence with checksum residue mod n+1.

    Levenshtein's decoder for the Varshamov-Tenengolts code, one O(n)
    scan.  Inserting a 0 raises the checksum sum(j * y_j) by the number
    of ones to its right; inserting a 1 raises it by w + 1 plus the
    number of zeros to its left, where w is the weight of the received
    bits.  With the deficiency d = (residue - checksum) mod n+1, the
    insertion is a 0 with d ones to its right when d <= w, otherwise a 1
    with d - w - 1 zeros to its left.  Every residue has exactly one
    such supersequence.  A received entry other than 0 or 1 raises
    ``ValueError``.
    """
    received = tuple(received)
    if len(received) != n - 1:
        raise LengthMismatchError(
            f"received length {len(received)} != n - 1 = {n - 1}"
        )
    raw = _bit_bytes(received)
    if not 0 <= residue <= n:
        raise DecodeFailure("no insertion meets the checksum")
    return tuple(_vt_insert(raw, residue, n))


def _vt_insert(received: bytes, residue: int, n: int) -> bytes:
    """``vt_insert`` on bits packed one per byte, arguments in range.

    The 0 goes before the d-th one from the right, the 1 after the
    (d - w - 1)-th zero from the left: each place is found by one split
    with a bounded number of cuts.
    """
    w = received.count(1)
    d = (residue - _checksum(received, n)) % (n + 1)
    if d <= w:
        i = len(received.rsplit(b"\x01", d)[0])
        return received[:i] + b"\x00" + received[i:]
    i = len(received) - len(received.split(b"\x00", d - w - 1)[-1])
    return received[:i] + b"\x01" + received[i:]


def decode(candidate: Sequence[int], params: CodeParams) -> DecodeOutcome:
    """Recover the transmitted codeword from an intact or once-deleted read.

    The read is packed once, one byte per entry, and its parities are
    taken off those bytes: all n of a full-length read, or the first n-1
    of a shortened one, which VT insertion completes against the
    checksum.  The word x comes from the n parities by the xor-doubling
    steps, its read vector R from one multiplication.  A full-length
    read must equal R, and its parities' checksum the residue.  A
    shortened read must be R less one entry: with i the first byte where
    the packed read and R differ (the read's length when none does), the
    read's bytes from i on equal R's from i + 1 on, one shift
    comparison.  The deleted entry then lies in R's run that ends at i;
    the path is "immediate" when its deletion left a gap of 2 there,
    else "vt".  An entry that does not pack (not an int in [0, 256)) is
    no read vector, nor a deletion of one.  When no codeword explains
    the read, ``DecodeFailure`` is raised (``MalformedInputError``, its
    subclass, where ``immediate_correct`` rejects a shortened read);
    ``ResourceLimitError`` when the window exceeds 255, as n >= window.
    """
    candidate = tuple(candidate)
    n, window = params.n, params.window
    full, m = n + window - 1, len(candidate)
    if m != full and m != full - 1:
        raise LengthMismatchError(f"candidate length {m} must be {full} or {full - 1}")

    ones = _ones(window, n)
    try:
        raw = bytes(candidate)
    except (TypeError, ValueError):
        pass  # an entry no byte holds: no read vector, nor a deletion of one
    else:
        p = _parities(raw, m - window + 1)  # n, or n - 1 when shortened
        if m < full:
            p = _vt_insert(p, params.residue, n)
        x = _xor_doubling(int.from_bytes(p, "little"), n, window)
        bits = x.to_bytes(n, "little")
        rv = x * ones
        if m < full:
            read = int.from_bytes(raw, "little")
            diff = read ^ rv
            i = ((diff & -diff).bit_length() - 1) // 8 if diff else m
            if read >> 8 * i == rv >> 8 * (i + 1):
                # a gap of 2 can only be at i, between the deleted entry's neighbours
                gap = 0 < i < m and abs(candidate[i] - candidate[i - 1]) == 2
                return DecodeOutcome(
                    word=tuple(bits), path="immediate" if gap else "vt"
                )
        elif raw == rv.to_bytes(len(raw), "little"):
            if _checksum(p, n) != params.residue:
                raise DecodeFailure("the read vector's word is not a codeword")
            return DecodeOutcome(word=tuple(bits), path="no-deletion")
    if m == full:
        raise DecodeFailure("full-length input is not a legitimate read vector")
    immediate_correct(candidate)  # raises for a gap no deletion leaves
    raise DecodeFailure("recovered word is inconsistent with the received read")
