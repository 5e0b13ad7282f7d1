"""Single-deletion read code: checksum membership, encoding, decoding.

Codewords are binary words whose read-vector mod-2 prefix satisfies a
weighted checksum fixed modulo n+1.  A single deletion anywhere in the
read vector is corrected either immediately (a gap of 2 between
adjacent entries pins the error position) or by classical
insertion-correcting decoding of the truncated mod-2 prefix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import compress
from typing import Sequence

from .core import (
    ResourceLimitError,  # noqa: F401  (re-exported)
    Word,
    _deletion_source,
    _read_parities,
    _word_of,
    all_words,
    read_vector,
)


class DecodeFailure(ValueError):
    """No codeword is consistent with the received sequence."""


class MalformedInputError(ValueError):
    """Input cannot arise from a single deletion on any read vector."""


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
    path: str  # "no-deletion", "immediate" or "vt"


def _checksum(bits: Sequence[int], n: int) -> int:
    """sum(i * bits_i) mod n+1, positions counted from 1; bits are 0 or 1."""
    return sum(compress(range(1, len(bits) + 1), bits)) % (n + 1)


def syndrome(x: Sequence[int], n: int, window: int) -> int:
    """Weighted checksum of the read vector's mod-2 prefix, mod n+1."""
    if len(x) != n:
        raise ValueError(f"word length {len(x)} != n = {n}")
    return _checksum([s % 2 for s in read_vector(x, window)[:n]], n)


def is_member(x: Sequence[int], params: CodeParams) -> bool:
    return syndrome(x, params.n, params.window) == params.residue


def enumerate_code(params: CodeParams) -> list[Word]:
    """All codewords in lexicographic order (guarded by ``all_words``)."""
    return [x for x in all_words(params.n) if is_member(x, params)]


def residue_sizes(n: int, window: int) -> list[int]:
    """Codeword count of every residue class; the classes partition 2^n.

    The syndrome of x is the checksum sum(i * p_i) mod n+1 of p, the
    read vector's mod-2 prefix, and x -> p is a bijection on length-n
    words (``recover_from_mod2`` inverts it).  So class a holds as many
    words as there are binary p with that checksum equal to a: the
    Varshamov-Tenengolts class sizes, whatever the window.  They have a
    closed form (Ginzburg 1967; Sloane, arXiv math/0207197):

        |VT_a(n)| = 1/(2(n+1)) * sum over odd d | n+1 of c_d(a) * 2^((n+1)/d)

    with Ramanujan's sum c_d(a) = mu(d/g) * phi(d) / phi(d/g), g = gcd(d, a).
    One factorisation of n+1 serves every residue.
    """
    m = _modulus(n, window)
    divisors = _odd_divisors(m)
    terms = [(d, phi, 1 << (m // d)) for d, (phi, _) in divisors.items()]
    sizes = []
    for a in range(m):
        total = 0
        for d, phi, power in terms:
            phi_q, mu_q = divisors[d // math.gcd(d, a)]
            total += mu_q * (phi // phi_q) * power
        sizes.append(total // (2 * m))
    return sizes


def best_residue(n: int, window: int) -> tuple[int, int]:
    """Residue with the largest code, ties broken by smallest residue.

    Class 0 is always a largest class (Sloane, arXiv math/0207197), so
    the answer is residue 0 with the a = 0 term of the closed form in
    ``residue_sizes``: sum of phi(d) * 2^((n+1)/d) over odd d | n+1,
    divided by 2(n+1).  The window does not matter: x -> p(x) is a
    bijection for every window.  It stays a parameter so that callers
    name the code they mean.
    """
    m = _modulus(n, window)
    total = sum(phi << (m // d) for d, (phi, _) in _odd_divisors(m).items())
    return 0, total // (2 * m)


def _modulus(n: int, window: int) -> int:
    """The checksum modulus n + 1, after the class-size argument checks."""
    if window < 1:
        raise ValueError("window must be >= 1")
    if n < 0:
        raise ValueError("word length must be >= 0")
    return n + 1


def _odd_divisors(m: int) -> dict[int, tuple[int, int]]:
    """Every odd divisor d of m >= 1, mapped to (phi(d), mu(d)).

    Built from one trial-division factorisation of m's odd part.
    """
    while m % 2 == 0:
        m //= 2
    divisors = {1: (1, 1)}
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
            for d, (phi, mu) in divisors.items():
                q, phi_q = d, phi * (p - 1)
                for j in range(k):
                    q *= p
                    grown[q] = (phi_q, -mu if j == 0 else 0)
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
    difference is at most 1 (the gap-free case needs checksum decoding).
    A wider gap, or an entry the scan reaches that is not a number,
    raises ``MalformedInputError``.
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
    such supersequence.
    """
    received = tuple(received)
    if len(received) != n - 1:
        raise ValueError(f"received length {len(received)} != n - 1 = {n - 1}")
    if not set(received) <= {0, 1}:
        raise ValueError("received must be a bit sequence")
    if not 0 <= residue <= n:
        raise DecodeFailure("no insertion meets the checksum")
    return tuple(_vt_insert(bytes(map(int, received)), residue, n))


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


def _codeword(levels: tuple[int, ...], params: CodeParams, invalid: str) -> Word:
    """The word of levels if it is a read vector of a codeword.

    Raises ``DecodeFailure`` with the message invalid when levels is not
    a legitimate read vector, and another when its word is not in the
    code.
    """
    x = _word_of(levels, params.window, params.n)
    if x is None:
        raise DecodeFailure(invalid)
    if _checksum([s % 2 for s in levels[: params.n]], params.n) != params.residue:
        raise DecodeFailure("the read vector's word is not a codeword")
    return x


def decode(candidate: Sequence[int], params: CodeParams) -> DecodeOutcome:
    """Recover the transmitted codeword from an intact or once-deleted read.

    Full-length inputs are inverted directly.  Shortened inputs first
    try gap repair; failing that (the vt path), the input is packed once
    in the window's slots, its first n-1 parities are decoded against
    the checksum, the word is rebuilt from the recovered prefix, and one
    xor and one shift comparison of the packed input and the word's
    packed read vector test that the input is one deletion of it.  An
    entry that does not pack (not an int in [0, 256^k)) is no deletion
    of a read vector.  The result is a codeword whose read vector is
    the input or one deletion of it; when no codeword is,
    ``DecodeFailure`` or ``MalformedInputError`` is raised.
    """
    candidate = tuple(candidate)
    n, window = params.n, params.window
    full = n + window - 1

    if len(candidate) == full:
        x = _codeword(
            candidate, params, "full-length input is not a legitimate read vector"
        )
        return DecodeOutcome(word=x, path="no-deletion")

    if len(candidate) != full - 1:
        raise ValueError(
            f"candidate length {len(candidate)} must be {full} or {full - 1}"
        )

    repaired = immediate_correct(candidate)
    if repaired is not None:
        x = _codeword(
            repaired, params, "gap repair did not yield a legitimate read vector"
        )
        return DecodeOutcome(word=x, path="immediate")

    packed = _read_parities(candidate, window, n - 1)
    x = None
    if packed is not None:
        read, parities = packed
        x = _deletion_source(read, _vt_insert(parities, params.residue, n), window)
    if x is None:
        raise DecodeFailure("recovered word is inconsistent with the received read")
    return DecodeOutcome(word=x, path="vt")
