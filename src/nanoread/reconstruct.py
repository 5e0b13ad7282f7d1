"""Zero-redundancy recovery of a read vector from two noisy copies.

Given two distinct single-deletion corruptions of the same read vector
(window >= 2), the original is pinned down by re-inserting the missing
symbol at the first or last disagreement: one of the two candidates is
the source.  Two distinct read vectors share at most one single-deletion
result, so at most one candidate is a legitimate read vector holding
both reads, and the first one that does is the answer.  When neither
does, ``InconsistentReadsError`` (a ``ValueError``) is raised.  One scan
finds the disagreements, and a candidate's validity is the packed
kernel's test alone: no word is built for it.
"""

from __future__ import annotations

from typing import Sequence

from .core import LengthMismatchError, _ones, _word_bytes


class InconsistentReadsError(ValueError):
    """No legitimate read vector holds both reads in its deletion ball."""


def reconstruct_two(
    first: Sequence[int], second: Sequence[int], window: int, n: int
) -> tuple[int, ...]:
    """Rebuild the read vector both noisy copies were deleted from.

    Both inputs must have length n + window - 2 and be distinct.  The
    candidates insert second's symbol at the first disagreement i0
    (head) and after the last one j0 (tail); deleting that symbol again
    leaves first.  The head holds second too exactly when
    ``second[i0+1:j0+1] == first[i0:j0]``, the tail exactly when
    ``second[i0:j0] == first[i0+1:j0+1]``: one slice comparison each,
    made before the candidate is built.  The head, else the tail, is
    returned when it holds second and is a legitimate read vector.
    When neither is, no legitimate read vector holds both reads and
    ``InconsistentReadsError`` is raised.  ``ResourceLimitError`` when
    min(window, n) > 255, as the read vector's entries may pass a byte.
    """
    if window < 2:
        raise ValueError("two-read reconstruction requires window >= 2")
    r1, r2 = tuple(first), tuple(second)
    expect = n + window - 2
    if len(r1) != expect or len(r2) != expect:
        raise LengthMismatchError(
            f"both reads must have length {expect}, got {len(r1)} and {len(r2)}"
        )
    ones = _ones(window, n)
    i0 = 0
    while i0 < expect and r1[i0] == r2[i0]:
        i0 += 1
    if i0 == expect:
        raise ValueError("reads must be distinct")
    j0 = expect - 1
    while r1[j0] == r2[j0]:
        j0 -= 1
    i, j = i0 + 1, j0 + 1
    if r2[i:j] == r1[i0:j0]:
        head = r1[:i0] + r2[i0:i] + r1[i0:]
        if _word_bytes(head, ones, n) is not None:
            return head
    if r2[i0:j0] == r1[i:j]:
        tail = r1[:j] + r2[j0:j] + r1[j:]
        if _word_bytes(tail, ones, n) is not None:
            return tail
    raise InconsistentReadsError("no legitimate read vector holds both reads")
