"""Single-deletion error balls and run statistics."""

from __future__ import annotations

from itertools import chain, compress
from operator import ne
from typing import Sequence

from .core import _bit_bytes, read_vector

Seq = tuple[int, ...]


def runs(u: Sequence[int]) -> list[tuple[int, int]]:
    """Maximal runs of u as (symbol, length) pairs."""
    out: list[tuple[int, int]] = []
    for s in u:
        if out and out[-1][0] == s:
            out[-1] = (s, out[-1][1] + 1)
        else:
            out.append((s, 1))
    return out


def rho_geq(u: Sequence[int], a: int) -> int:
    """Number of maximal runs of length >= a."""
    if a < 1:
        raise ValueError("run-length threshold must be >= 1")
    return sum(1 for _, length in runs(u) if length >= a)


def deletion_ball(u: Sequence[int]) -> set[Seq | bytes]:
    """All distinct words reachable from u by deleting one symbol.

    Deleting any symbol of a maximal run leaves the same word, so u is
    sliced once per run, at the run's last position: every position
    whose symbol differs from the next one, and the last position.
    A tuple or bytes is sliced as it is and anything else as
    ``tuple(u)``, so the results are bytes for bytes, else tuples.
    """
    u = u if isinstance(u, (tuple, bytes)) else tuple(u)
    if len(u) < 1:
        raise ValueError("cannot delete from an empty word")
    last = len(u) - 1
    ball = {u[:i] + u[i + 1 :] for i in range(last) if u[i] != u[i + 1]}
    ball.add(u[:last])
    return ball


def sticky_ball(u: Sequence[int], r: int) -> set[Seq | bytes]:
    """One deletion from each maximal run of length >= r.

    For r=1 this is the full deletion ball; its size always equals the
    number of runs of length >= r.  One pass over the run boundaries
    (every position whose symbol differs from the one before it, and
    the end) gives each run's start and length, and a long run loses
    its first symbol.  ``runs`` and ``rho_geq`` stay separate, so that
    ``oracle.verify_sticky_size`` tests this against them.  The
    results are bytes for bytes, else tuples, as in ``deletion_ball``.
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    u = u if isinstance(u, (tuple, bytes)) else tuple(u)
    out: set[Seq | bytes] = set()
    start = 0
    for end in chain(compress(range(1, len(u)), map(ne, u, u[1:])), (len(u),)):
        if end - start >= r:
            out.add(u[:start] + u[start + 1 :])
        start = end
    return out


def restricted_ball(u: Sequence[int], k: int) -> set[Seq | bytes]:
    """Deletions permitted only at positions holding symbol 0 or k;
    the results are bytes for bytes, else tuples, as in ``deletion_ball``."""
    if k < 1:
        raise ValueError("window must be >= 1")
    u = u if isinstance(u, (tuple, bytes)) else tuple(u)
    return {u[:i] + u[i + 1 :] for i, s in enumerate(u) if s == 0 or s == k}


def sticky_read_images(x: Sequence[int], window: int) -> set[Seq]:
    """Read vectors of the words reachable by one in-run deletion.

    A run of length >= window may lose a bit, and so may an edge run of
    zeros, lifted past any window by the zeros outside the word.  x must
    be bits, else ``ValueError``; the empty word gives the empty set.
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    x = _bit_bytes(x)
    ys = sticky_ball(x, window)
    if x[:1] == b"\x00":
        ys.add(x[1:])
    if x[-1:] == b"\x00":
        ys.add(x[:-1])
    return {read_vector(y, window) for y in ys}
