"""Exhaustive ground truth for the optimized operations and claims.

Everything here favors directness over speed: full enumerations, one
inverted index that finds which deletion balls meet, and one exact
recursion for the largest independent set of a conflict graph.
Enumeration order is lexicographic so counterexample witnesses are
stable across runs.

The per-word checks (``verify_decoder``, ``verify_reconstruction`` and
``verify_ball_equivalence``) fan their enumeration out over the CPUs
this process may run on: contiguous blocks of at least ``MIN_BLOCK``
words, every block but the last in a forked child.  The block results
are merged in enumeration order, so each ``CheckResult`` is the one the
serial run gives.  They stay serial when ``os.fork`` is missing, when
one CPU is available, when the enumeration is too small to split, or
when the process runs more than one thread.
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass, field
from itertools import combinations, product
from operator import add
from typing import Callable, Iterable, Sequence

from .balls import (
    deletion_ball,
    restricted_ball,
    rho_geq,
    sticky_ball,
    sticky_read_images,
)
from .code import (
    CodeParams,
    DecodeFailure,
    MalformedInputError,
    _checksum,
    decode,
    enumerate_code,
)
from .core import (
    Levels,
    ResourceLimitError,
    Word,
    all_words,
    is_valid_read_vector,
    read_vector,
)
from .reconstruct import InconsistentReadsError, reconstruct_two

MAX_EXACT_MIS_N = 8
# every window 1-3 cell that n + window - 1 <= 12 admits stays in
MAX_VALIDITY_CANDIDATES = 4**12
# at window 1 every word's in-run ball is its whole deletion ball and the
# conflict graph is one dense component: exact search stops earlier
MAX_EXACT_MIS_N_WINDOW_1 = 6
# fewest words per forked block: a fork and reap costs a few ms, about
# what a 256-word reconstruction block takes
MIN_BLOCK = 256


@dataclass
class CheckResult:
    ok: bool
    checked: int
    detail: dict = field(default_factory=dict)
    counterexample: dict | None = None


def _error(exc: Exception) -> str:
    """A per-instance exception as a counterexample field."""
    return f"{type(exc).__name__}: {exc}"


# (checked, counterexample or None, words skipped) of one block
BlockResult = tuple[int, dict | None, int]


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _in_blocks(check: Callable[[list], BlockResult], items: list) -> BlockResult:
    """check over items, as if in one call, split into contiguous blocks
    run side by side.

    Every block but the last runs in a forked child that sends back its
    pickled result or exception; the parent runs the last block itself.
    Every child is read and reaped before this returns or raises.  In
    block order, the first block that raised or found a counterexample
    decides the result: its exception is raised, or its counterexample
    returned with the counts of every block up to it, which are the
    counts of the serial run.
    """
    blocks = min(_cpus(), len(items) // MIN_BLOCK)
    if blocks < 2 or not hasattr(os, "fork") or threading.active_count() > 1:
        return check(items)
    import pickle

    cuts = [len(items) * i // blocks for i in range(blocks + 1)]
    children: list[tuple[int, int]] = []
    received: list[tuple[bytes, int]] = []
    try:
        for start, stop in zip(cuts[:-2], cuts[1:-1]):
            r, w = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(r)
                os.close(w)
                raise
            if pid == 0:
                os.close(r)
                _run_child(check, items[start:stop], w)
            os.close(w)
            children.append((pid, r))
        try:
            own = (True, check(items[cuts[-2]:]))
        except Exception as exc:  # placed in block order below
            own = (False, exc)
    finally:
        for pid, r in children:
            with open(r, "rb") as pipe:
                data = pipe.read()
            received.append((data, os.waitpid(pid, 0)[1]))
    outcomes = [
        pickle.loads(data) if data else (False, RuntimeError(
            f"oracle block {i} ended without a result"
            f" (exit code {os.waitstatus_to_exitcode(status)})"
        ))
        for i, (data, status) in enumerate(received)
    ]
    checked = skipped = 0
    for ok, value in outcomes + [own]:
        if not ok:
            raise value
        block_checked, counterexample, block_skipped = value
        checked += block_checked
        skipped += block_skipped
        if counterexample is not None:
            return checked, counterexample, skipped
    return checked, None, skipped


def _run_child(check: Callable[[list], BlockResult], block: list, fd: int):
    """Run check on block in a forked child, write the pickled outcome
    to fd and leave by ``os._exit``: never return into the caller.

    A child that cannot send its outcome exits with nothing written,
    which the parent reports as an error.
    """
    import pickle

    status = 1
    try:
        try:
            outcome = (True, check(block))
        except BaseException as exc:  # the child exits below: send it on
            outcome = (False, exc)
        with open(fd, "wb") as pipe:
            pipe.write(pickle.dumps(outcome))
        status = 0
    finally:
        os._exit(status)


def rho_geq_histogram(n: int, a: int) -> list[int]:
    """Histogram of rho_geq(., a), tallied word by word over all_words(n)."""
    if a < 1:
        raise ValueError("run-length threshold must be >= 1")
    hist = [0] * (n // a + 1)
    for x in all_words(n):
        hist[rho_geq(x, a)] += 1
    return hist


def residue_sizes(n: int, window: int) -> list[int]:
    """Codeword count of every residue class, by the O(n^2) count of the
    binary p with each checksum sum(i * p_i) mod n+1.

    p_i = 1 adds i to the checksum, a rotation of the count vector by i
    places, so each position is one whole-list addition of n + 1 counts.
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    counts = [1] + [0] * n
    for i in range(1, n + 1):
        counts = list(map(add, counts, counts[-i:] + counts[:-i]))
    return counts


def word_of(levels: Sequence[int], window: int, n: int) -> Word | None:
    """The binary word of length n whose read vector is levels, or None,
    by the per-entry recurrence x_i = c_i - c_{i-1} + x_{i-window}.

    levels must have length n + window - 1.  The first n steps must
    give bits, and the window - 1 entries past the end of the word must
    step down by exactly the bit leaving the window.
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


def vt_insert_bruteforce(
    received: Sequence[int], residue: int, n: int
) -> tuple[int, ...]:
    """Every insertion position and symbol, kept when the checksum
    sum(j * x_j) mod n+1 equals the residue; exactly one survives when
    the input arose from a single deletion."""
    received = tuple(received)
    if len(received) != n - 1:
        raise ValueError(f"received length {len(received)} != n - 1 = {n - 1}")
    survivors = set()
    for i in range(n):
        for b in (0, 1):
            cand = received[:i] + (b,) + received[i:]
            if sum(j * cand[j - 1] for j in range(1, n + 1)) % (n + 1) == residue:
                survivors.add(cand)
    if not survivors:
        raise DecodeFailure("no insertion meets the checksum")
    if len(survivors) > 1:
        raise DecodeFailure(f"ambiguous checksum decoding: {sorted(survivors)}")
    return survivors.pop()


def confusable_bruteforce(u: Sequence[int], v: Sequence[int]) -> bool:
    """Quadratic confusability test by trying every enclosed window."""
    u, v = tuple(u), tuple(v)
    if len(u) != len(v) or u == v:
        return False
    m = len(u)
    for s in range(m - 1):
        for e in range(s + 2, m + 1):
            if u[:s] != v[:s] or u[e:] != v[e:]:
                continue
            alpha, beta = u[s], v[s]
            if alpha == beta:
                continue
            ok = all(
                u[k] == (alpha if (k - s) % 2 == 0 else beta)
                and v[k] == (beta if (k - s) % 2 == 0 else alpha)
                for k in range(s, e)
            )
            if ok:
                return True
    return False


def verify_ball_equivalence(n: int, window: int) -> CheckResult:
    """Compare the restricted ball of each read vector with the in-run
    deletion image set, both directions, over all words of length n.

    The lemma is about deletions from a word, so n must be >= 1.
    """
    if n < 1:
        raise ValueError("ball equivalence needs n >= 1")

    def check(words: list[Word]) -> BlockResult:
        checked = 0
        for x in words:
            lhs = restricted_ball(read_vector(x, window), window)
            rhs = sticky_read_images(x, window)
            checked += 1
            if lhs != rhs:
                return checked, {"word": x, "lhs": sorted(lhs), "rhs": sorted(rhs)}, 0
        return checked, None, 0

    checked, counterexample, _ = _in_blocks(check, list(all_words(n)))
    return CheckResult(
        ok=counterexample is None, checked=checked, counterexample=counterexample
    )


def _overlaps(balls: Iterable[set]) -> dict[tuple[int, int], int]:
    """|balls[i] & balls[j]| for every pair i < j whose balls meet.

    An inverted index from ball elements to positions, so only colliding
    pairs are ever counted; ``balls`` may be a generator.
    """
    buckets: dict[tuple, list[int]] = {}
    for i, ball in enumerate(balls):
        for d in ball:
            buckets.setdefault(d, []).append(i)
    overlap: dict[tuple[int, int], int] = {}
    while buckets:  # popped, so each key is freed as its pairs are counted
        for pair in combinations(buckets.popitem()[1], 2):
            overlap[pair] = overlap.get(pair, 0) + 1
    return overlap


def verify_intersection_bound(n: int, window: int) -> CheckResult:
    """Exact maximum pairwise deletion-ball overlap of read vectors."""
    words = list(all_words(n))
    overlap = _overlaps(deletion_ball(read_vector(x, window)) for x in words)
    if not overlap:
        return CheckResult(ok=True, checked=1 << n, detail={"max_overlap": 0})
    (a, b), best = max(overlap.items(), key=lambda kv: (kv[1], -kv[0][0], -kv[0][1]))
    limit = 2 if window == 1 else 1
    return CheckResult(
        ok=best <= limit,
        checked=1 << n,
        detail={"max_overlap": best, "witness": (words[a], words[b])},
        counterexample=(
            None if best <= limit else {"pair": (words[a], words[b]), "overlap": best}
        ),
    )


def _greedy_independent_set(adj: list[int], order: Sequence[int]) -> int:
    chosen = 0
    blocked = 0
    for v in order:
        bit = 1 << v
        if not blocked & bit:
            chosen |= bit
            blocked |= bit | adj[v]
    return chosen


def _max_independent_set(adj: list[int], cand: int) -> int:
    """Exact maximum independent set within the candidate mask, as a
    bitmask, solved per connected component.

    A vertex of degree <= 1 in its component is always in some maximum
    set, so it is taken without branching (an edgeless component is
    taken whole this way); otherwise branch on the vertex of highest
    degree: take it and drop its neighbours, or drop it.
    """
    result = 0
    while cand:
        # flood-fill the component of the lowest candidate
        comp = frontier = cand & -cand
        while frontier:
            nxt = 0
            m = frontier
            while m:
                bit = m & -m
                nxt |= adj[bit.bit_length() - 1]
                m ^= bit
            frontier = nxt & cand & ~comp
            comp |= frontier
        cand ^= comp
        v, vdeg = -1, -1
        m = comp
        while m:
            bit = m & -m
            u = bit.bit_length() - 1
            deg = (adj[u] & comp).bit_count()
            if deg <= 1:
                v, vdeg = u, deg
                break
            if deg > vdeg:
                v, vdeg = u, deg
            m ^= bit
        bit = 1 << v
        rest = comp & ~(bit | adj[v])
        if vdeg <= 1:
            result |= bit
            cand |= rest
        else:
            take = bit | _max_independent_set(adj, rest)
            drop = _max_independent_set(adj, comp ^ bit)
            result |= max(take, drop, key=int.bit_count)
    return result


@dataclass(frozen=True)
class StickyCodeResult:
    """Largest code correcting one in-run deletion, split into the part
    the packing argument constrains and the part it cannot.

    Words without any run of length >= window have an empty error ball:
    they collide with nothing and extend any code for free, but they
    also fall outside the output hypergraph, so only ``packing_size`` is
    comparable against the weighted sphere-packing sum.
    """

    packing_size: int
    free_words: int
    witness: tuple[Word, ...]
    exact: bool

    @property
    def total_size(self) -> int:
        return self.packing_size + self.free_words


def exact_max_sticky_code(n: int, window: int) -> StickyCodeResult:
    """Largest set of length-n words with pairwise disjoint in-run
    deletion balls.

    The search runs over words whose ball is nonempty; the rest are
    counted as free.  Exact independent-set search up to n <= 8 (n <= 6
    at window 1); beyond that the greedy result is a labeled lower bound.
    """
    words = [x for x in all_words(n) if rho_geq(x, window) >= 1]
    free = (1 << n) - len(words)
    adj = [0] * len(words)
    for i, j in _overlaps(sticky_ball(x, window) for x in words):
        adj[i] |= 1 << j
        adj[j] |= 1 << i
    limit = MAX_EXACT_MIS_N if window >= 2 else MAX_EXACT_MIS_N_WINDOW_1
    if n <= limit:
        mask = _max_independent_set(adj, (1 << len(words)) - 1)
        exact = True
    else:
        order = sorted(range(len(words)), key=lambda v: adj[v].bit_count())
        mask = _greedy_independent_set(adj, order)
        exact = False
    witness = tuple(
        sorted(words[i] for i in range(len(words)) if mask >> i & 1)
    )
    return StickyCodeResult(
        packing_size=len(witness), free_words=free, witness=witness, exact=exact
    )


def verify_code_property(
    params: CodeParams, codewords: list[Word] | None = None
) -> CheckResult:
    """Pairwise disjointness of read-vector deletion balls over a code.

    Checks the enumerated code by default; pass codewords explicitly to
    test an arbitrary word set against the same criterion.  ``checked``
    counts pairs in ``combinations`` order up to the first colliding one.
    """
    if codewords is None:
        codewords = enumerate_code(params)
    k = len(codewords)
    w = params.window
    overlap = _overlaps(deletion_ball(read_vector(x, w)) for x in codewords)
    if not overlap:
        return CheckResult(ok=True, checked=k * (k - 1) // 2, detail={"codewords": k})
    i, j = min(overlap)
    return CheckResult(
        ok=False,
        checked=i * (2 * k - i - 1) // 2 + j - i,  # rank of (i, j) among the pairs
        counterexample={"pair": (codewords[i], codewords[j])},
    )


def verify_decoder(n: int, window: int) -> CheckResult:
    """Exhaustive decode of every single deletion of every codeword,
    over every residue class.

    One pass over all words sorts them, with their read vectors, into
    their residue classes, in lexicographic order within each class.
    """
    params = [CodeParams(n=n, window=window, residue=a) for a in range(n + 1)]
    codes: list[list[tuple[CodeParams, Word, Levels]]] = [[] for _ in params]
    for x in all_words(n):
        rv = read_vector(x, window)
        a = _checksum([s % 2 for s in rv[:n]], n)
        codes[a].append((params[a], x, rv))

    def check(items: list[tuple[CodeParams, Word, Levels]]) -> BlockResult:
        checked = 0
        for p, x, rv in items:
            for cand in deletion_ball(rv):
                checked += 1
                try:
                    decoded = decode(cand, p).word
                except (DecodeFailure, MalformedInputError) as exc:
                    found = {"error": _error(exc)}
                else:
                    if decoded == x:
                        continue
                    found = {"decoded": decoded}
                return checked, {
                    "word": x, "residue": p.residue, "received": cand, **found
                }, 0
        return checked, None, 0

    checked, counterexample, _ = _in_blocks(check, [i for c in codes for i in c])
    return CheckResult(
        ok=counterexample is None, checked=checked, counterexample=counterexample
    )


def verify_reconstruction(n: int, window: int) -> CheckResult:
    """Run two-read reconstruction on every valid instance of size n.

    Words whose read-vector deletion ball is a singleton admit no two
    distinct reads; they are skipped and counted.
    """

    def check(words: list[Word]) -> BlockResult:
        checked = 0
        skipped = 0
        for x in words:
            rv = read_vector(x, window)
            ball = sorted(deletion_ball(rv))
            if len(ball) < 2:
                skipped += 1
                continue
            for r1, r2 in combinations(ball, 2):
                checked += 1
                try:
                    got = reconstruct_two(r1, r2, window, n)
                except InconsistentReadsError as exc:
                    found = {"error": _error(exc)}
                else:
                    if got == rv:
                        continue
                    found = {"result": got}
                return checked, {"word": x, "reads": (r1, r2), **found}, skipped
        return checked, None, skipped

    checked, counterexample, skipped = _in_blocks(check, list(all_words(n)))
    if counterexample is not None:
        return CheckResult(ok=False, checked=checked, counterexample=counterexample)
    return CheckResult(ok=True, checked=checked, detail={"skipped_singletons": skipped})


def verify_validity_image(n: int, window: int) -> CheckResult:
    """The validity check accepts exactly the image of the transform.

    Enumerates every candidate over {0, ..., window} of the right
    length; guarded to n + window - 1 <= 12 and to at most
    ``MAX_VALIDITY_CANDIDATES`` candidates.
    """
    if window < 1:
        raise ValueError("window must be >= 1")
    if n + window - 1 > 12:
        raise ResourceLimitError("candidate enumeration guarded at n + window - 1 <= 12")
    if (window + 1) ** (n + window - 1) > MAX_VALIDITY_CANDIDATES:
        raise ResourceLimitError(
            "candidate enumeration guarded at (window + 1)^(n + window - 1)"
            f" <= {MAX_VALIDITY_CANDIDATES}"
        )
    image = {read_vector(x, window) for x in all_words(n)}
    checked = 0
    for cand in product(range(window + 1), repeat=n + window - 1):
        checked += 1
        if is_valid_read_vector(cand, window, n) != (cand in image):
            return CheckResult(
                ok=False, checked=checked, counterexample={"candidate": cand}
            )
    return CheckResult(ok=True, checked=checked, detail={"image_size": len(image)})
