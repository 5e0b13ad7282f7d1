"""Exhaustive ground truth for the optimized operations and claims.

Everything here favors directness over speed: full enumerations, one
inverted index that finds which deletion balls meet, and one exact
recursion for the largest independent set of a conflict graph.
Enumeration order is lexicographic so counterexample witnesses are
stable across runs.

The index (``_overlaps``) streams: each ball, as it arrives, counts its
overlaps with the earlier balls and hands them to its caller, which
keeps only what its check needs (the largest overlap, the conflict
graph's edges, the first colliding pair), so no table of all pairs is
built.  Its keys are ball elements as bytes, one byte an entry: bytes
take a fraction of a tuple's memory, and a ball of ``balls`` cut from
``bytes(u)`` slices it as bytes, so its elements are never built as
tuples.  A binary word's in-run ball is cut from its bytes, and so is a
read vector's ball (``_read_ball``): ``read_vector`` computes only
where a byte holds every entry, min(window, n) <= 255.

Every ``verify_*`` function returns a ``CheckResult``.  The per-word
checks (``verify_decoder``, ``verify_reconstruction`` and
``verify_ball_equivalence``) each run one loop over any iterable of
words, and fan the enumeration out over the CPUs this process may run
on, in word-prefix chunks: chunk c holds the words whose top
``CHUNK_BITS`` bits are c, in lexicographic order.  Every process, the
parent and its forked children, claims the next chunk from one pipe,
so a process that draws cheap chunks takes more of them.  The process
count follows the word count alone: each process gets at least
``MIN_BLOCK`` words, whatever the check, so all three fork from n = 9
on two CPUs.  A run whose processes all pass sums their counts, and
the check rerun serially decides any other, so each ``CheckResult`` is
the serial run's.  They stay serial when ``os.fork`` is missing, when
one CPU is available, when the enumeration holds fewer than two blocks
of words, or when the process runs more than one thread.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, product
from operator import add
from typing import Callable, Iterable, Iterator, Sequence

from . import bounds
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
    decode,
    enumerate_code,
    syndrome,
)
from .core import (
    LengthMismatchError,
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
# least words per process, whatever the check.  On a 2-vCPU host a
# one-child split at n = 8 saved the decoder and reconstruction 1-3 ms a
# cell in BENCH_word_blocks.json and nothing measurable in
# BENCH_prefix_chunks.json; ball equivalence, under a third of their
# cost per word, splits at n = 9 within 1 ms of its serial run.  End to
# end the verify sweep runs within about 1% of a rule that sized the
# processes by each check's cost per word.
MIN_BLOCK = 256
# the top bits of a word that name its fan-out chunk: 32 chunks from n = 5
CHUNK_BITS = 5


@dataclass
class CheckResult:
    """One check at one cell.  ``ok`` is None when the check could not
    decide; a failing result carries a JSON-ready ``counterexample``."""

    ok: bool | None
    checked: int
    detail: dict = field(default_factory=dict)
    counterexample: dict | None = None


def _error(exc: Exception) -> str:
    """A per-instance exception as a counterexample field."""
    return f"{type(exc).__name__}: {exc}"


# (checked, counterexample or None, words skipped) of one chunk
ChunkResult = tuple[int, dict | None, int]
# a per-word check: its result over the words it is given, in their order
Check = Callable[[Iterable[Word]], ChunkResult]


def _cpus() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _chunk(n: int, c: int) -> Iterator[Word]:
    """Chunk c of ``all_words(n)``: the words whose top min(n, CHUNK_BITS)
    bits are the bits of c, in lexicographic order, so that the chunks
    in order make up the whole enumeration."""
    b = min(n, CHUNK_BITS)
    prefix = _nth_word(c, b)
    return (prefix + rest for rest in product((0, 1), repeat=n - b))


def _by_chunks(check: Check, n: int) -> ChunkResult:
    """check over ``all_words(n)``, as if in one call, fanned out over
    one process per CPU while each gets at least ``MIN_BLOCK`` words.

    The parent writes the chunk indices, one byte each, into a pipe and
    forks the children; every process, the parent too, claims chunks
    from it (see ``_claim``), and every child is read and reaped before
    this returns, raises or reruns.  If every process passed, the
    result sums their counts.  Otherwise check reruns serially over the
    words and decides; a serial pass raises ``RuntimeError``, naming
    each failing process's reason and each silent child's exit code.
    """
    words = all_words(n)  # the size guard, before any fork
    procs = min(_cpus(), (1 << n) // MIN_BLOCK)
    if procs < 2 or not hasattr(os, "fork") or threading.active_count() > 1:
        return check(words)
    claims, w = os.pipe()
    os.write(w, bytes(range(1 << min(n, CHUNK_BITS))))
    os.close(w)
    children: list[tuple[int, int]] = []
    received: list[tuple[bytes, int]] = []
    try:
        for _ in range(procs - 1):
            r, w = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(r)
                os.close(w)
                raise
            if pid == 0:
                os.close(r)
                _run_child(check, n, claims, w)
            os.close(w)
            children.append((pid, r))
        checked, skipped, reason = _claim(check, n, claims)
    finally:
        os.close(claims)
        for pid, r in children:
            with open(r, "rb") as pipe:
                data = pipe.read()
            received.append((data, os.waitpid(pid, 0)[1]))
    failures = [reason] if reason else []
    for data, status in received:
        if not data:
            code = os.waitstatus_to_exitcode(status)
            failures.append(f"a child sent nothing (exit code {code})")
            continue
        child_checked, child_skipped, reason = data.decode().split(" ", 2)
        checked += int(child_checked)
        skipped += int(child_skipped)
        failures += [reason] if reason else []
    if not failures:
        return checked, None, skipped
    result = check(words)
    if result[1] is None:
        raise RuntimeError(
            f"oracle fan-out failed, its serial rerun passed: {'; '.join(failures)}"
        )
    return result


def _claim(check: Check, n: int, claims: int) -> tuple[int, int, str]:
    """(checked, skipped, reason) summed over the chunks this process
    claims from the claims pipe, one ``os.read`` of one byte each
    (atomic on a pipe), until it is empty or a chunk fails: reason names
    the chunk that found a counterexample, or is ``_error`` of the
    exception, and is "" otherwise.  Then it drains the pipe, so every
    other process stops after its current chunk.
    """
    checked = skipped = 0
    try:
        while claim := os.read(claims, 1):
            try:
                found, counterexample, missed = check(_chunk(n, claim[0]))
            except Exception as exc:  # the serial rerun decides
                return checked, skipped, _error(exc)
            checked += found
            skipped += missed
            if counterexample is not None:
                return checked, skipped, f"counterexample in chunk {claim[0]}"
    finally:
        while os.read(claims, 256):
            pass
    return checked, skipped, ""


def _run_child(check: Check, n: int, claims: int, fd: int):
    """Claim and run chunks in a forked child, write its report,
    "checked skipped reason", to fd and leave by ``os._exit``: never
    return into the caller.  A child that cannot write its report exits
    with nothing written, which the parent names by its exit code.
    """
    status = 1
    try:
        report = "%d %d %s" % _claim(check, n, claims)
        with open(fd, "wb") as pipe:
            pipe.write(report.encode())
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

    levels must have length n + window - 1, else
    ``LengthMismatchError`` is raised, as ``is_valid_read_vector``
    does.  The first n steps must give bits, and the window - 1 entries
    past the end of the word must step down by exactly the bit leaving
    the window.
    """
    if len(levels) != n + window - 1:
        raise LengthMismatchError(
            f"candidate length {len(levels)} != n + window - 1 = {n + window - 1}"
        )
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
        raise LengthMismatchError(
            f"received length {len(received)} != n - 1 = {n - 1}"
        )
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


def verify_ball_equivalence(n: int, window: int) -> CheckResult:
    """Compare the restricted ball of each read vector with the in-run
    deletion image set, both directions, over all words of length n.

    The lemma is about deletions from a word, so n must be >= 1.  It
    fans out as the decoder does, from n = 9 on two CPUs, though a word
    costs it under a third of a decode.
    """
    if n < 1:
        raise ValueError("ball equivalence needs n >= 1")

    def check(words: Iterable[Word]) -> ChunkResult:
        checked = 0
        for x in words:
            lhs = restricted_ball(read_vector(x, window), window)
            rhs = sticky_read_images(x, window)
            checked += 1
            if lhs != rhs:
                return checked, {
                    "word": x, "lhs": sorted(lhs), "rhs": sorted(rhs)
                }, 0
        return checked, None, 0

    checked, counterexample, _ = _by_chunks(check, n)
    return CheckResult(
        ok=counterexample is None, checked=checked, counterexample=counterexample
    )


def _overlaps(balls: Iterable[set]) -> Iterator[tuple[int, dict[int, int]]]:
    """(i, {j: |balls[j] & balls[i]|}) for each ball i that meets an
    earlier ball j < i, in order of i; ``balls`` may be a generator.

    A streaming inverted index from elements to the positions of the
    balls that hold them: ball i looks up the bucket of each of its
    elements, counts the earlier positions there into a fresh dict,
    which it yields, and joins the buckets.  The index keeps no pair,
    only one bucket per distinct element: a bare position while one
    ball holds the element (most do), a list from the second on.  It
    is agnostic of the element type (the callers pass bytes where they
    can, see the module docstring); each ball must be a set, so that it
    visits a bucket once.
    """
    buckets: dict = {}
    for i, ball in enumerate(balls):
        counts: dict[int, int] = {}
        for d in ball:
            earlier = buckets.get(d)
            if earlier is None:
                buckets[d] = i
            elif type(earlier) is int:
                counts[earlier] = counts.get(earlier, 0) + 1
                buckets[d] = [earlier, i]
            else:
                for j in earlier:
                    counts[j] = counts.get(j, 0) + 1
                earlier.append(i)
        if counts:
            yield i, counts


def _read_ball(levels: Sequence[int]) -> set:
    """The deletion ball of the read vector levels as ``_overlaps``
    keys: bytes, one byte an entry, which holds every entry of a read
    vector ``read_vector`` returns."""
    return deletion_ball(bytes(levels))


def _nth_word(i: int, n: int) -> Word:
    """Word i of ``all_words(n)``: the n bits of i, the highest first."""
    return tuple(i >> s & 1 for s in reversed(range(n)))


def verify_intersection_bound(n: int, window: int) -> CheckResult:
    """Exact maximum pairwise deletion-ball overlap of read vectors.

    The witness is the pair (a, b), a < b in enumeration order, of
    largest overlap, the smallest such pair on a tie.
    """
    balls = (_read_ball(read_vector(x, window)) for x in all_words(n))
    best, a, b = 0, 0, 0
    for i, counts in _overlaps(balls):
        top = max(counts.values())
        if top >= best:
            j = min(j for j, c in counts.items() if c == top)
            if top > best or j < a:  # i > b, so (j, i) < (a, b) iff j < a
                best, a, b = top, j, i
    if not best:
        return CheckResult(ok=True, checked=1 << n, detail={"max_overlap": 0})
    limit = 2 if window == 1 else 1
    pair = (_nth_word(a, n), _nth_word(b, n))
    return CheckResult(
        ok=best <= limit,
        checked=1 << n,
        detail={"max_overlap": best, "witness": pair},
        counterexample=None if best <= limit else {"pair": pair, "overlap": best},
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

    The search runs over words whose ``sticky_ball`` is nonempty; the rest
    are counted as free.  Exact independent-set search up to n <= 8 (n <= 6
    at window 1); beyond that the greedy result is a labeled lower bound.
    """
    words = [x for x in all_words(n) if sticky_ball(bytes(x), window)]
    free = (1 << n) - len(words)
    adj = [0] * len(words)
    for i, counts in _overlaps(sticky_ball(bytes(x), window) for x in words):
        for j in counts:
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
    balls = (_read_ball(read_vector(x, w)) for x in codewords)
    first = min(((min(counts), i) for i, counts in _overlaps(balls)), default=None)
    if first is None:
        return CheckResult(ok=True, checked=k * (k - 1) // 2, detail={"codewords": k})
    i, j = first
    return CheckResult(
        ok=False,
        checked=i * (2 * k - i - 1) // 2 + j - i,  # rank of (i, j) among the pairs
        counterexample={"pair": (codewords[i], codewords[j])},
    )


def verify_decoder(n: int, window: int) -> CheckResult:
    """Exhaustive decode of every single deletion of every codeword,
    over every residue class.

    The words come in lexicographic order, each a codeword of the
    residue class its syndrome names.
    """
    params = [CodeParams(n=n, window=window, residue=a) for a in range(n + 1)]

    def check(words: Iterable[Word]) -> ChunkResult:
        checked = 0
        for x in words:
            rv = read_vector(x, window)
            p = params[syndrome(x, n, window)]
            for cand in deletion_ball(rv):
                checked += 1
                try:
                    decoded = decode(cand, p).word
                except DecodeFailure as exc:
                    found = {"error": _error(exc)}
                else:
                    if decoded == x:
                        continue
                    found = {"decoded": decoded}
                return checked, {
                    "word": x, "residue": p.residue, "received": cand, **found
                }, 0
        return checked, None, 0

    checked, counterexample, _ = _by_chunks(check, n)
    return CheckResult(
        ok=counterexample is None, checked=checked, counterexample=counterexample
    )


def verify_reconstruction(n: int, window: int) -> CheckResult:
    """Run two-read reconstruction on every valid instance of size n.

    Words whose read-vector deletion ball is a singleton admit no two
    distinct reads; they are skipped and counted.  Needs window >= 2.
    """
    if window < 2:
        raise ValueError("two-read reconstruction requires window >= 2")

    def check(words: Iterable[Word]) -> ChunkResult:
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

    checked, counterexample, skipped = _by_chunks(check, n)
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


def verify_expected_runs(n: int, a: int) -> CheckResult:
    """The word-by-word mean of rho_geq(., a) over the 2^n words equals
    ``bounds.expected_runs(n, a)``; needs 1 <= a <= n."""
    hist = rho_geq_histogram(n, a)
    average = Fraction(sum(r * k for r, k in enumerate(hist)), 1 << n)
    formula = bounds.expected_runs(n, a)
    return CheckResult(
        ok=average == formula,
        checked=1 << n,
        detail={"average": average, "formula": formula},
        counterexample=None if average == formula else {"histogram": hist},
    )


def verify_tail_bound(n: int, a: int) -> CheckResult:
    """``bounds.tail_count(n, a)`` is at most 2^n exp(-n / 2^(2a+1)), for
    1 <= a <= n, where the expectation behind it holds: one count against
    one float bound with 1e-9 slack for rounding, or past the float range
    count / 2^n against the exp, with the bound None."""
    if a > n:
        raise ValueError("the tail bound needs a <= n")
    count = bounds.tail_count(n, a)
    decay = math.exp(-n / 2 ** (2 * a + 1))
    try:
        bound = math.ldexp(decay, n)
        ok = count <= bound + 1e-9
    except OverflowError:
        bound, ok = None, count / (1 << n) <= decay
    return CheckResult(
        ok=ok,
        checked=1,
        detail={"count": count, "bound": bound},
        counterexample=None if ok else {"count": count, "bound": bound},
    )


def verify_sticky_size(n: int) -> CheckResult:
    """|sticky_ball(x, r)| equals rho_geq(x, r) for every word x of
    length n and every r in 1..n; ``checked`` counts the (x, r) pairs."""
    checked = 0
    for x in all_words(n):
        for r in range(1, n + 1):
            checked += 1
            if len(sticky_ball(x, r)) != rho_geq(x, r):
                return CheckResult(
                    ok=False, checked=checked, counterexample={"word": x, "r": r}
                )
    return CheckResult(ok=True, checked=checked)


def verify_sphere_packing(n: int, window: int) -> CheckResult:
    """The largest in-run deletion code stays within the weighted
    sphere-packing sum ``bounds.weighted_sum(n, window)``.

    ``checked`` counts the words the code search ran over.  Past the
    exact search the code is greedy: a greedy code is a real code, so
    one over the bound fails, and its words are the counterexample; one
    under it shows nothing about the optimum, and ``ok`` is None.
    """
    res = exact_max_sticky_code(n, window)
    ws = bounds.weighted_sum(n, window)
    ok = False if res.packing_size > ws else (True if res.exact else None)
    return CheckResult(
        ok=ok,
        checked=(1 << n) - res.free_words,
        detail={
            "packing_size": res.packing_size,
            "free_words": res.free_words,
            "total_size": res.total_size,
            "exact": res.exact,
            "weighted_sum": ws,
        },
        counterexample=None if ok is not False else {"witness": res.witness},
    )
