"""Exhaustive ground truth for the optimized operations and claims.

Everything here favors directness over speed: full enumerations,
quadratic scans, and an exact branch-and-bound independent-set search.
Enumeration order is lexicographic so counterexample witnesses are
stable across runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from operator import add
from typing import Sequence

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
    decode,
    enumerate_code,
    syndrome,
)
from .core import (
    ResourceLimitError,
    Word,
    all_words,
    is_valid_read_vector,
    read_vector,
)
from .reconstruct import InconsistentReadsError, reconstruct_two

MAX_EXACT_MIS_N = 8
# at window 1 every word's in-run ball is its whole deletion ball and the
# conflict graph is one dense component: exact search stops earlier
MAX_EXACT_MIS_N_WINDOW_1 = 6


@dataclass
class CheckResult:
    ok: bool
    checked: int
    detail: dict = field(default_factory=dict)
    counterexample: dict | None = None


def _error(exc: Exception) -> str:
    """A per-instance exception as a counterexample field."""
    return f"{type(exc).__name__}: {exc}"


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
    deletion image set, both directions, over all words of length n."""
    checked = 0
    for x in all_words(n):
        lhs = restricted_ball(read_vector(x, window), window)
        rhs = sticky_read_images(x, window)
        checked += 1
        if lhs != rhs:
            return CheckResult(
                ok=False,
                checked=checked,
                counterexample={"word": x, "lhs": sorted(lhs), "rhs": sorted(rhs)},
            )
    return CheckResult(ok=True, checked=checked)


def verify_intersection_bound(n: int, window: int) -> CheckResult:
    """Exact maximum pairwise deletion-ball overlap of read vectors.

    Builds an inverted index from deleted vectors to source words, so
    only colliding pairs are ever counted.
    """
    words = list(all_words(n))
    buckets: dict[tuple, list[int]] = {}
    for idx, x in enumerate(words):
        for d in deletion_ball(read_vector(x, window)):
            buckets.setdefault(d, []).append(idx)
    overlap: dict[tuple[int, int], int] = {}
    while buckets:  # popped, so each key is freed as its pairs are counted
        for a, b in combinations(buckets.popitem()[1], 2):
            overlap[(a, b)] = overlap.get((a, b), 0) + 1
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


def _bnb_independent_set(adj: list[int], cand0: int) -> int:
    """Branch and bound maximum independent set within one candidate
    mask, returned as a bitmask."""
    order = sorted(
        (v for v in range(len(adj)) if cand0 >> v & 1),
        key=lambda v: (adj[v] & cand0).bit_count(),
    )
    best = _greedy_independent_set(adj, order) & cand0
    best_size = best.bit_count()

    def expand(cand: int, cur: int, cur_size: int) -> None:
        nonlocal best, best_size
        if cur_size + cand.bit_count() <= best_size:
            return
        if cand == 0:
            best, best_size = cur, cur_size
            return
        # sweep once: absorb isolated candidates, pick the candidate of
        # highest remaining degree to branch on
        v, vdeg = -1, -1
        m = cand
        while m:
            bit = m & -m
            u = bit.bit_length() - 1
            deg = (adj[u] & cand).bit_count()
            if deg == 0:
                cur |= bit
                cur_size += 1
                cand ^= bit
            elif deg > vdeg:
                v, vdeg = u, deg
            m ^= bit
        if v < 0:
            if cur_size > best_size:
                best, best_size = cur, cur_size
            return
        bit = 1 << v
        expand(cand & ~(adj[v] | bit), cur | bit, cur_size + 1)
        expand(cand & ~bit, cur, cur_size)

    expand(cand0, 0, 0)
    return best


def _exact_independent_set(adj: list[int], n_vertices: int) -> int:
    """Exact maximum independent set, solved per connected component.

    The conflict graphs here are sparse with small components, so the
    decomposition keeps each branch-and-bound search tiny.
    """
    seen = 0
    result = 0
    for v in range(n_vertices):
        if seen >> v & 1:
            continue
        # flood-fill the component of v
        comp = 1 << v
        frontier = 1 << v
        while frontier:
            nxt = 0
            m = frontier
            while m:
                bit = m & -m
                nxt |= adj[bit.bit_length() - 1]
                m ^= bit
            frontier = nxt & ~comp
            comp |= frontier
        seen |= comp
        result |= _bnb_independent_set(adj, comp)
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
    counted as free.  Exact branch and bound up to n <= 8 (n <= 6 at
    window 1); beyond that the greedy result is a labeled lower bound.
    """
    words = [x for x in all_words(n) if rho_geq(x, window) >= 1]
    free = (1 << n) - len(words)
    balls = [sticky_ball(x, window) for x in words]
    adj = [0] * len(words)
    for i, j in combinations(range(len(words)), 2):
        if balls[i] & balls[j]:
            adj[i] |= 1 << j
            adj[j] |= 1 << i
    limit = MAX_EXACT_MIS_N if window >= 2 else MAX_EXACT_MIS_N_WINDOW_1
    if n <= limit:
        mask = _exact_independent_set(adj, len(words))
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
    test an arbitrary word set against the same criterion.
    """
    if codewords is None:
        codewords = enumerate_code(params)
    balls = [deletion_ball(read_vector(x, params.window)) for x in codewords]
    pairs = 0
    for i, j in combinations(range(len(codewords)), 2):
        pairs += 1
        if balls[i] & balls[j]:
            return CheckResult(
                ok=False,
                checked=pairs,
                counterexample={"pair": (codewords[i], codewords[j])},
            )
    return CheckResult(ok=True, checked=pairs, detail={"codewords": len(codewords)})


def verify_decoder(n: int, window: int) -> CheckResult:
    """Exhaustive decode of every single deletion of every codeword,
    over every residue class.

    One pass over all words sorts them into their residue classes, in
    lexicographic order within each class.
    """
    params = [CodeParams(n=n, window=window, residue=a) for a in range(n + 1)]
    codes: list[list[Word]] = [[] for _ in params]
    for x in all_words(n):
        codes[syndrome(x, n, window)].append(x)
    checked = 0
    for p, codewords in zip(params, codes):
        for x in codewords:
            rv = read_vector(x, window)
            for cand in deletion_ball(rv):
                checked += 1
                try:
                    decoded = decode(cand, p).word
                except (DecodeFailure, MalformedInputError) as exc:
                    return CheckResult(
                        ok=False,
                        checked=checked,
                        counterexample={
                            "word": x,
                            "residue": p.residue,
                            "received": cand,
                            "error": _error(exc),
                        },
                    )
                if decoded != x:
                    return CheckResult(
                        ok=False,
                        checked=checked,
                        counterexample={
                            "word": x,
                            "residue": p.residue,
                            "received": cand,
                            "decoded": decoded,
                        },
                    )
    return CheckResult(ok=True, checked=checked)


def verify_reconstruction(n: int, window: int) -> CheckResult:
    """Run two-read reconstruction on every valid instance of size n.

    Words whose read-vector deletion ball is a singleton admit no two
    distinct reads; they are skipped and counted.
    """
    checked = 0
    skipped = 0
    for x in all_words(n):
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
                return CheckResult(
                    ok=False,
                    checked=checked,
                    counterexample={
                        "word": x,
                        "reads": (r1, r2),
                        "error": _error(exc),
                    },
                )
            if got != rv:
                return CheckResult(
                    ok=False,
                    checked=checked,
                    counterexample={"word": x, "reads": (r1, r2), "result": got},
                )
    return CheckResult(ok=True, checked=checked, detail={"skipped_singletons": skipped})


def verify_validity_image(n: int, window: int) -> CheckResult:
    """The validity check accepts exactly the image of the transform.

    Enumerates every candidate over {0, ..., window} of the right
    length; guarded to n + window - 1 <= 12.
    """
    if n + window - 1 > 12:
        raise ResourceLimitError("candidate enumeration guarded at n + window - 1 <= 12")
    image = {read_vector(x, window) for x in all_words(n)}
    m = n + window - 1
    checked = 0

    def rec(prefix: tuple[int, ...]) -> tuple | None:
        nonlocal checked
        if len(prefix) == m:
            checked += 1
            if is_valid_read_vector(prefix, window, n) != (prefix in image):
                return prefix
            return None
        for s in range(window + 1):
            bad = rec(prefix + (s,))
            if bad is not None:
                return bad
        return None

    bad = rec(())
    if bad is not None:
        return CheckResult(ok=False, checked=checked, counterexample={"candidate": bad})
    return CheckResult(ok=True, checked=checked, detail={"image_size": len(image)})
