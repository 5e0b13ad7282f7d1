import json
import os
import pathlib
import select
import subprocess
import sys
import threading
import tracemalloc
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given, settings, strategies as st

import nanoread
from nanoread import oracle
from nanoread.balls import deletion_ball, restricted_ball, sticky_ball
from nanoread.bounds import weighted_sum
from nanoread.code import (
    CodeParams,
    DecodeFailure,
    DecodeOutcome,
    MalformedInputError,
    decode as real_decode,
    enumerate_code,
    syndrome,
)
from nanoread.core import MAX_ENUM_N, read_vector
from nanoread.oracle import (
    ResourceLimitError,
    all_words,
    exact_max_sticky_code,
    verify_ball_equivalence,
    verify_code_property,
    verify_decoder,
    verify_intersection_bound,
    verify_reconstruction,
    verify_validity_image,
)


def _graph(k: int, edge_mask: int) -> list[int]:
    """Adjacency bitmasks of the k-vertex graph whose edges are the
    vertex pairs, in combinations order, picked by the bits of edge_mask."""
    adj = [0] * k
    for bit, (u, v) in enumerate(combinations(range(k), 2)):
        if edge_mask >> bit & 1:
            adj[u] |= 1 << v
            adj[v] |= 1 << u
    return adj


@st.composite
def graphs(draw):
    k = draw(st.integers(1, 12))
    return _graph(k, draw(st.integers(0, (1 << k * (k - 1) // 2) - 1)))


def _brute_force_independent_set(adj: list[int]) -> int:
    """Size of the largest independent set, over every vertex subset."""
    return max(
        mask.bit_count()
        for mask in range(1 << len(adj))
        if all(not adj[v] & mask for v in range(len(adj)) if mask >> v & 1)
    )


class TestMaxIndependentSet:
    def _check(self, adj: list[int]) -> None:
        mask = oracle._max_independent_set(adj, (1 << len(adj)) - 1)
        assert all(not adj[v] & mask for v in range(len(adj)) if mask >> v & 1)
        assert mask.bit_count() == _brute_force_independent_set(adj)

    def test_every_graph_on_five_vertices(self):
        for edge_mask in range(1 << 10):
            self._check(_graph(5, edge_mask))

    @settings(max_examples=100, deadline=None)
    @given(graphs())
    def test_random_graphs(self, adj):
        self._check(adj)


class TestOverlaps:
    @given(st.lists(st.sets(st.integers(0, 6), max_size=5), max_size=8))
    def test_matches_pairwise_intersection(self, balls):
        want = {
            (i, j): len(balls[i] & balls[j])
            for i, j in combinations(range(len(balls)), 2)
            if balls[i] & balls[j]
        }
        got = {
            (j, i): count
            for i, counts in oracle._overlaps(iter(balls))
            for j, count in counts.items()
        }
        assert got == want


class TestPackedBall:
    # the symbols 0, 1, 2 and the largest entry of a read vector,
    # min(window, 255) inside the one-byte guard: a byte holds each of
    # them, so the read ball is cut from bytes at every window
    @pytest.mark.parametrize("window", [1, 2, 3, 255, 256])
    def test_matches_packed_deletion_ball(self, window):
        for length in range(1, 7):
            for u in product((0, 1, 2, min(window, 255)), repeat=length):
                want = set(map(bytes, deletion_ball(u)))
                assert oracle._read_ball(u) == want, u

    @pytest.mark.parametrize("window", [1, 2, 3, 255])
    def test_every_ball_of_bytes_is_packed(self, window):
        for length in range(1, 7):
            for u in product((0, 1, 2, window), repeat=length):
                raw = bytes(u)
                assert deletion_ball(raw) == set(map(bytes, deletion_ball(u)))
                assert restricted_ball(raw, window) == set(
                    map(bytes, restricted_ball(u, window))
                )
                for r in range(1, length + 1):
                    assert sticky_ball(raw, r) == set(
                        map(bytes, sticky_ball(u, r))
                    ), (u, r)

    def test_other_sequences_give_tuples(self):
        assert deletion_ball([0, 1, 1]) == {(1, 1), (0, 1)}
        assert deletion_ball(iter([0, 1, 1])) == {(1, 1), (0, 1)}
        assert sticky_ball(range(3), 1) == {(1, 2), (0, 2), (0, 1)}
        assert restricted_ball([2, 0], 2) == {(0,), (2,)}

    def test_code_property_at_window_256(self):
        # at window 255 the second read vector holds the entry 255, the
        # most a byte holds; at window 256 it would hold 256 and is refused
        res = verify_code_property(CodeParams(255, 255, 0), [(0,) * 255, (1,) * 255])
        assert res.ok
        assert res.checked == 1
        with pytest.raises(ResourceLimitError):
            verify_code_property(CodeParams(256, 256, 0), [(0,) * 256, (1,) * 256])

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            oracle._read_ball(())


class TestBallEquivalence:
    def test_reference_case(self):
        assert verify_ball_equivalence(6, 3).ok

    @pytest.mark.parametrize("n", [0, -1])
    def test_empty_word_rejected(self, n):
        # the lemma is about deletions from a word; at n = 0 the in-run
        # images of the all-pad read vector are not deletions of anything
        with pytest.raises(ValueError, match="n >= 1"):
            verify_ball_equivalence(n, 2)

    def test_small_window(self):
        assert verify_ball_equivalence(4, 2).ok

    def test_window_one(self):
        # degenerate parameter: restricted deletions cover the whole ball
        assert verify_ball_equivalence(5, 1).ok


class TestIntersectionBound:
    def test_window_two(self):
        res = verify_intersection_bound(8, 2)
        assert res.ok
        assert res.detail["max_overlap"] <= 1

    def test_window_three(self):
        res = verify_intersection_bound(6, 3)
        assert res.ok

    def test_window_one_reaches_two(self):
        res = verify_intersection_bound(6, 1)
        assert res.ok
        assert res.detail["max_overlap"] == 2
        assert "witness" in res.detail

    @pytest.mark.parametrize("window", [1, 2, 3])
    def test_matches_every_pair(self, window):
        # the largest overlap over combinations, ties to the smallest (a, b)
        for n in range(1, 8):
            words = list(all_words(n))
            balls = [deletion_ball(read_vector(x, window)) for x in words]
            a, b = max(
                combinations(range(len(words)), 2),
                key=lambda p: len(balls[p[0]] & balls[p[1]]),
            )
            best = len(balls[a] & balls[b])
            res = verify_intersection_bound(n, window)
            assert res.detail["max_overlap"] == best, (n, window)
            assert res.detail.get("witness") == (
                (words[a], words[b]) if best else None
            ), (n, window)

    def test_peak_memory(self):
        # one bucket per distinct result and no table of colliding pairs,
        # whose 19,712 entries at this cell take the peak past 2.4 MB
        verify_intersection_bound(4, 2)
        tracemalloc.start()
        try:
            assert verify_intersection_bound(11, 2).ok
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.6e6

    def test_peak_memory_window_three(self):
        # a bucket that one ball reaches holds a bare index until a second
        # arrives: one-element lists take this cell's peak to 1.6 MB
        verify_intersection_bound(4, 3)
        tracemalloc.start()
        try:
            assert verify_intersection_bound(11, 3).ok
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25e6


class TestMaxStickyCode:
    def test_known_values_window_two(self):
        # cross-checked against an integer-program solution
        for n, want in ((5, 14), (6, 26), (7, 42), (8, 74)):
            res = exact_max_sticky_code(n, 2)
            assert res.exact
            assert res.packing_size == want
            assert res.free_words == 2  # the two alternating words

    @pytest.mark.parametrize(
        "window, sizes",
        [(1, {1: 1, 2: 2, 3: 2, 4: 4, 5: 6, 6: 10}),
         (3, {3: 2, 4: 6, 5: 14, 6: 30, 7: 60, 8: 118})],
    )
    def test_known_values(self, window, sizes):
        for n, want in sizes.items():
            res = exact_max_sticky_code(n, window)
            assert res.exact
            assert res.packing_size == want

    def test_witness_is_a_valid_code(self):
        res = exact_max_sticky_code(6, 2)
        balls = [sticky_ball(x, 2) for x in res.witness]
        for i, j in combinations(range(len(balls)), 2):
            assert not balls[i] & balls[j]

    def test_window_above_n_all_free(self):
        res = exact_max_sticky_code(3, 4)
        assert res.packing_size == 0
        assert res.free_words == 8
        assert res.total_size == 8

    def test_exhaustive_subset_search_agrees(self):
        # independent oracle: try every subset at a tiny size
        n, w = 4, 2
        words = [x for x in all_words(n) if sticky_ball(x, w)]
        best = 0
        for mask in range(1 << len(words)):
            chosen = [words[i] for i in range(len(words)) if mask >> i & 1]
            balls = [sticky_ball(x, w) for x in chosen]
            if all(
                not balls[i] & balls[j]
                for i, j in combinations(range(len(balls)), 2)
            ):
                best = max(best, len(chosen))
        assert exact_max_sticky_code(n, w).packing_size == best

    def test_greedy_mode_labeled(self):
        res = exact_max_sticky_code(9, 2)
        assert not res.exact

    def test_window_one_exact_limit(self):
        # window 1 conflicts form one dense component: exact search
        # stops at n = 6, and n = 7 returns the labeled greedy result
        assert exact_max_sticky_code(6, 1).exact
        res = exact_max_sticky_code(7, 1)
        assert not res.exact
        balls = [sticky_ball(x, 1) for x in res.witness]
        assert all(not u & v for u, v in combinations(balls, 2))

    def test_packing_bounded_by_weighted_sum(self):
        for n in range(2, 9):
            res = exact_max_sticky_code(n, 2)
            assert Fraction(res.packing_size) <= weighted_sum(n, 2)


class TestCodeProperty:
    def test_all_residues(self):
        for a in range(7):
            params = CodeParams(6, 3, a)
            assert verify_code_property(params).ok
            # in-run (sticky) deletion balls are disjoint over the code too
            balls = [sticky_ball(x, 3) for x in enumerate_code(params)]
            assert all(not u & v for u, v in combinations(balls, 2))

    def test_full_space_fails(self):
        # the whole space is not a code; a colliding pair is reported
        res = verify_code_property(
            CodeParams(4, 2, 0), codewords=list(all_words(4))
        )
        assert not res.ok
        # the first colliding pair in combinations order, and its rank
        assert res.checked == 16
        assert res.counterexample == {"pair": ((0, 0, 0, 1), (0, 0, 1, 0))}


class TestDecoderAndReconstruction:
    def test_decoder(self):
        assert verify_decoder(6, 3).ok
        assert verify_decoder(5, 2).ok

    def test_reconstruction(self):
        res = verify_reconstruction(8, 2)
        assert res.ok
        assert res.detail["skipped_singletons"] >= 1  # the all-zero word

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_reconstruction_refuses_window_1(self, n):
        # one message whatever n: n = 0 has no read vector to delete
        # from, and n = 1 has only singleton balls, so nothing is checked
        with pytest.raises(ValueError, match="requires window >= 2"):
            verify_reconstruction(n, 1)

    def test_validity_image(self):
        assert verify_validity_image(6, 3).ok
        assert verify_validity_image(5, 2).ok

    @pytest.mark.parametrize("error", [DecodeFailure, MalformedInputError])
    def test_decoder_reports_a_raising_decode(self, monkeypatch, error):
        def decode(received, params):
            raise error("refused")

        monkeypatch.setattr(oracle, "decode", decode)
        res = verify_decoder(5, 2)
        assert not res.ok
        assert res.checked == 1
        assert res.counterexample == {
            "word": (0, 0, 0, 0, 0),
            "residue": 0,
            "received": (0, 0, 0, 0, 0),
            "error": f"{error.__name__}: refused",
        }

    def test_reconstruction_reports_a_raising_reconstruct(self, monkeypatch):
        def reconstruct_two(first, second, window, n):
            raise oracle.InconsistentReadsError("refused")

        monkeypatch.setattr(oracle, "reconstruct_two", reconstruct_two)
        res = verify_reconstruction(4, 2)
        assert not res.ok
        assert res.checked == 1
        assert res.counterexample == {
            "word": (0, 0, 0, 1),
            "reads": ((0, 0, 0, 1), (0, 0, 1, 1)),
            "error": "InconsistentReadsError: refused",
        }

    def test_validity_image_guard(self):
        with pytest.raises(ResourceLimitError):
            verify_validity_image(12, 4)

    @pytest.mark.parametrize("n, window", [(8, 5), (8, 4), (2, 9)])
    def test_validity_image_candidate_count_guard(self, n, window):
        # n + window - 1 <= 12, but (window + 1)^(n + window - 1) > 4^12
        # candidates: refused before the first one is built
        with pytest.raises(ResourceLimitError):
            verify_validity_image(n, window)


class TestClaimChecks:
    """The four claim checks: each passes at small n, and a planted
    fault gives ok False with a counterexample that is plain JSON."""

    @staticmethod
    def _fails_as_json(res):
        assert res.ok is False
        return json.loads(json.dumps(res.counterexample))

    def test_passing(self):
        for n in range(1, 7):
            for a in range(1, n + 1):
                assert oracle.verify_expected_runs(n, a).checked == 1 << n
                assert oracle.verify_tail_bound(n, a).ok
            assert oracle.verify_sticky_size(n).checked == n << n
        res = oracle.verify_expected_runs(4, 2)
        assert res.ok and res.detail == {"average": 1, "formula": 1}
        assert oracle.verify_sticky_size(0) == oracle.CheckResult(ok=True, checked=0)

    def test_tail_bound_needs_a_at_most_n(self):
        with pytest.raises(ValueError):
            oracle.verify_tail_bound(3, 4)

    def test_expected_runs_fault(self, monkeypatch):
        monkeypatch.setattr(oracle.bounds, "expected_runs", lambda n, a: Fraction(1))
        res = oracle.verify_expected_runs(4, 1)
        assert self._fails_as_json(res) == {"histogram": [0, 2, 6, 6, 2]}
        assert res.detail == {"average": Fraction(5, 2), "formula": 1}

    def test_tail_bound_fault(self, monkeypatch):
        monkeypatch.setattr(oracle.bounds, "tail_count", lambda n, a: 1 << n)
        res = oracle.verify_tail_bound(4, 2)
        assert self._fails_as_json(res) == {"count": 16, "bound": res.detail["bound"]}
        assert res.detail["bound"] < 16

    def test_sticky_size_fault(self, monkeypatch):
        real = oracle.sticky_ball

        def sticky_ball(x, r):
            ball = real(x, r)
            return ball | {("planted",)} if (x, r) == ((0, 1, 1), 2) else ball

        monkeypatch.setattr(oracle, "sticky_ball", sticky_ball)
        res = oracle.verify_sticky_size(3)
        assert self._fails_as_json(res) == {"word": [0, 1, 1], "r": 2}
        assert res.checked == 3 * 3 + 2  # (0,1,1) is the fourth word

    def test_intersection_fault(self, monkeypatch):
        # two read vectors sharing two results break the limit of one at l = 2
        real = oracle._read_ball
        first, last = read_vector((0, 0, 0), 2), read_vector((1, 1, 1), 2)
        shared = set(sorted(real(last))[:2])

        def _read_ball(levels):
            ball = real(levels)
            return ball | shared if tuple(levels) == first else ball

        monkeypatch.setattr(oracle, "_read_ball", _read_ball)
        res = verify_intersection_bound(3, 2)
        assert self._fails_as_json(res) == {
            "pair": [[0, 0, 0], [1, 1, 1]],
            "overlap": 2,
        }
        assert res.detail["max_overlap"] == 2

    @pytest.mark.parametrize("index", [100, 1000])
    def test_ball_equivalence_fault(self, monkeypatch, forks, index):
        # one element dropped from one word's restricted ball, in chunk
        # 3 (word 100) or chunk 31 (word 1000) of the fan-out on two CPUs
        word = list(all_words(10))[index]
        target = read_vector(word, 2)
        real = oracle.restricted_ball
        dropped = min(real(target, 2))

        def restricted_ball(u, k):
            ball = real(u, k)
            return ball - {dropped} if tuple(u) == target else ball

        monkeypatch.setattr(oracle, "restricted_ball", restricted_ball)
        _set_cpus(monkeypatch, 1)
        serial = verify_ball_equivalence(10, 2)
        _set_cpus(monkeypatch, 2)
        fanned = verify_ball_equivalence(10, 2)
        assert len(forks) == 1
        assert fanned == serial
        found = self._fails_as_json(fanned)
        assert fanned.checked == index + 1
        assert found["word"] == list(word)
        lhs, rhs = (set(map(tuple, found[side])) for side in ("lhs", "rhs"))
        assert rhs - lhs == {dropped} and lhs <= rhs

    @pytest.mark.parametrize(
        "target", [read_vector((1, 0, 1), 2), (2, 2, 2, 2)], ids=["in", "out"]
    )
    def test_validity_image_fault(self, monkeypatch, target):
        # one answer flipped: a read vector refused, or a candidate
        # outside the image accepted
        real = oracle.is_valid_read_vector

        def is_valid_read_vector(levels, window, n):
            valid = real(levels, window, n)
            return not valid if levels == target else valid

        monkeypatch.setattr(oracle, "is_valid_read_vector", is_valid_read_vector)
        res = verify_validity_image(3, 2)
        assert self._fails_as_json(res) == {"candidate": list(target)}
        assert res.checked == list(product(range(3), repeat=4)).index(target) + 1

    def test_sphere_packing_fault(self, monkeypatch):
        monkeypatch.setattr(oracle.bounds, "weighted_sum", lambda n, l: Fraction(1))
        res = oracle.verify_sphere_packing(4, 2)
        witness = self._fails_as_json(res)["witness"]
        assert [tuple(x) for x in witness] == list(exact_max_sticky_code(4, 2).witness)
        assert res.checked == 14 and res.detail["exact"]

    def test_sphere_packing_past_exact_search(self, monkeypatch):
        # a greedy code under the bound decides nothing; over it, it fails
        res = oracle.verify_sphere_packing(9, 2)
        assert res.ok is None and res.counterexample is None
        monkeypatch.setattr(oracle.bounds, "weighted_sum", lambda n, l: Fraction(1))
        assert oracle.verify_sphere_packing(9, 2).ok is False


# the fanned checks, and the least n at which all of them split on two CPUs
FANNED = ("verify_decoder", "verify_reconstruction", "verify_ball_equivalence")
FANNED_FROM = 9
# the verify-sweep cells, and one larger
SWEEP = [(n, l) for l in (2, 3) for n in range(l, 12)] + [(12, 2)]


@pytest.fixture
def forks(monkeypatch):
    """The pids of the children the oracles fork; after the test, no
    child of this process is left."""
    real_fork = os.fork
    forked = []

    def fork():
        pid = real_fork()
        if pid:
            forked.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    yield forked
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _set_cpus(monkeypatch, count):
    monkeypatch.setattr(oracle, "_cpus", lambda: count)


def _decoder_order(n, window):
    """The decoder's enumeration: lexicographic, as ``all_words``."""
    return list(all_words(n))


# two chunks of verify_decoder(10, 2), 32 words each, and the first word
# of each
K1, K2 = 20, 28
WORD_K1, WORD_K2 = (oracle._nth_word(k << 5, 10) for k in (K1, K2))
WAIT_S = 10


def _chunk_of(word):
    """The fan-out chunk of a word of length 10: its top five bits."""
    return int("".join(map(str, word[:5])), 2)


def _wait(flag):
    """Wait until a byte was written to the pipe flag, in any process;
    the byte stays, so the flag stays raised."""
    if not select.select([flag[0]], [], [], WAIT_S)[0]:
        raise TimeoutError(f"no process raised the flag in {WAIT_S} s")


def _refuse(out):
    raise DecodeFailure("refused")


def _crash(out):
    raise TypeError(f"chunk {_chunk_of(out.word)}")


class _Race:
    """Two faults of verify_decoder(10, 2): ``decode`` fails by
    first(outcome) at ``WORD_K1`` and by second(outcome) at ``WORD_K2``.

    Once armed, for the fanned run, the process that meets ``WORD_K1``
    waits until another has met ``WORD_K2``, so the later chunk fails
    first; and the processes of the kind that must not meet it (holder
    is "parent" or "child") wait at each decode until one has.  A
    process claims one chunk before its first decode, so K1 is left to
    the holder's kind unless a process starts 20 chunks late; the
    faults are checked before the waits, so that case deadlocks nothing.
    """

    def __init__(self, holder, first, second):
        self.parent = os.getpid()
        self.holder = holder
        self.faults = {WORD_K1: first, WORD_K2: second}
        self.met_k1, self.met_k2 = os.pipe(), os.pipe()
        self.armed = False

    def decode(self, received, params):
        out = real_decode(received, params)
        if self.armed:
            if out.word == WORD_K1:
                os.write(self.met_k1[1], b"x")
                _wait(self.met_k2)
            elif out.word == WORD_K2:
                os.write(self.met_k2[1], b"x")
            elif (os.getpid() == self.parent) != (self.holder == "parent"):
                _wait(self.met_k1)
        fault = self.faults.get(out.word)
        return out if fault is None else fault(out)

    def close(self):
        for fd in self.met_k1 + self.met_k2:
            os.close(fd)


@pytest.fixture
def race(monkeypatch):
    """race(holder, first, second): a ``_Race`` in place of
    ``oracle.decode``, its pipes closed after the test."""
    made = []

    def start(holder, first, second):
        made.append(_Race(holder, first, second))
        monkeypatch.setattr(oracle, "decode", made[-1].decode)
        return made[-1]

    yield start
    for r in made:
        r.close()


class TestFanOut:
    @pytest.mark.parametrize("check", FANNED)
    def test_fanned_equals_serial(self, monkeypatch, forks, check):
        verify = getattr(oracle, check)
        for n, l in SWEEP:
            _set_cpus(monkeypatch, 1)
            serial = verify(n, l)
            _set_cpus(monkeypatch, 2)
            assert verify(n, l) == serial, (n, l)
        # every cell from the least fanned n on forks one child
        assert len(forks) == sum(n >= FANNED_FROM for n, _ in SWEEP)

    @pytest.mark.parametrize("cpus", [1, 2, 3, 4])
    def test_forks_at_most_cpus_less_one(self, monkeypatch, forks, cpus):
        _set_cpus(monkeypatch, cpus)
        assert verify_decoder(10, 2).ok  # 1024 words: up to four processes
        assert len(forks) == cpus - 1

    def test_host_cpus(self, forks):
        assert verify_reconstruction(11, 2).ok
        assert len(forks) <= oracle._cpus() - 1

    def test_small_cell_stays_serial(self, monkeypatch, forks):
        # the largest cell below two blocks of words
        _set_cpus(monkeypatch, 4)
        for check in FANNED:
            assert getattr(oracle, check)(FANNED_FROM - 1, 2).ok, check
        assert forks == []

    @pytest.mark.parametrize("check", FANNED)
    def test_processes_follow_the_words(self, monkeypatch, forks, check):
        # one process per MIN_BLOCK words, up to the CPUs, whatever the
        # check: on four CPUs 0, 1 and 3 children at n = 8, 9 and 10
        _set_cpus(monkeypatch, 4)
        children = []
        for n in (8, 9, 10):
            assert getattr(oracle, check)(n, 2).ok, n
            children.append(len(forks) - sum(children))
        assert children == [0, 1, 3]

    def test_without_fork_stays_serial(self, monkeypatch, forks):
        _set_cpus(monkeypatch, 2)
        monkeypatch.delattr(os, "fork")
        assert verify_reconstruction(10, 2).ok

    def test_threaded_process_stays_serial(self, monkeypatch, forks):
        _set_cpus(monkeypatch, 2)
        release = threading.Event()
        thread = threading.Thread(target=release.wait, args=(10,))
        thread.start()
        try:
            assert verify_reconstruction(10, 2).ok
        finally:
            release.set()
            thread.join(10)
        assert not thread.is_alive()
        assert forks == []

    def test_chunks_make_up_the_enumeration(self):
        for n in range(8):
            chunks = 1 << min(n, oracle.CHUNK_BITS)
            words = [x for c in range(chunks) for x in oracle._chunk(n, c)]
            assert words == list(all_words(n)), n

    def test_size_guard_before_any_fork(self, monkeypatch, forks):
        _set_cpus(monkeypatch, 2)
        for check in FANNED:
            with pytest.raises(ResourceLimitError):
                getattr(oracle, check)(MAX_ENUM_N + 1, 2)
        assert forks == []

    @pytest.mark.parametrize("where", ["first", "last", "both"])
    def test_decode_failure_in_a_block(self, monkeypatch, forks, where):
        # three processes over the 32 chunks of the 1024 decoder words
        # (words 100 and 924 in chunks 3 and 28); the first failing chunk
        # decides
        order = _decoder_order(10, 2)
        targets = {"first": [order[100]], "last": [order[-100]]}
        targets["both"] = targets["first"] + targets["last"]

        def decode(received, params):
            out = real_decode(received, params)
            if out.word in targets[where]:
                raise DecodeFailure("refused")
            return out

        monkeypatch.setattr(oracle, "decode", decode)
        _set_cpus(monkeypatch, 1)
        serial = verify_decoder(10, 2)
        _set_cpus(monkeypatch, 3)
        fanned = verify_decoder(10, 2)
        assert len(forks) == 2
        assert fanned == serial
        assert not fanned.ok
        assert fanned.counterexample["word"] == targets[where][0]
        assert fanned.counterexample["error"] == "DecodeFailure: refused"

    @pytest.mark.parametrize("cpus", [2, 3])
    @pytest.mark.parametrize("holder", ["parent", "child"])
    @pytest.mark.parametrize(
        "faults", [(_refuse, _refuse), (_crash, _crash)], ids=["found", "raised"]
    )
    def test_earlier_chunk_decides(self, monkeypatch, forks, race, cpus, holder, faults):
        # chunk K2 fails first, in another process than chunk K1; K1,
        # in the parent or a child, decides all the same
        run = race(holder, *faults)
        _set_cpus(monkeypatch, 1)
        if faults[0] is _crash:
            with pytest.raises(TypeError, match=f"^chunk {K1}$"):
                verify_decoder(10, 2)
        else:
            serial = verify_decoder(10, 2)
        run.armed = True
        _set_cpus(monkeypatch, cpus)
        if faults[0] is _crash:
            with pytest.raises(TypeError, match=f"^chunk {K1}$"):
                verify_decoder(10, 2)
        else:
            fanned = verify_decoder(10, 2)
            assert fanned == serial
            assert fanned.counterexample["word"] == WORD_K1
            assert fanned.checked == serial.checked
        assert len(forks) == cpus - 1

    @pytest.mark.parametrize("index", [100, -100])
    def test_wrong_decode_in_a_block(self, monkeypatch, forks, index):
        # one received read decodes to another codeword of its class
        word = _decoder_order(10, 2)[index]
        params = CodeParams(10, 2, syndrome(word, 10, 2))
        other = next(x for x in enumerate_code(params) if x != word)
        target = sorted(deletion_ball(read_vector(word, 2)))[0]

        def decode(received, p):
            out = real_decode(received, p)
            if (received, p) == (target, params):
                return DecodeOutcome(other, out.path)
            return out

        monkeypatch.setattr(oracle, "decode", decode)
        _set_cpus(monkeypatch, 1)
        serial = verify_decoder(10, 2)
        _set_cpus(monkeypatch, 3)
        fanned = verify_decoder(10, 2)
        assert len(forks) == 2
        assert fanned == serial
        assert not fanned.ok
        assert fanned.counterexample == {
            "word": word,
            "residue": params.residue,
            "received": target,
            "decoded": other,
        }

    @pytest.mark.parametrize("index", [100, 1000])
    def test_wrong_reconstruction_in_a_block(self, monkeypatch, forks, index):
        target = read_vector(list(all_words(10))[index], 2)
        real = oracle.reconstruct_two

        def reconstruct_two(first, second, window, n):
            got = real(first, second, window, n)
            return got[::-1] if got == target else got

        monkeypatch.setattr(oracle, "reconstruct_two", reconstruct_two)
        _set_cpus(monkeypatch, 1)
        serial = verify_reconstruction(10, 2)
        _set_cpus(monkeypatch, 3)
        fanned = verify_reconstruction(10, 2)
        assert len(forks) == 2
        assert fanned == serial
        assert not fanned.ok
        assert fanned.detail == {}
        assert fanned.counterexample["result"] == target[::-1]

    def test_child_exception_is_raised(self, monkeypatch, forks):
        # the child raises in its first chunk; the parent holds its own
        # first decode until then, so that the child claims a chunk.  The
        # serial rerun passes, so the child's exception comes back named
        # in a RuntimeError
        parent = os.getpid()
        raised = os.pipe()

        def decode(received, params):
            if os.getpid() != parent:
                os.write(raised[1], b"x")
                raise TypeError(f"in pid {os.getpid()}")
            _wait(raised)
            return real_decode(received, params)

        monkeypatch.setattr(oracle, "decode", decode)
        _set_cpus(monkeypatch, 2)
        try:
            with pytest.raises(RuntimeError) as info:
                verify_decoder(10, 2)
        finally:
            os.close(raised[0])
            os.close(raised[1])
        assert len(forks) == 1
        assert f"TypeError: in pid {forks[0]}" in str(info.value)
        assert f"in pid {parent}" not in str(info.value)

    def test_wrong_decode_in_a_child_only(self, monkeypatch, forks):
        # the child decodes its first read to the complemented word and
        # writes that word's chunk; the parent holds its own first decode
        # until then.  The serial rerun passes: a RuntimeError names the
        # chunk where the child found its counterexample
        parent = os.getpid()
        wrong = os.pipe()

        def decode(received, params):
            out = real_decode(received, params)
            if os.getpid() != parent:
                os.write(wrong[1], bytes([_chunk_of(out.word)]))
                return DecodeOutcome(tuple(1 - b for b in out.word), out.path)
            _wait(wrong)
            return out

        monkeypatch.setattr(oracle, "decode", decode)
        _set_cpus(monkeypatch, 2)
        try:
            with pytest.raises(RuntimeError) as info:
                verify_decoder(10, 2)
            chunk = os.read(wrong[0], 1)[0]
        finally:
            os.close(wrong[0])
            os.close(wrong[1])
        assert str(info.value) == (
            "oracle fan-out failed, its serial rerun passed:"
            f" counterexample in chunk {chunk}"
        )
        assert len(forks) == 1

    def test_parent_exception_takes_its_block_place(self, monkeypatch, forks, race):
        # the parent raises in chunk K2 before a child finds a
        # counterexample in chunk K1: that one is the result
        run = race("child", _refuse, _crash)
        _set_cpus(monkeypatch, 1)
        serial = verify_decoder(10, 2)
        run.armed = True
        _set_cpus(monkeypatch, 2)
        res = verify_decoder(10, 2)
        assert res == serial
        assert not res.ok
        assert res.counterexample["word"] == WORD_K1
        assert len(forks) == 1

    def test_child_that_dies_is_no_pass(self, monkeypatch, forks):
        # the child dies at its first word; the parent holds until then,
        # so that the child claims a chunk.  The serial rerun passes, and
        # the child's exit code is named
        parent = os.getpid()
        real = oracle.read_vector
        died = os.pipe()

        def read_vector(x, window):
            if os.getpid() != parent:
                os.write(died[1], b"x")
                os._exit(1)
            _wait(died)
            return real(x, window)

        monkeypatch.setattr(oracle, "read_vector", read_vector)
        _set_cpus(monkeypatch, 2)
        try:
            with pytest.raises(RuntimeError) as info:
                verify_reconstruction(10, 2)
        finally:
            os.close(died[0])
            os.close(died[1])
        assert str(info.value) == (
            "oracle fan-out failed, its serial rerun passed:"
            " a child sent nothing (exit code 1)"
        )
        assert len(forks) == 1


def test_import_loads_no_pickle_or_multiprocessing():
    # importing the package stays as cheap as it was, and a fanned run
    # reports in plain text: neither loads pickle
    src = pathlib.Path(nanoread.__file__).resolve().parents[1]
    probe = (
        "import sys, nanoread; from nanoread import oracle; "
        "oracle._cpus = lambda: 2; assert oracle.verify_decoder(9, 2).ok; "
        "print(sorted({'pickle', 'multiprocessing'} & set(sys.modules)))"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "[]"
