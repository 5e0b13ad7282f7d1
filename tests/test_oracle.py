import os
import pathlib
import subprocess
import sys
import threading
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

import nanoread
from nanoread import oracle
from nanoread.balls import sticky_ball
from nanoread.bounds import weighted_sum
from nanoread.code import (
    CodeParams,
    DecodeFailure,
    MalformedInputError,
    decode as real_decode,
    enumerate_code,
    syndrome,
)
from nanoread.core import read_vector
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
        assert oracle._overlaps(iter(balls)) == want


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


FANNED = ("verify_decoder", "verify_reconstruction", "verify_ball_equivalence")
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
    """The decoder's enumeration: residue classes, lexicographic within."""
    return sorted(all_words(n), key=lambda x: syndrome(x, n, window))


class TestFanOut:
    @pytest.mark.parametrize("check", FANNED)
    def test_fanned_equals_serial(self, monkeypatch, forks, check):
        verify = getattr(oracle, check)
        for n, l in SWEEP:
            _set_cpus(monkeypatch, 1)
            serial = verify(n, l)
            _set_cpus(monkeypatch, 2)
            assert verify(n, l) == serial, (n, l)
        # cells of 512 words and more split into two blocks
        assert len(forks) == sum(n >= 9 for n, _ in SWEEP)

    @pytest.mark.parametrize("cpus", [1, 2, 3, 4])
    def test_forks_at_most_cpus_less_one(self, monkeypatch, forks, cpus):
        _set_cpus(monkeypatch, cpus)
        assert verify_decoder(10, 2).ok  # 1024 words: up to four blocks
        assert len(forks) == cpus - 1

    def test_host_cpus(self, forks):
        assert verify_reconstruction(11, 2).ok
        assert len(forks) <= oracle._cpus() - 1

    def test_small_cell_stays_serial(self, monkeypatch, forks):
        _set_cpus(monkeypatch, 4)
        assert verify_decoder(8, 2).ok  # 256 words: one block
        assert forks == []

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
            assert verify_ball_equivalence(10, 2).ok
        finally:
            release.set()
            thread.join(10)
        assert not thread.is_alive()
        assert forks == []

    @pytest.mark.parametrize("where", ["first", "last", "both"])
    def test_decode_failure_in_a_block(self, monkeypatch, forks, where):
        # three blocks of the 1024 decoder words; the first failing
        # block in enumeration order decides
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
        parent = os.getpid()
        first = _decoder_order(10, 2)[0]

        def decode(received, params):
            out = real_decode(received, params)
            if out.word == first:
                raise TypeError(f"in pid {os.getpid()}")
            return out

        monkeypatch.setattr(oracle, "decode", decode)
        _set_cpus(monkeypatch, 2)
        with pytest.raises(TypeError, match="in pid") as info:
            verify_decoder(10, 2)
        assert str(info.value) != f"in pid {parent}"
        assert len(forks) == 1

    def test_parent_exception_takes_its_block_place(self, monkeypatch, forks):
        # the parent's own (last) block raises, but an earlier block
        # found a counterexample: that one is the result
        parent = os.getpid()
        first = _decoder_order(10, 2)[0]

        def decode(received, params):
            if os.getpid() == parent:
                raise TypeError("parent block")
            out = real_decode(received, params)
            if out.word == first:
                raise DecodeFailure("refused")
            return out

        monkeypatch.setattr(oracle, "decode", decode)
        _set_cpus(monkeypatch, 2)
        res = verify_decoder(10, 2)
        assert not res.ok
        assert res.counterexample["word"] == first
        assert len(forks) == 1

    def test_child_that_dies_is_no_pass(self, monkeypatch, forks):
        parent = os.getpid()
        real = oracle.reconstruct_two

        def reconstruct_two(first, second, window, n):
            if os.getpid() != parent:
                os._exit(1)
            return real(first, second, window, n)

        monkeypatch.setattr(oracle, "reconstruct_two", reconstruct_two)
        _set_cpus(monkeypatch, 2)
        with pytest.raises(RuntimeError, match=r"without a result \(exit code 1\)"):
            verify_reconstruction(10, 2)
        assert len(forks) == 1


def test_import_loads_no_pickle_or_multiprocessing():
    # the fan-out imports pickle only when it forks: importing the
    # package stays as cheap as it was
    src = pathlib.Path(nanoread.__file__).resolve().parents[1]
    probe = (
        "import sys, nanoread; "
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
