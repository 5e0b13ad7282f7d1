from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from nanoread import oracle
from nanoread.balls import sticky_ball
from nanoread.bounds import weighted_sum
from nanoread.code import (
    CodeParams,
    DecodeFailure,
    MalformedInputError,
    enumerate_code,
)
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
