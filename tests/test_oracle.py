from fractions import Fraction
from itertools import combinations

import pytest

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


class TestBallEquivalence:
    def test_reference_case(self):
        assert verify_ball_equivalence(6, 3).ok

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
        assert res.counterexample is not None


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
