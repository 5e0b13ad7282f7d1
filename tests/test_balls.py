from itertools import product

from hypothesis import given
from hypothesis import strategies as st

from nanoread.balls import (
    deletion_ball,
    restricted_ball,
    rho_geq,
    runs,
    sticky_ball,
    sticky_read_images,
)
from nanoread.core import read_vector
from nanoread.oracle import all_words

bits = st.lists(st.integers(0, 1), min_size=1, max_size=14).map(tuple)
# long sequences of few symbols of mixed types, some ending in a run of
# None: a last position found by comparing with a None sentinel is lost
mixed = st.builds(
    lambda body, tail: tuple(body) + (None,) * tail,
    st.lists(st.sampled_from([0, 1, 2, None, "a"]), min_size=100, max_size=400),
    st.integers(0, 3),
)


def per_position_ball(u):
    """The deletion ball by its definition: one slice per position."""
    return {u[:i] + u[i + 1 :] for i in range(len(u))}


class TestRuns:
    def test_profile_reassembles(self):
        u = (0, 0, 1, 1, 1, 0, 2, 2)
        prof = runs(u)
        assert prof == [(0, 2), (1, 3), (0, 1), (2, 2)]
        rebuilt = tuple(s for s, length in prof for _ in range(length))
        assert rebuilt == u

    def test_rho_geq(self):
        assert rho_geq((0, 0, 1, 1, 1), 2) == 2
        assert rho_geq((1,) * 9, 1) == 1
        assert rho_geq((0, 1, 0), 2) == 0

    @given(bits)
    def test_rho1_counts_all_runs(self, u):
        assert rho_geq(u, 1) == len(runs(u))


class TestDeletionBall:
    def test_small_cases(self):
        assert deletion_ball((1, 1, 2)) == {(1, 2), (1, 1)}
        assert deletion_ball((0, 0, 0, 0)) == {(0, 0, 0)}
        assert deletion_ball((0, 1, 0, 1)) == {
            (1, 0, 1),
            (0, 0, 1),
            (0, 1, 1),
            (0, 1, 0),
        }

    @given(bits)
    def test_size_is_run_count(self, u):
        assert len(deletion_ball(u)) == rho_geq(u, 1)

    def test_matches_per_position_exhaustive(self):
        for length in range(1, 9):
            for u in product(range(4), repeat=length):
                assert deletion_ball(u) == per_position_ball(u), u

    @given(mixed)
    def test_matches_per_position_long(self, u):
        ball = deletion_ball(u)
        assert ball == per_position_ball(u)
        assert len(ball) == len(runs(u))
        assert sticky_ball(u, 1) == ball


class TestStickyBall:
    def test_examples(self):
        assert sticky_ball((0, 0, 1, 1, 1), 2) == {(0, 1, 1, 1), (0, 0, 1, 1)}
        assert sticky_ball((0, 1, 0, 1), 2) == set()

    @given(bits)
    def test_r1_equals_deletion_ball(self, u):
        assert sticky_ball(u, 1) == deletion_ball(u)

    def test_matches_runs_exhaustive(self):
        # against the definition read off ``runs``: one deletion at the
        # start of each run of length >= r
        def by_runs(u, r):
            out, pos = set(), 0
            for _, length in runs(u):
                if length >= r:
                    out.add(u[:pos] + u[pos + 1 :])
                pos += length
            return out

        for length in range(9):
            for u in product(range(3), repeat=length):
                for r in range(1, 5):
                    assert sticky_ball(u, r) == by_runs(u, r), (u, r)

    def test_size_matches_run_statistic_exhaustive(self):
        for n in range(1, 11):
            for u in all_words(n):
                for r in range(1, n + 1):
                    assert len(sticky_ball(u, r)) == rho_geq(u, r)


class TestRestrictedBall:
    def test_reference_read_vector(self):
        assert restricted_ball((1, 1, 2, 2, 2, 1, 0, 0), 3) == {
            (1, 1, 2, 2, 2, 1, 0)
        }

    def test_no_deletable_symbols(self):
        assert restricted_ball((1, 2, 1), 3) == set()

    def test_all_deletable(self):
        assert restricted_ball((0, 3, 0), 3) == {(3, 0), (0, 0), (0, 3)}

    def test_subset_of_deletion_ball(self):
        for x in all_words(7):
            rv = read_vector(x, 2)
            assert restricted_ball(rv, 2) <= deletion_ball(rv)


class TestStickyReadImages:
    def test_reference_word(self):
        assert sticky_read_images((1, 0, 1, 1, 0, 0), 3) == {(1, 1, 2, 2, 2, 1, 0)}

    def test_window_two_tiny(self):
        x = (1, 1)
        assert sticky_read_images(x, 2) == restricted_ball(read_vector(x, 2), 2)

    def test_matches_restricted_ball_exhaustive(self):
        for n in range(2, 9):
            for w in (2, 3, 4):
                for x in all_words(n):
                    assert sticky_read_images(x, w) == restricted_ball(
                        read_vector(x, w), w
                    )

