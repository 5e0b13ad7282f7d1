from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nanoread.balls import deletion_ball
from nanoread.core import (
    LengthMismatchError,
    ResourceLimitError,
    is_valid_read_vector,
    read_vector,
)
from nanoread.oracle import all_words

# windows on both sides of 256, where S outgrows 256 bytes
WIDE_WINDOWS = (255, 256, 257)
from nanoread.reconstruct import InconsistentReadsError, reconstruct_two


def holders(r1, r2, w, n):
    """Every legitimate read vector whose deletion ball holds both reads,
    found by inserting each symbol 0..w at each position of r1."""
    out = set()
    for pos in range(len(r1) + 1):
        for s in range(w + 1):
            v = r1[:pos] + (s,) + r1[pos:]
            if is_valid_read_vector(v, w, n) and r2 in deletion_ball(v):
                out.add(v)
    return out


def span(u, v):
    """First and last 1-based indices where u and v differ."""
    diff = [i for i, (a, b) in enumerate(zip(u, v), 1) if a != b]
    return diff[0], diff[-1]


class TestReconstructTwo:
    def test_reference_pair(self):
        got = reconstruct_two((1, 2, 2, 2, 1, 0, 0), (1, 1, 2, 2, 1, 0, 0), 3, 6)
        assert got == (1, 1, 2, 2, 2, 1, 0, 0)

    def test_swap_invariance(self):
        r1, r2 = (1, 2, 2, 2, 1, 0, 0), (1, 1, 2, 2, 1, 0, 0)
        assert reconstruct_two(r1, r2, 3, 6) == reconstruct_two(r2, r1, 3, 6)

    def test_window_one_rejected(self):
        with pytest.raises(ValueError):
            reconstruct_two((1, 0), (0, 1), 1, 3)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatchError):
            reconstruct_two((1, 1, 0), (1, 1), 2, 3)

    def test_identical_reads_rejected(self):
        with pytest.raises(ValueError):
            reconstruct_two((1, 1, 0), (1, 1, 0), 2, 3)

    def test_inconsistent_reads(self):
        # two reads that share no source read vector
        with pytest.raises(InconsistentReadsError):
            reconstruct_two((2, 0, 0, 0, 0, 0), (0, 0, 0, 0, 0, 2), 2, 6)

    def test_exhaustive_small(self):
        for n in range(2, 9):
            for w in (2, 3):
                for x in all_words(n):
                    rv = read_vector(x, w)
                    ball = sorted(deletion_ball(rv))
                    for r1, r2 in combinations(ball, 2):
                        assert reconstruct_two(r1, r2, w, n) == rv
                        assert reconstruct_two(r2, r1, w, n) == rv

    def test_exactly_one_candidate_valid(self):
        # arbitration never sees two legitimate candidates
        for n in range(2, 8):
            for w in (2, 3):
                for x in all_words(n):
                    rv = read_vector(x, w)
                    ball = sorted(deletion_ball(rv))
                    for r1, r2 in combinations(ball, 2):
                        i, j = span(r1, r2)
                        head = r1[: i - 1] + (r2[i - 1],) + r1[i - 1 :]
                        tail = r1[:j] + (r2[j - 1],) + r1[j:]
                        valid = {
                            cand
                            for cand in (head, tail)
                            if is_valid_read_vector(cand, w, n)
                        }
                        assert len(valid) == 1

    def test_contract_on_arbitrary_pairs(self):
        # every ordered pair of distinct sequences over -1..w+1: either a
        # legitimate vector whose ball holds both reads, or
        # InconsistentReadsError exactly when no read vector holds both
        for w, max_n in ((2, 4), (3, 3)):
            for n in range(1, max_n + 1):
                image = {read_vector(x, w) for x in all_words(n)}
                both = {
                    (r1, r2)
                    for rv in image
                    for r1 in deletion_ball(rv)
                    for r2 in deletion_ball(rv)
                    if r1 != r2
                }
                seqs = list(product(range(-1, w + 2), repeat=n + w - 2))
                for r1 in seqs:
                    for r2 in seqs:
                        if r1 == r2:
                            continue
                        try:
                            got = reconstruct_two(r1, r2, w, n)
                        except InconsistentReadsError:
                            assert (r1, r2) not in both, (r1, r2, w, n)
                        else:
                            assert got in image, (r1, r2, w, n)
                            assert {r1, r2} <= deletion_ball(got), (r1, r2, w, n)

    @given(
        st.lists(st.integers(0, 1), min_size=2, max_size=64).map(tuple),
        st.integers(2, 4),
        st.data(),
    )
    def test_contract_near_read_vectors(self, x, w, data):
        # two deletions of a read vector, one entry perhaps overwritten
        n = len(x)
        rv = read_vector(x, w)
        i, j = data.draw(st.lists(st.integers(0, len(rv) - 1), min_size=2, max_size=2))
        r1 = rv[:i] + rv[i + 1 :]
        r2 = list(rv[:j] + rv[j + 1 :])
        if data.draw(st.booleans()):
            r2[data.draw(st.integers(0, len(r2) - 1))] = data.draw(st.integers(-1, w + 1))
        r2 = tuple(r2)
        if r1 == r2:
            return
        found = holders(r1, r2, w, n)
        try:
            got = reconstruct_two(r1, r2, w, n)
        except InconsistentReadsError:
            assert not found
        else:
            assert found == {got}

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from(WIDE_WINDOWS), st.data())
    def test_wide_slot_round_trip(self, w, data):
        # at most 255 bits in runs up to 255 long, so that window sums
        # fill a byte
        runs = data.draw(
            st.lists(st.tuples(st.integers(0, 1), st.integers(1, 255)), max_size=4)
        )
        x = (tuple(b for b, k in runs for _ in range(k)) + (0,) * 8)[:255]
        rv = read_vector(x, w)
        i, j = data.draw(st.lists(st.integers(0, len(rv) - 1), min_size=2, max_size=2))
        r1, r2 = rv[:i] + rv[i + 1 :], rv[:j] + rv[j + 1 :]
        if r1 != r2:
            assert reconstruct_two(r1, r2, w, len(x)) == rv
        # from n = 256 on, windows 256 and up are refused
        n = 256
        r1 = (0,) * (n + w - 2)
        r2 = (1,) + r1[1:]
        if w > 255:
            with pytest.raises(ResourceLimitError):
                reconstruct_two(r1, r2, w, n)
        else:
            with pytest.raises(InconsistentReadsError):
                reconstruct_two(r1, r2, w, n)

    def test_wide_slot_entry_out_of_range(self):
        # -1, and 256, 2^16 and 2^70 that no byte holds, put into the
        # tail of zeros of one read of a 255-bit word
        for w in WIDE_WINDOWS:
            x = (1,) * 247 + (0,) * 8
            rv = read_vector(x, w)
            r2 = rv[1:]
            for bad in (-1, 256, 1 << 16, 1 << 70):
                r1 = rv[:-5] + (bad,) + rv[-4:-1]
                for pair in ((r1, r2), (r2, r1)):
                    with pytest.raises(InconsistentReadsError):
                        reconstruct_two(*pair, w, len(x))


def test_error_classes_exported():
    import nanoread
    from nanoread import code, reconstruct

    assert nanoread.MalformedInputError is code.MalformedInputError
    assert nanoread.InconsistentReadsError is reconstruct.InconsistentReadsError
    assert {"MalformedInputError", "InconsistentReadsError"} <= set(nanoread.__all__)
