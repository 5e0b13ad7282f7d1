import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nanoread.balls import deletion_ball, sticky_ball
from nanoread.code import (
    CodeParams,
    DecodeFailure,
    DecodeOutcome,
    MalformedInputError,
    ResourceLimitError,
    best_residue,
    decode,
    encode,
    enumerate_code,
    immediate_correct,
    is_member,
    residue_sizes,
    syndrome,
    vt_insert,
)
from nanoread import oracle
from nanoread.core import read_vector
from nanoread.oracle import all_words, vt_insert_bruteforce

# windows on both sides of the step from one-byte to two-byte slots
WIDE_WINDOWS = (255, 256, 257)


def wide_words(w):
    """Words of length >= w made of runs up to 2w long, so that window
    sums reach w and fill the widest slot."""
    runs = st.lists(st.tuples(st.integers(0, 1), st.integers(1, 2 * w)), max_size=4)
    return runs.map(
        lambda rs: tuple(b for b, k in rs for _ in range(k)) + (0,) * w
    )


class TestSyndrome:
    def test_reference_word(self):
        # mod-2 prefix (1,1,0,0,0,1): 1 + 2 + 6 = 9 = 2 (mod 7)
        assert syndrome((1, 0, 1, 1, 0, 0), 6, 3) == 2

    def test_all_zero(self):
        for w in (1, 2, 4):
            assert syndrome((0,) * 8, 8, w) == 0

    def test_single_one_window_one(self):
        assert syndrome((1, 0, 0, 0), 4, 1) == 1

    def test_membership(self):
        assert is_member((1, 0, 1, 1, 0, 0), CodeParams(6, 3, 2))
        assert not is_member((1, 0, 1, 1, 0, 0), CodeParams(6, 3, 0))
        assert is_member((0,) * 5, CodeParams(5, 2, 0))


class TestEnumeration:
    def test_window_one_matches_classic_single_deletion_code(self):
        assert enumerate_code(CodeParams(2, 1, 0)) == [(0, 0), (1, 1)]

    def test_residues_partition_space(self):
        for n, w in ((5, 2), (6, 3), (7, 1)):
            assert sum(residue_sizes(n, w)) == 1 << n

    def test_sizes_match_syndrome_tally(self):
        for n in range(13):
            for w in range(1, 5):
                tally = [0] * (n + 1)
                for x in all_words(n):
                    tally[syndrome(x, n, w)] += 1
                assert residue_sizes(n, w) == tally, (n, w)

    def test_best_residue_is_window_free(self):
        for w in (1, 2, 3):
            assert best_residue(16, w) == (0, 3856)

    def test_best_residue_pigeonhole(self):
        for n, w in ((2, 1), (6, 3), (8, 2)):
            _, size = best_residue(n, w)
            assert size >= (1 << n) / (n + 1)

    def test_best_residue_small_cases(self):
        assert best_residue(2, 1) == (0, 2)
        # 64 words over 7 residues: the best class meets the ceiling
        _, size = best_residue(6, 3)
        assert size == max(residue_sizes(6, 3)) >= math.ceil(64 / 7)

    def test_guard(self):
        with pytest.raises(ResourceLimitError):
            enumerate_code(CodeParams(25, 2, 0))


class TestClosedFormSizes:
    def test_matches_oracle_dp(self):
        # the closed form against the rotation-add DP, every residue
        for n in range(256):
            assert residue_sizes(n, 2) == oracle.residue_sizes(n, 2), n

    def test_best_residue_is_dp_argmax(self):
        # largest class, ties broken by the smallest residue
        for n in range(256):
            counts = oracle.residue_sizes(n, 1)
            size = max(counts)
            assert best_residue(n, 1) == (counts.index(size), size), n

    def test_rejects_negative_length(self):
        for f in (residue_sizes, best_residue):
            with pytest.raises(ValueError):
                f(-1, 1)
            with pytest.raises(ValueError):
                f(-5, 2)
            with pytest.raises(ValueError):
                f(4, 0)


class TestEncode:
    def test_index_zero_all_zero(self):
        assert encode(0, CodeParams(7, 3, 0)) == (0,) * 7

    def test_index_one_window_one(self):
        assert encode(1, CodeParams(2, 1, 0)) == (1, 1)

    def test_round_trip_and_injectivity(self):
        params = CodeParams(6, 2, 3)
        codewords = enumerate_code(params)
        seen = set()
        for idx in range(len(codewords)):
            x = encode(idx, params)
            assert codewords.index(x) == idx
            seen.add(x)
        assert len(seen) == len(codewords)

    def test_out_of_range(self):
        params = CodeParams(4, 2, 0)
        with pytest.raises(ValueError):
            encode(len(enumerate_code(params)), params)


class TestImmediateCorrect:
    def test_gap_down(self):
        assert immediate_correct((1, 1, 2, 2, 2, 0, 0)) == (1, 1, 2, 2, 2, 1, 0, 0)

    def test_no_gap(self):
        assert immediate_correct((1, 1, 2, 2, 1, 0, 0)) is None

    def test_gap_up(self):
        assert immediate_correct((0, 2)) == (0, 1, 2)

    def test_oversized_gap_rejected(self):
        with pytest.raises(MalformedInputError):
            immediate_correct((0, 3))

    @pytest.mark.parametrize("bad", [None, "1", 1j])
    def test_non_numeric_entry_rejected(self, bad):
        with pytest.raises(MalformedInputError, match="positions 2 and 3"):
            immediate_correct((0, 1, bad, 1))


class TestVtInsert:
    def test_reference(self):
        assert vt_insert((1, 1, 0, 0, 1), 2, 6) == (1, 1, 0, 0, 0, 1)

    def test_all_zero(self):
        assert vt_insert((0,) * 7, 0, 8) == (0,) * 8

    def test_tiny(self):
        assert vt_insert((1,), 1, 2) == (1, 0)

    def test_every_residue_has_unique_survivor(self):
        # a length-(n-1) bit sequence has exactly n+1 distinct
        # supersequences, one per residue class
        received = (0, 1, 1, 0)
        n = 5
        supers = {vt_insert(received, a, n) for a in range(n + 1)}
        assert len(supers) == n + 1

    def test_matches_bruteforce(self):
        for n in range(1, 13):
            for y in all_words(n - 1):
                for a in range(n + 1):
                    assert vt_insert(y, a, n) == vt_insert_bruteforce(y, a, n)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            vt_insert((0, 2, 1), 0, 4)
        with pytest.raises(ValueError):
            vt_insert((0, 1), 0, 4)
        # no checksum mod n+1 equals a residue outside {0, ..., n}
        with pytest.raises(DecodeFailure):
            vt_insert((0, 1, 1), 5, 4)

    def test_unique_survivor_exhaustive(self):
        for n in range(2, 10):
            for x in all_words(n):
                a = sum(i * x[i - 1] for i in range(1, n + 1)) % (n + 1)
                for received in deletion_ball(x):
                    assert vt_insert(received, a, n) == x


class TestDecode:
    def test_vt_path(self):
        out = decode((1, 1, 2, 2, 1, 0, 0), CodeParams(6, 3, 2))
        assert out.word == (1, 0, 1, 1, 0, 0)
        assert out.path == "vt"

    def test_immediate_path(self):
        out = decode((1, 1, 2, 2, 2, 0, 0), CodeParams(6, 3, 2))
        assert out.word == (1, 0, 1, 1, 0, 0)
        assert out.path == "immediate"

    def test_no_deletion_path(self):
        params = CodeParams(6, 3, 2)
        x = (1, 0, 1, 1, 0, 0)
        out = decode(read_vector(x, 3), params)
        assert out.word == x
        assert out.path == "no-deletion"

    def test_invalid_full_length_rejected(self):
        with pytest.raises(DecodeFailure):
            decode((1, 2, 1, 2, 2, 1, 0, 0), CodeParams(6, 3, 2))

    def test_bad_length_rejected(self):
        with pytest.raises(ValueError):
            decode((1, 1), CodeParams(6, 3, 2))

    def test_exhaustive_small(self):
        for n, w in ((4, 2), (5, 3), (6, 2)):
            for a in range(n + 1):
                params = CodeParams(n, w, a)
                for x in enumerate_code(params):
                    rv = read_vector(x, w)
                    for received in deletion_ball(rv):
                        assert decode(received, params).word == x

    def test_boundary_deletions(self):
        # deletions inside the trailing window-overhang positions
        params = CodeParams(8, 3, 5)
        for x in enumerate_code(params):
            rv = read_vector(x, 3)
            for pos in (len(rv) - 1, len(rv) - 2):
                received = rv[:pos] + rv[pos + 1 :]
                assert decode(received, params).word == x


def _sources(n, w):
    """The read vector of every length-n word and each single deletion
    of it, mapped to the words it can come from."""
    owners = {}
    for x in all_words(n):
        rv = read_vector(x, w)
        for c in {rv} | deletion_ball(rv):
            owners.setdefault(c, []).append(x)
    return owners


def _check_contract(inputs, n, w, owners):
    """decode returns the one codeword the input is consistent with
    (as the read vector or one deletion of it) and raises when there is
    none."""
    syndromes = {x: syndrome(x, n, w) for x in all_words(n)}
    for c in inputs:
        for a in range(n + 1):
            want = [x for x in owners.get(c, ()) if syndromes[x] == a]
            assert len(want) <= 1, (c, a, want)
            try:
                got = [decode(c, CodeParams(n, w, a)).word]
            except (DecodeFailure, MalformedInputError):
                got = []
            assert got == want, (c, n, w, a)


class TestDecodeContract:
    def test_every_sequence_small(self):
        # both input lengths, every sequence over symbols -1..w+1,
        # for n + w - 1 <= 6
        for w in (1, 2, 3):
            for n in range(w, 8 - w):
                owners = _sources(n, w)
                for m in (n + w - 1, n + w - 2):
                    inputs = itertools.product(range(-1, w + 2), repeat=m)
                    _check_contract(inputs, n, w, owners)

    def test_every_read_and_deletion(self):
        # every word, codeword of the residue or not, read whole or once
        # deleted: the inputs on which decode used to return non-codewords
        for w in (1, 2, 3):
            for n in range(w, 9):
                owners = _sources(n, w)
                _check_contract(owners, n, w, owners)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_result_is_a_consistent_codeword(self, data):
        # a read of any word under any residue, perhaps once deleted,
        # perhaps with one entry set to any symbol in -1..w+1
        n = data.draw(st.integers(8, 64))
        w = data.draw(st.integers(1, 4))
        params = CodeParams(n, w, data.draw(st.integers(0, n)))
        x = data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
        c = list(read_vector(x, w))
        if data.draw(st.booleans()):
            del c[data.draw(st.integers(0, len(c) - 1))]
        if data.draw(st.booleans()):
            pos = data.draw(st.integers(0, len(c) - 1))
            c[pos] = data.draw(st.integers(-1, w + 1))
        try:
            word = decode(c, params).word
        except (DecodeFailure, MalformedInputError):
            return
        assert is_member(word, params)
        rv = read_vector(word, w)
        assert tuple(c) == rv or tuple(c) in deletion_ball(rv)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_large_n_one_deletion_round_trip(self, data):
        n = data.draw(st.sampled_from((256, 1024)))
        w = data.draw(st.integers(1, 4))
        x = tuple(data.draw(st.lists(st.integers(0, 1), min_size=n, max_size=n)))
        params = CodeParams(n, w, syndrome(x, n, w))
        rv = read_vector(x, w)
        pos = data.draw(st.integers(0, len(rv) - 1))
        assert decode(rv[:pos] + rv[pos + 1 :], params).word == x
        assert decode(rv, params).word == x

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from(WIDE_WINDOWS), st.data())
    def test_wide_slot_round_trip(self, w, data):
        x = data.draw(wide_words(w))
        n = len(x)
        params = CodeParams(n, w, syndrome(x, n, w))
        rv = read_vector(x, w)
        assert decode(rv, params) == DecodeOutcome(x, "no-deletion")
        pos = data.draw(st.integers(0, len(rv) - 1))
        assert decode(rv[:pos] + rv[pos + 1 :], params).word == x

    def test_wide_slot_every_deletion(self):
        # a read vector with ramps (deletions there leave a gap of 2), a
        # flat top at the window and a tail of zeros: both deletion paths
        for w in WIDE_WINDOWS:
            x = (1,) * (w + 5) + (0,) * 8
            n = len(x)
            params = CodeParams(n, w, syndrome(x, n, w))
            rv = read_vector(x, w)
            paths = set()
            for pos in range(len(rv)):
                out = decode(rv[:pos] + rv[pos + 1 :], params)
                assert out.word == x, (w, pos)
                paths.add(out.path)
            assert paths == {"immediate", "vt"}, w

    def test_wide_slot_entry_out_of_range(self):
        # an entry outside [0, 256^k) packs in no slot; beside entries
        # one away it leaves no gap, so the read takes the vt path
        for w in WIDE_WINDOWS:
            x = (1,) * (w + 5) + (0,) * 8
            n = len(x)
            params = CodeParams(n, w, syndrome(x, n, w))
            rv = read_vector(x, w)
            spots = [(len(rv) - 4, -1)] + [(w + 1, 256)] * (w == 255)
            for i, bad in spots:
                full = rv[:i] + (bad,) + rv[i + 1 :]
                with pytest.raises(DecodeFailure):
                    decode(full, params)
                short = full[:-1]
                assert immediate_correct(short) is None
                with pytest.raises(DecodeFailure):
                    decode(short, params)

    @pytest.mark.parametrize("bad", [None, "1"])
    def test_non_numeric_entry(self, bad):
        # a shortened read whose gap scan reaches the entry is malformed;
        # a full-length read holding it is no read vector
        params = CodeParams(6, 3, 2)
        with pytest.raises(MalformedInputError, match="not both numbers"):
            decode((1, 1, 2, 2, 1, 0, bad), params)
        with pytest.raises(DecodeFailure):
            decode((1, 1, 2, 2, 1, 0, bad, 0), params)
        # at every position, either length: one of the typed errors
        rv = read_vector((1, 0, 1, 1, 0, 0), 3)
        for read in (rv, rv[:-1]):
            for i in range(len(read)):
                with pytest.raises((DecodeFailure, MalformedInputError)):
                    decode(read[:i] + (bad,) + read[i + 1 :], params)


class TestDisjointness:
    def test_deletion_balls_disjoint(self):
        for n, w in ((5, 2), (6, 3)):
            for a in range(n + 1):
                codewords = enumerate_code(CodeParams(n, w, a))
                balls = [deletion_ball(read_vector(x, w)) for x in codewords]
                for i in range(len(balls)):
                    for j in range(i + 1, len(balls)):
                        assert not balls[i] & balls[j]

    def test_sticky_balls_disjoint(self):
        for n, w in ((5, 2), (6, 3)):
            for a in range(n + 1):
                codewords = enumerate_code(CodeParams(n, w, a))
                balls = [sticky_ball(x, w) for x in codewords]
                for i in range(len(balls)):
                    for j in range(i + 1, len(balls)):
                        assert not balls[i] & balls[j]
