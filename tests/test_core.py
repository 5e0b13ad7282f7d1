import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from nanoread.core import (
    MAX_ENUM_N,
    LengthMismatchError,
    ResourceLimitError,
    format_levels,
    format_word,
    hamming_distance,
    is_valid_read_vector,
    parse_levels,
    parse_word,
    read_vector,
    recover_from_mod2,
    weight,
)
from nanoread.core import all_words as core_all_words

words = st.lists(st.integers(0, 1), min_size=1, max_size=40).map(tuple)
long_words = st.lists(st.integers(0, 1), min_size=0, max_size=2048).map(tuple)


def all_words(n):
    """Bit-shift enumeration, the reference order for ``core_all_words``."""
    for v in range(1 << n):
        yield tuple((v >> (n - 1 - i)) & 1 for i in range(n))


def window_sums(x, w):
    """Entry i (0-based) is the weight of x[i-w+1 .. i], zeros outside."""
    return tuple(
        sum(x[j] for j in range(max(0, i - w + 1), min(i + 1, len(x))))
        for i in range(len(x) + w - 1)
    )


class TestAllWords:
    def test_bit_shift_order(self):
        for n in range(13):
            assert list(core_all_words(n)) == list(all_words(n))

    def test_guard_raises_when_called(self):
        with pytest.raises(ResourceLimitError):
            core_all_words(MAX_ENUM_N + 1)


class TestReadVector:
    def test_reference_word(self):
        assert read_vector((1, 0, 1, 1, 0, 0), 3) == (1, 1, 2, 2, 2, 1, 0, 0)

    def test_all_zero(self):
        for n in (1, 4, 9):
            for w in (1, 2, 5):
                assert read_vector((0,) * n, w) == (0,) * (n + w - 1)

    def test_two_ones_window_two(self):
        assert read_vector((1, 1), 2) == (1, 2, 1)

    def test_window_one_is_identity(self):
        for x in all_words(6):
            assert read_vector(x, 1) == x

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError):
            read_vector((1, 0), 0)

    def test_window_sums_exhaustive(self):
        for w in range(1, 6):
            for n in range(13):
                for x in all_words(n):
                    assert read_vector(x, w) == window_sums(x, w), (x, w)

    @given(long_words, st.integers(1, 6))
    def test_window_sums_long(self, x, w):
        assert read_vector(list(x), w) == window_sums(x, w)

    @given(words, st.integers(1, 6))
    def test_sum_is_window_times_weight(self, x, w):
        assert sum(read_vector(x, w)) == w * weight(x)

    @given(words, st.integers(1, 6))
    def test_adjacent_steps_bounded(self, x, w):
        rv = read_vector(x, w)
        assert all(abs(rv[i + 1] - rv[i]) <= 1 for i in range(len(rv) - 1))


class TestRecoverFromMod2:
    def test_reference_prefix(self):
        assert recover_from_mod2((1, 1, 0, 0, 0, 1), 3) == (1, 0, 1, 1, 0, 0)

    def test_zero_fixed_point(self):
        assert recover_from_mod2((0,) * 7, 4) == (0,) * 7

    def test_window_one_identity(self):
        assert recover_from_mod2((1, 0), 1) == (1, 0)

    @given(long_words, st.integers(1, 6))
    def test_round_trip(self, x, w):
        prefix = [s % 2 for s in read_vector(x, w)[: len(x)]]
        assert recover_from_mod2(prefix, w) == x

    def test_round_trip_exhaustive(self):
        for w in range(1, 6):
            for n in range(13):
                for x in all_words(n):
                    prefix = [s % 2 for s in read_vector(x, w)[:n]]
                    assert recover_from_mod2(prefix, w) == x, (x, w)

    def test_injective_small(self):
        for w in (1, 2, 3, 4):
            for n in (1, 5, 8):
                seen = {read_vector(x, w) for x in all_words(n)}
                assert len(seen) == 1 << n


class TestValidity:
    def test_reference_vector_valid(self):
        assert is_valid_read_vector((1, 1, 2, 2, 2, 1, 0, 0), 3, 6)

    def test_big_step_invalid(self):
        assert not is_valid_read_vector((0, 2, 0, 0, 0, 0, 0, 0), 3, 6)

    def test_wrong_inverse_invalid(self):
        # mod-2 inversion yields a word whose transform disagrees
        assert not is_valid_read_vector((1, 2, 1, 2, 2, 1, 0, 0), 3, 6)

    def test_out_of_range_symbol_invalid(self):
        assert not is_valid_read_vector((1, 2, 3, 2, 1, 0, 0, 0), 2, 7)

    def test_length_mismatch_raises(self):
        with pytest.raises(LengthMismatchError):
            is_valid_read_vector((1, 1, 1), 3, 6)

    def test_accepts_exactly_the_image(self):
        # every sequence over -1..w+1 of length n + w - 1 <= 8, so
        # out-of-range symbols and steps of 2 or more are covered too
        for w in (1, 2, 3):
            for n in range(0, 10 - w):
                image = {read_vector(x, w) for x in all_words(n)}
                candidates = itertools.product(range(-1, w + 2), repeat=n + w - 1)
                valid = {c for c in candidates if is_valid_read_vector(c, w, n)}
                assert valid == image, (n, w)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            is_valid_read_vector((0, 0), 0, 3)
        with pytest.raises(ValueError):
            is_valid_read_vector((0,), 3, -1)

    def test_image_accepted(self):
        for w in (1, 2, 3):
            for x in all_words(7):
                assert is_valid_read_vector(read_vector(x, w), w, 7)


class TestBasics:
    def test_weight(self):
        assert weight((1, 0, 1, 1, 0, 0)) == 3
        assert weight((0,) * 5) == 0
        assert weight((1,) * 5) == 5

    def test_hamming_distance(self):
        assert hamming_distance((1, 1, 2), (1, 1, 2)) == 0
        assert hamming_distance((0, 0, 0), (1, 1, 1)) == 3
        assert hamming_distance((1, 1, 2, 2, 2, 1, 0, 0), (1, 2, 2, 2, 2, 1, 0, 0)) == 1
        with pytest.raises(LengthMismatchError):
            hamming_distance((0, 1), (0, 1, 0))


class TestSerialization:
    def test_word_round_trip(self):
        assert parse_word("101100") == (1, 0, 1, 1, 0, 0)
        assert format_word((1, 0, 1, 1, 0, 0)) == "101100"

    def test_word_rejects_junk(self):
        with pytest.raises(ValueError):
            parse_word("10a1")
        with pytest.raises(ValueError):
            parse_word("")

    def test_levels_compact_and_comma(self):
        assert format_levels((1, 1, 2, 2, 2, 1, 0, 0), 3) == "11222100"
        assert parse_levels("11222100") == (1, 1, 2, 2, 2, 1, 0, 0)
        assert format_levels((0, 10, 3), 10) == "0,10,3"
        assert parse_levels("0,10,3") == (0, 10, 3)
