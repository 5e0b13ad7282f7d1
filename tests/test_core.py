import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nanoread import oracle
from nanoread.core import (
    MAX_ENUM_N,
    LengthMismatchError,
    ResourceLimitError,
    _ones,
    _word_bytes,
    format_levels,
    format_word,
    is_valid_read_vector,
    parse_levels,
    parse_word,
    read_vector,
    recover_from_mod2,
)
from nanoread.core import all_words as core_all_words

words = st.lists(st.integers(0, 1), min_size=1, max_size=40).map(tuple)
long_words = st.lists(st.integers(0, 1), min_size=0, max_size=2048).map(tuple)
# words of at most 255 bits made of long runs, so that a window of 255
# or more sees sums up to 255, the most a byte holds
run_words = st.lists(
    st.tuples(st.integers(0, 1), st.integers(1, 255)), min_size=1, max_size=3
).map(lambda runs: tuple(b for b, length in runs for _ in range(length))[:255])
# windows on both sides of 256, where S outgrows 256 bytes
WIDE_WINDOWS = (255, 256, 257)
windows = st.one_of(st.integers(1, 6), st.sampled_from(WIDE_WINDOWS))
NOT_BITS = ((0, 2, 1), (1, -1), (0, 256), (1, 1.0), (0, 1 << 70), ("1",))


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


def _word(levels, w, n):
    """``_word_bytes`` as a tuple of bits, or None."""
    raw = _word_bytes(levels, _ones(w, n), n)
    return None if raw is None else tuple(raw)


class TestAllWords:
    def test_bit_shift_order(self):
        for n in range(13):
            assert list(core_all_words(n)) == list(all_words(n))

    def test_guard_raises_when_called(self):
        with pytest.raises(ResourceLimitError):
            core_all_words(MAX_ENUM_N + 1)

    def test_negative_length_raises_when_called(self):
        with pytest.raises(ValueError, match="word length must be >= 0"):
            core_all_words(-1)


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

    @settings(max_examples=40, deadline=None)
    @given(run_words, windows)
    def test_window_sums_wide_windows(self, x, w):
        assert read_vector(x, w) == window_sums(x, w)
        # one more bit takes min(w, n) past a byte from window 256 on
        longer = x + (1,) * (256 - len(x))
        if w > 255:
            with pytest.raises(ResourceLimitError):
                read_vector(longer, w)
        else:
            assert read_vector(longer, w) == window_sums(longer, w)

    def test_full_windows_at_the_slot_step(self):
        # entries reach min(w, n): computed while a byte holds 255, refused past it
        for w in (*WIDE_WINDOWS, 300):
            for n in (1, 255, 256, 257, 300, 600):
                x = (1,) * n
                if min(w, n) <= 255:
                    assert read_vector(x, w) == window_sums(x, w), (n, w)
                else:
                    with pytest.raises(ResourceLimitError, match="<= 255"):
                        read_vector(x, w)

    @pytest.mark.parametrize("x", NOT_BITS)
    def test_rejects_non_bits(self, x):
        for w in (1, 2, 256):
            with pytest.raises(ValueError):
                read_vector(x, w)

    @given(words, st.integers(1, 6))
    def test_sum_is_window_times_weight(self, x, w):
        assert sum(read_vector(x, w)) == w * sum(x)

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

    @settings(max_examples=40, deadline=None)
    @given(st.one_of(run_words, long_words), windows)
    def test_inverts_window_sums(self, x, w):
        prefix = [s % 2 for s in window_sums(x, w)[: len(x)]]
        assert recover_from_mod2(prefix, w) == x

    @pytest.mark.parametrize("prefix", NOT_BITS + ((1, 3),))
    def test_rejects_non_bits(self, prefix):
        with pytest.raises(ValueError):
            recover_from_mod2(prefix, 2)

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

    def test_word_of_length_mismatch_raises(self):
        # the oracle checks the length as is_valid_read_vector does
        for levels in ((1,), (1, 1, 1, 1, 1)):
            with pytest.raises(LengthMismatchError, match="candidate length"):
                oracle.word_of(levels, 2, 3)

    def test_accepts_exactly_the_image(self):
        # every sequence over -1..w+1 of length n + w - 1 <= 8, so
        # out-of-range symbols and steps of 2 or more are covered too
        for w in (1, 2, 3):
            for n in range(0, 10 - w):
                image = {read_vector(x, w) for x in all_words(n)}
                candidates = itertools.product(range(-1, w + 2), repeat=n + w - 1)
                valid = {c for c in candidates if is_valid_read_vector(c, w, n)}
                assert valid == image, (n, w)

    def test_word_of_matches_oracle(self):
        # every sequence over -1..w+1 of length n + w - 1 <= 7: the packed
        # kernel returns the same word, or None, as the per-entry recurrence
        for w in (1, 2, 3, 4):
            for n in range(0, 9 - w):
                for c in itertools.product(range(-1, w + 2), repeat=n + w - 1):
                    assert _word(c, w, n) == oracle.word_of(c, w, n), (c, w)

    @settings(max_examples=40, deadline=None)
    @given(run_words, st.sampled_from(WIDE_WINDOWS), st.data())
    def test_word_of_matches_oracle_wide_windows(self, x, w, data):
        n = len(x)
        c = list(read_vector(x, w))
        assert _word(tuple(c), w, n) == x
        i = data.draw(st.integers(0, len(c) - 1))
        c[i] = data.draw(st.sampled_from([c[i] - 1, c[i] + 1, -1, 256, 257, 1 << 16]))
        assert _word(tuple(c), w, n) == oracle.word_of(c, w, n)

    def test_out_of_range_symbols_invalid(self):
        for w in (2,) + WIDE_WINDOWS:
            rv = list(read_vector((1,) * 255, w))
            for bad in (-1, w + 1, 256, 1 << 16, 1 << 70):
                c = tuple(rv[:5] + [bad] + rv[6:])
                assert not is_valid_read_vector(c, w, 255), (w, bad)
        # from n = 256 on, windows 256 and up are refused, whatever the entries
        for w in WIDE_WINDOWS[1:]:
            for c in ((0,) * (w + 255), (-1,) * (w + 255), (1 << 16,) * (w + 255)):
                with pytest.raises(ResourceLimitError):
                    is_valid_read_vector(c, w, 256)

    def test_scaled_read_vectors(self):
        # q * rv divides by the window's all-ones number with a quotient
        # whose slots hold 0 or q: a word only when q == 1
        for w in (2,) + WIDE_WINDOWS:
            for x in ((1,), (1, 0, 1), (1,) * 255):
                rv = read_vector(x, w)
                for q in (0, 1, 2, 256, 257):
                    c = tuple(q * v for v in rv)
                    want = {0: (0,) * len(x), 1: x}.get(q)
                    assert _word(c, w, len(x)) == want, (w, len(x), q)
                    assert oracle.word_of(c, w, len(x)) == want, (w, len(x), q)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            is_valid_read_vector((0, 0), 0, 3)
        with pytest.raises(ValueError):
            is_valid_read_vector((0,), 3, -1)

    def test_image_accepted(self):
        for w in (1, 2, 3):
            for x in all_words(7):
                assert is_valid_read_vector(read_vector(x, w), w, 7)


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
