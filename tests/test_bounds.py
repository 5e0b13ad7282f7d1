import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from nanoread.balls import rho_geq, sticky_ball
from nanoread.code import best_residue
from nanoread import oracle
from nanoread.bounds import (
    _histograms,
    _count_slot_bytes,
    bound_report,
    bound_table,
    expected_runs,
    packing_chain,
    redundancy_lower_bound,
    rho_geq_histogram,
    tail_count,
    weighted_sum,
)
from nanoread.oracle import all_words


class TestRedundancyLowerBound:
    def test_domain(self):
        with pytest.raises(ValueError):
            redundancy_lower_bound(4, 2)  # n = 2 * window
        with pytest.raises(ValueError):
            redundancy_lower_bound(10, 1)

    def test_asymptote(self):
        # value approaches log2(n) - window from below as n grows
        for n in (2**10, 2**20):
            drift = redundancy_lower_bound(n, 2) - (math.log2(n) - 2)
            assert -0.1 < drift < 0

    def test_monotone_in_n(self):
        prev = -math.inf
        for n in range(8, 2**20, 9973):
            val = redundancy_lower_bound(n, 2)
            assert val > prev
            prev = val

    def test_pinned_to_the_formula(self):
        # log2(n) - l + 1 - log2(2 / (1 - 2l/n) + 2^-l n exp(-(n-1) / 2^(2l+1)))
        for n, l in ((5, 2), (9, 2), (10, 3), (64, 2), (1000, 4)):
            tail = n / 2**l * math.exp(-(n - 1) / 2 ** (2 * l + 1))
            inner = 2 / (1 - 2 * l / n) + tail
            want = math.log2(n) - l + 1 - math.log2(inner)
            assert redundancy_lower_bound(n, l) == pytest.approx(want, rel=1e-12)

    def test_vt_code_within_an_additive_constant(self):
        # the paper's code is optimal up to an additive constant: at
        # n = 4096 the redundancy n - log2|VT_0(n)| exceeds the bound by
        # 2.002 bits at l = 2 and 3.002 at l = 3.  The excess is not one
        # constant for every l: at l = 5 it is 8.3
        n = 4096
        for l in (2, 3):
            redundancy = n - math.log2(best_residue(n, l)[1])
            assert abs(redundancy - redundancy_lower_bound(n, l) - l) < 0.05, l

    def test_follows_from_the_exact_sum(self):
        # the first link of the paper's chain: the closed form is at most
        # the redundancy n - log2(ws) of the exact sphere-packing sum.
        # log2 of the Fraction through its parts: float(ws) overflows
        # once n passes about 1024
        for window in range(2, 6):
            for n in [*range(2 * window + 1, 200), 256, 512, 1024]:
                ws = weighted_sum(n, window)
                bits = n - (math.log2(ws.numerator) - math.log2(ws.denominator))
                assert redundancy_lower_bound(n, window) <= bits, (n, window)


class TestRhoGeqHistogram:
    def test_matches_oracle(self):
        # every word counted once, including a > n where all 2^n words
        # have r = 0; n = 8 and 16 are the first lengths of a wider slot
        for n in range(17):
            for a in (*range(1, 6), n + 1):
                assert rho_geq_histogram(n, a) == oracle.rho_geq_histogram(n, a), (n, a)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 400), a=st.integers(1, 8))
    def test_no_long_run_count(self, n, a):
        # words without a run of length >= a: a first bit, then run
        # lengths forming a composition of n into parts below a
        compositions = [1] + [0] * n
        for k in range(1, n + 1):
            compositions[k] = sum(compositions[max(k - a + 1, 0) : k])
        assert rho_geq_histogram(n, a)[0] == 2 * compositions[n]

    def test_exact_identities(self):
        for n in (64, 256):
            for a in range(1, 6):
                hist = rho_geq_histogram(n, a)
                assert sum(hist) == 1 << n
                mean = Fraction(sum(r * k for r, k in enumerate(hist)), 1 << n)
                assert mean == expected_runs(n, a)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(15, 400), a=st.integers(1, 8), big=st.integers(9, 70))
    def test_large_n_identities(self, n, a, big):
        # big passes one slot byte, and the slot width in bits where n is
        # small; a = n and n + 1 are the edge of any run counting
        for t in (a, big, n, n + 1):
            hist = rho_geq_histogram(n, t)
            assert len(hist) == n // t + 1
            assert sum(hist) == 1 << n
            if t <= n:
                runs = sum(r * k for r, k in enumerate(hist))
                assert runs == (1 << n) * expected_runs(n, t), t
        assert sum(oracle.residue_sizes(n, a)) == 1 << n
        # bound_report builds one histogram for both of these fields
        rep = bound_report(n, a)
        assert rep.weighted_sum == weighted_sum(n, a)
        assert rep.tail_count == tail_count(n - 1, a)

    @pytest.mark.parametrize("a", range(1, 7))
    def test_sweep_independent_of_slot_width(self, a):
        # the table's sweep steps one recurrence through every k, in
        # slots sized for a larger n than k
        for top in (200, 1000):
            sweep = _histograms(a, range(201), _count_slot_bytes(top))
            for k, hist in enumerate(sweep):
                assert hist == rho_geq_histogram(k, a), (k, a, top)

    def test_sweep_starts_again_where_k_goes_down(self):
        ks = [9, 4, 4, 0, 17, 1, 30]
        for a in range(1, 7):
            got = list(_histograms(a, ks, _count_slot_bytes(max(ks))))
            assert got == [rho_geq_histogram(k, a) for k in ks], a

    @pytest.mark.parametrize("n", [0, 1, 7, 8, 60])
    def test_threshold_past_n(self, n):
        # no run reaches a > n, whether or not a passes the slot width
        # in bits: the sweep's T_(k-a) stays 0
        for a in (n + 1, 8 * _count_slot_bytes(n), 10**6):
            assert rho_geq_histogram(n, a) == [2**n], (n, a)

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            rho_geq_histogram(4, 0)
        with pytest.raises(ValueError):
            rho_geq_histogram(-1, 2)
        with pytest.raises(ValueError):
            oracle.rho_geq_histogram(4, 0)


class TestWeightedSum:
    def test_no_long_runs_counts_everything(self):
        # window exceeding n-1 gives every output word weight 1
        assert weighted_sum(4, 5) == Fraction(8)
        assert weighted_sum(1, 2) == Fraction(1)

    def test_direct_enumeration_agrees(self):
        # independent per-word summation over the output space
        for n, w in ((5, 2), (7, 2), (6, 3)):
            direct = Fraction(0)
            for y in all_words(n - 1):
                r = rho_geq(y, w)
                direct += Fraction(1, r) if r else Fraction(1)
            assert weighted_sum(n, w) == direct

    def test_known_value(self):
        assert weighted_sum(5, 2) == Fraction(15)
        assert weighted_sum(7, 2) == Fraction(143, 3)

    def test_hyperedge_weight_at_least_one(self):
        # the weight assignment is feasible: every nonempty error ball
        # carries total weight >= 1
        for n, w in ((6, 2), (7, 3)):
            for x in all_words(n):
                ball = sticky_ball(x, w)
                if not ball:
                    continue
                total = Fraction(0)
                for y in ball:
                    r = rho_geq(y, w)
                    total += Fraction(1, r) if r else Fraction(1)
                assert total >= 1


class TestPerEntrySums:
    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 400), a=st.integers(1, 8))
    def test_match_per_entry_evaluation(self, n, a):
        # hist[r] / r summed entry by entry, and the entries whose r lies
        # below the cutoff, compared as exact fractions
        hist = rho_geq_histogram(n - 1, a)
        direct = sum(Fraction(k, r) if r else Fraction(k) for r, k in enumerate(hist))
        assert weighted_sum(n, a) == direct
        hist = rho_geq_histogram(n, a)
        cutoff = Fraction(n - 2 * a + 4, 2 ** (a + 1))
        assert tail_count(n, a) == sum(k for r, k in enumerate(hist) if r < cutoff)


class TestTailCount:
    def test_direct_enumeration_agrees(self):
        for n, a in ((8, 2), (9, 1), (10, 3)):
            cutoff = Fraction(n - 2 * a + 4, 2 ** (a + 1))
            direct = sum(1 for x in all_words(n) if rho_geq(x, a) < cutoff)
            assert tail_count(n, a) == direct

    def test_inequality(self):
        for n in range(1, 15):
            for a in (1, 2, 3):
                if a > n:
                    continue
                bound = (1 << n) * math.exp(-n / 2 ** (2 * a + 1))
                assert tail_count(n, a) <= bound + 1e-9

    def test_degenerate_threshold(self):
        # a large enough that the cutoff is non-positive: nothing counted
        assert tail_count(4, 4) == 0


class TestExpectedRuns:
    def test_formula_instantiation(self):
        assert expected_runs(6, 1) == Fraction(7, 2)
        assert expected_runs(6, 3) == Fraction(5, 8)

    def test_domain(self):
        with pytest.raises(ValueError):
            expected_runs(4, 5)
        with pytest.raises(ValueError):
            expected_runs(4, 0)

    def test_matches_exhaustive_average(self):
        for n in range(1, 13):
            for a in range(1, n + 1):
                total = sum(rho_geq(x, a) for x in all_words(n))
                assert expected_runs(n, a) == Fraction(total, 1 << n)


class TestPackingChain:
    def test_terms_ordered(self):
        for n in (6, 8, 10, 12):
            for w in (2, 3):
                ws, split, closed = packing_chain(n, w)
                assert ws <= split
                assert float(split) <= closed + 1e-9

    def test_terms_ordered_at_small_n(self):
        # n - 2*window + 3 <= 0 leaves the closed form no positive
        # denominator; it is math.inf there
        for w in range(1, 6):
            for n in range(1, 2 * w + 3):
                ws, split, closed = packing_chain(n, w)
                assert ws <= split <= closed, (n, w)
                assert (closed == math.inf) == (n - 2 * w + 3 <= 0), (n, w)

    def test_closed_form_tail_term_is_the_tail_bound(self):
        # closed = 2^(n-1) exp(-(n-1) / 2^(2l+1)) + 2^(n+l) / (n - 2l + 3),
        # and its first term is the tail bound at n - 1
        for l in (2, 3, 4):
            for n in (*range(2 * l, 40), 100, 300):
                closed = packing_chain(n, l)[2]
                tail = closed - 2 ** (n + l) / (n - 2 * l + 3)
                bound = oracle.verify_tail_bound(n - 1, l).detail["bound"]
                assert tail == pytest.approx(bound, rel=1e-9), (n, l)

    def test_closed_form_beyond_float_range(self):
        ws, split, closed = packing_chain(1100, 2)
        assert closed == math.inf
        assert ws <= split <= closed


class TestBoundReport:
    def test_small_n_all_fields(self):
        rep = bound_report(8, 2)
        assert rep.lower_bound_bits is not None
        assert rep.weighted_sum is not None
        assert rep.tail_count is not None
        assert rep.expected_runs is not None

    def test_large_n_all_fields(self):
        rep = bound_report(40, 2)
        assert all(v is not None for v in vars(rep).values())

    def test_lower_bound_absent_at_boundary(self):
        rep = bound_report(4, 2)
        assert rep.lower_bound_bits is None
        assert rep.weighted_sum is not None

    def test_fields_present_from_their_first_n(self):
        # lower_bound_bits from n = 2l + 1, tail_count from n = 2
        for w in (2, 3, 4):
            rep = bound_report(2 * w + 1, w)
            assert rep.lower_bound_bits == redundancy_lower_bound(2 * w + 1, w)
        for rep in bound_table([2], [1, 2]):
            assert rep.tail_count == tail_count(1, rep.window)

    def test_serializes_flat(self):
        d = bound_report(8, 2).to_dict()
        assert d["n"] == 8 and d["window"] == 2
        assert isinstance(d["weighted_sum"], str)


class TestBoundTable:
    def test_rows_equal_single_reports(self):
        ns, windows = range(1, 65), range(1, 6)
        rows = list(bound_table(ns, windows))
        expected = [bound_report(n, w) for n in ns for w in windows]
        assert rows == expected
        assert [r.to_dict() for r in rows] == [r.to_dict() for r in expected]

    def test_any_order_and_repeats(self):
        ns, windows = [30, 5, 9, 9, 1, 2, 120], [3, 1, 3, 7]
        rows = list(bound_table(ns, windows))
        assert rows == [bound_report(n, w) for n in ns for w in windows]

    def test_threshold_far_past_n(self):
        ns, windows = [5, 60], [2, 10**6]
        rows = list(bound_table(ns, windows))
        assert rows == [bound_report(n, w) for n in ns for w in windows]

    def test_empty_ranges(self):
        assert list(bound_table([], [2])) == []
        assert list(bound_table([5], [])) == []

    @pytest.mark.parametrize("ns, windows", [([3, 0, 2], [1, 2]), ([3], [1, 0])])
    def test_rejects_bad_args_before_any_row(self, ns, windows):
        # raised by the call itself, so a caller prints no partial table
        with pytest.raises(ValueError):
            bound_table(ns, windows)
