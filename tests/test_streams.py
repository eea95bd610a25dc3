"""Digit streams, pattern counting, and growth tracking."""

import itertools
import math
import time
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import ratio_rows
from cfnormal import streams
from cfnormal.census import continuant_den
from cfnormal.core import Convention, cf_digits
from cfnormal.enumeration import (BLOCK_PAIR_CAP, SequenceKind, iter_members,
                                  members_block)
from cfnormal.errors import ResourceLimitError
from cfnormal.measures import Pattern, gauss_measure, pattern_grid
from cfnormal.streams import (DigitStream, FrequencyTracker, GridCounter,
                              GrowthTracker, count_pattern_array,
                              count_patterns, decode_varints, digit_block,
                              digit_matrix, encode_varints,
                              flat_digits, flatten_digit_matrix,
                              format_header, hypothesis_ratios,
                              iter_digit_blocks, normality_report)

AKS_PREFIX = [2, 3, 1, 2, 4, 2, 1, 3]
ALL_PREFIX_15 = [2, 3, 1, 2, 4, 1, 3, 5, 2, 2, 1, 1, 2, 1, 4]


def _ln_big(n: int) -> float:
    shift = max(n.bit_length() - 60, 0)
    return math.log(n >> shift) + shift * math.log(2.0)


class TestDigitStream:
    def test_known_stream_prefixes(self):
        s = DigitStream(kind=SequenceKind.ALL_WITH_DUPLICATES,
                        convention=Convention.SHORT)
        assert s.take(8) == AKS_PREFIX
        s = DigitStream(kind=SequenceKind.ALL_LOWEST_TERMS,
                        convention=Convention.SHORT)
        assert s.take(15) == ALL_PREFIX_15

    def test_long_streams_tick_one_at_each_boundary(self):
        # a long expansion ends in the digit 1, so a 1 stands wherever one
        # member's digits end in the stream
        members = itertools.islice(iter_members(SequenceKind.TYPE1), 60)
        ends = np.cumsum([len(cf_digits(r.num, r.den, Convention.LONG))
                          for r in members])
        s = DigitStream(SequenceKind.TYPE1, Convention.LONG)
        digits = s.take(int(ends[-1]))
        assert s.position == len(digits) == ends[-1]
        assert [digits[e - 1] for e in ends] == [1] * len(ends)
        assert s.take(-1) == []


class TestVectorizedGeneration:
    def test_matches_scalar_stream_everywhere(self):
        for kind in SequenceKind:
            for conv in Convention:
                vec = digit_block(kind, conv, 20000)
                sca = DigitStream(kind=kind, convention=conv).take(20000)
                assert vec.tolist() == sca, (kind, conv)

    def test_matches_scalar_stream_deep(self):
        n = 10 ** 6
        vec = digit_block(SequenceKind.ALL_LOWEST_TERMS, Convention.LONG, n)
        sca = DigitStream(kind=SequenceKind.ALL_LOWEST_TERMS,
                          convention=Convention.LONG).take(n)
        assert np.array_equal(vec, np.asarray(sca))

    def test_prefix_determinism_ten_million(self):
        a = digit_block(SequenceKind.ALL_LOWEST_TERMS, Convention.LONG, 10 ** 7)
        b = digit_block(SequenceKind.ALL_LOWEST_TERMS, Convention.LONG, 10 ** 7)
        assert np.array_equal(a, b)

    def test_request_size_does_not_move_digits(self):
        big = digit_block(SequenceKind.TYPE2, Convention.SHORT, 30011)
        small = digit_block(SequenceKind.TYPE2, Convention.SHORT, 977)
        assert np.array_equal(big[:977], small)

    def test_digit_matrix_long_transform(self):
        mat, lengths = digit_matrix(np.array([1, 2, 3]), np.array([2, 3, 5]),
                                    Convention.LONG)
        rows = [mat[i, :lengths[i]].tolist() for i in range(3)]
        assert rows == [[1, 1], [1, 1, 1], [1, 1, 1, 1]]
        assert mat.shape == (3, 4)  # as wide as the longest row
        assert not mat[0, 2:].any() and not mat[1, 3:].any()
        flat = flatten_digit_matrix(mat, lengths)
        assert flat.tolist() == [1, 1, 1, 1, 1, 1, 1, 1, 1]

    @given(st.lists(st.tuples(st.integers(1, 10 ** 6), st.integers(1, 10 ** 6),
                              st.integers(1, 50)), min_size=1, max_size=40))
    def test_digit_matrix_is_invariant_under_scaling_a_pair(self, rows):
        pairs = [(min(a, b), max(a, b) + 1, k) for a, b, k in rows]
        num = np.array([n for n, _, _ in pairs], dtype=np.int64)
        den = np.array([d for _, d, _ in pairs], dtype=np.int64)
        k = np.array([k for _, _, k in pairs], dtype=np.int64)
        for convention in Convention:
            mat, lengths = digit_matrix(num, den, convention)
            kmat, klengths = digit_matrix(k * num, k * den, convention)
            assert np.array_equal(klengths, lengths)
            width = mat.shape[1]
            assert np.array_equal(kmat[:, :width], mat)
            assert not kmat[:, width:].any()

    @given(st.lists(st.tuples(st.integers(1, 10 ** 6), st.integers(1, 10 ** 6),
                              st.integers(1, 50)), max_size=40))
    def test_flat_digits_are_the_flattened_matrix(self, rows):
        num = np.array([min(a, b) * k for a, b, k in rows], dtype=np.int64)
        den = np.array([(max(a, b) + 1) * k for a, b, k in rows],
                       dtype=np.int64)
        for convention in Convention:
            mat, lengths = digit_matrix(num, den, convention)
            digits, flat_lengths = flat_digits(num, den, convention)
            assert digits.dtype == np.int64
            assert np.array_equal(flat_lengths, lengths)
            assert np.array_equal(digits, flatten_digit_matrix(mat, lengths))

    @pytest.mark.parametrize("conv", list(Convention))
    def test_blocks_concatenate_to_the_request(self, conv):
        kind = SequenceKind.SQUAREFREE_BOTH
        assert list(iter_digit_blocks(kind, conv, 0)) == []
        for n in (1, 2, 3, 1000, 250001):
            blocks = list(iter_digit_blocks(kind, conv, n))
            assert all(len(b) for b in blocks)
            assert sum(map(len, blocks)) == n
            assert np.array_equal(np.concatenate(blocks),
                                  DigitStream(kind, conv).take(n))
        assert len(blocks) >= 2
        with pytest.raises(ValueError):
            next(iter_digit_blocks(kind, conv, -1))

    @pytest.mark.parametrize("kind, conv, n", [
        (SequenceKind.ALL_WITH_DUPLICATES, Convention.SHORT, 3 * 10 ** 6),
        (SequenceKind.SQUAREFREE_BOTH, Convention.SHORT, 10 ** 6),
        (SequenceKind.ALL_LOWEST_TERMS, Convention.LONG, 10 ** 7),
    ])
    def test_no_block_holds_more_than_the_cap(self, kind, conv, n,
                                               monkeypatch):
        # each block's density is estimated from the block before it, and
        # on these requests the estimate falls short at least once
        blocks = []
        flat = streams.flat_digits

        def recording(num, den, convention):
            blocks.append((len(num), int(den[0]), int(den[-1])))
            return flat(num, den, convention)
        monkeypatch.setattr(streams, "flat_digits", recording)
        assert sum(map(len, iter_digit_blocks(kind, conv, n))) == n
        assert max(pairs for pairs, _, _ in blocks) <= BLOCK_PAIR_CAP
        # whole denominators, in order
        assert all(a[2] < b[1] for a, b in zip(blocks, blocks[1:]))

    def test_digit_pipeline_never_calls_gcd(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("np.gcd called")

        monkeypatch.setattr(np, "gcd", refuse)
        for kind in SequenceKind:
            num, den = members_block(kind, 2, 300)
            for convention in Convention:
                digit_matrix(num, den, convention)
                for _ in iter_digit_blocks(kind, convention, 50000):
                    pass

    def test_digit_matrix_rejects_bad_rows(self):
        with pytest.raises(ValueError):
            digit_matrix(np.array([2]), np.array([2]))

    def test_digit_matrix_needs_denominators_below_two_to_the_31(self):
        top = 2 ** 31 - 1
        mat, lengths = digit_matrix(np.array([1]), np.array([top]))
        assert mat[0, :lengths[0]].tolist() == [top - 1, 1]
        with pytest.raises(OverflowError):
            digit_matrix(np.array([1]), np.array([2 ** 31]))

    @pytest.mark.parametrize("kind, conv, n", [
        (SequenceKind.ALL_WITH_DUPLICATES, Convention.SHORT, 10 ** 6),
        (SequenceKind.TYPE3, Convention.LONG, 10 ** 5),
    ])
    def test_blocks_compute_about_the_digits_returned(self, monkeypatch,
                                                      kind, conv, n):
        computed = []
        blocks = []

        def counting_digits(num, den, convention):
            digits, lengths = flat_digits(num, den, convention)
            computed.append(len(digits))
            return digits, lengths

        def counting_members(*args):
            blocks.append(args)
            return members_block(*args)

        monkeypatch.setattr(streams, "flat_digits", counting_digits)
        monkeypatch.setattr(streams, "members_block", counting_members)
        out = digit_block(kind, conv, n)
        assert len(out) == n
        assert sum(computed) <= 1.10 * n, (
            f"computed {sum(computed)} digits for {n} in {len(blocks)} blocks")
        assert len(blocks) <= 40, f"{len(blocks)} blocks for {n} digits"

    @pytest.mark.parametrize("conv", list(Convention))
    @pytest.mark.parametrize("kind", list(SequenceKind))
    def test_every_kind_computes_within_five_percent(self, monkeypatch,
                                                     kind, conv):
        # later blocks sit at higher denominators, where expansions are
        # longer than in the block that measured digits per pair
        computed = []

        def counting_digits(num, den, convention):
            digits, lengths = flat_digits(num, den, convention)
            computed.append(len(digits))
            return digits, lengths

        monkeypatch.setattr(streams, "flat_digits", counting_digits)
        n = 10 ** 6
        assert len(digit_block(kind, conv, n)) == n
        assert sum(computed) <= 1.05 * n, (
            f"computed {sum(computed)} digits for {n} in {len(computed)} blocks")


#: the s=[1] frequency gaps between conventions at N = 10**6 that
#: test_convention_independence_of_digit_frequencies prints, at its precision
CONVENTION_GAPS = {"aks-dup": 0.15835, "all": 0.14273, "squarefree": 0.13666,
                   "type1": 0.13162, "type2": 0.13692, "type3": 0.12168}


def test_convention_gaps_are_pinned(long_digits):
    # the convention red stays red whatever its gaps are; this pin catches
    # a change in them
    n = len(next(iter(long_digits.values()))) - 1
    gaps = {}
    for kind in SequenceKind:
        f_long = float((long_digits[kind][:n] == 1).mean())
        f_short = float((digit_block(kind, Convention.SHORT, n) == 1).mean())
        gaps[kind.value] = round(abs(f_short - f_long), 5)
    assert gaps == CONVENTION_GAPS


@pytest.mark.parametrize("kind", list(SequenceKind))
def test_long_adds_a_one_per_member_and_another_after_a_two(kind):
    # the source of the convention gap: LONG writes a member's last digit
    # a >= 2 as (a - 1, 1), one more 1, and a second one when a = 2
    num, den = members_block(kind, 2, 400)
    short, lengths = flat_digits(num, den, Convention.SHORT)
    long_, _ = flat_digits(num, den, Convention.LONG)
    ends_in_two = np.count_nonzero(short[np.cumsum(lengths) - 1] == 2)
    assert (np.count_nonzero(long_ == 1)
            == np.count_nonzero(short == 1) + len(num) + ends_in_two)


def test_convention_independence_of_digit_frequencies(long_digits):
    """Both conventions must see the same s=[1] frequency at N=10**6.

    They do not, yet: the Long convention ends every rational with an extra 1,
    an excess of one digit per rational that thins out only like 1/ln N.  The
    two conventions converge to the same limit far beyond any desk-scale N,
    so this stays red as a true record of the finite-N gap.
    """
    n = len(next(iter(long_digits.values()))) - 1
    diffs = {}
    for kind in SequenceKind:
        f_long = float((long_digits[kind][:n] == 1).mean())
        f_short = float((digit_block(kind, Convention.SHORT, n) == 1).mean())
        diffs[kind.value] = round(abs(f_short - f_long), 5)
    worst = max(diffs.values())
    assert worst < 0.02, (
        f"s=[1] frequency gap between conventions at N={n}: {diffs}; "
        f"worst {worst:.3f} (~0.13 expected from the boundary-digit excess, "
        f"which shrinks like 1/ln N and would need astronomically large N "
        f"to drop under 0.02)")


class TestPatternCounting:
    def test_counts_on_frozen_prefix(self):
        s = DigitStream(kind=SequenceKind.ALL_WITH_DUPLICATES,
                        convention=Convention.SHORT)
        counts = count_patterns(s, [Pattern((2,)), Pattern((1, 2))], 8)
        assert counts[Pattern((2,))] == 3      # starts at 1, 4, 6
        assert counts[Pattern((1, 2))] == 1    # start at 3

    def test_overlaps_counted(self):
        counts = count_patterns(iter([1, 1, 1, 1, 1]), [Pattern((1, 1))], 4)
        assert counts[Pattern((1, 1))] == 4

    def test_read_ahead_requirement(self):
        # resolving starts up to 3 for a length-2 pattern needs 4 digits
        counts = count_patterns(iter([1, 2, 1, 2]), [Pattern((1, 2))], 3)
        assert counts[Pattern((1, 2))] == 2
        with pytest.raises(ValueError):
            count_patterns(iter([1, 2, 1]), [Pattern((1, 2))], 3)

    def test_empty_range_refused_on_an_endless_source(self):
        s = DigitStream(kind=SequenceKind.TYPE1)
        for n in (0, -3):
            with pytest.raises(ValueError, match="n must be >= 1"):
                count_patterns(s, [Pattern((1,))], n)
        assert s.position == 0

    def test_start_limit_respected(self):
        # occurrence starting past n is not counted even though it is read
        counts = count_patterns(iter([3, 1, 2, 9]), [Pattern((2, 9))], 3)
        assert counts[Pattern((2, 9))] == 1
        counts = count_patterns(iter([3, 1, 2, 9]), [Pattern((9,))], 3)
        assert counts[Pattern((9,))] == 0

    def test_non_pattern_digits_never_match(self):
        tracker = FrequencyTracker([(5,), (1, 5)])
        tracker.run([-1, 1, -1])
        assert tracker.counts == [0, 0]
        counts = count_patterns(iter([1, -1, 3]), [Pattern((3,))], 2)
        assert counts[Pattern((3,))] == 0
        tracker = FrequencyTracker([(1,), (1, 1), (2, 1)])
        tracker.run([0, -1, 2 ** 63, 2 ** 70, -2 ** 70, 1, 2 ** 64 + 1, 1])
        assert tracker.counts == [2, 0, 0]
        assert tracker.position == 8

    @given(st.lists(st.sampled_from([0, 1, 2, 3, -1, 2 ** 70]), max_size=60),
           st.lists(st.integers(0, 60), max_size=8),
           st.sampled_from([None, 25]))
    def test_streaming_matches_naive_scan_for_any_cuts(self, digits, cuts,
                                                       limit):
        pats = [(1,), (3,), (1, 1), (1, 2, 1), (3, 1, 1, 2)]
        tracker = FrequencyTracker(pats)
        for a, b in itertools.pairwise([0, *sorted(cuts), len(digits)]):
            tracker.run(digits[a:b], limit)
        assert tracker.position == len(digits)
        stop = len(digits) if limit is None else min(limit, len(digits))
        assert tracker.counts == [
            sum(tuple(digits[i:i + len(p)]) == p for i in range(stop))
            for p in pats]

    def test_tracker_validation(self):
        with pytest.raises(ValueError):
            FrequencyTracker([])
        with pytest.raises(ValueError):
            FrequencyTracker([Pattern((1,)), Pattern((1,))])

    def test_against_naive_scan_small(self):
        digits = [1, 2, 1, 1, 2, 7, 1, 2, 2, 1, 1, 1, 2, 9, 9, 1]
        pats = [Pattern((1,)), Pattern((1, 2)), Pattern((2, 1)),
                Pattern((1, 1, 2)), Pattern((9, 9))]
        n = 12
        tracker = FrequencyTracker(pats)
        tracker.run(digits[:n + 2], limit=n)
        got = tracker.as_dict()
        for p in pats:
            k = len(p)
            naive = sum(1 for i in range(n)
                        if tuple(digits[i:i + k]) == p.digits)
            assert got[p] == naive, p

    def test_against_sliding_window_hundred_random_sets(self, long_digits):
        digits = long_digits[SequenceKind.ALL_LOWEST_TERMS][:10 ** 5 + 4]
        rng = np.random.default_rng(42)
        for _ in range(100):
            k = int(rng.integers(1, 6))
            pats = []
            while len(pats) < k:
                length = int(rng.integers(1, 4))
                cand = Pattern(tuple(int(d) for d in rng.integers(1, 7, length)))
                if cand not in pats:
                    pats.append(cand)
            n = int(rng.integers(10, 10 ** 5))
            tracker = FrequencyTracker(pats)
            tracker.run(digits[:n + tracker.max_len - 1].tolist(), limit=n)
            got = tracker.as_dict()
            for p in pats:
                assert got[p] == count_pattern_array(digits, p, n), (p, n)

    def test_count_pattern_array_needs_read_ahead(self):
        with pytest.raises(ValueError):
            count_pattern_array(np.array([1, 2, 3]), Pattern((1, 2)), 3)
        # a slice digits[j:j + n] with n <= 0 would wrap from the end
        for n in (0, -1, -3):
            with pytest.raises(ValueError, match="n must be >= 1"):
                count_pattern_array(np.array([1, 1, 1, 2]), Pattern((1,)), n)


class TestGridCounter:
    @given(st.lists(st.integers(1, 9), min_size=1, max_size=300),
           st.integers(1, 4), st.integers(1, 3),
           st.lists(st.integers(0, 300), max_size=6),
           st.lists(st.integers(1, 300), min_size=1, max_size=4))
    def test_matches_count_pattern_array_for_any_cuts(self, digits, max_digit,
                                                      max_len, cuts, prefixes):
        digits = np.array(digits + [10 ** 6] * (max_len - 1), dtype=np.int64)
        n = len(digits) - (max_len - 1)
        prefixes = [min(c, n) for c in prefixes]
        counter = GridCounter(max_digit, max_len, prefixes)
        for block in np.split(digits, sorted(cuts)):
            counter.feed(block)
        patterns = pattern_grid(max_digit, max_len)
        for c in prefixes:
            assert counter.counts[c].tolist() == [
                count_pattern_array(digits, pat, c) for pat in patterns]

    def test_large_digits_match_no_pattern(self):
        counter = GridCounter(2, 2, [5])
        counter.feed(np.array([1, 3, 2 ** 31 - 1, 2, 1, 1]))
        assert counter.counts[5].tolist() == [2, 1, 1, 0, 1, 0]

    def test_digits_past_the_last_prefix_are_not_kept(self):
        counter = GridCounter(3, 3, [10, 400])
        counter.feed(np.arange(1, 1000) % 4 + 1)
        counts = {c: v.tolist() for c, v in counter.counts.items()}
        counter.feed(np.ones(10 ** 5, dtype=np.int64))
        assert {c: v.tolist() for c, v in counter.counts.items()} == counts
        assert len(counter._carry) <= counter.max_len - 1


class TestGrowthTracker:
    def test_matches_exact_continuants(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            digits = [int(d) for d in rng.integers(1, 9, 10 ** 4)]
            tracker = GrowthTracker()
            tracker.update_many(digits)
            exact = _ln_big(continuant_den(digits))
            assert abs(tracker.logq - exact) / exact < 1e-9

    def test_audit_passes_on_stream_digits(self, long_digits):
        digits = long_digits[SequenceKind.ALL_LOWEST_TERMS][:30000]
        tracker = GrowthTracker(audit_interval=10 ** 4)
        tracker.update_many(digits.tolist())
        assert tracker.max_audit_rel_err <= 1e-6
        assert tracker.n == 30000

    def test_audit_catches_injected_drift(self):
        tracker = GrowthTracker(audit_interval=100)
        tracker.update_many([1] * 99)
        tracker.logq += 5.0
        with pytest.raises(ArithmeticError):
            tracker.update(1)

    def test_audit_interval_leaves_the_bits(self, long_digits):
        digits = long_digits[SequenceKind.ALL_LOWEST_TERMS][:200_000].tolist()
        states = set()
        for interval in (10 ** 4, 999, len(digits) + 1):
            tracker = GrowthTracker(audit_interval=interval)
            tracker.update_many(digits)
            states.add((tracker.logq, tracker.ratio, tracker.n))
        assert len(states) == 1

    def test_rejects_bad_digits(self):
        tracker = GrowthTracker()
        with pytest.raises(ValueError):
            tracker.update(0)
        with pytest.raises(ValueError):
            tracker.rate
        for interval in (0, -1):
            with pytest.raises(ValueError, match="audit_interval must be >= 1"):
                GrowthTracker(audit_interval=interval)

    def test_numpy_digits_audit_exactly(self):
        tracker = GrowthTracker(audit_interval=30)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for _ in range(30):
                tracker.update(np.int64(9))
        assert _growth_state(tracker) == _growth_state(
            _loop_tracker([9] * 30, audit_interval=30))

    def test_update_rejects_non_digits_before_any_change(self):
        tracker = GrowthTracker(audit_interval=10)
        for a in (3, 1, 4):
            tracker.update(a)
        before = _growth_state(tracker)
        for bad in (2 ** 63, 2.5, float("inf"), float("nan")):
            with pytest.raises(ValueError):
                tracker.update(bad)
        assert _growth_state(tracker) == before
        assert tracker._window_digits().tolist() == [3, 1, 4]
        tracker.update(2 ** 63 - 1)
        assert tracker.n == 4

    def test_update_many_rejects_bad_digits_before_any_update(self):
        tracker = GrowthTracker(audit_interval=10)
        tracker.update_many([3, 1, 4])
        before = _growth_state(tracker)
        with pytest.raises(ValueError, match="digits must be >= 1"):
            tracker.update_many(np.array([1, 5, 9, 2, 0, 6]))
        assert _growth_state(tracker) == before

    def test_update_many_refuses_a_fractional_digit(self):
        # np.fromiter truncated 2.5 to 2, and logq came out as ln 5
        tracker = GrowthTracker(audit_interval=10)
        tracker.update_many([3, 1, 4])
        before = _growth_state(tracker)
        with pytest.raises(ValueError):
            tracker.update_many([2.5, 1, 1])
        assert _growth_state(tracker) == before
        assert tracker._window_digits().tolist() == [3, 1, 4]

    def test_update_many_refuses_a_digit_past_int64(self):
        # np.fromiter raised OverflowError on 2**63
        tracker = GrowthTracker(audit_interval=10)
        tracker.update_many([3, 1, 4])
        before = _growth_state(tracker)
        with pytest.raises(ValueError):
            tracker.update_many([1, 2 ** 63])
        assert _growth_state(tracker) == before
        tracker.update_many([2 ** 63 - 1])
        assert tracker.n == 4


def _growth_state(tracker):
    return (tracker.logq, tracker.ratio, tracker.n, tracker.max_audit_rel_err)


def _loop_tracker(digits, audit_interval=10 ** 4):
    """The reference: one scalar update per digit."""
    tracker = GrowthTracker(audit_interval=audit_interval)
    for a in digits:
        tracker.update(int(a))
    return tracker


def _assert_same_bits(digits, audit_interval=10 ** 4):
    vectorised = GrowthTracker(audit_interval=audit_interval)
    vectorised.update_many(digits)
    expected = _growth_state(_loop_tracker(digits, audit_interval))
    assert _growth_state(vectorised) == expected


class TestGrowthTrackerVectorised:
    """update_many against a loop of update calls, compared with ==."""

    @pytest.mark.parametrize("kind", list(SequenceKind))
    def test_stream_digits_of_every_kind(self, long_digits, kind):
        # crosses the 2**16-digit chunk boundary
        _assert_same_bits(long_digits[kind][:100_000])

    def test_ones_contract_slowest(self):
        _assert_same_bits(np.ones(10 ** 5, dtype=np.int64))

    def test_large_digits_need_python_int_products(self):
        rng = np.random.default_rng(5)
        digits = rng.integers(1, 10 ** 6 + 1, 30_000)
        products = streams._continuant_products(digits[:4].reshape(1, 4))
        assert products[0][0] == continuant_den(digits[:4].tolist()) > 2 ** 63
        _assert_same_bits(digits)
        _assert_same_bits(digits, audit_interval=1)

    @pytest.mark.parametrize("chunk,interval,n", [
        (streams.GROWTH_CHUNK, 10 ** 4, 150_001),
        (1000, 333, 5_000),
        (1000, 1, 2_500),
        (64, 10 ** 4, 25_000),
        (777, 10 ** 6, 4_000),
    ])
    def test_chunk_and_audit_boundaries(self, monkeypatch, long_digits,
                                        chunk, interval, n):
        monkeypatch.setattr(streams, "GROWTH_CHUNK", chunk)
        _assert_same_bits(long_digits[SequenceKind.TYPE2][:n], interval)

    @pytest.mark.parametrize("interval", [7, 65_537, 100_003])
    def test_windows_across_chunks(self, long_digits, interval):
        # the two long windows gather their digits over two chunks
        _assert_same_bits(
            long_digits[SequenceKind.ALL_LOWEST_TERMS][:200_000], interval)

    def test_a_window_longer_than_a_chunk_costs_no_more(self, long_digits):
        # the open window was rebuilt on every chunk, so its cost grew with
        # the square of the window: 1.75x the default's at 10**6 + 1
        digits = long_digits[SequenceKind.ALL_LOWEST_TERMS][:10 ** 6]

        def best(interval):
            seconds = []
            for _ in range(3):
                tracker = GrowthTracker(audit_interval=interval)
                start = time.perf_counter()
                tracker.update_many(digits)
                seconds.append(time.perf_counter() - start)
            return min(seconds)

        assert best(10 ** 6 + 1) <= 1.3 * best(streams.AUDIT_INTERVAL)

    def test_mixed_with_scalar_updates(self, long_digits):
        digits = long_digits[SequenceKind.ALL_LOWEST_TERMS][:60_000].tolist()
        cuts = [0, 12_345, 12_350, 31_000, 31_001, 60_000]
        tracker = GrowthTracker(audit_interval=1000)
        for i, (lo, hi) in enumerate(zip(cuts[:-1], cuts[1:])):
            if i % 2:
                for a in digits[lo:hi]:
                    tracker.update(a)
            else:
                tracker.update_many(digits[lo:hi])
        assert _growth_state(tracker) == _growth_state(
            _loop_tracker(digits, 1000))
        assert tracker.max_audit_rel_err > 0.0

    @pytest.mark.parametrize("warmup", [0, 3])
    def test_lane_repair_keeps_the_bits(self, monkeypatch, long_digits, warmup):
        # lanes that start too late disagree with the lane before them and
        # are recomputed from the exact value
        monkeypatch.setattr(streams, "GROWTH_WARMUP", warmup)
        digits = long_digits[SequenceKind.TYPE1][:50_000]
        t = streams._ratio_recurrence(digits, 0.25)
        ref = []
        r = 0.25
        for a in digits.tolist():
            ref.append(a + r)
            r = 1.0 / ref[-1]
        assert t.tolist() == ref
        _assert_same_bits(digits)

    def test_scalar_oracle_shares_no_arithmetic_with_the_tree(
            self, monkeypatch, long_digits):
        digits = long_digits[SequenceKind.TYPE3][:3_500].tolist()
        vectorised = GrowthTracker(audit_interval=1000)
        vectorised.update_many(digits)

        def forbidden(*args, **kwargs):
            raise AssertionError("the scalar update used the product tree")

        monkeypatch.setattr(streams, "_matmul2", forbidden)
        monkeypatch.setattr(streams, "_continuant_products", forbidden)
        tracker = _loop_tracker(digits, 1000)
        assert tracker.max_audit_rel_err > 0.0
        assert _growth_state(tracker) == _growth_state(vectorised)

    def test_drift_between_calls_is_caught(self):
        tracker = GrowthTracker(audit_interval=100)
        tracker.update_many(np.ones(150, dtype=np.int64))
        tracker.logq += 5.0
        with pytest.raises(ArithmeticError, match="at n=200"):
            tracker.update_many(np.ones(100, dtype=np.int64))
        assert tracker.n == 200


class TestNormalityReport:
    def test_structure_and_counts(self, long_digits):
        report = normality_report(SequenceKind.ALL_LOWEST_TERMS,
                                  Convention.LONG, 20000,
                                  max_digit=3, max_len=2,
                                  checkpoints=(5000,))
        assert len(report.rows) == 12
        digits = long_digits[SequenceKind.ALL_LOWEST_TERMS]
        for row in report.rows:
            assert row.n == 20000
            assert row.count == count_pattern_array(digits, row.pattern, 20000)
            assert row.mu == gauss_measure(row.pattern)
            assert row.deviation == abs(row.empirical - row.mu)
        assert report.growth.n == 20000
        assert 5000 in report.checkpoints
        doc = report.to_json_dict()
        assert set(doc) == {"params", "rows", "growth", "checkpoints"}

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            normality_report(SequenceKind.TYPE1, Convention.LONG, 0)
        with pytest.raises(ValueError):
            normality_report(SequenceKind.TYPE1, Convention.LONG, 100,
                             checkpoints=(200,))
        with pytest.raises(ResourceLimitError):
            normality_report(SequenceKind.TYPE1, Convention.LONG, 1000,
                             max_digit=101, max_len=2)

    def test_checkpoints_checked_before_any_digit(self, monkeypatch):
        def no_digits(*args):
            raise AssertionError("iter_digit_blocks called before the checks")

        monkeypatch.setattr(streams, "iter_digit_blocks", no_digits)
        for bad in ((0,), (5, 2 * 10 ** 6 + 1)):
            with pytest.raises(ValueError, match="checkpoint"):
                normality_report(SequenceKind.TYPE1, Convention.LONG,
                                 2 * 10 ** 6, checkpoints=bad)


class TestHypothesisRatios:
    def test_diagnostics_trend(self):
        report = hypothesis_ratios(SequenceKind.ALL_LOWEST_TERMS,
                                   Convention.LONG, 10 ** 4)
        assert [row.n for row in report.rows] == [10 ** 4, 2 * 10 ** 4, 4 * 10 ** 4]
        for row in report.rows:
            assert row.n_over_sum <= 1.0
        m_over_n = [row.m_over_n for row in report.rows]
        assert m_over_n[0] > m_over_n[1] > m_over_n[2]

    def test_max_length_is_logarithmic(self):
        from cfnormal.enumeration import rational_at
        from cfnormal.measures import GOLDEN
        report = hypothesis_ratios(SequenceKind.ALL_LOWEST_TERMS,
                                   Convention.LONG, 10 ** 4)
        for row in report.rows:
            den = rational_at(SequenceKind.ALL_LOWEST_TERMS, row.m).den
            assert row.max_len <= 3.0 / math.log(GOLDEN) * math.log(den)

    @pytest.mark.parametrize("conv", list(Convention))
    @pytest.mark.parametrize("kind", list(SequenceKind))
    def test_equals_the_scalar_oracle(self, kind, conv):
        # the lengths of iter_members expanded one by one with cf_digits
        for n in (1, 2, 7, 1000, 10 ** 4):
            lengths = (len(cf_digits(*(r if isinstance(r, tuple)
                                       else (r.num, r.den)), conv))
                       for r in iter_members(kind))
            assert hypothesis_ratios(kind, conv, n).to_json_dict() == {
                "params": {"kind": kind.value, "conv": conv.value, "N": n},
                "rows": ratio_rows(lengths, n)}, (kind, conv, n)

    def test_n_must_be_positive(self):
        with pytest.raises(ValueError, match="n must be >= 1"):
            hypothesis_ratios(SequenceKind.TYPE1, Convention.LONG, 0)


def test_header_format():
    assert format_header(SequenceKind.ALL_LOWEST_TERMS, Convention.SHORT) == \
        "cfdigits v1 kind=all conv=short"
    assert format_header(None, Convention.LONG) == \
        "cfdigits v1 kind=indices conv=long"


def encode_varint(value: int) -> bytes:
    """Unsigned LEB128 of one value, a group at a time: the oracle for
    encode_varints."""
    assert value >= 0
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


class TestVarint:
    @given(st.lists(st.integers(0, 2 ** 70), max_size=50))
    def test_round_trip(self, values):
        blob = b"".join(encode_varint(v) for v in values)
        assert decode_varints(blob) == values

    def test_known_encodings(self):
        assert encode_varint(0) == b"\x00"
        assert encode_varint(127) == b"\x7f"
        assert encode_varint(128) == b"\x80\x01"

    def test_rejects_negative_and_truncated(self):
        with pytest.raises(ValueError):
            encode_varints(np.array([5, -1]))
        with pytest.raises(ValueError):
            decode_varints(b"\x80")

    @pytest.mark.parametrize("values", [
        [],
        [0, 127, 128, 16383, 16384, 2 ** 31 - 1, 2 ** 62],
        [1, 2, 3, 127],
    ])
    def test_vectorised_matches_scalar_on_edges(self, values):
        expected = b"".join(encode_varint(v) for v in values)
        assert encode_varints(values) == expected
        assert encode_varints(np.array(values, dtype=np.int64)) == expected

    def test_vectorised_matches_scalar_on_mixed_widths(self):
        rng = np.random.default_rng(11)
        # one-, two- and three-byte values, shuffled together
        values = np.concatenate([rng.integers(0, 2 ** 7, 3000),
                                 rng.integers(2 ** 7, 2 ** 14, 3000),
                                 rng.integers(2 ** 14, 2 ** 21, 3000)])
        rng.shuffle(values)
        blob = encode_varints(values)
        assert blob == b"".join(encode_varint(int(v)) for v in values)
        assert decode_varints(blob) == values.tolist()
