"""Normality classification, exceptional families, and Gauss sampling."""

import math
import time
import tracemalloc

import numpy as np
import pytest

from cfnormal import census, streams
from cfnormal.census import (MIRROR_KINDS, CensusReport, GammaParams,
                             GaussDigitSampler, NormalityParams,
                             _block_occurrences, _classify_block,
                             _digit_of, _euclid_counts,
                             _gamma_block, _tune_theta,
                             digit_length, ef_decay_estimates,
                             estimate_measure, gamma_census,
                             gamma_prime_contains, gamma_prime_q_bounds,
                             in_E_set, in_F_set, in_gamma,
                             is_eps_s_normal, mc_growth_rate,
                             n_delta, resolve_threads, run_census)
from cfnormal.core import Convention, Rational, cf_digits, continuants, expand
from cfnormal.enumeration import SequenceKind, count_R, enumerate_R, members_block
from cfnormal.errors import ResourceLimitError
from cfnormal.measures import GOLDEN, KHINCHIN_LEVY, Pattern, cylinder_geometry, gauss_measure
from cfnormal.streams import digit_matrix, flat_digits, flatten_digit_matrix

ALL = SequenceKind.ALL_LOWEST_TERMS


class TestDigitLength:
    def test_oracles(self):
        assert digit_length(Rational(1, 2), Convention.SHORT) == 1
        assert digit_length(Rational(2, 3), Convention.LONG) == 3

    def test_fibonacci_upper_bound(self):
        num, den = members_block(ALL, 2, 1001)
        bound = np.log(den) / math.log(GOLDEN)
        _, short_len = digit_matrix(num, den, Convention.SHORT)
        assert np.all(short_len <= bound + 2)
        _, long_len = digit_matrix(num, den, Convention.LONG)
        assert np.all(long_len <= bound + 3)
        assert np.array_equal(long_len, short_len + 1)


class TestNormalityCheck:
    def test_three_sevenths(self):
        p = NormalityParams(0.5, Pattern((2,)), Convention.SHORT)
        check = is_eps_s_normal(Rational(3, 7), p)
        assert (check.a_count, check.length) == (1, 2)
        assert check.freq_dev == pytest.approx(0.5 - math.log2(9 / 8), abs=1e-12)
        assert check.growth_dev == pytest.approx(
            abs(math.log(7) / 2 - KHINCHIN_LEVY), abs=1e-12)
        assert bool(check) is True
        assert not is_eps_s_normal(Rational(3, 7),
                                   NormalityParams(0.1, Pattern((2,)),
                                                   Convention.SHORT))

    def test_pattern_longer_than_expansion(self):
        p = NormalityParams(0.9, Pattern((1, 1, 1)))
        check = is_eps_s_normal(Rational(1, 2), p)   # long digits 1,1
        assert check.a_count == 0
        assert check.freq_dev == pytest.approx(gauss_measure((1, 1, 1)))

    def test_params_domain(self):
        for eps in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ValueError):
                NormalityParams(eps, Pattern((1,)))
        p = NormalityParams(0.5, (2, 1))
        assert p.s == Pattern((2, 1))


class TestRunCensus:
    def test_tiny_exact(self):
        p = NormalityParams(0.9, Pattern((1,)))
        report = run_census(ALL, 5, p)
        assert (report.total, report.abnormal) == (9, 0)
        assert report.ratio == 0.0
        doc = report.to_json_dict()
        assert doc["params"]["den_range"] == [2, 5]
        assert "wall_time" not in doc

    def test_csv_shape(self):
        assert CensusReport.CSV_HEADER == "m,kind,eps,s,total,abnormal,ratio"
        p = NormalityParams(0.9, Pattern((1,)))
        row = run_census(ALL, 5, p).to_csv_row()
        assert row == "5,all,0.9,1,9,0,0.0"

    def test_thread_fanout_agrees(self):
        # m large enough to split into several denominator chunks
        p = NormalityParams(0.25, Pattern((1,)))
        seq = run_census(ALL, 2500, p, threads=1)
        par = run_census(ALL, 2500, p, threads=2)
        assert (seq.total, seq.abnormal) == (par.total, par.abnormal)
        assert seq.total == count_R(ALL, 2500)

    def test_domain_and_limits(self):
        p = NormalityParams(0.25, Pattern((1,)))
        with pytest.raises(ValueError):
            run_census(ALL, 2, p)
        with pytest.raises(ResourceLimitError):
            run_census(ALL, 35000, p)

    @pytest.mark.parametrize("kind", list(SequenceKind))
    def test_every_kind_passes_the_row_limit_at_the_count_bound(self, kind):
        # so the row guard may refuse any m above the bound from the count
        # there (type3, the sparsest, has 3.08e9 members)
        assert count_R(kind, census.ROW_COUNT_BOUND) > census.CENSUS_ROW_LIMIT

    def test_row_guard_counts_at_most_to_the_bound(self, monkeypatch):
        # count_R(all, m) builds every table up to m: 175.9 MB at m = 1e7
        seen = []

        def count(kind, m):
            seen.append(m)
            return count_R(kind, m)
        monkeypatch.setattr(census, "count_R", count)
        with pytest.raises(ResourceLimitError):
            run_census(SequenceKind.TYPE3, 10 ** 8,
                       NormalityParams(0.25, Pattern((1,))))
        with pytest.raises(ResourceLimitError):
            gamma_census(GammaParams(10 ** 8, 0.1, 0.1, (1,)))
        assert seen == [census.ROW_COUNT_BOUND] * 2

    def test_rows_are_held_to_the_guard_count(self, monkeypatch):
        # both censuses compare the rows they enumerated with count_R
        monkeypatch.setattr(census, "count_R",
                            lambda kind, m: count_R(kind, m) + 1)
        with pytest.raises(AssertionError, match="expected"):
            run_census(ALL, 100, NormalityParams(0.25, Pattern((1,))))
        with pytest.raises(AssertionError, match="expected"):
            gamma_census(GammaParams(100, 0.1, 0.1, (1,)))

    def test_resolve_threads(self):
        assert resolve_threads(4) == 4
        assert resolve_threads() >= 1
        with pytest.raises(ValueError):
            resolve_threads(0)

    def test_resolve_threads_checks_the_environment(self, monkeypatch):
        monkeypatch.setenv("CFNORMAL_THREADS", "3")
        assert resolve_threads() == 3
        assert resolve_threads(2) == 2      # an explicit value wins
        for bad in ("0", "-3", "abc", "2.5"):
            monkeypatch.setenv("CFNORMAL_THREADS", bad)
            with pytest.raises(ValueError, match="CFNORMAL_THREADS"):
                resolve_threads()

    @pytest.mark.parametrize("threads", [0, -3])
    def test_a_thread_count_below_one_is_refused(self, threads):
        # before the m check, as the command line did when it resolved
        # the count itself
        p = NormalityParams(0.25, Pattern((1,)))
        for m in (100, 2):
            with pytest.raises(ValueError, match="threads must be >= 1"):
                run_census(ALL, m, p, threads=threads)
        with pytest.raises(ValueError, match="threads must be >= 1"):
            ef_decay_estimates(threads=threads)


KERNEL_PATTERNS = [(1,), (2,), (1, 1), (1, 2), (2, 1, 1), (3,)]


def _oracle_block(num, den, p):
    """(rows, abnormal rows) from the digit matrix, a window scan and gcd."""
    mat, lengths = digit_matrix(num, den, p.convention)
    counts = _block_occurrences(mat, p.s.digits)
    logq = np.log((den // np.gcd(num, den)).astype(np.float64))
    normal = ((np.abs(counts / lengths - gauss_measure(p.s)) < p.epsilon)
              & (np.abs(logq / lengths - KHINCHIN_LEVY) < p.epsilon))
    return len(num), int(len(num) - normal.sum())


def _scalar_count(digits, s):
    k = len(s)
    return sum(tuple(digits[i:i + k]) == s for i in range(len(digits) - k + 1))


class TestCensusKernel:
    """The fused Euclid-and-count kernel against the scalar Euclid."""

    @pytest.mark.parametrize("kind", list(SequenceKind))
    @pytest.mark.parametrize("conv", list(Convention))
    def test_rows_match_cf_digits(self, kind, conv):
        num, den = members_block(kind, 2, 201)
        digits = [cf_digits(int(n), int(d), conv) for n, d in zip(num, den)]
        lengths = [len(o) for o in digits]
        mat, mat_len = digit_matrix(num, den, conv)
        assert mat_len.tolist() == lengths
        assert mat.tolist() == [o + [0] * (mat.shape[1] - len(o))
                                for o in digits]
        # flat_digits laid out one row each, as wide as the longest row
        assert mat.shape[1] == max(lengths)
        assert np.array_equal(flatten_digit_matrix(mat, mat_len),
                              flat_digits(num, den, conv)[0])
        for s in KERNEL_PATTERNS:
            counts = [_scalar_count(o, s) for o in digits]
            for width in (len(s), 7):
                got_len, got_count, got_first, got_gcd = _euclid_counts(
                    num, den, s, conv, width)
                assert got_len.tolist() == lengths
                assert got_count.tolist() == counts
                assert got_first.tolist() == [(o + [0] * width)[:width]
                                              for o in digits]
                assert np.array_equal(got_gcd, np.gcd(num, den))

    def test_short_rows_pad_their_first_digits(self):
        # under LONG, 1/2 is (1, 1) and 1/3 is (2, 1), both shorter than s;
        # under SHORT, 2/4 is (2) and its gcd 2
        _, _, first, _ = _euclid_counts(np.array([1, 1]), np.array([2, 3]),
                                        (1, 1, 1), Convention.LONG, 3)
        assert first.tolist() == [[1, 1, 0], [2, 1, 0]]
        lengths, _, first, gcd = _euclid_counts(
            np.array([2]), np.array([4]), (2, 1), Convention.SHORT, 2)
        assert (lengths.tolist(), first.tolist(), gcd.tolist()) == (
            [1], [[2, 0]], [2])

    def test_state_limit_is_two_to_the_31(self):
        # 1134903170/1836311903 is F45/F46, the longest expansion below
        # 2^31; 2^31 - 1 is prime
        top = 2 ** 31 - 1
        num = np.array([1134903170, 1, top - 1, 12345])
        den = np.array([1836311903, top, top, top])
        for conv in Convention:
            lengths, counts, first, gcd = _euclid_counts(num, den, (1,), conv,
                                                         1)
            digits = [cf_digits(int(n), int(d), conv)
                      for n, d in zip(num, den)]
            assert lengths.tolist() == [len(o) for o in digits]
            assert counts.tolist() == [o.count(1) for o in digits]
            assert first[:, 0].tolist() == [o[0] for o in digits]
            assert gcd.tolist() == [1, 1, 1, 1]
        with pytest.raises(OverflowError):
            _euclid_counts(np.array([1]), np.array([2 ** 31]), (1,),
                           Convention.LONG, 1)

    @pytest.mark.parametrize("kind", list(SequenceKind))
    def test_classify_block_matches_oracle(self, kind):
        # a mirror kind classifies its half block; the oracle sees every row
        mirror = kind in MIRROR_KINDS
        num, den = members_block(kind, 2, 601)
        rows = members_block(kind, 2, 601, half=mirror)
        for conv in Convention:
            for s in KERNEL_PATTERNS:
                for eps in (0.1, 0.25):
                    p = NormalityParams(eps, Pattern(s), conv)
                    assert _classify_block(*rows, p, mirror=mirror) \
                        == _oracle_block(num, den, p)

    def test_classify_block_needs_no_matrix_and_no_gcd(self, monkeypatch):
        blocks = [(members_block(kind, 2, 101, half=True),
                   len(members_block(kind, 2, 101)[0]))
                  for kind in (ALL, SequenceKind.ALL_WITH_DUPLICATES)]

        def refuse(*args, **kwargs):
            raise AssertionError("the census kernel called a refused helper")
        monkeypatch.setattr(streams, "digit_matrix", refuse)
        monkeypatch.setattr(census, "_block_occurrences", refuse)
        monkeypatch.setattr(census.np, "gcd", refuse)
        p = NormalityParams(0.25, Pattern((1,)))
        for (num, den), total in blocks:
            assert _classify_block(num, den, p, mirror=True)[0] == total

    @pytest.mark.parametrize("kind,conv,s", [
        (SequenceKind.ALL_LOWEST_TERMS, Convention.LONG, (1,)),
        (SequenceKind.ALL_WITH_DUPLICATES, Convention.SHORT, (1, 2)),
        (SequenceKind.SQUAREFREE_BOTH, Convention.LONG, (2, 1, 1)),
        (SequenceKind.TYPE1, Convention.SHORT, (2,)),
        (SequenceKind.TYPE2, Convention.LONG, (1, 1)),
        (SequenceKind.TYPE3, Convention.SHORT, (3,)),
    ])
    def test_run_census_matches_oracle(self, kind, conv, s, monkeypatch):
        # m = 2100 spans two denominator chunks; the oracle walks blocks of
        # 100 denominators to keep its digit matrices small
        m = 2100
        chunks = []
        fan_out = census._fan_out

        def recording(runs, threads):
            chunks.append(len(runs))
            return fan_out(runs, threads)
        monkeypatch.setattr(census, "_fan_out", recording)
        p = NormalityParams(0.25, Pattern(s), conv)
        rows = bad = 0
        for lo in range(2, m + 1, 100):
            num, den = members_block(kind, lo, min(lo + 100, m + 1))
            if len(num):
                r, b = _oracle_block(num, den, p)
                rows, bad = rows + r, bad + b
        for threads in (1, 2):
            report = run_census(kind, m, p, threads=threads)
            assert (report.total, report.abnormal) == (rows, bad)
        assert chunks == [2, 2]


class TestSlices:
    """The census classifies each chunk in slices of BLOCK_PAIR_CAP rows;
    the slice size must not change a count.  A cap of 1 puts every row of
    a chunk in a slice of its own."""

    @pytest.mark.parametrize("kind", list(SequenceKind))
    def test_run_census_counts_do_not_depend_on_the_cap(self, kind,
                                                        monkeypatch):
        p = NormalityParams(0.25, Pattern((1, 2)))
        want = run_census(kind, 100, p, threads=1)
        for cap in (1, 7, 1000):
            monkeypatch.setattr(census, "BLOCK_PAIR_CAP", cap)
            got = run_census(kind, 100, p, threads=1)
            assert (got.total, got.abnormal) == (want.total, want.abnormal)

    def test_gamma_census_counts_do_not_depend_on_the_cap(self, monkeypatch):
        gp = GammaParams(100, 0.1, 0.1, Pattern((1,)))
        want = gamma_census(gp)
        for cap in (1, 7, 1000):
            monkeypatch.setattr(census, "BLOCK_PAIR_CAP", cap)
            got = gamma_census(gp)
            assert (got.total, got.members) == (want.total, want.members)


class TestMirror:
    """(d-n)/d has the digits (1, a1-1, a2, ...) when n/d has (a1, a2, ...)
    and 2n < d (Knuth, TAOCP vol. 2, 4.5.3)."""

    @pytest.mark.parametrize("conv", list(Convention))
    def test_random_reduced_pairs(self, conv):
        rng = np.random.default_rng(20151)
        checked = 0
        while checked < 10_000:
            d = int(rng.integers(3, 10 ** 6 + 1))
            n = int(rng.integers(1, (d - 1) // 2 + 1))
            if 2 * n >= d or math.gcd(n, d) != 1:
                continue
            o = cf_digits(n, d, conv)
            assert cf_digits(d - n, d, conv) == [1, o[0] - 1] + o[1:]
            checked += 1

    @pytest.mark.parametrize("conv", list(Convention))
    def test_edges(self, conv):
        # 1/3 has a single SHORT digit
        o = cf_digits(1, 3, conv)
        assert len(o) == (1 if conv is Convention.SHORT else 2)
        assert cf_digits(2, 3, conv) == [1, o[0] - 1] + o[1:]
        # 1/2, and aks-dup's 2/4, are their own mirrors
        assert cf_digits(1, 2, conv) == cf_digits(2, 4, conv) \
            == ([2] if conv is Convention.SHORT else [1, 1])
        for num, den in ((1, 2), (2, 4), (3, 6)):
            lengths, _, _, gcd = _euclid_counts(
                np.array([num]), np.array([den]), (1,), conv, 1)
            assert (lengths[0], den // gcd[0]) == (len(cf_digits(1, 2, conv)), 2)

    @pytest.mark.parametrize("kind", list(SequenceKind))
    def test_mirror_kinds_are_the_kinds_closed_under_the_mirror(self, kind):
        num, den = members_block(kind, 2, 301)
        rows = set(zip(num.tolist(), den.tolist()))
        closed = {(d - n, d) for n, d in rows} == rows
        assert (kind in MIRROR_KINDS) == closed

    def test_self_mirrored_rows_count_once(self):
        dup = SequenceKind.ALL_WITH_DUPLICATES
        num, den = members_block(dup, 2, 9)
        assert int((2 * num == den).sum()) == 4     # 1/2, 2/4, 3/6, 4/8
        p = NormalityParams(0.25, Pattern((1,)))
        assert _classify_block(*members_block(dup, 2, 9, half=True), p,
                               mirror=True) == _oracle_block(num, den, p)


class TestNDelta:
    def test_oracles(self):
        assert n_delta(1000, 0.1) == 4
        assert n_delta(10 ** 4, 0.1) == 6
        assert n_delta(3, 0.3) == 0

    def test_monotone_in_m_antitone_in_delta(self):
        for m1, m2 in ((10, 100), (100, 5000)):
            assert n_delta(m1, 0.1) <= n_delta(m2, 0.1)
        for d1, d2 in ((0.05, 0.1), (0.1, 0.3)):
            assert n_delta(1000, d2) <= n_delta(1000, d1)

    def test_domain(self):
        with pytest.raises(ValueError):
            n_delta(2, 0.1)
        for bad in (0.0, 1.0 / 3.0, 0.5):
            with pytest.raises(ValueError):
                n_delta(100, bad)


class TestGamma:
    GP = GammaParams(1000, 0.1, 0.1, Pattern((1,)))

    def test_params(self):
        assert self.GP.n == 4
        with pytest.raises(ValueError):
            GammaParams(1000, 0.1, 0.0, Pattern((1,)))
        with pytest.raises(ValueError):
            GammaParams(2, 0.1, 0.1, Pattern((1,)))
        # a NaN eta fails every frequency test, which would silently drop
        # Gamma's frequency condition; an infinite one never fails any
        for eta in (math.nan, math.inf):
            with pytest.raises(ValueError, match="eta must be finite"):
                GammaParams(1000, 0.1, eta, Pattern((1,)))

    def test_membership_edges(self):
        assert in_gamma(Rational(1, 2), self.GP)          # 2 digits < n = 4
        assert not in_gamma(Rational(1, 1001), self.GP)   # den > m
        vacuous = GammaParams(3, 0.3, 0.1, Pattern((1,)))  # n = 0
        with pytest.raises(ValueError):
            in_gamma(Rational(1, 2), vacuous)
        with pytest.raises(ValueError):
            gamma_census(vacuous)

    def test_scalar_matches_block(self):
        num, den = members_block(ALL, 2, 301)
        flags = _gamma_block(num, den, self.GP, Convention.LONG)
        scalar = [in_gamma(Rational(int(a), int(b)), self.GP)
                  for a, b in zip(num, den)]
        assert flags.tolist() == scalar
        assert (len(num), int(flags.sum())) == (27397, 24975)

    @pytest.mark.parametrize("conv", list(Convention))
    @pytest.mark.parametrize("s", [(1,), (1, 2), (1, 1, 1, 1, 1)])
    def test_block_matches_scalar_for_each_pattern(self, conv, s):
        # n = 4 here, so (1, 1, 1, 1, 1) has no window inside the prefix
        gp = GammaParams(1000, 0.1, 0.1, Pattern(s))
        num, den = members_block(ALL, 2, 151)
        flags = _gamma_block(num, den, gp, conv)
        assert flags.tolist() == [in_gamma(Rational(int(a), int(b)), gp, conv)
                                  for a, b in zip(num, den)]

    def test_census_builds_no_digit_matrix(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("gamma_census built a digit matrix")
        # census must not hold a name of its own for digit_matrix either
        for module in (streams, census):
            monkeypatch.setattr(module, "digit_matrix", refuse, raising=False)
        small = gamma_census(self.GP)
        assert (small.total, small.members) == (304191, 285542)

    def test_census_refused_above_the_row_limit(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("members_block called before the guard")
        monkeypatch.setattr(census, "members_block", refuse)
        gp = GammaParams(35000, 0.1, 0.1, (1,))
        assert count_R(ALL, gp.m) == 372365937
        start = time.perf_counter()
        with pytest.raises(ResourceLimitError):
            gamma_census(gp)
        assert time.perf_counter() - start < 1.0

    def test_census_ratio_decreases_in_m(self):
        small = gamma_census(self.GP)
        assert (small.total, small.members) == (304191, 285542)
        assert small.params.n == 4
        # heavier run: 30.4e6 rationals, several seconds of numpy time
        big = gamma_census(GammaParams(10 ** 4, 0.1, 0.1, Pattern((1,))))
        assert (big.total, big.members) == (30397485, 25954830)
        assert big.ratio < small.ratio


class TestGammaPrime:
    def test_growth_screens_out_golden_prefixes(self):
        gp = GammaParams(1000, 0.1, 0.1, Pattern((1,)))
        assert not gamma_prime_contains((1, 1, 1, 1), gp)

    def test_argument_validation(self):
        gp = GammaParams(1000, 0.1, 0.1, Pattern((1,)))
        with pytest.raises(ValueError):
            gamma_prime_contains((1, 1, 1), gp)           # wrong length
        with pytest.raises(ValueError):
            gamma_prime_contains((1, 0, 1, 1), gp)        # digit below 1
        shallow = GammaParams(30, 0.3, 0.1, Pattern((1,)))   # n = 1
        with pytest.raises(ValueError):
            gamma_prime_contains((3,), shallow)

    def test_narrow_band_can_be_empty(self):
        # at m=200, delta=0.1 the delta/12 window around e^{2g} admits no
        # integer q_2, so no depth-3 prefix qualifies at all
        gp = GammaParams(200, 0.1, 0.1, Pattern((1,)))
        assert gp.n == 3
        lo, hi = gamma_prime_q_bounds(gp)
        assert (lo, hi) == (pytest.approx(6.2698, abs=1e-3),
                            pytest.approx(99.0746, abs=1e-3))
        accepted = [(a, b, c)
                    for a in range(1, 9) for b in range(1, 9)
                    for c in range(1, 9)
                    if gamma_prime_contains((a, b, c), gp)]
        assert accepted == []

    def test_accepted_prefixes_frozen(self):
        gp = GammaParams(10 ** 4, 0.3, 0.1, Pattern((1,)))
        assert gp.n == 3
        accepted = [(a, b, c)
                    for a in range(1, 13) for b in range(1, 13)
                    for c in range(1, 13)
                    if gamma_prime_contains((a, b, c), gp)]
        expected = ([(1, 10, c) for c in range(2, 8)]
                    + [(5, 2, 1)]
                    + [(10, 1, c) for c in range(2, 7)])
        assert sorted(accepted) == sorted(expected)
        # every accepted prefix pins q_2 = 11 and lands inside the q window
        lo, hi = gamma_prime_q_bounds(gp)
        assert (lo, hi) == (pytest.approx(3.433, abs=1e-3),
                            pytest.approx(101.048, abs=1e-3))
        for prefix in accepted:
            assert continuants(prefix[:2])[3] == 11
            assert lo <= continuants(prefix)[3] <= hi

    def test_accepted_cylinders_are_disjoint(self):
        gp = GammaParams(10 ** 4, 0.3, 0.1, Pattern((1,)))
        accepted = [(a, b, c)
                    for a in range(1, 13) for b in range(1, 13)
                    for c in range(1, 13)
                    if gamma_prime_contains((a, b, c), gp)]
        intervals = sorted((cylinder_geometry(s).lower,
                            cylinder_geometry(s).upper) for s in accepted)
        for (_, right), (nxt, _) in zip(intervals, intervals[1:]):
            assert right <= nxt

    def test_good_union_avoids_gamma(self):
        gp = GammaParams(500, 0.2, 0.15, Pattern((1,)))
        assert gp.n == 3
        long_enough = accepted = in_g = overlap = 0
        prefixes = set()
        for r in enumerate_R(ALL, 500):
            digits = expand(r, Convention.LONG).digits
            if len(digits) < 3:
                assert in_gamma(r, gp)   # short expansions are exceptional
                continue
            long_enough += 1
            gamma_member = in_gamma(r, gp)
            in_g += gamma_member
            if gamma_prime_contains(digits[:3], gp):
                accepted += 1
                prefixes.add(digits[:3])
                overlap += gamma_member
        assert (long_enough, accepted, in_g) == (75616, 308, 64325)
        assert prefixes == ({(1, 10, c) for c in range(2, 6)}
                            | {(10, 1, c) for c in range(2, 5)})
        assert overlap == 0


class TestExceptionalPrefixSets:
    def test_continuant_oracles(self):
        assert continuants([])[3] == 1
        assert continuants([2, 3])[3] == 7
        assert continuants([1] * 5)[3] == 8   # Fibonacci(6)

    def test_f_membership(self):
        assert in_F_set([1] * 50, 0.5, 50)          # golden growth is slow
        assert not in_F_set([3] * 50, 0.05, 50)     # ln((3+sqrt13)/2) ~ g

    def test_e_membership(self):
        assert in_E_set([1] * 20, 0.5, (1,), 20)
        digits = [2, 1, 1, 1, 1, 1, 2, 1, 1, 1, 4]
        assert not in_E_set(digits, 0.25, (2,), 10)
        assert in_E_set(digits, 0.15, (2,), 10)

    def test_antitone_in_epsilon(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            digits = rng.integers(1, 9, 64).tolist()
            for eps1, eps2 in ((0.1, 0.4), (0.2, 0.9)):
                if in_E_set(digits, eps2, (1,), 60):
                    assert in_E_set(digits, eps1, (1,), 60)
                if in_F_set(digits, eps2, 64):
                    assert in_F_set(digits, eps1, 64)

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            in_E_set([1, 2, 3], 0.5, (1, 2), 3)   # needs n + k - 1 = 4
        with pytest.raises(ValueError):
            in_F_set([1, 2], 0.5, 3)
        with pytest.raises(ValueError):
            in_E_set([1, 2, 3], 0.5, (1,), 0)
        with pytest.raises(ValueError):
            in_F_set([1, 2, 3], 0.5, 0)


class TestGaussDigitSampler:
    def test_first_digit_law_is_exact(self):
        sampler = GaussDigitSampler(1)
        for d in range(1, 21):
            assert float(sampler.prob_digit(d)[0]) == pytest.approx(
                gauss_measure((d,)), abs=1e-12)

    def test_conditional_law_after_one_digit(self):
        for a in (1, 3, 7):
            sampler = GaussDigitSampler(1)
            sampler.push(a)
            for d in range(1, 11):
                want = gauss_measure((a, d)) / gauss_measure((a,))
                assert float(sampler.prob_digit(d)[0]) == pytest.approx(
                    want, abs=1e-10)

    def test_tilted_step_weights_are_unbiased(self):
        n = 10 ** 5
        rng = np.random.default_rng(2)
        sampler = GaussDigitSampler(n)
        a, dlogw = sampler.step_tilted(0.8, 1, rng)
        assert a.min() >= 1
        w = np.exp(dlogw)
        sem = w.std(ddof=1) / math.sqrt(n)
        assert abs(w.mean() - 1.0) < 5 * sem
        wi = w * (a == 1)
        sem_i = wi.std(ddof=1) / math.sqrt(n)
        assert abs(wi.mean() - gauss_measure((1,))) < 5 * sem_i

    def test_sample_matrix_shape(self):
        rng = np.random.default_rng(0)
        mat = GaussDigitSampler(32).sample_matrix(12, rng)
        assert mat.shape == (32, 12)
        assert mat.min() >= 1

    def test_step_returns_the_digits_and_the_growth_push_returns(self):
        # step draws each row's digit by the inverse CDF and pushes it
        stepped, pushed = GaussDigitSampler(500), GaussDigitSampler(500)
        rng, twin = np.random.default_rng(6), np.random.default_rng(6)
        for _ in range(40):
            a, grow = stepped.step(rng)
            want = _digit_of(pushed._inverse(twin.random(pushed.n)))
            assert np.array_equal(a, want)
            assert np.array_equal(grow, pushed.push(want))

    def test_needs_rows(self):
        with pytest.raises(ValueError):
            GaussDigitSampler(0)

    def test_known_first_digits(self):
        # from the start state the inverse CDF is 2^u - 1
        sampler = GaussDigitSampler(2)
        assert _digit_of(sampler._inverse(np.array([0.9, 0.1]))).tolist() \
            == [1, 13]

    def test_digits_below_one_are_rejected(self):
        sampler = GaussDigitSampler(3)
        rng = np.random.default_rng(0)
        for d in (0, -2):
            with pytest.raises(ValueError, match="digits are >= 1"):
                sampler.prob_digit(d)
            with pytest.raises(ValueError, match="digits are >= 1"):
                sampler.step_tilted(0.5, d, rng)

    def test_tilted_step_evaluates_the_cdf_twice(self, monkeypatch):
        calls = []
        cdf = GaussDigitSampler._cdf

        def counting(self, t):
            calls.append(t)
            return cdf(self, t)

        monkeypatch.setattr(GaussDigitSampler, "_cdf", counting)
        GaussDigitSampler(4).step_tilted(0.5, 2, np.random.default_rng(0))
        assert len(calls) == 2

    def test_tilted_step_at_digit_one_evaluates_the_cdf_once(self, monkeypatch):
        # the CDF at 1/d = 1 is exactly 1.0, so only 1/(d+1) is evaluated
        calls = []
        cdf = GaussDigitSampler._cdf

        def counting(self, t):
            calls.append(t)
            return cdf(self, t)

        monkeypatch.setattr(GaussDigitSampler, "_cdf", counting)
        GaussDigitSampler(4).step_tilted(0.5, 1, np.random.default_rng(0))
        assert calls == [0.5]

    def test_cdf_at_one_is_exactly_one(self):
        sampler = GaussDigitSampler(1000)
        rng = np.random.default_rng(3)
        for _ in range(30):
            assert np.all(sampler._cdf(1.0) == 1.0)
            sampler.step(rng)
        sampler._set_state(np.array([0.25, 0.5]), np.array([0.25, 0.5]))
        assert sampler.any_deg and np.all(sampler._cdf(1.0) == 1.0)


def _two_branch(r, rho, t, u):
    """The tail law's CDF at t and inverse CDF at u for the state (r, rho),
    each row by its k = ln((1+r)/(1+rho)) formula or, where k is 0, by the
    one-parameter formula."""
    diff = r - rho
    k = np.log1p(diff / (1.0 + rho))
    with np.errstate(invalid="ignore", divide="ignore"):
        cdf = np.where(k == 0.0, t * (1.0 + rho) / (1.0 + rho * t),
                       np.log1p(diff * t / (1.0 + rho * t)) / k)
        em = np.expm1(u * k)
        inv = np.where(k == 0.0, u / (1.0 + rho - u * rho),
                       em / (diff - rho * em))
    return cdf, inv


class TestMergedState:
    """Once r == rho in every row the sampler keeps one parameter array and
    evaluates only the one-parameter formulas, with the same bits."""

    @staticmethod
    def _run(walk, n=10 ** 4, steps=60):
        sampler = GaussDigitSampler(n)
        rng = np.random.default_rng(17)
        for _ in range(steps):
            walk(sampler, rng)
        return sampler

    @pytest.mark.parametrize("walk", [
        lambda s, rng: s.step(rng),
        lambda s, rng: s.step_tilted(1.0, 1, rng),
        lambda s, rng: s.step_tilted(-1.0, 1, rng),
        lambda s, rng: s.step_tilted(1.0, 2, rng),
        lambda s, rng: s.step_tilted(-1.0, 2, rng),
    ], ids=["plain", "tilt+1-d1", "tilt-1-d1", "tilt+1-d2", "tilt-1-d2"])
    def test_chain_merges_within_sixty_steps(self, walk):
        sampler = self._run(walk)
        assert sampler.r is sampler.rho
        assert sampler.deg.all() and sampler.any_deg

    def test_merged_formulas_match_the_two_branch_ones(self):
        sampler = self._run(lambda s, rng: s.step(rng), n=2000)
        assert sampler.r is sampler.rho
        u = np.random.default_rng(5).random(sampler.n)
        for t in (1.0 / 2.0, 1.0 / 3.0, 0.123, u):
            cdf, inv = _two_branch(sampler.r, sampler.rho, t, u)
            assert np.array_equal(sampler._cdf(t), cdf)
            assert np.array_equal(sampler._inverse(u), inv)

    def test_one_unmerged_row_keeps_both_branches(self):
        merged = self._run(lambda s, rng: s.step(rng), n=2000)
        fresh = self._run(lambda s, rng: s.step(rng), n=2000, steps=3)
        r = merged.r.copy()
        rho = merged.rho.copy()
        r[7], rho[7] = fresh.r[7], fresh.rho[7]
        assert r[7] != rho[7]
        sampler = GaussDigitSampler(2000)
        sampler._set_state(r, rho)
        assert sampler.r is not sampler.rho
        assert sampler.any_deg and not sampler.deg.all()
        u = np.random.default_rng(6).random(sampler.n)
        for t in (1.0 / 2.0, 1.0 / 3.0, u):
            cdf, inv = _two_branch(r, rho, t, u)
            assert np.array_equal(sampler._cdf(t), cdf)
            assert np.array_equal(sampler._inverse(u), inv)
        sampler.push(np.full(sampler.n, 2))
        assert sampler.r is not sampler.rho


def _where_digit_of(y):
    """The digit map as np.where and np.clip wrote it."""
    with np.errstate(divide="ignore", over="ignore"):
        a = np.floor(1.0 / y)
    a = np.where(np.isfinite(a), a, 2.0 ** 62)
    return np.clip(a, 1.0, 2.0 ** 62).astype(np.int64)


def _where_tilted_step(r, rho, theta, d, u):
    """One tilted step by np.where selects on the pick mask, with a dummy
    uniform of 0.5 for the rows that emit d, on a chain state (r, rho) kept
    outside the sampler.  Returns (a, pick, p, q, dlogw) and the next
    state."""
    c_lo = _two_branch(r, rho, 1.0 / (d + 1.0), u)[0]
    c_hi = 1.0 if d == 1 else _two_branch(r, rho, 1.0 / d, u)[0]
    p = c_hi - c_lo
    et = math.exp(theta)
    q = p * et / (1.0 + p * (et - 1.0))
    pick = u < q
    u3 = (u - q) / (1.0 - q) * (1.0 - p)
    u3 = np.where(u3 < c_lo, u3, u3 + p)
    u3 = np.where(pick, 0.5, u3)
    a_other = _where_digit_of(_two_branch(r, rho, 0.5, u3)[1])
    a_other = np.where(a_other == d, d + 1, a_other)
    a = np.where(pick, d, a_other)
    dlogw = np.where(pick, np.log(p) - np.log(q),
                     np.log1p(-p) - np.log1p(-q))
    return (a, pick, p, q, dlogw), (1.0 / (a + r), 1.0 / (a + rho))


def _same_bits(x, y):
    x, y = np.asarray(x), np.asarray(y)
    return (x.dtype == y.dtype and x.shape == y.shape
            and np.array_equal(x, y) and x.tobytes() == y.tobytes())


class TestSelectFreeDraw:
    """The tilted draw's arithmetic selects against the np.where ones."""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("rows", [1, 7, 1500])
    @pytest.mark.parametrize("theta", [-1.1, 0.95, 20.0])
    @pytest.mark.parametrize("d", [1, 2, 5])
    def test_same_bits_as_the_where_draw(self, d, theta, rows):
        sampler = GaussDigitSampler(rows)
        r, rho = np.zeros(rows), np.ones(rows)
        rng, ref_rng = np.random.default_rng(41), np.random.default_rng(41)
        drawn = []
        draw = sampler.draw_tilted

        def keep(*args):
            drawn.append(draw(*args))
            return drawn[-1]

        sampler.draw_tilted = keep
        merged_at = None
        for step in range(120):
            a, dlogw = sampler.step_tilted(theta, d, rng)
            want, (r, rho) = _where_tilted_step(r, rho, theta, d,
                                                ref_rng.random(rows))
            got = drawn.pop() + (dlogw,)
            assert all(map(_same_bits, got, want)), step
            assert _same_bits(a, want[0])
            if merged_at is None and sampler.r is sampler.rho:
                merged_at = step
        # from the two-parameter start state to past the merge
        assert merged_at is not None and 0 < merged_at < 100

    @pytest.mark.parametrize("d", [1, 2, 5])
    def test_a_complement_draw_on_the_edge_of_d_gives_d_plus_one(
            self, d, monkeypatch):
        # a complement row whose inverse CDF lands on 1/d, the closed end of
        # d's interval (1/(d+1), 1/d], would read d: the guard moves it to
        # d + 1, so the rows that emit d are exactly the picked ones
        rows = 1000
        sampler = GaussDigitSampler(rows)
        edge = np.full(rows, 1.0 / d)
        assert (_digit_of(edge) == d).all()
        monkeypatch.setattr(sampler, "_inverse", lambda u: edge.copy())
        u = np.random.default_rng(5).random(rows)
        a, pick, _, _ = sampler.draw_tilted(math.exp(0.95), d, u)
        assert 0 < np.count_nonzero(pick) < rows
        assert (a[pick] == d).all() and (a[~pick] == d + 1).all()

    def test_digit_of_matches_the_clip_formula(self):
        y = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324,
                      2.0 ** -62, 2.0 ** -63, 1.0 / 3.0, 1.0, 2.0, -1.0])
        big = 2 ** 62
        assert _same_bits(_digit_of(y), _where_digit_of(y))
        assert _digit_of(y).tolist() == [big, big, 1, 1, big, big, big, big,
                                         3, 1, 1, 1]

    def test_per_row_tilt_factor(self):
        # each row's tilt factor acts on that row alone
        rows = 600
        u = np.random.default_rng(3).random(rows)
        et = np.repeat([math.exp(0.95), math.exp(-1.1)], rows // 2)
        both = GaussDigitSampler(rows).draw_tilted(et, 2, u)
        for half, theta in ((slice(0, 300), 0.95), (slice(300, 600), -1.1)):
            alone = GaussDigitSampler(rows // 2).draw_tilted(
                math.exp(theta), 2, u[half])
            assert all(_same_bits(x[half], y) for x, y in zip(both, alone))

    @pytest.mark.parametrize("d", [1, 2])
    def test_lockstep_pilots_match_separate_ones(self, d):
        mu = gauss_measure((d,))
        targets = (1.5 * mu, 0.5 * mu)
        seeds = np.random.SeedSequence(8).spawn(2)
        alone = tuple(_tune_theta(d, (t,), (seed,))[0]
                      for t, seed in zip(targets, seeds))
        assert _tune_theta(d, targets, seeds) == alone


class TestEstimateMeasure:
    def test_first_digit_measure(self):
        est = estimate_measure(lambda digits: digits[:, 0] == 1,
                               depth=5, n_samples=10 ** 5, seed=6)
        assert abs(est.estimate - gauss_measure((1,))) < 4 * est.stderr
        assert est.hits == round(est.estimate * est.n_samples)

    def test_two_digit_cylinder(self):
        def pred(digits):
            return (digits[:, 0] == 1) & (digits[:, 1] == 2)
        est = estimate_measure(pred, depth=3, n_samples=10 ** 5, seed=12)
        assert abs(est.estimate - gauss_measure((1, 2))) < 4 * est.stderr

    def test_certain_event(self):
        est = estimate_measure(lambda digits: digits[:, 0] >= 1,
                               depth=2, n_samples=2000, seed=0)
        assert (est.estimate, est.stderr) == (1.0, 0.0)

    def test_deterministic_given_seed(self):
        pred = lambda digits: digits[:, 0] == 2
        a = estimate_measure(pred, depth=4, n_samples=5000, seed=77)
        b = estimate_measure(pred, depth=4, n_samples=5000, seed=77)
        assert a == b

    def test_deep_prefix(self):
        pred = lambda digits: digits[:, 0] == 1
        est = estimate_measure(pred, depth=41, n_samples=2000, seed=1)
        assert est.n_samples == 2000

    def test_argument_validation(self):
        pred = lambda digits: digits[:, 0] == 1
        with pytest.raises(ValueError):
            estimate_measure(pred, depth=5, n_samples=999)
        with pytest.raises(ValueError):
            estimate_measure(pred, depth=0, n_samples=2000)
        with pytest.raises(ValueError):
            estimate_measure(lambda digits: digits == 1, depth=5,
                             n_samples=2000)


def test_mc_growth_rate_domain():
    for depth in (0, -5):
        with pytest.raises(ValueError, match="depth must be >= 1"):
            mc_growth_rate(depth, 1000)
    for n_samples in (1, 0):
        with pytest.raises(ValueError):
            mc_growth_rate(10, n_samples)


def test_growth_run_peak_memory():
    # numpy's traced peak repeats exactly, where the process's RSS peak
    # moved by 3 MB between runs; the parent of the in-place chain formulas
    # read 10.13 float64 arrays of n, this code 9.13
    n = 4 * 10 ** 5
    tracemalloc.start()
    try:
        mc_growth_rate(100, n, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 9.5 * 8 * n


def test_mc_growth_rate(growth_mc):
    assert growth_mc.depth == 100
    assert growth_mc.n_samples == 10 ** 4
    assert abs(growth_mc.mean - KHINCHIN_LEVY) < 0.02
    assert 0.0 < growth_mc.stderr < 0.005
    again = mc_growth_rate(depth=30, n_samples=2000, seed=3)
    assert again == mc_growth_rate(depth=30, n_samples=2000, seed=3)


class TestEFDecay:
    def test_small_run_decays(self):
        report = ef_decay_estimates(checkpoints=(20, 60), n_samples=2000,
                                    seed=1)
        assert [row.n for row in report.rows_e] == [20, 60]
        assert [row.n for row in report.rows_f] == [20, 60]
        e20, e60 = report.rows_e
        assert e20.estimate > e60.estimate > 0.0
        assert math.isclose(math.log(e20.estimate), e20.log_estimate)
        f20, f60 = report.rows_f
        assert f20.estimate > f60.estimate > 0.0
        assert f20.hits == round(f20.estimate * 2000)
        doc = report.to_json_dict()
        assert set(doc) == {"params", "rows_e", "rows_f"}
        assert doc["params"]["method_e"] == "tilted-importance"

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            ef_decay_estimates(s=(1, 2), n_samples=2000)
        with pytest.raises(ValueError):
            ef_decay_estimates(n_samples=500)
        with pytest.raises(ValueError):
            ef_decay_estimates(checkpoints=(0, 10), n_samples=2000)
        with pytest.raises(ValueError):
            ef_decay_estimates(checkpoints=(), n_samples=2000)
        for threads in (0, -3):
            with pytest.raises(ValueError, match="threads must be >= 1"):
                ef_decay_estimates(checkpoints=(10, 20), n_samples=1000,
                                   threads=threads)
        for name in ("eps_e", "eps_f"):
            for eps in (-0.2, -1.0, 0.0, math.nan, math.inf):
                with pytest.raises(ValueError, match=name):
                    ef_decay_estimates(checkpoints=(10, 20), n_samples=1000,
                                       **{name: eps})


class TestPinnedOutputs:
    """Exact outputs recorded from the earlier, separate implementations of
    the log-growth loop, the Gamma window counter and the sampling block.
    They pin bits, not statistics: a refactor must reproduce them with ==."""

    def test_mc_growth_rate(self):
        est = mc_growth_rate(50, 3000, seed=3)
        assert (est.mean, est.stderr) == (1.1840401942191074,
                                          0.0023827105194981738)

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_ef_decay_report(self, threads):
        # threads > 1 runs the three passes in worker processes
        doc = ef_decay_estimates(checkpoints=(10, 50), n_samples=2000,
                                 seed=4, threads=threads).to_json_dict()
        assert (doc["params"]["theta_hi"], doc["params"]["theta_lo"]) == (
            0.9044956699511251, -1.0621401940435613)
        assert doc["rows_e"] == [
            {"N": 10, "estimate": 0.18091266856628718,
             "log_estimate": -1.7097408582629596,
             "rel_stderr": 0.01842658746406167},
            {"N": 50, "estimate": 0.0010886201391622835,
             "log_estimate": -6.822844312078084,
             "rel_stderr": 0.028278239721774696}]
        assert doc["rows_f"] == [
            {"N": 10, "estimate": 0.7365, "stderr": 0.009850577394244461,
             "hits": 1473},
            {"N": 50, "estimate": 0.4395, "stderr": 0.011098192420389907,
             "hits": 879}]

    def test_ef_decay_report_digit_two(self):
        # d = 2 reads the CDF at 1/2 and 1/3, where d = 1 reads it at 1
        doc = ef_decay_estimates(checkpoints=(10, 50), n_samples=2000,
                                 seed=4, s=(2,)).to_json_dict()
        assert (doc["params"]["theta_hi"], doc["params"]["theta_lo"]) == (
            0.5146173081230623, -0.785662196770797)
        assert doc["rows_e"] == [
            {"N": 10, "estimate": 0.39216043915865983,
             "log_estimate": -0.9360842393573379,
             "rel_stderr": 0.01860652993598436},
            {"N": 50, "estimate": 0.1319890012112013,
             "log_estimate": -2.0250366840249825,
             "rel_stderr": 0.020339951255937617}]
        assert [row["hits"] for row in doc["rows_f"]] == [1473, 879]

    def test_estimate_measure_across_a_block(self):
        # 70000 samples take two blocks of rows
        pred = lambda digits: (digits[:, :3] == 1).all(axis=1)
        shallow = estimate_measure(pred, 5, 70000, seed=2)
        deep = estimate_measure(pred, 50, 70000, seed=2)
        assert (shallow.hits, shallow.stderr) == (4137, 0.0008912847067976813)
        assert (deep.hits, deep.stderr) == (4181, 0.0008957125589932255)

    # The next three run well past the depth at which every row's chain
    # state has merged (r == rho); their values come from the two-branch
    # CDF evaluated on every row.

    def test_mc_growth_rate_past_the_merge(self):
        est = mc_growth_rate(200, 2000, seed=11)
        assert (est.mean, est.stderr) == (1.1842016419146122,
                                          0.0014760489009831195)

    def test_estimate_measure_past_the_merge(self):
        est = estimate_measure(lambda digits: digits[:, 59] == 1, 60, 5000,
                               seed=5)
        assert (est.hits, est.stderr) == (2097, 0.0069785906886705995)

    def test_ef_decay_report_past_the_merge(self):
        doc = ef_decay_estimates(checkpoints=(10, 100), n_samples=2000,
                                 seed=4, s=(3,)).to_json_dict()
        assert (doc["params"]["theta_hi"], doc["params"]["theta_lo"]) == (
            0.45899111506617407, -0.7419646987090293)
        assert doc["rows_e"] == [
            {"N": 10, "estimate": 0.6043155318439597,
             "log_estimate": -0.5036588137374742,
             "rel_stderr": 0.015446323622312767},
            {"N": 100, "estimate": 0.11517095636267147,
             "log_estimate": -2.161337677414018,
             "rel_stderr": 0.022764171713680777}]
        assert doc["rows_f"] == [
            {"N": 10, "estimate": 0.7365, "stderr": 0.009850577394244461,
             "hits": 1473},
            {"N": 100, "estimate": 0.276, "stderr": 0.009995599031573845,
             "hits": 552}]

    def test_pilots_draw_without_weights(self, monkeypatch):
        # the theta_hi of test_ef_decay_report, tuned without step_tilted
        def refuse(*args, **kwargs):
            raise AssertionError("a pilot computed importance weights")
        monkeypatch.setattr(GaussDigitSampler, "step_tilted", refuse)
        seed = np.random.SeedSequence(4).spawn(5)[0]
        assert _tune_theta(1, (1.5 * gauss_measure((1,)),), (seed,)) \
            == (0.9044956699511251,)

    def test_gamma_census(self):
        short = gamma_census(GammaParams(m=2000, delta=0.05, eta=0.2, s=(1,)),
                             Convention.SHORT)
        long = gamma_census(GammaParams(m=2000, delta=0.1, eta=0.2, s=(1, 2)),
                            Convention.LONG)
        assert (short.total, short.members) == (1216587, 1153827)
        assert (long.total, long.members) == (1216587, 987227)

    def test_gamma_census_pattern_longer_than_n(self):
        # s has five digits and n = 4: no window fits in the prefix
        g = gamma_census(GammaParams(1000, 0.1, 0.1, (1, 1, 1, 1, 1)),
                         Convention.SHORT)
        assert (g.total, g.members) == (304191, 260274)
