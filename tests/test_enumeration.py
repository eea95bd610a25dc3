"""Ordered enumeration of the rational families and their exact counts."""

import itertools
import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cfnormal import enumeration, sieves
from cfnormal.core import Rational
from cfnormal.enumeration import (SequenceKind, check_indices, count_R,
                                  enumerate_R, index_of, iter_members, members_at,
                                  members_block, rational_at)
from cfnormal.errors import ResourceLimitError
from cfnormal.sieves import get_tables

all_kinds = st.sampled_from(list(SequenceKind))


def test_kind_aliases():
    assert SequenceKind.from_string("prime-prime") is SequenceKind.TYPE3
    assert SequenceKind.from_string("AKS-DUP") is SequenceKind.ALL_WITH_DUPLICATES
    assert SequenceKind.from_string("lowest-terms") is SequenceKind.ALL_LOWEST_TERMS
    with pytest.raises(ValueError):
        SequenceKind.from_string("type4")


def test_first_members_oracles():
    first = lambda kind, n: list(itertools.islice(iter_members(kind), n))
    assert first(SequenceKind.ALL_WITH_DUPLICATES, 6) == [
        (1, 2), (1, 3), (2, 3), (1, 4), (2, 4), (3, 4)]
    assert first(SequenceKind.ALL_LOWEST_TERMS, 6) == [
        Rational(1, 2), Rational(1, 3), Rational(2, 3),
        Rational(1, 4), Rational(3, 4), Rational(1, 5)]
    assert first(SequenceKind.SQUAREFREE_BOTH, 6) == [
        Rational(1, 2), Rational(1, 3), Rational(2, 3),
        Rational(1, 5), Rational(2, 5), Rational(3, 5)]
    assert first(SequenceKind.TYPE1, 8) == [
        Rational(1, 2), Rational(1, 3), Rational(2, 3), Rational(1, 5),
        Rational(2, 5), Rational(3, 5), Rational(4, 5), Rational(1, 7)]
    assert first(SequenceKind.TYPE2, 6) == [
        Rational(2, 3), Rational(3, 4), Rational(2, 5),
        Rational(3, 5), Rational(5, 6), Rational(2, 7)]
    assert first(SequenceKind.TYPE3, 6) == [
        Rational(2, 3), Rational(2, 5), Rational(3, 5),
        Rational(2, 7), Rational(3, 7), Rational(5, 7)]


def _brute_members(kind, m):
    primes = {n for n in range(2, m + 1)
              if all(n % p for p in range(2, math.isqrt(n) + 1))}
    squarefree = {n for n in range(1, m + 1)
                  if all(n % (p * p) for p in range(2, math.isqrt(n) + 1))}
    if kind is SequenceKind.ALL_WITH_DUPLICATES:
        return [(num, den) for den in range(2, m + 1) for num in range(1, den)]
    keep = {
        SequenceKind.ALL_LOWEST_TERMS: lambda num, den: True,
        SequenceKind.SQUAREFREE_BOTH:
            lambda num, den: num in squarefree and den in squarefree,
        SequenceKind.TYPE1: lambda num, den: den in primes,
        SequenceKind.TYPE2: lambda num, den: num in primes,
        SequenceKind.TYPE3: lambda num, den: num in primes and den in primes,
    }[kind]
    return [Rational(num, den) for den in range(2, m + 1) for num in range(1, den)
            if math.gcd(num, den) == 1 and keep(num, den)]


@pytest.mark.parametrize("kind", list(SequenceKind))
@pytest.mark.parametrize("m", [2, 5, 23, 100, 400, 1000])
def test_enumerate_matches_brute_force(kind, m):
    assert list(enumerate_R(kind, m)) == _brute_members(kind, m)


@pytest.mark.parametrize("kind", list(SequenceKind))
def test_rows_run_past_denominator_65536(kind):
    # one row per denominator, so the view cannot stall at any denominator
    dens = range(65534, 65539)
    rows = list(enumeration._rows(kind, dens))
    assert len(rows) == count_R(kind, 65538) - count_R(kind, 65533)
    got = [r if isinstance(r, tuple) else (r.num, r.den) for r in rows]
    assert sorted({d for _, d in got}) == [
        d for d in dens if count_R(kind, d) > count_R(kind, d - 1)]
    assert got == sorted(got, key=lambda pair: (pair[1], pair[0]))
    head = list(itertools.islice(iter_members(kind), 5))
    assert head == _brute_members(kind, 12)[:5]


@pytest.mark.parametrize("kind", list(SequenceKind))
@pytest.mark.parametrize("m", [1, 2, 5, 23, 100, 400])
def test_count_matches_enumeration(kind, m):
    assert count_R(kind, m) == sum(1 for _ in enumerate_R(kind, m))


def test_count_closed_forms():
    assert count_R(SequenceKind.TYPE3, 7) == 6
    assert count_R(SequenceKind.ALL_WITH_DUPLICATES, 10) == 45
    assert count_R(SequenceKind.ALL_LOWEST_TERMS, 5) == 9


@given(all_kinds, st.integers(1, 4000))
@settings(max_examples=60)
def test_rational_at_index_of_round_trip(kind, i):
    member = rational_at(kind, i)
    assert index_of(kind, member) == i


def test_index_of_rejects_non_members():
    with pytest.raises(ValueError):
        index_of(SequenceKind.TYPE3, Rational(1, 4))
    with pytest.raises(ValueError):
        index_of(SequenceKind.SQUAREFREE_BOTH, Rational(1, 4))
    with pytest.raises(ValueError):
        rational_at(SequenceKind.ALL_LOWEST_TERMS, 0)


def test_ordering_is_by_denominator_then_numerator():
    prev = (0, 0)
    for r in enumerate_R(SequenceKind.ALL_LOWEST_TERMS, 60):
        key = (r.den, r.num)
        assert key > prev
        prev = key


@pytest.mark.parametrize("kind", list(SequenceKind))
def test_members_block_agrees_with_enumerate(kind):
    # one block over many denominators equals their single-denominator rows
    num, den = members_block(kind, 2, 151)
    flat = [(int(a), int(b)) for a, b in zip(num, den)]
    want = [(r[0], r[1]) if isinstance(r, tuple) else (r.num, r.den)
            for r in enumerate_R(kind, 150)]
    assert flat == want
    lo_num, lo_den = members_block(kind, 50, 151)
    assert len(lo_num) == len([1 for _, d in flat if d >= 50])


def test_members_block_empty_ranges():
    num, den = members_block(SequenceKind.TYPE1, 24, 29)   # no primes in 24..28
    assert len(num) == 0 and len(den) == 0
    num, den = members_block(SequenceKind.ALL_LOWEST_TERMS, 10, 10)
    assert len(num) == 0


@pytest.mark.parametrize("kind", list(SequenceKind))
@pytest.mark.parametrize("d_lo,d_hi", [
    (2, 300),           # from the first denominator
    (101, 160),         # odd d_lo
    (2310, 2400),       # even d_lo, 2310 = 2*3*5*7*11
    (24, 29),           # no prime in 24..28
    (40, 40),           # empty range
    (97, 98),           # one prime denominator
    (96, 97),           # one composite denominator
    (0, 3),             # below 2: only d = 2
])
def test_members_block_half_is_the_filtered_full_block(kind, d_lo, d_hi):
    num, den = members_block(kind, d_lo, d_hi)
    keep = 2 * num <= den
    half_num, half_den = members_block(kind, d_lo, d_hi, half=True)
    assert half_num.dtype == half_den.dtype == np.int64
    assert np.array_equal(half_num, num[keep])
    assert np.array_equal(half_den, den[keep])


def _gcd_rule(kind, d_lo, d_hi):
    """Members by a pairwise rule: every raw pair (num, den) of the block,
    filtered by np.gcd and the kind's tables."""
    dens = np.arange(max(d_lo, 2), d_hi, dtype=np.int64)
    den = np.repeat(dens, dens - 1)
    num = np.concatenate([np.arange(1, d, dtype=np.int64) for d in dens]
                         + [np.empty(0, dtype=np.int64)])
    tables = get_tables(max(d_hi, 2))
    isp, sf = tables.is_prime, tables.is_squarefree
    coprime = np.gcd(num, den) == 1
    keep = {
        SequenceKind.ALL_WITH_DUPLICATES: np.ones(len(num), dtype=bool),
        SequenceKind.ALL_LOWEST_TERMS: coprime,
        SequenceKind.SQUAREFREE_BOTH: coprime & sf[num] & sf[den],
        SequenceKind.TYPE1: isp[den],
        SequenceKind.TYPE2: coprime & isp[num],
        SequenceKind.TYPE3: isp[num] & isp[den],
    }[kind]
    return num[keep], den[keep]


ALL, SF, T2 = (SequenceKind.ALL_LOWEST_TERMS, SequenceKind.SQUAREFREE_BOTH,
               SequenceKind.TYPE2)


@settings(max_examples=120, deadline=None)
@given(kind=all_kinds, d_lo=st.integers(0, 5000), width=st.integers(0, 60))
@example(kind=ALL, d_lo=7919, width=1)      # prime
@example(kind=ALL, d_lo=4096, width=1)      # 2^12
@example(kind=ALL, d_lo=2187, width=1)      # 3^7
@example(kind=SF, d_lo=7919, width=1)
@example(kind=T2, d_lo=4096, width=1)
@example(kind=ALL, d_lo=30030, width=1)     # 2*3*5*7*11*13
@example(kind=SF, d_lo=30030, width=1)
@example(kind=T2, d_lo=30030, width=1)
@example(kind=ALL, d_lo=510510, width=1)    # 2*3*5*7*11*13*17
@example(kind=SF, d_lo=510510, width=1)
@example(kind=T2, d_lo=510510, width=1)
@example(kind=ALL, d_lo=30028, width=5)
@example(kind=T2, d_lo=0, width=5)          # d = 2 has no prime numerator
@example(kind=SequenceKind.TYPE3, d_lo=2, width=1)
def test_members_block_matches_the_pairwise_rule(kind, d_lo, width):
    num, den = members_block(kind, d_lo, d_lo + width)
    want_num, want_den = _gcd_rule(kind, d_lo, d_lo + width)
    assert num.dtype == den.dtype == np.int64
    assert np.array_equal(num, want_num)
    assert np.array_equal(den, want_den)


def _pick(kind, num, den):
    return (int(num), int(den)) if kind is SequenceKind.ALL_WITH_DUPLICATES \
        else Rational(int(num), int(den))


@pytest.mark.parametrize("kind", list(SequenceKind))
@pytest.mark.parametrize("m", [1000, 3000])
def test_count_matches_members_block(kind, m):
    assert count_R(kind, m) == len(members_block(kind, 2, m + 1)[0])


def test_count_exact_values_at_scale():
    assert count_R(SequenceKind.TYPE2, 10 ** 6) == 40944822767
    assert count_R(SequenceKind.SQUAREFREE_BOTH, 200_000) == 5734572545


PRIME_KINDS = (SequenceKind.TYPE1, SequenceKind.TYPE2, SequenceKind.TYPE3)


@pytest.mark.parametrize("kind", PRIME_KINDS + (SF,))
def test_prime_kind_counts_match_the_cumulative_tables(kind):
    cum = enumeration._cumulative(kind, 3000)
    assert [count_R(kind, m) for m in range(1, 3001)] == cum[1:3001].tolist()


REDUCED_KINDS = [k for k in SequenceKind
                 if k is not SequenceKind.ALL_WITH_DUPLICATES]


def test_kind_sets_describe_every_kind():
    assert set(enumeration.KIND_SETS) == set(SequenceKind)
    masks = {None, "is_prime", "is_squarefree"}
    for den_set, num_set in enumeration.KIND_SETS.values():
        assert den_set in masks and num_set in masks


@pytest.mark.parametrize("kind", REDUCED_KINDS)
@pytest.mark.parametrize("limit", [1024, 2025, 3000])
def test_per_den_counts_match_members_block(kind, limit):
    # the tables' floor, a square, and a limit that is not one
    counts = enumeration._per_den_counts(kind, sieves.build_tables(limit))
    _, den = members_block(kind, 2, limit + 1)
    assert counts.dtype == np.int64
    assert counts.tolist() == np.bincount(den, minlength=limit + 1).tolist()


@pytest.mark.parametrize("kind", [SequenceKind.ALL_WITH_DUPLICATES, ALL])
def test_rows_without_a_mask_build_no_tables(kind, monkeypatch):
    count = count_R(kind, 3000)

    def refuse(limit):
        raise AssertionError("tables built")
    monkeypatch.setattr(sieves, "build_tables", refuse)
    monkeypatch.setattr(sieves, "get_tables", refuse)
    monkeypatch.setattr(enumeration, "get_tables", refuse)
    num, den = members_block(kind, 2, 3001)
    assert len(num) == count
    half = members_block(kind, 2, 3001, half=True)[0]
    assert len(half) == np.count_nonzero(2 * num <= den)


def test_cumulative_follows_the_tables(monkeypatch):
    monkeypatch.setattr(sieves, "_CACHED", None)
    monkeypatch.setattr(enumeration, "_CUMULATIVE", {})
    assert len(enumeration._cumulative(SF, 100)) == 1025
    get_tables(3000)
    cum = enumeration._cumulative(SF, 100)
    assert len(cum) == get_tables(1).limit + 1
    assert int(cum[3000]) == count_R(SF, 3000)


def test_prime_kind_counts_build_no_tables(monkeypatch):
    def refuse(limit):
        raise AssertionError("build_tables called")
    monkeypatch.setattr(sieves, "_CACHED", None)
    monkeypatch.setattr(sieves, "build_tables", refuse)
    assert count_R(SequenceKind.TYPE2, 10 ** 6) == 40944822767


@pytest.mark.parametrize("m,count", [(2, 1), (3, 3), (10, 16), (1000, 143028),
                                     (65536, 615824669),
                                     (200_000, 5734572545)])
def test_squarefree_count_builds_no_tables(m, count, monkeypatch):
    # only the Moebius sieve: test_prime_kind_counts_match_the_cumulative_
    # tables holds it to the per-denominator table for every m <= 3000
    def refuse(limit):
        raise AssertionError("tables built")
    monkeypatch.setattr(sieves, "build_tables", refuse)
    monkeypatch.setattr(sieves, "get_tables", refuse)
    monkeypatch.setattr(enumeration, "get_tables", refuse)
    assert count_R(SF, m) == count


@pytest.mark.parametrize("kind", list(SequenceKind))
@pytest.mark.parametrize("cap", [enumeration.BLOCK_PAIR_CAP, 40_000, 1_500])
def test_index_path_agrees_with_members_block(kind, cap, monkeypatch):
    # members_at builds its rows in groups of at most BLOCK_PAIR_CAP
    # candidates; 40_000 split the picks' rows into several groups; at 1_500
    # every row above denominator 1501 is longer than a group and sits alone
    monkeypatch.setattr(enumeration, "BLOCK_PAIR_CAP", cap)
    groups = []
    member_rows = enumeration._member_rows

    def recording(kind, dens, half=False):
        groups.append(dens.tolist())
        return member_rows(kind, dens, half)
    monkeypatch.setattr(enumeration, "_member_rows", recording)
    num, den = members_block(kind, 2, 2001)
    top = count_R(kind, 2000)
    assert top == len(num)

    def refuse(*args):
        raise AssertionError("the index path called count_R")
    monkeypatch.setattr(enumeration, "count_R", refuse)
    rng = np.random.default_rng(20260518)
    picks = np.concatenate([[1, 2, top - 1, top],
                            rng.integers(1, top, size=200, endpoint=True)])
    for i in picks.tolist():
        member = _pick(kind, num[i - 1], den[i - 1])
        assert rational_at(kind, i) == member
        assert index_of(kind, member) == i
    groups.clear()
    got_num, got_den = members_at(kind, picks.tolist())
    assert np.array_equal(got_num, num[picks - 1])
    assert np.array_equal(got_den, den[picks - 1])
    if kind is not SequenceKind.ALL_WITH_DUPLICATES:
        assert [d for g in groups for d in g] == sorted(set(den[picks - 1]))
        if cap <= 40_000:
            assert len(groups) >= 3
        if cap == 1_500:
            assert [int(den[top - 1])] in groups
    # repeated and unsorted indices, the last rows' members among them
    mixed = np.concatenate([picks[::-1], picks[:50], [top, top, 1, top - 1]])
    got_num, got_den = members_at(kind, mixed.tolist())
    assert np.array_equal(got_num, num[mixed - 1])
    assert np.array_equal(got_den, den[mixed - 1])


def test_round_trip_at_a_billion():
    member = rational_at(SequenceKind.ALL_LOWEST_TERMS, 10 ** 9)
    assert index_of(SequenceKind.ALL_LOWEST_TERMS, member) == 10 ** 9
    assert count_R(SequenceKind.ALL_LOWEST_TERMS, member.den - 1) < 10 ** 9 \
        <= count_R(SequenceKind.ALL_LOWEST_TERMS, member.den)


def test_unreachable_index_is_refused_before_any_sieve():
    far = 10 ** 17
    start = time.perf_counter()
    for kind in SequenceKind:
        if kind is SequenceKind.ALL_WITH_DUPLICATES:
            continue
        with pytest.raises(ResourceLimitError):
            rational_at(kind, far)
        with pytest.raises(ResourceLimitError):
            members_at(kind, [1, far])
    assert time.perf_counter() - start < 1.0
    # aks-dup needs no tables, so any index resolves in closed form
    num, den = rational_at(SequenceKind.ALL_WITH_DUPLICATES, far)
    assert index_of(SequenceKind.ALL_WITH_DUPLICATES, (num, den)) == far


@pytest.mark.parametrize("kind", list(SequenceKind))
def test_check_indices_refuses_what_members_at_refuses(kind):
    far = 10 ** 17
    bad = [[0, 1], [3, -2]]
    if kind is not SequenceKind.ALL_WITH_DUPLICATES:
        bad.append([5, far])
    for indices in bad:
        with pytest.raises(Exception) as checked:
            check_indices(kind, indices)
        with pytest.raises(type(checked.value), match=str(checked.value)):
            members_at(kind, indices)
    for indices in ([], [1, 2, 3], [2 * 10 ** 15]):
        check_indices(kind, indices)
    if kind is SequenceKind.ALL_WITH_DUPLICATES:
        check_indices(kind, [far])


#: a sieve limit small enough that building past it would show in a
#: tracemalloc peak; PAST is a prime, so 2/PAST is a member of every kind
GUARD_LIMIT = 10 ** 6
PAST = GUARD_LIMIT + 3
#: an index whose denominator bound sqrt(2i) passes GUARD_LIMIT
PAST_INDEX = GUARD_LIMIT ** 2 // 2 + 1


def _sized_calls():
    """Every call that sizes a sieve, a table or a member row from its
    argument, with an argument past GUARD_LIMIT."""
    for fn in (sieves.prime_sieve, sieves.mobius_sieve, sieves.build_tables):
        yield pytest.param(fn, (PAST,), id=fn.__name__)
    for kind in SequenceKind:
        yield pytest.param(members_block, (kind, PAST, PAST + 1),
                           id=f"members_block-{kind.value}")
    for kind in REDUCED_KINDS:
        yield pytest.param(count_R, (kind, PAST), id=f"count_R-{kind.value}")
        yield pytest.param(members_at, (kind, [PAST_INDEX]),
                           id=f"members_at-{kind.value}")
        yield pytest.param(rational_at, (kind, PAST_INDEX),
                           id=f"rational_at-{kind.value}")
        yield pytest.param(index_of, (kind, Rational(2, PAST)),
                           id=f"index_of-{kind.value}")


@pytest.mark.parametrize("fn, args", list(_sized_calls()))
def test_past_the_sieve_limit_is_refused_before_allocating(fn, args,
                                                           monkeypatch):
    monkeypatch.setattr(sieves, "SIEVE_LIMIT_MAX", GUARD_LIMIT)
    monkeypatch.setattr(enumeration, "SIEVE_LIMIT_MAX", GUARD_LIMIT)
    monkeypatch.setattr(sieves, "_CACHED", None)
    monkeypatch.setattr(enumeration, "_CUMULATIVE", {})
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError):
            fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 ** 6, f"{peak / 1e6:.1f} MB traced before the refusal"


@given(st.integers(1, 10 ** 30))
@example(1)
@example(3)                                 # last of den 3
@example(4)                                 # first of den 4
@example(10 ** 15 * (10 ** 15 - 1) // 2)    # last of den 10^15 + 1
@example(10 ** 15 * (10 ** 15 - 1) // 2 + 1)
@example(10 ** 30)
def test_aks_dup_closed_form_round_trip(i):
    kind = SequenceKind.ALL_WITH_DUPLICATES
    num, den = members_at(kind, [i])
    assert index_of(kind, (int(num[0]), int(den[0]))) == i


def test_members_at_edges():
    num, den = members_at(SequenceKind.ALL_LOWEST_TERMS, [])
    assert len(num) == 0 and len(den) == 0
    with pytest.raises(ValueError):
        members_at(SequenceKind.TYPE2, [3, 0])
    num, den = members_at(SequenceKind.ALL_WITH_DUPLICATES, [1, 3, 1])
    assert num.tolist() == [1, 2, 1] and den.tolist() == [2, 3, 2]
