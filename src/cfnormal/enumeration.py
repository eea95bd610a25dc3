"""Ordered enumeration of the rational sequences whose expansions get concatenated.

Every kind orders its members by ascending denominator, then ascending
numerator, and indices are 1-based.  ALL_WITH_DUPLICATES ranges over raw
pairs (num, den) with 1 <= num < den, so the same value can appear many
times; every other kind ranges over rationals in lowest terms.
"""

from __future__ import annotations

import enum
import itertools
import math
from typing import Iterable, Iterator, Optional, Sequence, Union

import numpy as np

from .core import Rational
from .errors import ResourceLimitError
from .sieves import (SIEVE_LIMIT_MAX, ArithTables, check_sieve_limit,
                     factorize_distinct, get_tables, mobius_sieve,
                     prime_sieve)

Member = Union[Rational, tuple[int, int]]


class SequenceKind(enum.Enum):
    ALL_WITH_DUPLICATES = "aks-dup"
    ALL_LOWEST_TERMS = "all"
    SQUAREFREE_BOTH = "squarefree"
    TYPE1 = "type1"
    TYPE2 = "type2"
    TYPE3 = "type3"

    @classmethod
    def from_string(cls, text: str) -> "SequenceKind":
        key = text.strip().lower()
        if key in _KIND_ALIASES:
            return _KIND_ALIASES[key]
        raise ValueError(
            f"unknown sequence kind {text!r}; choose from "
            f"{sorted(set(_KIND_ALIASES))}")


_KIND_ALIASES: dict[str, SequenceKind] = {
    "aks-dup": SequenceKind.ALL_WITH_DUPLICATES,
    "all-with-duplicates": SequenceKind.ALL_WITH_DUPLICATES,
    "all": SequenceKind.ALL_LOWEST_TERMS,
    "lowest-terms": SequenceKind.ALL_LOWEST_TERMS,
    "squarefree": SequenceKind.SQUAREFREE_BOTH,
    "squarefree-both": SequenceKind.SQUAREFREE_BOTH,
    "type1": SequenceKind.TYPE1,
    "nat-prime": SequenceKind.TYPE1,
    "type2": SequenceKind.TYPE2,
    "prime-nat": SequenceKind.TYPE2,
    "type3": SequenceKind.TYPE3,
    "prime-prime": SequenceKind.TYPE3,
}


#: each kind's members are the n/d, 0 < n < d, with d in a denominator set
#: and n in a numerator set, named here by the ArithTables mask that tells
#: the set's members, or None for every integer; every kind but aks-dup
#: keeps lowest terms only
KIND_SETS: dict[SequenceKind, tuple[Optional[str], Optional[str]]] = {
    SequenceKind.ALL_WITH_DUPLICATES: (None, None),
    SequenceKind.ALL_LOWEST_TERMS: (None, None),
    SequenceKind.SQUAREFREE_BOTH: ("is_squarefree", "is_squarefree"),
    SequenceKind.TYPE1: ("is_prime", None),
    SequenceKind.TYPE2: (None, "is_prime"),
    SequenceKind.TYPE3: ("is_prime", "is_prime"),
}


def _wrap(kind: SequenceKind, num: int, den: int) -> Member:
    if kind is SequenceKind.ALL_WITH_DUPLICATES:
        return (num, den)
    return Rational(num, den)


def _rows(kind: SequenceKind, dens: Iterable[int]) -> Iterator[Member]:
    """Members in order, read one members_block row per denominator."""
    for den in dens:
        for num in members_block(kind, den, den + 1)[0].tolist():
            yield _wrap(kind, num, den)


def iter_members(kind: SequenceKind) -> Iterator[Member]:
    """Infinite ordered enumeration of the kind's members."""
    return _rows(kind, itertools.count(2))


def enumerate_R(kind: SequenceKind, m: int) -> Iterator[Member]:
    """Members with denominator at most m, in order."""
    if m < 1:
        raise ValueError("m must be >= 1")
    yield from _rows(kind, range(2, m + 1))


def _per_den_counts(kind: SequenceKind, tables: ArithTables) -> np.ndarray:
    """Members with denominator d, for d = 0..tables.limit, of a reduced
    kind: the numerators n < d prime to d in its numerator set, zeroed
    outside its denominator set."""
    den_set, num_set = KIND_SETS[kind]
    if num_set is None:
        counts = tables.phi.astype(np.int64)
    elif num_set == "is_prime":  # the primes up to d that do not divide it
        counts = np.cumsum(tables.is_prime, dtype=np.int64) - tables.omega
    else:
        counts = _squarefree_counts(tables)
    counts[:2] = 0
    if den_set:
        counts[~getattr(tables, den_set)] = 0
    return counts


def _squarefree_counts(tables: ArithTables) -> np.ndarray:
    """Squarefree numerators n < d prime to d, for d = 0..tables.limit.

    By inclusion-exclusion over e | d, c(d) = sum_{e|d} mu(e) T(e, d-1),
    with T(e, x) the squarefree multiples of e up to x.  Each e <= sqrt(m)
    takes one cumsum over its multiples.  The multiples je of the e above
    sqrt(m) have j < sqrt(m): one strided pass per j adds the running
    mu(e) T(e, je-1), then advances it by mu(e) [je squarefree] = mu(j) mu(je).
    """
    m = tables.limit
    sf = tables.is_squarefree
    mob = 1 - 2 * (tables.omega & 1)
    mob[~sf] = 0
    root = math.isqrt(m)
    counts = np.zeros(m + 1, dtype=np.int64)
    for e in np.flatnonzero(sf[:root + 1]).tolist():
        below = np.cumsum(sf[e::e])  # below[j - 1] = T(e, (j + 1)e - 1)
        counts[2 * e::e] += int(mob[e]) * below[:-1]
    run = mob[root + 1:].astype(np.int64)  # mu(e) T(e, je-1) for e > root
    for j in range(2, m // (root + 1) + 1):
        top = m // j
        multiples = slice(j * (root + 1), j * top + 1, j)
        counts[multiples] += run[:top - root]
        if mob[j]:
            run[:top - root] += int(mob[j]) * mob[multiples]
    return counts


_CUMULATIVE: dict[SequenceKind, np.ndarray] = {}


def _cumulative(kind: SequenceKind, m: int) -> np.ndarray:
    """cum[d] = count_R(kind, d) for d = 0..limit of the shared tables,
    which cover at least m; rebuilt when the tables have grown.  members_at
    and index_of read it for every kind but aks-dup, count_R for all only;
    the tests hold count_R's other sums to it."""
    tables = get_tables(m)
    cum = _CUMULATIVE.get(kind)
    if cum is None or len(cum) != tables.limit + 1:
        counts = _per_den_counts(kind, tables)
        cum = _CUMULATIVE[kind] = np.cumsum(counts, out=counts)
    return cum


#: entries per pass of _count_squarefree_both's closing sum
_SUM_CHUNK = 1 << 16


def _count_squarefree_both(m: int) -> int:
    # Pairs (a, q), a < q <= m, both squarefree and coprime.  With
    # S_d = #{n <= m : d | n, n squarefree}, inclusion-exclusion over the
    # common divisor gives  sum_d mu(d) S_d^2  ordered pairs including (1,1),
    # hence (that sum - 1) / 2 pairs with a < q.  S_d takes one slice for
    # each d <= sqrt(m); for d > sqrt(m) the multiples are k * d with
    # k < sqrt(m), one vectorised pass for each k.  Only the Moebius sieve
    # is built, and S_d <= m fits int32; the squares are summed in chunks.
    mob = mobius_sieve(m)
    sf = mob != 0
    root = math.isqrt(m)
    s = np.zeros(m + 1, dtype=np.int32)
    for d in range(1, root + 1):
        s[d] = np.count_nonzero(sf[d::d])
    above = s[root + 1:]
    for k in range(1, m // (root + 1) + 1):
        top = m // k
        above[:top - root] += sf[k * (root + 1):k * top + 1:k]
    total = 0
    for lo in range(0, m + 1, _SUM_CHUNK):
        chunk = s[lo:lo + _SUM_CHUNK].astype(np.int64)
        total += int(np.dot(mob[lo:lo + _SUM_CHUNK], chunk * chunk))
    return (total - 1) // 2


def count_R(kind: SequenceKind, m: int) -> int:
    """Exact number of members with denominator at most m, without enumeration."""
    if m < 1:
        raise ValueError("m must be >= 1")
    if kind is SequenceKind.ALL_WITH_DUPLICATES:
        return m * (m - 1) // 2
    if m < 2:
        return 0
    if kind is SequenceKind.SQUAREFREE_BOTH:
        return _count_squarefree_both(m)
    if kind is SequenceKind.ALL_LOWEST_TERMS:
        return int(_cumulative(kind, m)[m])
    # the prime kinds sum over the primes p <= m alone, so only the prime
    # sieve is built:
    #   type1  sum_p (p - 1)
    #   type2  sum_{d<=m} pi(d) - omega(d)
    #          = sum_p (m - p) - sum_p floor(m/p) + pi(m)
    #   type3  C(pi(m), 2)
    primes = np.flatnonzero(prime_sieve(m))
    n = len(primes)
    if kind is SequenceKind.TYPE3:
        return n * (n - 1) // 2
    total = int(primes.sum())
    if kind is SequenceKind.TYPE1:
        return total - n
    np.floor_divide(m, primes, out=primes)
    return m * n - total - int(primes.sum()) + n


def _aks_dup_at(i: int) -> tuple[int, int]:
    # count over dens <= k is k(k-1)/2, so den = k + 1 for the largest k
    # with k(k-1)/2 < i: the floor of the positive root of k^2 - k = 2(i - 1)
    k = (math.isqrt(8 * i - 7) + 1) // 2
    return (i - k * (k - 1) // 2, k + 1)


#: most member pairs in one block of rows: a digit block of
#: iter_digit_blocks, a census slice, or a group of members_at's candidates;
#: bounds the digits, and so the memory, that one block holds at once
BLOCK_PAIR_CAP = 1 << 16


def den_block_top(d_lo: int, pairs: float) -> int:
    """The d_hi > d_lo whose denominators [d_lo, d_hi) hold about `pairs`
    raw pairs n/d, 0 < n < d: about (d_hi**2 - d_lo**2) / 2."""
    return max(d_lo + 1, math.isqrt(d_lo * d_lo + int(2.0 * pairs)))


def check_indices(kind: SequenceKind, indices: Sequence[int]) -> None:
    """Refuse what members_at would refuse, before any work: an index below
    1 (ValueError), or for a sieved kind an index whose denominator bound
    sqrt(2i) passes the sieve limit (ResourceLimitError)."""
    if not len(indices):
        return
    if min(indices) < 1:
        raise ValueError("indices are 1-based and must be >= 1")
    top = max(indices)
    if (kind is not SequenceKind.ALL_WITH_DUPLICATES
            and 2 * top > SIEVE_LIMIT_MAX ** 2):
        raise ResourceLimitError(
            f"index {top} needs a denominator above the sieve limit "
            f"{SIEVE_LIMIT_MAX}")


def members_at(kind: SequenceKind, indices: Sequence[int]
               ) -> tuple[np.ndarray, np.ndarray]:
    """(num, den) int64 arrays of the members at the given 1-based indices.

    The denominator comes from a searchsorted on the cumulative count, the
    numerator from that denominator's row of members_block.
    The rows of the distinct denominators are built in ascending groups of
    at most BLOCK_PAIR_CAP candidate numerators (every row holds d - 1; a
    longer row makes a group of its own), and each group's indices
    read their numerators in one gather, so the tables reach the largest
    denominator only.  Since count_R(kind, m) <= m(m-1)/2, index i needs a
    denominator of at least sqrt(2i): an index that puts this bound past
    the sieve limit is refused before any table is built.
    """
    if not len(indices):
        return (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
    check_indices(kind, indices)
    if kind is SequenceKind.ALL_WITH_DUPLICATES:
        pairs = np.array([_aks_dup_at(i) for i in indices], dtype=np.int64)
        return pairs[:, 0], pairs[:, 1]
    top = max(indices)
    idx = np.asarray(indices, dtype=np.int64)
    cum = _cumulative(kind, max(2, math.isqrt(2 * top)))
    while cum[-1] < top:
        cum = _cumulative(kind, len(cum))
    dens = np.searchsorted(cum, idx)
    offsets = idx - cum[dens - 1] - 1
    order = np.argsort(dens, kind="stable")
    # row j's indices are order[first_index[j]:first_index[j + 1]], and the
    # rows before it hold first_candidate[j] candidate numerators
    ranked = dens[order]
    first_index = np.concatenate(
        ([0], np.flatnonzero(ranked[1:] != ranked[:-1]) + 1, [len(order)]))
    rows = ranked[first_index[:-1]]
    first_candidate = np.concatenate(([0], np.cumsum(rows - 1)))
    nums = np.empty_like(dens)
    a = 0
    while a < len(rows):
        b = max(a + 1, int(np.searchsorted(
            first_candidate, first_candidate[a] + BLOCK_PAIR_CAP,
            side="right")) - 1)
        num, den = _member_rows(kind, rows[a:b])
        group = order[first_index[a]:first_index[b]]
        nums[group] = num[np.searchsorted(den, dens[group]) + offsets[group]]
        a = b
    return nums, dens


def index_of(kind: SequenceKind, r: Member) -> int:
    """1-based index of a member within its kind's ordering: the count
    below its denominator plus its place in that denominator's row.  The
    count is read, as members_at reads it, from the cumulative count on the
    tables that the row needed."""
    if isinstance(r, Rational):
        num, den = r.num, r.den
    else:
        num, den = r
    if 0 < num < den:
        if kind is SequenceKind.ALL_WITH_DUPLICATES:
            return (den - 1) * (den - 2) // 2 + num
        row = members_block(kind, den, den + 1)[0]
        pos = int(np.searchsorted(row, num))
        if pos < len(row) and row[pos] == num:
            return int(_cumulative(kind, den - 1)[den - 1]) + pos + 1
    raise ValueError(f"{num}/{den} is not a member of {kind.value}")


def rational_at(kind: SequenceKind, i: int) -> Member:
    """The i-th member (1-based); inverse of index_of."""
    if i < 1:
        raise ValueError("index must be >= 1")
    num, den = members_at(kind, [i])
    return _wrap(kind, int(num[0]), int(den[0]))


def members_block(kind: SequenceKind, d_lo: int, d_hi: int, half: bool = False
                  ) -> tuple[np.ndarray, np.ndarray]:
    """All (num, den) members with d_lo <= den < d_hi as int64 arrays, in order.

    Vectorized counterpart of enumerate_R used by the high-throughput digit
    generators; raw pairs for ALL_WITH_DUPLICATES, reduced members otherwise.
    Each denominator d in the kind's denominator set has one row of
    candidate numerators 1..d-1, kept where the numerator set's mask holds.
    Lowest terms comes from a sieve, not a gcd: for each distinct prime q
    of d the multiples of q in the row are struck, one strided slice per
    (d, q); a prime d shares no factor with its candidates, so its row is
    not struck.  The members are then read off the kept positions, so
    beyond the mask nothing the size of the candidates is allocated.  With
    half set only the members with 2 num <= den are returned: each row's
    candidates stop at d // 2, and the same sieve runs over the shorter rows.
    """
    d_lo = max(d_lo, 2)
    if d_hi <= d_lo:
        return (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
    return _member_rows(kind, np.arange(d_lo, d_hi, dtype=np.int64), half)


def _member_rows(kind: SequenceKind, dens: np.ndarray, half: bool = False
                 ) -> tuple[np.ndarray, np.ndarray]:
    """members_block over the rows of dens, a non-empty ascending int64
    array of distinct denominators >= 2; those outside the kind's
    denominator set give no row.  The tables are read only for a set's mask.
    A denominator past the sieve limit is refused before any row is built."""
    check_sieve_limit(int(dens[-1]))
    den_set, num_set = KIND_SETS[kind]
    if den_set or num_set:
        tables = get_tables(int(dens[-1]))
    if den_set:
        dens = dens[getattr(tables, den_set)[dens]]
    top = dens // 2 if half else dens - 1  # the largest candidate numerator
    total = int(top.sum())
    starts = np.cumsum(top) - top

    # lowest terms; a prime d shares no factor with a candidate below it
    strike = (kind is not SequenceKind.ALL_WITH_DUPLICATES
              and den_set != "is_prime")
    if num_set is None and not strike:
        pos = np.arange(total, dtype=np.int64)
        kept = top
    else:
        nums = getattr(tables, num_set) if num_set else None
        keep = np.ones(total, dtype=bool)
        for d, start, n in zip(dens.tolist(), starts.tolist(), top.tolist()):
            if nums is not None:
                keep[start:start + n] = nums[1:1 + n]
            if strike:
                for q in factorize_distinct(d):
                    keep[start + q - 1:start + n:q] = False
        pos = np.flatnonzero(keep)
        kept = np.diff(np.searchsorted(pos, starts), append=len(pos))
    pos -= np.repeat(starts - 1, kept)  # each member's place in its row, from 1
    return pos, np.repeat(dens, kept)
