"""Digit streams over rational sequences, with pattern counting and growth tracking.

A stream is the concatenation of the continued fraction digits of a kind's
members in order.  Occurrence counts follow the start-position convention:
A_s(N) counts the positions 1 <= i <= N at which the pattern s begins, so an
occurrence may extend up to k-1 digits past N and the counters read that far
ahead.

Two independent Euclid paths read the same members_block rows: a scalar
per-rational stream (DigitStream), the oracle, and a vectorized block
generator (iter_digit_blocks) that runs the Euclidean algorithm across whole
denominator ranges at once.  They must agree digit for digit; tests hold
them to that.  The vectorized side is one int32 kernel, _euclid_counts,
which writes each block's digits flat, with no padded matrix, and which
digit_matrix and the census classifiers in census.py share.  A block holds
at most BLOCK_PAIR_CAP member pairs, and normality_report and the stream
commands of the command line read one block at a time, so their memory
does not grow with the number of digits.
"""

from __future__ import annotations

import itertools
import math
from collections import deque
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional, Sequence, Union

import numpy as np

from .core import Convention, Rational, cf_digits
from .enumeration import Member, SequenceKind, iter_members, members_block, rational_at
from .errors import ResourceLimitError
from .measures import KHINCHIN_LEVY, GOLDEN, Pattern, gauss_measure, pattern_grid


#: GrowthTracker audits its running log against exact continuants this often
AUDIT_INTERVAL = 10 ** 4
#: largest relative gap between the running log and the exact audit value
AUDIT_TOL = 1e-6
#: most patterns one normality report counts
MAX_PATTERNS = 10 ** 4


class DigitStream:
    """Scalar digit stream over a kind or an explicit index list.

    Tracks enough bookkeeping to bracket any emitted digit position back to
    the rational it came from: after the c-th digit, `rational_index` is the
    1-based index M of the rational containing position c, `sum_len` is the
    total digit length of members 1..M, and `max_len` their longest expansion.
    """

    def __init__(self, kind: Optional[SequenceKind] = None,
                 convention: Convention = Convention.LONG,
                 indices: Optional[Iterable[int]] = None):
        if (kind is None) == (indices is None):
            raise ValueError("give exactly one of kind or indices")
        self.kind = kind
        self.convention = convention
        if indices is not None:
            self._members: Iterator[Member] = self._indexed_members(indices)
        else:
            self._members = iter_members(kind)
        self.position = 0
        self.rational_index = 0
        self.sum_len = 0
        self.max_len = 0
        self._buf: deque[int] = deque()

    @staticmethod
    def _indexed_members(indices: Iterable[int]) -> Iterator[Member]:
        cache: dict[int, Rational] = {}
        for i in indices:
            if i not in cache:
                member = rational_at(SequenceKind.ALL_LOWEST_TERMS, i)
                assert isinstance(member, Rational)
                cache[i] = member
            yield cache[i]

    def _refill(self) -> None:
        member = next(self._members)  # raises StopIteration on finite sources
        # an aks-dup pair need not be reduced; its digits are the reduced value's
        num, den = member if isinstance(member, tuple) else (member.num, member.den)
        digs = cf_digits(num, den, self.convention)
        self.rational_index += 1
        self.sum_len += len(digs)
        if len(digs) > self.max_len:
            self.max_len = len(digs)
        self._buf.extend(digs)

    def __iter__(self) -> "DigitStream":
        return self

    def __next__(self) -> int:
        while not self._buf:
            self._refill()
        self.position += 1
        return self._buf.popleft()

    def take(self, n: int) -> list[int]:
        out = []
        for _ in range(n):
            try:
                out.append(next(self))
            except StopIteration:
                break
        return out


def _max_expansion_length(max_den: int, convention: Convention) -> int:
    # q_L >= Fibonacci(L+1) >= G^(L-1), so L <= log_G(den) + 2; long adds one.
    length = int(math.log(max(max_den, 2)) / math.log(GOLDEN)) + 3
    return length + (1 if convention is Convention.LONG else 0)


def _window_hits(window: Sequence, s_digits: tuple[int, ...]):
    """Rowwise window == s, for a window given as k digit columns (arrays
    or scalars), oldest first."""
    hit = window[-1] == s_digits[-1]
    for col, d in zip(window[:-1], s_digits[:-1]):
        hit = hit & (col == d)
    return hit


def _euclid_counts(num: np.ndarray, den: np.ndarray,
                   s_digits: tuple[int, ...], convention: Convention,
                   width: Optional[int]
                   ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(lengths, counts of s, digits, gcd) of each row num/den.

    The package's one vectorised Euclid: digit_matrix, the block stream, the
    census and the Gamma census all run on it.  The Euclidean algorithm
    steps all rows in lockstep, one column at a time, over the rows still
    running; their row numbers and remainders are compacted as rows finish.
    Each live row carries its count of s and a shift register of its last
    k-1 digits, and a window is counted when its last digit arrives.  A
    row's final quotient a is one digit under SHORT and the two digits
    (a-1, 1) under LONG.  Unreduced pairs give the digits of their lowest
    terms, and the last divisor of each row is its gcd.

    With an int `width`, digits holds the leading `width` digits of each
    row, column-major and zero past lengths[i].  With width None it is flat:
    every digit of row 0, then of row 1, and so on.  The loop then keeps
    each column's live row numbers and quotients, arrays it allocates
    anyway, and scatters them once at the end to start[row] + column.  With
    s empty only lengths and digits are written; counts and gcd come back
    uninitialised.  The Euclid state is int32, so every denominator must lie
    below 2^31.
    """
    k = len(s_digits)
    rows = len(num)
    if rows and int(den.max()) >= 2 ** 31:
        raise OverflowError("the Euclid kernel needs denominators below 2^31")
    long_tail = convention is Convention.LONG
    flat = width is None
    if flat:
        width = 0  # no leading columns: every digit is scattered at the end
    columns: list[tuple[np.ndarray, np.ndarray]] = []  # (live, a) per column
    lengths = np.empty(rows, dtype=np.int64)
    counts = np.empty(rows, dtype=np.int64)
    gcd = np.empty(rows, dtype=np.int64)
    first = np.zeros((rows, width), dtype=np.int64, order="F")
    live = np.arange(rows)
    # int32 state moves half the bytes of int64 through each division and
    # gather.  A count fits int8: by Lame's bound a row below 2^31 has at
    # most 45 digits.
    q, p = den.astype(np.int32), num.astype(np.int32)
    count = np.zeros(rows, dtype=np.int8)
    reg = [np.zeros(rows, dtype=np.int32) for _ in range(k - 1)]
    col = 0
    while len(live):
        a, r = np.divmod(q, p)
        end = r == 0
        stop = np.flatnonzero(end)
        if long_tail:
            a[stop] -= 1
        if flat:
            columns.append((live, a))
        elif col < width:
            first[live, col] = a
        if k and col >= k - 1:
            count += _window_hits(reg + [a], s_digits)
        if len(stop):
            done = live.take(stop)
            if long_tail and col + 1 < width:
                first[done, col + 1] = 1
            lengths[done] = col + 1 + long_tail
            if k:
                tail = count.take(stop)
                if long_tail and col >= k - 2:
                    tail += _window_hits([x.take(stop) for x in reg[1:]]
                                         + [a.take(stop), 1][-k:], s_digits)
                counts[done] = tail
                gcd[done] = p.take(stop)
        if k > 1:
            reg = reg[1:] + [a]
        if len(stop):
            going = np.flatnonzero(~end)
            live = live.take(going)
            q, p = p.take(going), r.take(going)
            if k:
                count = count.take(going)
            reg = [x.take(going) for x in reg]
        else:
            q, p = p, r
        col += 1
    if flat:
        ends = np.cumsum(lengths)
        first = np.empty(int(ends[-1]) if rows else 0, dtype=np.int64)
        start = ends - lengths
        # last column first, so each column's arrays are freed once written
        while columns:
            done, a = columns.pop()
            first[start.take(done) + len(columns)] = a
        if long_tail:
            first[ends - 1] = 1
    return lengths, counts, first, gcd


def _checked_rows(num, den) -> tuple[np.ndarray, np.ndarray]:
    num = np.asarray(num, dtype=np.int64)
    den = np.asarray(den, dtype=np.int64)
    if num.shape != den.shape:
        raise ValueError("num and den must have the same shape")
    if len(num) and (np.any(num < 1) or np.any(num >= den)):
        raise ValueError("need 0 < num < den rowwise")
    return num, den


def digit_matrix(num: np.ndarray, den: np.ndarray,
                 convention: Convention = Convention.LONG
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Row-wise continued fraction digits of num/den, reduced or not: the
    quotients are those of the reduced value.

    Returns (matrix, lengths): matrix[i, :lengths[i]] are the digits of row i
    and the padding is zero.  The matrix is int64, column-major and as wide
    as the longest expansion a denominator of the block can have; the digits
    come from the lockstep Euclid _euclid_counts, so every denominator must
    lie below 2^31 (OverflowError otherwise).
    """
    num, den = _checked_rows(num, den)
    width = _max_expansion_length(int(den.max()) if len(den) else 2, convention)
    lengths, _, mat, _ = _euclid_counts(num, den, (), convention, width)
    return mat, lengths


def flat_digits(num: np.ndarray, den: np.ndarray,
                convention: Convention = Convention.LONG
                ) -> tuple[np.ndarray, np.ndarray]:
    """(digits, lengths): the continued fraction digits of every row num/den
    concatenated in row order as int64, and each row's digit count.

    The same digits as flatten_digit_matrix(*digit_matrix(...)), written
    straight from the lockstep Euclid with no padded matrix between.
    """
    num, den = _checked_rows(num, den)
    lengths, _, digits, _ = _euclid_counts(num, den, (), convention, None)
    return digits, lengths


def flatten_digit_matrix(mat: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Concatenate rows of a padded digit matrix in order."""
    mask = np.arange(mat.shape[1]) < lengths[:, None]
    return mat[mask]


#: Heilbronn (1969) and Porter (1975): over the p coprime to q, p/q has on
#: average (12 ln 2 / pi^2) ln q + C_P - 1 + o(1) short-convention digits,
#: C_P = 1.4670780794 being Porter's constant (Knuth, TAOCP vol. 2, 4.5.3).
HEILBRONN_PORTER = 12.0 * math.log(2.0) / math.pi ** 2
PORTER_CONSTANT = 1.4670780794

#: most member pairs in one block of iter_digit_blocks; bounds the digits,
#: and so the memory, that one block holds at once
BLOCK_PAIR_CAP = 1 << 16


def _mean_expansion_length(den: int, convention: Convention) -> float:
    length = HEILBRONN_PORTER * math.log(den) + PORTER_CONSTANT - 1.0
    return length + (1.0 if convention is Convention.LONG else 0.0)


def _block_top(d_lo: int, digits: int, per_pair: float, density: float) -> int:
    """The d_hi > d_lo whose block [d_lo, d_hi) holds about `digits` digits,
    or BLOCK_PAIR_CAP pairs if fewer, when each denominator d has
    density * d numerators of per_pair digits each."""
    pairs = min(digits / per_pair, BLOCK_PAIR_CAP)
    return max(d_lo + 1, math.isqrt(d_lo * d_lo + int(2.0 * pairs / density)))


def iter_digit_blocks(kind: SequenceKind, convention: Convention,
                      n_digits: int) -> Iterator[np.ndarray]:
    """The first n_digits of the kind's stream, as consecutive non-empty
    int64 blocks of the digits of one denominator range each.

    Plans each denominator block [d_lo, d_hi) to hold the digits still
    missing, so only the last block computes digits that are cut off.  A
    block holds about density * (d_hi**2 - d_lo**2) / 2 pairs.  The first
    block takes density 1, every numerator below each denominator, and the
    Heilbronn-Porter mean length at its top denominator,
    (12 ln 2 / pi^2) ln q + C_P - 1 with 12 ln 2 / pi^2 = 0.843...  Each
    later block takes the density that the block before it produced, and
    the digits per pair it produced scaled by the growth of that mean from
    its top denominator to the new one, since expansions lengthen with the
    denominator.  No block holds more than BLOCK_PAIR_CAP pairs, so a
    consumer that reads one block at a time holds bounded memory for any
    n_digits.
    """
    if n_digits < 0:
        raise ValueError("n_digits must be >= 0")
    have = 0
    d_lo = 2
    density = 1.0
    scale = 1.0  # digits per pair over the mean length at the block's top
    while have < n_digits:
        missing = n_digits - have
        # the mean length at the top denominator sets the top: iterate
        d_hi = d_lo + 1
        for _ in range(4):
            per_pair = scale * _mean_expansion_length(d_hi, convention)
            d_hi = _block_top(d_lo, missing, per_pair, density)
        num, den = members_block(kind, d_lo, d_hi)
        if len(num):
            digits, _ = flat_digits(num, den, convention)
            have += len(digits)
            scale = len(digits) / len(num) / _mean_expansion_length(d_hi, convention)
            density = 2.0 * len(num) / (d_hi * d_hi - d_lo * d_lo)
            del num, den
            yield digits[:missing]
            del digits  # the consumer may free it before the next block
        d_lo = d_hi


def digit_block(kind: SequenceKind, convention: Convention, n_digits: int,
                ) -> np.ndarray:
    """First n_digits of the kind's stream as one int64 array: the blocks of
    iter_digit_blocks concatenated."""
    return np.concatenate([np.empty(0, dtype=np.int64),
                           *iter_digit_blocks(kind, convention, n_digits)])


class FrequencyTracker:
    """Multi-pattern occurrence counter over a digit stream.

    Builds an Aho-Corasick prefix automaton over the alphabet 1..max_digit
    plus a single OTHER symbol (any larger digit), with failure links folded
    into a dense transition table.  OTHER can never extend a pattern, so it
    is honest to collapse the unbounded digit alphabet this way.
    """

    def __init__(self, patterns: Sequence[Union[Pattern, Sequence[int]]]):
        pats = [Pattern.coerce(s) for s in patterns]
        if not pats:
            raise ValueError("need at least one pattern")
        if len(set(p.digits for p in pats)) != len(pats):
            raise ValueError("patterns must be distinct")
        self.patterns = pats
        self.max_digit = max(max(p.digits) for p in pats)
        self.max_len = max(len(p) for p in pats)
        self._build()
        self.counts = [0] * len(pats)
        self.position = 0
        self.state = 0

    def _build(self) -> None:
        nsym = self.max_digit + 1  # symbol 0 is OTHER
        goto: list[list[int]] = [[0] * nsym]
        out: list[list[tuple[int, int]]] = [[]]
        # trie phase
        for idx, pat in enumerate(self.patterns):
            state = 0
            for d in pat.digits:
                nxt = goto[state][d]
                if nxt == 0:
                    goto.append([0] * nsym)
                    out.append([])
                    nxt = len(goto) - 1
                    goto[state][d] = nxt
                state = nxt
            out[state].append((idx, len(pat)))
        # BFS failure links, folded straight into the table
        fail = [0] * len(goto)
        queue = deque()
        for sym in range(1, nsym):
            s = goto[0][sym]
            if s:
                fail[s] = 0
                queue.append(s)
        while queue:
            s = queue.popleft()
            for sym in range(1, nsym):
                t = goto[s][sym]
                if t:
                    fail[t] = goto[fail[s]][sym]
                    out[t] = out[t] + out[fail[t]]
                    queue.append(t)
                else:
                    goto[s][sym] = goto[fail[s]][sym]
        # symbol 0 (OTHER) always resets to the root
        for row in goto:
            row[0] = 0
        self._goto = goto
        self._out = out

    def feed(self, digit: int, limit: Optional[int] = None) -> None:
        """Consume one digit; count pattern starts at positions <= limit."""
        self.run((digit,), limit)

    def run(self, digits: Iterable[int], limit: Optional[int] = None) -> None:
        """Consume the digits in order; count pattern starts at positions
        <= limit."""
        goto = self._goto
        out = self._out
        state = self.state
        pos = self.position
        counts = self.counts
        maxd = self.max_digit
        for d in digits:
            pos += 1
            state = goto[state][d if d <= maxd else 0]
            hits = out[state]
            if hits:
                for idx, k in hits:
                    start = pos - k + 1
                    if start >= 1 and (limit is None or start <= limit):
                        counts[idx] += 1
        self.state = state
        self.position = pos

    def as_dict(self) -> dict[Pattern, int]:
        return dict(zip(self.patterns, self.counts))


def count_patterns(source: Union[Iterable[int], DigitStream],
                   patterns: Sequence[Union[Pattern, Sequence[int]]],
                   n: int) -> dict[Pattern, int]:
    """A_s(n) for each pattern: occurrence starts at positions 1..n.

    Reads n + max_len - 1 digits from the source and fails if a finite source
    runs out before that, since trailing occurrences could not be resolved.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    tracker = FrequencyTracker(patterns)
    need = n + tracker.max_len - 1
    tracker.run(map(int, itertools.islice(source, need)), limit=n)
    if tracker.position < need:
        raise ValueError(f"source ended after {tracker.position} digits; "
                         f"need {need} to resolve starts up to {n}")
    return tracker.as_dict()


def count_pattern_array(digits: np.ndarray, s: Union[Pattern, Sequence[int]],
                        n: int) -> int:
    """Vectorized A_s(n) over a digit array holding >= n + k - 1 digits."""
    s = Pattern.coerce(s)
    k = len(s)
    if len(digits) < n + k - 1:
        raise ValueError(f"need {n + k - 1} digits, have {len(digits)}")
    match = np.ones(n, dtype=bool)
    for j, d in enumerate(s.digits):
        match &= digits[j:j + n] == d
    return int(match.sum())


#: GrowthTracker.update_many and GridCounter.feed work through GROWTH_CHUNK
#: digits at a time, so their scratch memory is bounded.  Each chunk runs the ratio recurrence in up
#: to GROWTH_LANES lanes, each started GROWTH_WARMUP digits early from r = 0.
GROWTH_CHUNK = 1 << 16
GROWTH_LANES = 256
GROWTH_WARMUP = 64

#: continuant products stay in int64 while log2 of their entry bound is below
_INT64_PRODUCT_BITS = 62

_IDENTITY = (1, 0, 0, 1)  # 2x2 matrices are row-major tuples


def _matmul2(m: Sequence, p: Sequence, column: bool = False) -> tuple:
    """Row-major 2x2 product m p of ints or of arrays, elementwise; only its
    first column if `column`."""
    a, b, c, d = m
    e, f, g, h = p
    if column:
        return (a * e + b * g, c * e + d * g)
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def _ratio_recurrence(a: np.ndarray, ratio: float) -> np.ndarray:
    """t_i = a_i + r_{i-1} with r_i = 1 / t_i and r_{-1} = ratio, bit for bit.

    Lane j takes positions [j m, (j+1) m) and starts GROWTH_WARMUP digits
    early from r = 0; lane 0 starts from `ratio`.  All lanes step together
    in numpy, whose + and / round like Python's.  The map r -> 1 / (a + r)
    contracts, so a lane entering its range with the r that the lane before
    it left with holds the exact values from there on.  A lane that does not
    is recomputed one digit at a time from the exact r until it rejoins.
    """
    n = len(a)
    warm = GROWTH_WARMUP
    lanes = min(GROWTH_LANES, max(1, n // max(warm, 1)))
    if lanes == 1:
        warm = 0
    m = -(-n // lanes)  # >= warm, so each warm-up lies in the lane before
    padded = np.ones(warm + lanes * m)  # lane 0's warm-up and the last lane's
    padded[warm:warm + n] = a           # overhang read 1s, and go unused
    steps = np.arange(warm + m)[:, None] + np.arange(0, lanes * m, m)
    digits = padded[steps]  # digits[s, j] is lane j's digit at step s
    t = np.empty_like(digits)
    r = np.zeros(lanes)
    for s in range(warm + m):
        if s == warm:
            entry = r.copy()
            r[0] = entry[0] = ratio
        np.add(digits[s], r, out=t[s])
        np.divide(1.0, t[s], out=r)
    t = t[warm:]
    exits = 1.0 / t[-1]
    mismatched = np.flatnonzero(entry[1:] != exits[:-1])
    if len(mismatched):
        for j in range(mismatched[0] + 1, lanes):
            if entry[j] == exits[j - 1]:
                continue
            exact = float(exits[j - 1])
            for i, d in enumerate(digits[warm:, j].tolist()):
                ti = d + exact
                if ti == t[i, j]:
                    break
                t[i, j] = ti
                exact = 1.0 / ti
            exits[j] = 1.0 / t[-1, j]
    return t.T.ravel()[:n]


def _continuant_products(a: np.ndarray, bounds: np.ndarray,
                         column: bool = False) -> list[tuple[int, ...]]:
    """Exact product of [[a_i, 1], [1, 0]] over each a[bounds[s]:bounds[s+1]],
    row-major, or only its first column (P11, P21) if `column`.

    A pairwise tree, vectorised over the segments: segment s fills row s
    from the left and identities pad the rows to one width.  No entry of a
    product exceeds the product of (a_i + 1), so a product is taken in int64
    while log2 of that bound is below _INT64_PRODUCT_BITS.  The first level
    where some product reaches it takes those in Python ints, and every
    level above holds Python ints.
    """
    lens = np.diff(bounds)
    valid = np.arange(lens.max()) < lens[:, None]
    digits = a[bounds[0]:bounds[-1]]
    p11 = np.ones(valid.shape, dtype=np.int64)
    p11[valid] = digits
    p12 = valid.astype(np.int64)
    nodes = [p11, p12, p12, 1 - p12]
    # float32 is close enough: the bound keeps a whole bit below 2**63
    bits = np.zeros(valid.shape, dtype=np.float32)
    bits[valid] = np.log2(digits.astype(np.float32) + np.float32(1.0))
    while nodes[0].shape[1] > 1:
        carry = nodes[0].shape[1] % 2
        if carry:
            # an odd last node moves up a level unchanged
            tail = [x[:, -1:] for x in nodes]
            nodes = [x[:, :-1] for x in nodes]
        left = [x[:, 0::2] for x in nodes]
        right = [x[:, 1::2] for x in nodes]
        # at the top only the first column of the product is needed
        top = column and left[0].shape[1] == 1 and not carry
        nodes = _matmul2(left, right, top)
        if bits is not None:
            bits = np.concatenate((bits[:, 0:-1:2] + bits[:, 1::2],
                                   bits[:, -1:][:, :carry]), axis=1)
            big = bits[:, :left[0].shape[1]] >= _INT64_PRODUCT_BITS
            if big.any():
                # int64 wrapped there: redo those products in Python ints
                exact = _matmul2([x[big].astype(object) for x in left],
                                 [x[big].astype(object) for x in right], top)
                nodes = [x.astype(object) for x in nodes]
                for x, y in zip(nodes, exact):
                    x[big] = y
                if carry:
                    tail = [x.astype(object) for x in tail]
                bits = None
        if carry:
            nodes = [np.concatenate(pair, axis=1) for pair in zip(nodes, tail)]
    if column and len(nodes) == 4:
        nodes = nodes[0::2]
    return list(zip(*(x[:, 0].tolist() for x in nodes)))


class GrowthTracker:
    """Running log of the continuant q_n of the digits seen so far.

    Uses the stable recurrence  log q_n = log q_{n-1} + ln(a_n + q_{n-2}/q_{n-1})
    in doubles, and audits itself against exact big-integer continuants over
    each checkpoint window.  The window state is the running product
    [[W11, W12], [W21, W22]] of the matrices [[a, 1], [1, 0]] of its digits:
    W11 = K(window digits), W21 = K(window digits minus the first), and
    q_end = W11 q_start + W21 q_{start-1}, so the float value must stay
    within AUDIT_TOL of  log q_start + ln W11 + log1p((W21/W11) * ratio_start).

    update_many is the vectorised form of a loop of update calls and gives
    the same bits: the recurrence runs lane-parallel (_ratio_recurrence),
    the logs are math.log's, summed left to right, and each window product
    comes from a pairwise tree (_continuant_products).
    """

    def __init__(self, audit_interval: int = AUDIT_INTERVAL):
        if audit_interval < 1:
            raise ValueError("audit_interval must be >= 1")
        self.n = 0
        self.logq = 0.0
        self.ratio = 0.0  # q_{n-1} / q_n
        self.audit_interval = audit_interval
        self.max_audit_rel_err = 0.0
        self._reset_window()

    def _reset_window(self) -> None:
        self._window = _IDENTITY
        self._window_digits = 0
        self._logq_start = self.logq
        self._ratio_start = self.ratio

    def update(self, a: int) -> None:
        if a < 1:
            raise ValueError("digits must be >= 1")
        t = a + self.ratio
        self.logq += math.log(t)
        self.ratio = 1.0 / t
        self.n += 1
        self._window = _matmul2(self._window, (a, 1, 1, 0))
        self._window_digits += 1
        if self._window_digits >= self.audit_interval:
            self._audit(self._window[0], self._window[2])

    def update_many(self, digits: Iterable[int]) -> None:
        """update() on each digit in turn, at most GROWTH_CHUNK digits at a
        time; every digit is checked before any state changes."""
        a = (np.asarray(digits, dtype=np.int64) if isinstance(digits, np.ndarray)
             else np.fromiter(digits, np.int64))
        if len(a) and a.min() < 1:
            raise ValueError("digits must be >= 1")
        lo = 0
        while lo < len(a):
            size = GROWTH_CHUNK
            if self.audit_interval <= size:
                # end the chunk where an audit window ends
                size -= (self._window_digits + size) % self.audit_interval
            self._update_chunk(a[lo:lo + size])
            lo += size

    def _update_chunk(self, a: np.ndarray) -> None:
        t = _ratio_recurrence(a, self.ratio)
        logq = np.fromiter(map(math.log, t.tolist()), np.float64, len(t))
        logq[0] += self.logq
        np.cumsum(logq, out=logq)
        n0 = self.n
        # the audits of this chunk fall after these many of its digits
        ends = np.arange(self.audit_interval - self._window_digits,
                         len(a) + 1, self.audit_interval)
        lo = 0
        if len(ends):
            columns = _continuant_products(
                a, np.concatenate(([0], ends)), column=True)
            for hi, (c11, c21) in zip(ends.tolist(), columns):
                # the window's first column is its state times (c11, c21)
                w11, w12, w21, w22 = self._window
                self.n = n0 + hi
                self.logq = float(logq[hi - 1])
                self.ratio = float(1.0 / t[hi - 1])
                self._audit(w11 * c11 + w12 * c21, w21 * c11 + w22 * c21)
            lo = int(ends[-1])
        if lo < len(a):
            (product,) = _continuant_products(a, np.array([lo, len(a)]))
            self._window = _matmul2(self._window, product)
            self._window_digits += len(a) - lo
        self.n = n0 + len(a)
        self.logq = float(logq[-1])
        self.ratio = float(1.0 / t[-1])

    def _audit(self, w11: int, w21: int) -> None:
        """Check logq against the window's first column (W11, W21)."""
        expected = (self._logq_start + math.log(w11)
                    + math.log1p(w21 / w11 * self._ratio_start))
        rel = abs(self.logq - expected) / max(1.0, abs(self.logq))
        if rel > self.max_audit_rel_err:
            self.max_audit_rel_err = rel
        if rel > AUDIT_TOL:
            raise ArithmeticError(
                f"growth recurrence drifted: rel err {rel:.3e} at n={self.n}")
        self._reset_window()

    @property
    def rate(self) -> float:
        """log q_n / n, the quantity that tends to the Khinchin-Levy exponent."""
        if self.n == 0:
            raise ValueError("no digits yet")
        return self.logq / self.n


class GridCounter:
    """A_s(c) of every pattern s = pattern_grid(max_digit, max_len) at each
    prefix c, over a stream fed block by block.

    A window of length j over digits 1..max_digit has the code
    sum_i (d_i - 1) max_digit^(j-1-i), which is its pattern's index among
    the length-j patterns of pattern_grid, so one bincount per length and
    prefix counts every pattern at once.  A window holding a digit above
    max_digit matches no pattern and is dropped.  Windows starting in the
    last max_len - 1 digits of a block read into the next one, so those
    digits are carried over.  counts[c] lists the counts in pattern_grid
    order once the stream has passed c + max_len - 1 digits.
    """

    def __init__(self, max_digit: int, max_len: int, prefixes: Iterable[int]):
        """prefixes: the positions c >= 1 to count at, at least one."""
        self.max_digit = max_digit
        self.max_len = max_len
        self.prefixes = sorted(set(prefixes))
        self.counts: dict[int, np.ndarray] = {}
        self._totals = [np.zeros(max_digit ** j, dtype=np.int64)
                        for j in range(1, max_len + 1)]
        self._carry = np.empty(0, dtype=np.int64)  # symbols of unread starts
        self._starts = 0  # window starts counted so far

    def feed(self, digits: np.ndarray) -> None:
        """Count the windows that these digits complete, GROWTH_CHUNK digits
        at a time, so the scratch arrays stay small for any block."""
        for lo in range(0, len(digits), GROWTH_CHUNK):
            self._feed(digits[lo:lo + GROWTH_CHUNK])

    def _feed(self, digits: np.ndarray) -> None:
        md, k = self.max_digit, self.max_len
        if self._starts == self.prefixes[-1]:
            return  # every prefix is counted
        # symbol d - 1, and md for any digit above md
        sym = np.concatenate((self._carry, np.minimum(digits, md + 1) - 1))
        stop = min(len(sym) - (k - 1), self.prefixes[-1] - self._starts)
        if stop <= 0:
            self._carry = sym  # fewer than max_len digits so far
            return
        cuts = [c - self._starts for c in self.prefixes
                if self._starts < c < self._starts + stop] + [stop]
        in_grid = sym < md
        code = np.zeros(stop, dtype=np.int64)
        valid = np.ones(stop, dtype=bool)
        parts = []  # parts[j][i]: length j + 1 counts of the i-th segment
        for j in range(k):
            code = code * md + sym[j:j + stop]
            valid &= in_grid[j:j + stop]
            parts.append([np.bincount(code[lo:hi][valid[lo:hi]],
                                      minlength=md ** (j + 1))
                          for lo, hi in zip([0] + cuts, cuts)])
        for i, cut in enumerate(cuts):
            for total, part in zip(self._totals, parts):
                total += part[i]
            if self._starts + cut in self.prefixes:
                self.counts[self._starts + cut] = np.concatenate(self._totals)
        self._starts += stop
        self._carry = sym[stop:].copy()


@dataclass
class PatternRow:
    pattern: Pattern
    count: int
    n: int
    empirical: float
    mu: float
    deviation: float

    def to_json_dict(self) -> dict:
        return {
            "pattern": list(self.pattern.digits),
            "count": self.count,
            "N": self.n,
            "empirical": self.empirical,
            "mu": self.mu,
            "deviation": self.deviation,
        }


@dataclass
class GrowthSummary:
    logq: float
    n: int
    g_ref: float = KHINCHIN_LEVY

    def to_json_dict(self) -> dict:
        return {"logq": self.logq, "n": self.n, "g_ref": self.g_ref}


@dataclass
class NormalityReport:
    params: dict
    rows: list[PatternRow]
    growth: GrowthSummary
    checkpoints: dict[int, list[PatternRow]] = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        doc = {
            "params": self.params,
            "rows": [r.to_json_dict() for r in self.rows],
            "growth": self.growth.to_json_dict(),
        }
        if self.checkpoints:
            doc["checkpoints"] = {
                str(n): [r.to_json_dict() for r in rows]
                for n, rows in self.checkpoints.items()
            }
        return doc


def _pattern_rows(counts: np.ndarray, patterns: Sequence[Pattern],
                  n: int) -> list[PatternRow]:
    rows = []
    for pat, count in zip(patterns, counts.tolist()):
        mu = gauss_measure(pat)
        empirical = count / n
        rows.append(PatternRow(pattern=pat, count=count, n=n,
                               empirical=empirical, mu=mu,
                               deviation=abs(empirical - mu)))
    return rows


def normality_report(kind: SequenceKind, convention: Convention, n: int,
                     max_digit: int = 5, max_len: int = 2,
                     checkpoints: Sequence[int] = ()) -> NormalityReport:
    """Empirical pattern frequencies and growth over the first n stream digits.

    Counts every pattern over digits 1..max_digit of length <= max_len against
    its Gauss measure, and runs the growth tracker over the same digits.
    Both read the stream one block of iter_digit_blocks at a time, so the
    memory held does not grow with n.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    n_patterns = sum(max_digit ** j for j in range(1, max_len + 1))
    if n_patterns > MAX_PATTERNS:
        raise ResourceLimitError(
            f"{n_patterns} patterns exceed the configured bound {MAX_PATTERNS}")
    for c in checkpoints:
        if not 1 <= c <= n:
            raise ValueError(f"checkpoint {c} outside 1..{n}")
    patterns = pattern_grid(max_digit, max_len)
    counter = GridCounter(max_digit, max_len, (*checkpoints, n))
    tracker = GrowthTracker()
    for block in iter_digit_blocks(kind, convention, n + max_len - 1):
        counter.feed(block)
        tracker.update_many(block[:n - tracker.n])
        del block  # freed before the next block is computed

    report = NormalityReport(
        params={
            "kind": kind.value,
            "conv": convention.value,
            "N": n,
            "max_digit": max_digit,
            "max_len": max_len,
        },
        rows=_pattern_rows(counter.counts[n], patterns, n),
        growth=GrowthSummary(logq=tracker.logq, n=tracker.n),
    )
    for c in checkpoints:
        report.checkpoints[c] = _pattern_rows(counter.counts[c], patterns, c)
    return report


@dataclass
class RatioRow:
    n: int
    m: int
    sum_len: int
    max_len: int

    @property
    def n_over_sum(self) -> float:
        return self.n / self.sum_len

    @property
    def n_maxlen_over_sum(self) -> float:
        return self.n * self.max_len / self.sum_len

    @property
    def m_over_n(self) -> float:
        return self.m / self.n

    def to_json_dict(self) -> dict:
        return {
            "N": self.n,
            "M": self.m,
            "sum_len": self.sum_len,
            "max_len": self.max_len,
            "n_over_sum_len": self.n_over_sum,
            "n_max_len_over_sum_len": self.n_maxlen_over_sum,
            "m_over_n": self.m_over_n,
        }


@dataclass
class RatioReport:
    params: dict
    rows: list[RatioRow]

    def to_json_dict(self) -> dict:
        return {"params": self.params, "rows": [r.to_json_dict() for r in self.rows]}


def hypothesis_ratios(kind_or_stream: Union[SequenceKind, DigitStream],
                      convention: Convention = Convention.LONG,
                      n: int = 10 ** 4) -> RatioReport:
    """The three diagnostic ratios N/sum L, N*max L/sum L, M/N at N, 2N, 4N.

    The first two vanishing and the last shrinking are what the aggregation
    argument for concatenated expansions needs; here they are just measured.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if isinstance(kind_or_stream, DigitStream):
        stream = kind_or_stream
        params = {"conv": stream.convention.value, "N": n}
        if stream.kind is not None:
            params["kind"] = stream.kind.value
    else:
        stream = DigitStream(kind=kind_or_stream, convention=convention)
        params = {"kind": kind_or_stream.value, "conv": convention.value, "N": n}
    rows = []
    for target in (n, 2 * n, 4 * n):
        while stream.position < target:
            try:
                next(stream)
            except StopIteration:
                raise ValueError(
                    f"stream ended at {stream.position} digits; need {target}")
        rows.append(RatioRow(n=target, m=stream.rational_index,
                             sum_len=stream.sum_len, max_len=stream.max_len))
    return RatioReport(params=params, rows=rows)


def length_ratios(lengths: np.ndarray, convention: Convention,
                  n: int) -> RatioReport:
    """hypothesis_ratios of an index stream from its expansion lengths.

    lengths[j] is the digit count of the stream's (j+1)-th rational; the
    rational holding digit N is the first whose cumulative length reaches N.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    ends = np.cumsum(lengths)
    total = int(ends[-1]) if len(ends) else 0
    if total < 4 * n:
        raise ValueError(f"stream ended at {total} digits; need {4 * n}")
    longest = np.maximum.accumulate(lengths)
    rows = []
    for target in (n, 2 * n, 4 * n):
        m = int(np.searchsorted(ends, target)) + 1
        rows.append(RatioRow(n=target, m=m, sum_len=int(ends[m - 1]),
                             max_len=int(longest[m - 1])))
    return RatioReport(params={"conv": convention.value, "N": n}, rows=rows)


CFDIGITS_HEADER_VERSION = "cfdigits v1"


def format_header(kind: Optional[SequenceKind], convention: Convention) -> str:
    kind_name = kind.value if kind is not None else "indices"
    return f"{CFDIGITS_HEADER_VERSION} kind={kind_name} conv={convention.value}"


def encode_varint(value: int) -> bytes:
    """Unsigned LEB128."""
    if value < 0:
        raise ValueError("varint encodes nonnegative integers")
    out = bytearray()
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


def encode_varints(values: Union[Sequence[int], np.ndarray]) -> bytes:
    """Unsigned LEB128 of each value below 2**63, concatenated.

    The vectorised form of encode_varint.  A value below 128 is its own byte,
    so a stream of small digits encodes in one astype pass.  Each larger
    value gets its low 7-bit group with bit 7 set in its own place, and its
    higher groups are inserted after it, low group first, every group but
    its last again with bit 7 set.
    """
    v = np.asarray(values, dtype=np.int64)
    if len(v) and v.min() < 0:
        raise ValueError("varint encodes nonnegative integers")
    at = np.flatnonzero(v >= 0x80)
    out = v.astype(np.uint8)
    out[at] = (v[at] & 0x7F) | 0x80
    high = v[at] >> 7
    cuts, groups = [], []
    while len(at):
        more = high >= 0x80
        cuts.append(at + 1)
        groups.append((high & 0x7F) | (more << 7))
        at = at[more]
        high = high[more] >> 7
    if cuts:
        # np.insert keeps the order of values inserted at one index, so a
        # value's groups land in the order of the passes that made them
        out = np.insert(out, np.concatenate(cuts),
                        np.concatenate(groups).astype(np.uint8))
    return out.tobytes()


def decode_varints(data: bytes) -> list[int]:
    out = []
    shift = 0
    cur = 0
    for byte in data:
        cur |= (byte & 0x7F) << shift
        if byte & 0x80:
            shift += 7
        else:
            out.append(cur)
            cur = 0
            shift = 0
    if shift:
        raise ValueError("truncated varint stream")
    return out
