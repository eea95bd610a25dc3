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
flat_digits (and through it digit_matrix) and the census classifiers in
census.py share.  A block holds at most BLOCK_PAIR_CAP member pairs, and
normality_report and the stream commands of the command line read one
block at a time, so their memory does not grow with the number of digits.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional, Sequence, Union

import numpy as np

from .core import Convention, cf_digits, continuants
from .enumeration import (BLOCK_PAIR_CAP, SequenceKind, den_block_top,
                          iter_members, members_block)
from .errors import ResourceLimitError
from .measures import KHINCHIN_LEVY, Pattern, gauss_measure, pattern_grid


#: GrowthTracker audits its running log against exact continuants this often
AUDIT_INTERVAL = 10 ** 4
#: largest relative gap between the running log and the exact audit value
AUDIT_TOL = 1e-6
#: most patterns one normality report counts
MAX_PATTERNS = 10 ** 4


class DigitStream:
    """Scalar digit stream of a kind: core.cf_digits of each member in
    enumeration order, the oracle that iter_digit_blocks is held to."""

    def __init__(self, kind: SequenceKind,
                 convention: Convention = Convention.LONG):
        self.convention = convention
        self.position = 0
        # an aks-dup pair need not be reduced; its digits are the reduced value's
        pairs = (member if isinstance(member, tuple) else (member.num, member.den)
                 for member in iter_members(kind))
        self._digits = itertools.chain.from_iterable(
            cf_digits(num, den, convention) for num, den in pairs)

    def __iter__(self) -> "DigitStream":
        return self

    def __next__(self) -> int:
        digit = next(self._digits)
        self.position += 1
        return digit

    def take(self, n: int) -> list[int]:
        return list(itertools.islice(self, max(n, 0)))


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

    The package's one vectorised Euclid: flat_digits, the block stream, the
    census and the Gamma census all run on it.  The Euclidean algorithm
    steps all rows in lockstep, one column at a time, over the rows still
    running; their row numbers and remainders are compacted as rows finish.
    Each live row carries its count of s and a shift register of its last
    k-1 digits, and a window is counted when its last digit arrives.  A
    row's final quotient a is one digit under SHORT and the two digits
    (a-1, 1) under LONG.  Unreduced pairs give the digits of their lowest
    terms, and the last divisor of each row is its gcd.

    With an int `width`, digits holds the leading `width` digits of each
    row, column-major and zero past lengths[i]: len(s) columns for the
    census, n for Gamma and none for hypothesis_ratios.  With width None it
    is flat: every digit of row 0, then of row 1, and so on.  The loop then
    keeps each column's live row numbers and quotients, arrays it allocates
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


def flat_digits(num: np.ndarray, den: np.ndarray,
                convention: Convention = Convention.LONG
                ) -> tuple[np.ndarray, np.ndarray]:
    """(digits, lengths): the continued fraction digits of every row num/den
    concatenated in row order as int64, and each row's digit count.

    The quotients of an unreduced row are those of its reduced value.  The
    digits come straight from the lockstep Euclid _euclid_counts, so every
    denominator must lie below 2^31 (OverflowError otherwise).
    """
    num = np.asarray(num, dtype=np.int64)
    den = np.asarray(den, dtype=np.int64)
    if num.shape != den.shape:
        raise ValueError("num and den must have the same shape")
    if len(num) and (np.any(num < 1) or np.any(num >= den)):
        raise ValueError("need 0 < num < den rowwise")
    lengths, _, digits, _ = _euclid_counts(num, den, (), convention, None)
    return digits, lengths


def digit_matrix(num: np.ndarray, den: np.ndarray,
                 convention: Convention = Convention.LONG
                 ) -> tuple[np.ndarray, np.ndarray]:
    """(matrix, lengths): flat_digits laid out one row each, so that
    matrix[i, :lengths[i]] are the digits of row i.  The matrix is int64,
    as wide as the longest row, and zero past each row's length."""
    digits, lengths = flat_digits(num, den, convention)
    width = int(lengths.max(initial=0))
    mat = np.zeros((len(lengths), width), dtype=np.int64)
    mat[np.arange(width) < lengths[:, None]] = digits
    return mat, lengths


def flatten_digit_matrix(mat: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """Concatenate rows of a padded digit matrix in order."""
    mask = np.arange(mat.shape[1]) < lengths[:, None]
    return mat[mask]


#: Heilbronn (1969) and Porter (1975): over the p coprime to q, p/q has on
#: average (12 ln 2 / pi^2) ln q + C_P - 1 + o(1) short-convention digits,
#: C_P = 1.4670780794 being Porter's constant (Knuth, TAOCP vol. 2, 4.5.3).
HEILBRONN_PORTER = 12.0 * math.log(2.0) / math.pi ** 2
PORTER_CONSTANT = 1.4670780794


def _mean_expansion_length(den: int, convention: Convention) -> float:
    length = HEILBRONN_PORTER * math.log(den) + PORTER_CONSTANT - 1.0
    return length + (1.0 if convention is Convention.LONG else 0.0)


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
    denominator.  A block planned past BLOCK_PAIR_CAP pairs ends at the
    last whole denominator within the cap, and the next block is planned
    from there.  So no block holds more than BLOCK_PAIR_CAP pairs (unless
    one denominator alone has more), and a consumer that reads one block at
    a time holds bounded memory for any n_digits.
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
            d_hi = den_block_top(
                d_lo, min(missing / per_pair, BLOCK_PAIR_CAP) / density)
        num, den = members_block(kind, d_lo, d_hi)
        if len(num) > BLOCK_PAIR_CAP:
            d_hi = max(int(den[BLOCK_PAIR_CAP]), int(den[0]) + 1)
            cut = int(np.searchsorted(den, d_hi))
            num, den = num[:cut], den[:cut]
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

    Keeps the last max_len - 1 digits it has read, so a window may span two
    calls to run, and counts each pattern with _window_hits over shifted
    slices of those digits followed by the new ones.  A digit outside
    1..2^63-1 is read as 0 before the int64 conversion: pattern digits are
    at least 1, so it matches no pattern and cannot overflow.
    """

    def __init__(self, patterns: Sequence[Union[Pattern, Sequence[int]]]):
        pats = [Pattern.coerce(s) for s in patterns]
        if not pats:
            raise ValueError("need at least one pattern")
        if len(set(p.digits for p in pats)) != len(pats):
            raise ValueError("patterns must be distinct")
        self.patterns = pats
        self.max_len = max(len(p) for p in pats)
        self.counts = [0] * len(pats)
        self.position = 0
        self._kept = np.empty(0, dtype=np.int64)

    def feed(self, digit: int, limit: Optional[int] = None) -> None:
        """Consume one digit; count pattern starts at positions <= limit."""
        self.run((digit,), limit)

    def run(self, digits: Iterable[int], limit: Optional[int] = None) -> None:
        """Consume the digits in order; count pattern starts at positions
        <= limit."""
        new = np.array([d if 0 < d < 2 ** 63 else 0 for d in digits],
                       dtype=np.int64)
        kept = len(self._kept)
        buf = np.concatenate((self._kept, new))
        # buf[i] is the digit at position first + i
        first = self.position - kept + 1
        self.position += len(new)
        for idx, p in enumerate(self.patterns):
            k = len(p)
            lo = max(kept - k + 1, 0)  # earlier windows were counted before
            hi = len(buf) - k + 1
            if limit is not None:
                hi = min(hi, limit - first + 1)
            if hi > lo:
                window = [buf[lo + j:hi + j] for j in range(k)]
                self.counts[idx] += int(np.count_nonzero(
                    _window_hits(window, p.digits)))
        self._kept = buf[max(len(buf) - self.max_len + 1, 0):].copy()

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
    if n < 1:
        raise ValueError("n must be >= 1")
    s = Pattern.coerce(s)
    k = len(s)
    if len(digits) < n + k - 1:
        raise ValueError(f"need {n + k - 1} digits, have {len(digits)}")
    window = [digits[j:j + n] for j in range(k)]
    return int(np.count_nonzero(_window_hits(window, s.digits)))


#: GrowthTracker.update_many and GridCounter.feed work through GROWTH_CHUNK
#: digits at a time, so their scratch memory is bounded.  Each chunk runs the ratio recurrence in up
#: to GROWTH_LANES lanes, each started GROWTH_WARMUP digits early from r = 0.
GROWTH_CHUNK = 1 << 16
GROWTH_LANES = 256
GROWTH_WARMUP = 64

#: continuant products stay in int64 while log2 of their entry bound is below
_INT64_PRODUCT_BITS = 62


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


def _continuant_products(a: np.ndarray) -> list[tuple[int, int]]:
    """First column (P11, P21) of the exact product of [[a_i, 1], [1, 0]]
    over each row of the two-dimensional int64 array a.

    A pairwise tree, vectorised over the rows.  No entry of a product
    exceeds the product of (a_i + 1), so a product is taken in int64 while
    log2 of that bound is below _INT64_PRODUCT_BITS.  The first level where
    some product reaches it takes those in Python ints, and every level
    above holds Python ints.
    """
    ones = np.ones_like(a)
    nodes = [a, ones, ones, np.zeros_like(a)]
    # float32 is close enough: the bound keeps a whole bit below 2**63
    bits = np.log2(a.astype(np.float32) + np.float32(1.0))
    while nodes[0].shape[1] > 1:
        carry = nodes[0].shape[1] % 2
        if carry:
            # an odd last node moves up a level unchanged
            tail = [x[:, -1:] for x in nodes]
            nodes = [x[:, :-1] for x in nodes]
        left = [x[:, 0::2] for x in nodes]
        right = [x[:, 1::2] for x in nodes]
        # at the top only the first column of the product is needed
        top = left[0].shape[1] == 1 and not carry
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
    if len(nodes) == 4:
        nodes = nodes[0::2]
    return list(zip(*(x[:, 0].tolist() for x in nodes)))


def _check_digit(a) -> None:
    if not 1 <= a < 2 ** 63 or a != int(a):
        raise ValueError("digits must be integers in 1..2**63 - 1")


class GrowthTracker:
    """Running log of the continuant q_n of the digits seen so far.

    Uses the stable recurrence  log q_n = log q_{n-1} + ln(a_n + q_{n-2}/q_{n-1})
    in doubles, and audits itself against exact big-integer continuants over
    each checkpoint window, whose digits it keeps.  The window's product
    [[W11, W12], [W21, W22]] of the matrices [[a, 1], [1, 0]] has
    W11 = K(window digits), W21 = K(window digits minus the first), and
    q_end = W11 q_start + W21 q_{start-1}, so the float value must stay
    within AUDIT_TOL of  log q_start + ln W11 + log1p((W21/W11) * ratio_start).

    update_many is the vectorised form of a loop of update calls and gives
    the same bits: the recurrence runs lane-parallel (_ratio_recurrence),
    the logs are math.log's, summed left to right, and the windows' first
    columns come from a pairwise tree (_continuant_products).  update takes
    its window's first column from core.continuants instead, so a loop of
    update calls shares no arithmetic with the tree.
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
        # the digits of the open audit window, in pieces that are joined once
        # per audit: int64 arrays from update_many, lists from update
        self._window: list = []
        self._kept = 0  # their number
        self._logq_start = self.logq
        self._ratio_start = self.ratio

    def _window_digits(self) -> np.ndarray:
        return (np.concatenate(self._window) if self._window
                else np.empty(0, dtype=np.int64))

    def update(self, a: int) -> None:
        _check_digit(a)
        t = a + self.ratio
        self.logq += math.log(t)
        self.ratio = 1.0 / t
        self.n += 1
        window = self._window
        if not window or type(window[-1]) is not list:
            window.append([])
        window[-1].append(a)
        self._kept += 1
        if self._kept >= self.audit_interval:
            _, _, w21, w11 = continuants(itertools.chain.from_iterable(window))
            self._audit(w11, w21)

    def update_many(self, digits: Iterable[int]) -> None:
        """update() on each digit in turn, at most GROWTH_CHUNK digits at a
        time; every digit is checked before any state changes.  Signed
        integer arrays need only their minimum checked; anything else is
        checked digit by digit, as update checks it."""
        a = digits if isinstance(digits, np.ndarray) else np.array(list(digits))
        if a.dtype.kind != "i":
            for x in a.tolist():
                _check_digit(x)
        elif len(a) and a.min() < 1:
            raise ValueError("digits must be >= 1")
        a = a.astype(np.int64, copy=False)
        for lo in range(0, len(a), GROWTH_CHUNK):
            self._update_chunk(a[lo:lo + GROWTH_CHUNK])

    def _update_chunk(self, a: np.ndarray) -> None:
        t = _ratio_recurrence(a, self.ratio)
        logq = np.fromiter(map(math.log, t.tolist()), np.float64, len(t))
        logq[0] += self.logq
        np.cumsum(logq, out=logq)
        n0 = self.n
        kept = self._kept
        size = self.audit_interval
        # the digits of the chunk that close whole windows
        lo = (kept + len(a)) // size * size - kept
        if lo > 0:
            self._window.append(a[:lo])
            columns = _continuant_products(
                self._window_digits().reshape(-1, size))
            # the audits fall after these many digits of the chunk
            ends = range(size - kept, lo + 1, size)
            for hi, (w11, w21) in zip(ends, columns):
                self.n = n0 + hi
                self.logq = float(logq[hi - 1])
                self.ratio = float(1.0 / t[hi - 1])
                self._audit(w11, w21)
        rest = a[max(lo, 0):]
        if len(rest):
            self._window.append(rest.copy())  # not a view of the caller's
            self._kept += len(rest)
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
        for c in self.prefixes[len(self.counts):]:
            # the window starts up to prefix c that these digits complete
            stop = min(len(sym) - (k - 1), c - self._starts)
            if stop <= 0:
                break
            code = np.zeros(stop, dtype=np.int64)
            valid = np.ones(stop, dtype=bool)
            for j, total in enumerate(self._totals):
                code = code * md + sym[j:j + stop]
                valid &= sym[j:j + stop] < md
                total += np.bincount(code[valid], minlength=md ** (j + 1))
            self._starts += stop
            sym = sym[stop:]
            if self._starts < c:
                break
            self.counts[c] = np.concatenate(self._totals)
        self._carry = sym[:k - 1].copy()


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


def hypothesis_ratios(kind: SequenceKind,
                      convention: Convention = Convention.LONG,
                      n: int = 10 ** 4) -> RatioReport:
    """The three diagnostic ratios N/sum L, N*max L/sum L, M/N at N, 2N, 4N.

    The first two vanishing and the last shrinking are what the aggregation
    argument for concatenated expansions needs; here they are just measured.
    The expansion lengths come from _euclid_counts with no digit stored, over
    denominator blocks of at most BLOCK_PAIR_CAP pairs, up to the block that
    reaches 4N digits.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    lengths, have, d_lo = [], 0, 2
    while have < 4 * n:
        # density 1 and a digit a pair: no more pairs than digits missing
        d_hi = den_block_top(d_lo, min(4 * n - have, BLOCK_PAIR_CAP))
        num, den = members_block(kind, d_lo, d_hi)
        lengths.append(_euclid_counts(num, den, (), convention, 0)[0])
        have += int(lengths[-1].sum())
        d_lo = d_hi
    report = length_ratios(np.concatenate(lengths), convention, n)
    report.params["kind"] = kind.value
    return report


def length_ratios(lengths: np.ndarray, convention: Convention,
                  n: int) -> RatioReport:
    """The ratio rows of hypothesis_ratios from a stream's expansion lengths.

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


def encode_varints(values: Union[Sequence[int], np.ndarray]) -> bytes:
    """Unsigned LEB128 of each value below 2**63, concatenated.

    A value below 128 is its own byte, so a stream of small digits encodes
    in one astype pass.  Each larger value gets its low 7-bit group with bit
    7 set in its own place, and its higher groups are inserted after it, low
    group first, every group but its last again with bit 7 set.
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
