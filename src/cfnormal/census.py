"""Classifying rationals by how typical their digit statistics are.

A rational with q in lowest terms and digit string of length L is judged on
two numbers: how far the pattern frequency A_s/L sits from the Gauss measure
of the pattern's cylinder, and how far (ln q)/L sits from the Khinchin-Levy
exponent.  Small deviations on both counts make it normal for the given
tolerance.  Aggregate censuses run that test over whole denominator ranges.

The same module houses the exceptional-set predicates over digit prefixes
(frequency deviation at depth N, growth deviation at depth N) and Monte Carlo
estimators of their Gauss measure, including an exact digit sampler that
stays faithful at any depth.
"""

from __future__ import annotations

import functools
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .core import Convention, Rational, continuants, expand
from .enumeration import (BLOCK_PAIR_CAP, KIND_SETS, SequenceKind, count_R,
                          den_block_top, members_block)
from .errors import ResourceLimitError
from .measures import KHINCHIN_LEVY, Pattern, gauss_measure
from .streams import _euclid_counts, _window_hits

CENSUS_ROW_LIMIT = 2 * 10 ** 8
#: raw pairs in one denominator chunk, the unit of a census's pool work
CHUNK_PAIRS = 2 * 10 ** 6
#: every kind's count_R here exceeds CENSUS_ROW_LIMIT (type3's is the least,
#: 3.08e9), so the row guard never counts, or builds tables, past it
ROW_COUNT_BOUND = 10 ** 6
#: estimate_measure samples this many rows at a time
SAMPLE_BLOCK = 1 << 16
#: rows and depth of each Newton pilot run in _tune_theta
PILOT_ROWS = 1500
PILOT_DEPTH = 1200
#: kinds whose members are closed under n/d -> (d-n)/d: those whose
#: numerator set is every integer, since gcd(d - n, d) = gcd(n, d)
MIRROR_KINDS = frozenset(kind for kind, (_, num_set) in KIND_SETS.items()
                         if num_set is None)


def resolve_threads(value: Optional[int] = None) -> int:
    """Explicit value, else the CFNORMAL_THREADS variable, else core count."""
    if value is not None:
        if value < 1:
            raise ValueError("threads must be >= 1")
        return value
    env = os.environ.get("CFNORMAL_THREADS")
    if env:
        if not env.strip().isdecimal() or int(env) < 1:
            raise ValueError(
                f"CFNORMAL_THREADS must be an integer >= 1, got {env!r}")
        return int(env)
    return os.cpu_count() or 1


# ---------------------------------------------------------------------------
# per-rational classification

@dataclass(frozen=True)
class NormalityParams:
    epsilon: float
    s: Pattern
    convention: Convention = Convention.LONG

    def __post_init__(self) -> None:
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError("epsilon must lie in (0, 1)")
        object.__setattr__(self, "s", Pattern.coerce(self.s))


@dataclass(frozen=True)
class NormalityCheck:
    """Outcome of the two-inequality test, with both left-hand sides."""

    normal: bool
    freq_dev: float
    growth_dev: float
    a_count: int
    length: int
    log_den: float

    def __bool__(self) -> bool:
        return self.normal


def digit_length(r: Rational, convention: Convention = Convention.LONG) -> int:
    return len(expand(r, convention))


def _window_count(digits: Sequence[int], s_digits: tuple[int, ...],
                  starts: int) -> int:
    """#{0 <= i < starts : digits[i:i+k] == s}; overlaps count."""
    k = len(s_digits)
    total = 0
    for i in range(starts):
        if tuple(digits[i:i + k]) == s_digits:
            total += 1
    return total


def is_eps_s_normal(r: Rational, p: NormalityParams) -> NormalityCheck:
    """Both deviations strictly below epsilon: frequency and growth.

    The frequency side compares A_s over the rational's own digits (no
    read-ahead; the string is finite) against the cylinder measure.  The
    growth side compares ln(q)/L against the Khinchin-Levy exponent, q being
    the lowest-terms denominator.  A pattern longer than the digit string
    simply has A_s = 0.
    """
    digits = expand(r, p.convention).digits
    length = len(digits)
    a = _window_count(digits, p.s.digits, length - len(p.s) + 1)
    mu = gauss_measure(p.s)
    log_den = math.log(r.den)
    freq_dev = abs(a / length - mu)
    growth_dev = abs(log_den / length - KHINCHIN_LEVY)
    return NormalityCheck(
        normal=freq_dev < p.epsilon and growth_dev < p.epsilon,
        freq_dev=freq_dev,
        growth_dev=growth_dev,
        a_count=a,
        length=length,
        log_den=log_den,
    )


# ---------------------------------------------------------------------------
# vectorized classification over denominator blocks

def _block_occurrences(mat: np.ndarray, s_digits: tuple[int, ...]
                       ) -> np.ndarray:
    """Rowwise count of s in a zero-padded digit matrix; the window scan
    behind _gamma_block, over its n leading digit columns.  A window that
    reaches into the padding never matches, since s has no digit 0."""
    k = len(s_digits)
    starts = max(mat.shape[1] - k + 1, 0)
    window = [mat[:, j:j + starts] for j in range(k)]
    return _window_hits(window, s_digits).sum(axis=1)


def _abnormal(counts: np.ndarray, lengths: np.ndarray, logq: np.ndarray,
              p: NormalityParams) -> np.ndarray:
    freq_dev = np.abs(counts / lengths - gauss_measure(p.s))
    growth_dev = np.abs(logq / lengths - KHINCHIN_LEVY)
    return ~((freq_dev < p.epsilon) & (growth_dev < p.epsilon))


def _classify_block(num: np.ndarray, den: np.ndarray, p: NormalityParams,
                    mirror: bool = False) -> tuple[int, int]:
    """(rows, abnormal rows) for the given member pairs.

    With mirror set, the pairs must be the half of a mirror-closed block
    with 2n <= d, as members_block(..., half=True) gives them, and each
    stands for itself and its mirror (d-n)/d.  Each row O with 2n < d also
    classifies its mirror M = (1, O[0]-1) ++ O[1:] (Knuth, TAOCP vol. 2,
    4.5.3): the same q, length L+1, and a count of s that differs only in
    the windows at M's first two positions and O's first.  A row with
    2n = d is its own mirror and counts once.
    """
    s = p.s.digits
    lengths, counts, first, gcd = _euclid_counts(num, den, s, p.convention,
                                                 len(s))
    logq = np.log((den // gcd).astype(np.float64))
    bad = int(_abnormal(counts, lengths, logq, p).sum())
    if not mirror:
        return len(num), bad
    f = [first[:, j] for j in range(len(s))]
    head = f[0] - 1
    m_counts = (counts - _window_hits(f, s)
                + _window_hits(([1, head] + f[1:])[:len(s)], s)
                + _window_hits([head] + f[1:], s))
    m_bad = _abnormal(m_counts, lengths + 1, logq, p)
    single = 2 * num == den
    bad += int(np.count_nonzero(m_bad & ~single))
    return 2 * len(num) - int(np.count_nonzero(single)), bad


def _census_chunk(kind: SequenceKind, lo: int, hi: int, half: bool,
                  classify: Callable[[np.ndarray, np.ndarray], tuple[int, int]]
                  ) -> tuple[int, int]:
    """(rows, counted rows) of the members with lo <= den < hi (with half
    set, those with 2n <= d), classified by classify in slices of at most
    BLOCK_PAIR_CAP rows, so its arrays stay cache-sized."""
    num, den = members_block(kind, lo, hi, half=half)
    rows = hits = 0
    for a in range(0, len(num), BLOCK_PAIR_CAP):
        r, h = classify(num[a:a + BLOCK_PAIR_CAP], den[a:a + BLOCK_PAIR_CAP])
        rows += r
        hits += h
    return rows, hits


def _fan_out(runs: Sequence[tuple], threads: int) -> list:
    """The results of the (fn, *args) runs, in order: from up to threads
    worker processes, or, with one thread or one run, run in turn."""
    if threads > 1 and len(runs) > 1:
        with ProcessPoolExecutor(max_workers=min(threads, len(runs))) as pool:
            futures = [pool.submit(*run) for run in runs]
            return [f.result() for f in futures]
    return [fn(*args) for fn, *args in runs]


def _census(kind: SequenceKind, m: int, half: bool, classify: Callable,
            threads: int, what: str) -> tuple[int, int]:
    """(rows, counted rows) over every member with denominator up to m, in
    denominator chunks of about CHUNK_PAIRS raw pairs fanned out over up to
    threads processes; the partial counts add.  The row guard refuses a
    census past CENSUS_ROW_LIMIT, and the rows must total count_R."""
    expected = _guarded_count(kind, m, what)
    bounds = [2]
    while bounds[-1] <= m:
        bounds.append(min(den_block_top(bounds[-1], CHUNK_PAIRS), m + 1))
    runs = [(_census_chunk, kind, lo, hi, half, classify)
            for lo, hi in zip(bounds, bounds[1:])]
    total = hits = 0
    for rows, h in _fan_out(runs, threads):
        total += rows
        hits += h
    if total != expected:
        raise AssertionError(f"classified {total} members, expected {expected}")
    return total, hits


@dataclass
class CensusReport:
    kind: SequenceKind
    m: int
    params: NormalityParams
    total: int
    abnormal: int
    wall_time: float = field(default=0.0, compare=False)

    CSV_HEADER = "m,kind,eps,s,total,abnormal,ratio"

    @property
    def ratio(self) -> float:
        return self.abnormal / self.total if self.total else 0.0

    def to_json_dict(self) -> dict:
        return {
            "params": {
                "kind": self.kind.value,
                "m": self.m,
                "eps": self.params.epsilon,
                "s": list(self.params.s.digits),
                "conv": self.params.convention.value,
                "den_range": [2, self.m],
            },
            "total": self.total,
            "abnormal": self.abnormal,
            "ratio": self.ratio,
        }

    def to_csv_row(self) -> str:
        s = str(self.params.s)  # RFC 4180: quote a field that holds commas
        s = f'"{s}"' if "," in s else s
        return (f"{self.m},{self.kind.value},{self.params.epsilon},"
                f"{s},{self.total},{self.abnormal},{self.ratio}")


def _guarded_count(kind: SequenceKind, m: int, what: str) -> int:
    """count_R(kind, m), refused with ResourceLimitError above
    CENSUS_ROW_LIMIT; counted at min(m, ROW_COUNT_BOUND), so a refusal builds
    no table that grows with m."""
    top = min(m, ROW_COUNT_BOUND)
    expected = count_R(kind, top)
    if expected > CENSUS_ROW_LIMIT:
        raise ResourceLimitError(
            f"{what} exceeds the row limit {CENSUS_ROW_LIMIT}: {expected} "
            f"members have a denominator up to {top}")
    return expected


def run_census(kind: SequenceKind, m: int, p: NormalityParams,
               threads: Optional[int] = 1) -> CensusReport:
    """Classify every member with denominator up to m.

    Work proceeds over denominator chunks sized to keep the member arrays
    modest; with threads > 1 the chunks fan out over processes and the
    partial counts merge additively.  threads goes through resolve_threads,
    so None reads CFNORMAL_THREADS or the core count.
    """
    threads = resolve_threads(threads)
    if m < 3:
        raise ValueError("m must be >= 3")
    start = time.perf_counter()
    mirror = kind in MIRROR_KINDS  # enumerate only the members with 2n <= d
    total, abnormal = _census(
        kind, m, mirror,
        functools.partial(_classify_block, p=p, mirror=mirror),
        threads, "census")
    return CensusReport(kind=kind, m=m, params=p, total=total,
                        abnormal=abnormal,
                        wall_time=time.perf_counter() - start)


# ---------------------------------------------------------------------------
# the exceptional-prefix families Gamma and Gamma'

def n_delta(m: int, delta: float) -> int:
    """floor((1 - 2 delta) ln(m) / g); the reference prefix depth for m."""
    if m < 3:
        raise ValueError("m must be >= 3")
    if not 0.0 < delta < 1.0 / 3.0:
        raise ValueError("delta must lie in (0, 1/3)")
    return int(math.floor((1.0 - 2.0 * delta) * math.log(m) / KHINCHIN_LEVY))


@dataclass(frozen=True)
class GammaParams:
    m: int
    delta: float
    eta: float
    s: Pattern

    def __post_init__(self) -> None:
        n_delta(self.m, self.delta)  # validates m and delta
        if self.eta <= 0.0:
            raise ValueError("eta must be positive")
        object.__setattr__(self, "s", Pattern.coerce(self.s))

    @property
    def n(self) -> int:
        return n_delta(self.m, self.delta)


def in_gamma(r: Rational, gp: GammaParams,
             convention: Convention = Convention.LONG) -> bool:
    """Membership in the exceptional family for (m, delta, s, eta).

    True when the denominator is at most m and the expansion is either
    shorter than n, or its depth-n convergent denominator strays from the
    expected growth by more than delta, or the pattern frequency over the
    first n digits strays from the cylinder measure by more than eta.
    """
    n = gp.n
    if n < 1:
        raise ValueError("n_delta is 0 for these parameters; the prefix "
                         "conditions are vacuous")
    if r.den > gp.m:
        return False
    digits = expand(r, convention).digits
    if len(digits) < n:
        return True
    if abs(math.log(continuant_den(digits[:n])) / n - KHINCHIN_LEVY) > gp.delta:
        return True
    freq = _window_count(digits, gp.s.digits, n - len(gp.s) + 1) / n
    return abs(freq - gauss_measure(gp.s)) > gp.eta


def _gamma_block(num: np.ndarray, den: np.ndarray, gp: GammaParams,
                 convention: Convention) -> np.ndarray:
    """Vectorized in_gamma over lowest-terms pairs (den <= gp.m assumed),
    read from the first n digits of each row."""
    n = gp.n
    lengths, _, first, _ = _euclid_counts(num, den, (), convention, n)
    short = lengths < n
    q_prev = np.zeros(len(num))
    q_cur = np.ones(len(num))
    for j in range(n):
        a = first[:, j].astype(np.float64)
        q_prev, q_cur = q_cur, a * q_cur + q_prev
    with np.errstate(divide="ignore", invalid="ignore"):
        growth_bad = np.abs(np.log(q_cur) / n - KHINCHIN_LEVY) > gp.delta
    counts = _block_occurrences(first, gp.s.digits)
    freq_bad = np.abs(counts / n - gauss_measure(gp.s)) > gp.eta
    return short | growth_bad | freq_bad


def _gamma_rows(num: np.ndarray, den: np.ndarray, gp: GammaParams,
                convention: Convention) -> tuple[int, int]:
    """(rows, rows in Gamma) of the given pairs, a classifier for _census."""
    return len(num), int(np.count_nonzero(
        _gamma_block(num, den, gp, convention)))


@dataclass
class GammaCensus:
    m: int
    params: GammaParams
    convention: Convention
    total: int
    members: int

    @property
    def ratio(self) -> float:
        return self.members / self.total if self.total else 0.0


def gamma_census(gp: GammaParams,
                 convention: Convention = Convention.LONG) -> GammaCensus:
    """Count the exceptional rationals among all lowest-terms den <= m."""
    if gp.n < 1:
        raise ValueError("n_delta is 0 for these parameters")
    total, members = _census(
        SequenceKind.ALL_LOWEST_TERMS, gp.m, False,
        functools.partial(_gamma_rows, gp=gp, convention=convention),
        1, "gamma census")
    return GammaCensus(m=gp.m, params=gp, convention=convention,
                       total=total, members=members)


def gamma_prime_q_bounds(gp: GammaParams) -> tuple[float, float]:
    """The denominator window every accepted depth-n prefix must land in."""
    g = KHINCHIN_LEVY
    lo = gp.m ** ((1.0 - 2.0 * gp.delta) * (1.0 - gp.delta / (12.0 * g))) \
        * math.exp(-2.0 * g)
    hi = gp.m ** ((1.0 - 2.0 * gp.delta) * (1.0 + gp.delta / g))
    return lo, hi


def gamma_prime_contains(prefix: Sequence[int], gp: GammaParams) -> bool:
    """Whether the rank-n cylinder of this prefix belongs to the good union.

    All three conditions are non-strict: growth of the depth-n denominator
    within delta, growth of the depth-(n-1) denominator within delta/12, and
    the window frequency of the fixed pattern within eta of its cylinder
    measure.  Distinct prefixes name disjoint cylinders, so membership is a
    property of the prefix alone.
    """
    n = gp.n
    digits = tuple(int(d) for d in prefix)
    if len(digits) != n:
        raise ValueError(f"prefix length {len(digits)} != n = {n}")
    if n < 2:
        raise ValueError("need n >= 2: the second growth condition reads "
                         "the depth-(n-1) denominator")
    if any(d < 1 for d in digits):
        raise ValueError("digits must be >= 1")
    _, qn1, _, qn = continuants(digits)
    g = KHINCHIN_LEVY
    if abs(math.log(qn) / n - g) > gp.delta:
        return False
    if abs(math.log(qn1) / (n - 1) - g) > gp.delta / 12.0:
        return False
    freq = _window_count(digits, gp.s.digits, n - len(gp.s) + 1) / n
    return abs(freq - gauss_measure(gp.s)) <= gp.eta


# ---------------------------------------------------------------------------
# exceptional sets of real prefixes

def continuant_den(digits: Sequence[int]) -> int:
    """Exact q of the finite string (big integer)."""
    return continuants(digits)[3]


def in_E_set(digits: Sequence[int], epsilon: float,
             s: Union[Pattern, Sequence[int]], n: int) -> bool:
    """Frequency deviation beyond epsilon (relative) at depth n.

    Counts starts in positions 1..n; occurrences may extend up to k-1 digits
    further, so the prefix must supply n+k-1 digits.  The deviation test is
    strict: |A - mu n| > epsilon mu n.
    """
    s = Pattern.coerce(s)
    k = len(s)
    if n < 1:
        raise ValueError("n must be >= 1")
    if len(digits) < n + k - 1:
        raise ValueError(f"need {n + k - 1} digits, have {len(digits)}")
    a = _window_count(digits, s.digits, n)
    mu_n = gauss_measure(s) * n
    return abs(a - mu_n) > epsilon * mu_n


def in_F_set(digits: Sequence[int], epsilon: float, n: int) -> bool:
    """Growth deviation beyond epsilon at depth n, from the exact q_n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if len(digits) < n:
        raise ValueError(f"need {n} digits, have {len(digits)}")
    q = continuant_den(digits[:n])
    return abs(math.log(q) / n - KHINCHIN_LEVY) > epsilon


# ---------------------------------------------------------------------------
# sampling digit prefixes under the Gauss measure

def _digit_of(y: np.ndarray) -> np.ndarray:
    """floor(1/y) of each entry of a float64 array, as int64 clamped to
    [1, 2^62]; an infinite or NaN reciprocal gives 2^62."""
    with np.errstate(divide="ignore", over="ignore"):
        a = np.divide(1.0, y)
    np.floor(a, out=a)
    a[np.isinf(a)] = 2.0 ** 62
    np.fmin(a, 2.0 ** 62, out=a)  # NaN too
    np.maximum(a, 1.0, out=a)
    return a.astype(np.int64)


class GaussDigitSampler:
    """Exact digit prefixes of Gauss-distributed reals, any depth.

    Conditioned on the digits so far (convergents p1/q1 before p2/q2), the
    shifted tail y of a Gauss-distributed x has density proportional to
    1/((1+r y)(1+rho y)) with r = q1/q2 and rho = (p1+q1)/(p2+q2).  That
    family is closed under emitting a digit: both parameters update by
    t -> 1/(a+t).  The inverse CDF is elementary, the state recursion is
    contractive, and so double precision is enough at any depth; iterating
    the Gauss map forward, by contrast, sheds accuracy with every digit.
    At the start (r, rho) = (0, 1) and the first draw reproduces the plain
    inverse-CDF sample 2^u - 1.

    r and rho differ by O(1/q2^2), so within a few dozen digits they round
    to the same double in every row; equality is absorbing, since both
    update by the same map.  From the first state in which every row has
    r == rho the sampler is merged: self.r is self.rho, one array, the law
    is the one-parameter (1+rho)/(1+rho y)^2, and the CDF and its inverse
    use only their k = 0 forms.  Those are the expressions the two-parameter
    state already takes on its k = 0 rows, so merging changes no bit.
    """

    def __init__(self, n: int):
        if n < 1:
            raise ValueError("need at least one sample row")
        self.n = n
        self._set_state(np.zeros(n), np.ones(n))

    def _set_state(self, r: np.ndarray, rho: np.ndarray) -> None:
        """Take the new (r, rho) and the per-row terms the CDF and its
        inverse share: r - rho, the scale k = ln((1+r)/(1+rho)) (written to
        stay accurate when r ~ rho), and the rows where k is 0.  When every
        row has k = 0, r == rho throughout and the state merges.

        Here and in _cdf and _inverse each formula runs in place on as few
        temporaries as its operations allow, which keeps the peak memory of
        the first, two-parameter steps down."""
        self.r, self.rho = r, rho
        self.diff = r - rho
        self.k = 1.0 + rho
        np.divide(self.diff, self.k, out=self.k)
        np.log1p(self.k, out=self.k)
        self.deg = self.k == 0.0
        self.any_deg = bool(self.deg.any())
        if self.any_deg and self.deg.all():
            self.rho = r
            self.diff = self.k = None  # only the two-parameter forms read them

    def _cdf(self, t) -> np.ndarray:
        merged = self.r is self.rho
        den = self.rho * t
        den += 1.0
        if not merged:
            # log1p(diff t / (1 + rho t)) / k
            c = self.diff * t
            c /= den
            np.log1p(c, out=c)
            with np.errstate(invalid="ignore"):
                c /= self.k
            if not self.any_deg:
                return c
        # the k = 0 rows: t (1 + rho) / (1 + rho t)
        flat = 1.0 + self.rho
        flat *= t
        flat /= den
        if merged:
            return flat
        np.copyto(c, flat, where=self.deg)
        return c

    def _inverse(self, u: np.ndarray) -> np.ndarray:
        merged = self.r is self.rho
        if not merged:
            # expm1(u k) / (diff - rho expm1(u k))
            em = u * self.k
            np.expm1(em, out=em)
            t = self.rho * em
            np.subtract(self.diff, t, out=t)
            with np.errstate(invalid="ignore", divide="ignore"):
                np.divide(em, t, out=t)
            if not self.any_deg:
                return t
            del em
        # the k = 0 rows: u / (1 + rho - u rho)
        flat = 1.0 + self.rho
        flat -= u * self.rho
        np.divide(u, flat, out=flat)
        if merged:
            return flat
        np.copyto(t, flat, where=self.deg)
        return t

    def push(self, a: np.ndarray) -> np.ndarray:
        """Emit digit a in every row.  Returns a + r: r is q_{j-2}/q_{j-1},
        so that is q_j/q_{j-1}, the row's continuant growth."""
        grow = a + self.r
        if self.r is self.rho:  # merged: deg stays True, diff and k unset
            self.r = self.rho = 1.0 / grow
        else:
            self.diff = self.k = None  # freed before the new state's are made
            rho = a + self.rho
            np.divide(1.0, rho, out=rho)
            self._set_state(1.0 / grow, rho)
        return grow

    def _digit_interval(self, d: int) -> tuple[np.ndarray, np.ndarray]:
        """(CDF at 1/(d+1), P(next digit = d | state)): digit d is the tail
        interval (1/(d+1), 1/d].  The CDF at 1 is exactly 1.0: its log1p is
        the same expression as k, and the k = 0 rows, like every row of a
        merged state, give (1+rho)/(1+rho)."""
        if d < 1:
            raise ValueError(f"digits are >= 1, got {d}")
        c_lo = self._cdf(1.0 / (d + 1.0))
        c_hi = 1.0 if d == 1 else self._cdf(1.0 / d)
        return c_lo, c_hi - c_lo

    def prob_digit(self, d: int) -> np.ndarray:
        """P(next digit = d | state), an interval of the tail distribution."""
        return self._digit_interval(d)[1]

    def step(self, rng: np.random.Generator) -> np.ndarray:
        u = rng.random(self.n)
        a = _digit_of(self._inverse(u))
        self.push(a)
        return a

    def draw_tilted(self, et: Union[float, np.ndarray], d: int,
                    u: np.ndarray
                    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """One digit under an exponential tilt of the indicator {digit = d}.

        et is the tilt factor e^theta, a float or one value per row, and u
        the step's uniforms.  A row emits d when its uniform is below
        q = p et / (1 + p (et - 1)), where p is the state-conditional
        probability of d; otherwise the same uniform, rescaled, draws from
        the exact conditional law on the complement.  Returns the digits, the
        mask of the rows that emitted d (the rows whose digit is d: the
        complement branch never gives d), p and q.
        """
        c_lo, p = self._digit_interval(d)
        q = p * et
        den = p * (et - 1.0)
        den += 1.0
        q /= den
        pick = u < q
        not_p = 1.0 - p
        u3 = u - q
        u3 /= 1.0 - q
        u3 *= not_p
        # the complement rows have 0 <= u3 <= 1 - p (or NaN) and keep it; the
        # rows that emit d get a finite dummy in the same range
        np.abs(u3, out=u3)
        np.minimum(u3, not_p, out=u3)
        u3 += p * (u3 >= c_lo)  # step over d's interval
        a = _digit_of(self._inverse(u3))
        # guard the measure-zero boundary roundings out of the d bucket
        a += a == d
        a += (d - a) * pick
        self.push(a)
        return a, pick, p, q

    def step_tilted(self, theta: float, d: int, rng: np.random.Generator
                    ) -> tuple[np.ndarray, np.ndarray]:
        """draw_tilted's digits and the per-row log importance weight
        increment, so averaging weight * indicator over many rows stays
        unbiased for the untilted chain.  Both branches of the weight are
        computed on every row: gathering each branch's rows costs more."""
        a, pick, p, q = self.draw_tilted(math.exp(theta), d,
                                         rng.random(self.n))
        dlogw = np.where(pick,
                         np.log(p) - np.log(q),
                         np.log1p(-p) - np.log1p(-q))
        return a, dlogw

    def sample_matrix(self, depth: int,
                      rng: np.random.Generator) -> np.ndarray:
        out = np.empty((self.n, depth), dtype=np.int64)
        for j in range(depth):
            out[:, j] = self.step(rng)
        return out


@dataclass
class MeasureEstimate:
    estimate: float
    stderr: float
    n_samples: int
    hits: int

    def to_json_dict(self) -> dict:
        return {"estimate": self.estimate, "stderr": self.stderr,
                "n_samples": self.n_samples, "hits": self.hits}


def estimate_measure(predicate: Callable[[np.ndarray], np.ndarray],
                     depth: int, n_samples: int,
                     seed: int = 0) -> MeasureEstimate:
    """Gauss-measure of a digit-prefix event by direct sampling.

    The predicate receives a (rows x depth) digit matrix and must return a
    boolean row mask.  The digits come from the exact chain sampler
    GaussDigitSampler, faithful at any depth.  A fixed seed gives identical
    results; rows are drawn SAMPLE_BLOCK at a time.
    """
    if n_samples < 10 ** 3:
        raise ValueError("need at least 1000 samples")
    if depth < 1:
        raise ValueError("depth must be >= 1")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    hits = 0
    done = 0
    while done < n_samples:
        rows = min(SAMPLE_BLOCK, n_samples - done)
        digits = GaussDigitSampler(rows).sample_matrix(depth, rng)
        mask = np.asarray(predicate(digits), dtype=bool)
        if mask.shape != (rows,):
            raise ValueError("predicate must return one boolean per row")
        hits += int(mask.sum())
        done += rows
    est = hits / n_samples
    return MeasureEstimate(estimate=est,
                           stderr=math.sqrt(est * (1.0 - est) / n_samples),
                           n_samples=n_samples, hits=hits)


@dataclass
class GrowthEstimate:
    mean: float
    stderr: float
    depth: int
    n_samples: int


def _log_growth(n_samples: int, seed: np.random.SeedSequence,
                steps: Sequence[int]) -> list[tuple[int, np.ndarray]]:
    """(step, ln q_step of each row) at each of the ascending steps, over
    n_samples Gauss-sampled points, by ln q_j = ln q_{j-1} + ln(a_j + r) with
    r = q_{j-2}/q_{j-1}: the sampler's step, taking a_j + r from push."""
    rng = np.random.default_rng(seed)
    sampler = GaussDigitSampler(n_samples)
    logq = np.zeros(n_samples)
    done = 0
    out = []
    for target in steps:
        for _ in range(target - done):
            grow = sampler.push(
                _digit_of(sampler._inverse(rng.random(n_samples))))
            logq += np.log(grow, out=grow)
            del grow  # not kept through the next draw: it sets the peak
        done = target
        out.append((target, logq.copy()))
    return out


def mc_growth_rate(depth: int = 100, n_samples: int = 10 ** 4,
                   seed: int = 0) -> GrowthEstimate:
    """Mean of (ln q_depth)/depth over Gauss-sampled points."""
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if n_samples < 2:
        raise ValueError("need at least 2 samples for a standard error")
    ((_, logq),) = _log_growth(n_samples, np.random.SeedSequence(seed), [depth])
    vals = logq / depth
    return GrowthEstimate(mean=float(vals.mean()),
                          stderr=float(vals.std(ddof=1) / math.sqrt(n_samples)),
                          depth=depth, n_samples=n_samples)


# ---------------------------------------------------------------------------
# decay of the exceptional sets, measured

def _logsumexp(v: np.ndarray) -> float:
    if v.size == 0:
        return float("-inf")
    m = float(v.max())
    return m + math.log(float(np.exp(v - m).sum()))


@dataclass
class ERow:
    n: int
    estimate: float
    log_estimate: float
    rel_stderr: float

    def to_json_dict(self) -> dict:
        return {"N": self.n, "estimate": self.estimate,
                "log_estimate": self.log_estimate,
                "rel_stderr": self.rel_stderr}


@dataclass
class FRow:
    n: int
    estimate: float
    stderr: float
    hits: int

    def to_json_dict(self) -> dict:
        return {"N": self.n, "estimate": self.estimate,
                "stderr": self.stderr, "hits": self.hits}


@dataclass
class EFDecayReport:
    params: dict
    rows_e: list[ERow]
    rows_f: list[FRow]

    def to_json_dict(self) -> dict:
        return {"params": self.params,
                "rows_e": [r.to_json_dict() for r in self.rows_e],
                "rows_f": [r.to_json_dict() for r in self.rows_f]}


def _tune_theta(d: int, targets: Sequence[float],
                seeds: Sequence[np.random.SeedSequence]) -> tuple[float, ...]:
    """Tilt strengths whose mean digit-d frequencies land near the targets.

    Each starts from the closed form for an independent Bernoulli stream
    (the digits are close to one) and applies two Newton corrections
    measured on short pilot runs of PILOT_ROWS rows.  The pilots run in
    lockstep as row slices of one sampler; each slice draws its uniforms
    from its own target's seed and counts only its own rows, so each theta
    is the one a pilot of its own would give.  The pilots only count the
    emitted d, so they draw without the importance weights.
    """
    rngs = [np.random.default_rng(seed) for seed in seeds]
    p0 = gauss_measure([d])
    ts = [min(max(target, 1e-3), 1.0 - 1e-3) for target in targets]
    thetas = [math.log(t * (1.0 - p0) / (p0 * (1.0 - t))) for t in ts]
    u = np.empty(len(ts) * PILOT_ROWS)
    slices = [u[i * PILOT_ROWS:(i + 1) * PILOT_ROWS] for i in range(len(ts))]
    for _ in range(2):
        sampler = GaussDigitSampler(len(u))
        et = np.repeat([math.exp(theta) for theta in thetas], PILOT_ROWS)
        counts = np.zeros(len(ts), dtype=np.int64)
        for _ in range(PILOT_DEPTH):
            for rng, part in zip(rngs, slices):
                rng.random(out=part)
            _, pick, _, _ = sampler.draw_tilted(et, d, u)
            counts += np.count_nonzero(pick.reshape(len(ts), PILOT_ROWS),
                                       axis=1)
        for i, (t, count) in enumerate(zip(ts, counts.tolist())):
            frac = count / (PILOT_ROWS * PILOT_DEPTH)
            thetas[i] += (t - frac) / max(frac * (1.0 - frac), 1e-3)
    return tuple(thetas)


def _tilted_tail_run(d: int, theta: float, checkpoints: Sequence[int],
                     n_samples: int, threshold_frac: float, upper: bool,
                     seed: np.random.SeedSequence
                     ) -> dict[int, tuple[float, float]]:
    """One tilted pass; per checkpoint the log mean and log stderr of the
    weighted tail indicator."""
    rng = np.random.default_rng(seed)
    sampler = GaussDigitSampler(n_samples)
    logw = np.zeros(n_samples)
    count = np.zeros(n_samples, dtype=np.int64)
    marks = set(checkpoints)
    out: dict[int, tuple[float, float]] = {}
    log_n = math.log(n_samples)
    for step in range(1, max(checkpoints) + 1):
        a, dlw = sampler.step_tilted(theta, d, rng)
        logw += dlw
        count += a == d
        if step in marks:
            bound = threshold_frac * step
            hit = count > bound if upper else count < bound
            lw = logw[hit]
            l1 = _logsumexp(lw) - log_n
            l2 = _logsumexp(2.0 * lw) - log_n
            if lw.size:
                # Var(mean) = (M2 - M1^2)/n, kept in the log domain
                gap = min(2.0 * l1 - l2, 0.0)
                log_var = l2 + math.log1p(-math.exp(gap)) - log_n \
                    if gap < 0.0 else float("-inf")
                log_se = 0.5 * log_var
            else:
                log_se = float("-inf")
            out[step] = (l1, log_se)
    return out


def _f_decay_run(checkpoints: Sequence[int], n_samples: int, epsilon: float,
                 seed: np.random.SeedSequence) -> list[FRow]:
    rows = []
    for step, logq in _log_growth(n_samples, seed, checkpoints):
        hits = int((np.abs(logq / step - KHINCHIN_LEVY) > epsilon).sum())
        p = hits / n_samples
        rows.append(FRow(n=step, estimate=p,
                         stderr=math.sqrt(p * (1.0 - p) / n_samples),
                         hits=hits))
    return rows


def ef_decay_estimates(checkpoints: Sequence[int] = (100, 1000, 10 ** 4),
                       n_samples: int = 10 ** 5,
                       eps_e: float = 0.5,
                       s: Union[Pattern, Sequence[int]] = (1,),
                       eps_f: float = 0.1,
                       seed: int = 0,
                       threads: Optional[int] = 1) -> EFDecayReport:
    """Monte Carlo decay of both exceptional sets along one set of depths.

    The growth set is estimated by plain sampling.  The frequency set is far
    too small for that beyond shallow depths (its measure falls like
    e^{-cN}), so each tail is estimated by importance sampling on the digit
    chain, exponentially tilted so the tilted mean frequency sits at the
    tail's own threshold; weighted averages are unbiased for the plain
    chain, and the two tails add.  Estimates are reported both raw (which
    may underflow to zero at large depth) and in the log domain.  The three
    passes run on up to threads processes, resolved as run_census does.
    """
    s = Pattern.coerce(s)
    if len(s) != 1:
        raise ValueError("the tilted estimator handles single-digit patterns")
    if n_samples < 10 ** 3:
        raise ValueError("need at least 1000 samples")
    cps = sorted(set(int(c) for c in checkpoints))
    if not cps or cps[0] < 1:
        raise ValueError("need checkpoints, each >= 1")
    for name, eps in (("eps_e", eps_e), ("eps_f", eps_f)):
        if not (math.isfinite(eps) and eps > 0.0):
            raise ValueError(f"{name} must be finite and > 0, got {eps}")
    threads = resolve_threads(threads)
    d = s.digits[0]
    mu = gauss_measure(s)
    frac_hi = (1.0 + eps_e) * mu
    frac_lo = (1.0 - eps_e) * mu
    seeds = np.random.SeedSequence(seed).spawn(5)
    theta_hi, theta_lo = _tune_theta(d, (frac_hi, frac_lo), seeds[:2])

    runs = [
        (_tilted_tail_run, d, theta_hi, cps, n_samples, frac_hi, True, seeds[2]),
        (_tilted_tail_run, d, theta_lo, cps, n_samples, frac_lo, False, seeds[3]),
        (_f_decay_run, cps, n_samples, eps_f, seeds[4]),
    ]
    hi_out, lo_out, rows_f = _fan_out(runs, threads)

    rows_e = []
    for cp in cps:
        l1h, lseh = hi_out[cp]
        l1l, lsel = lo_out[cp]
        log_est = float(np.logaddexp(l1h, l1l))
        est = math.exp(log_est) if log_est > -745.0 else 0.0
        log_se = 0.5 * float(np.logaddexp(2.0 * lseh, 2.0 * lsel))
        rel = math.exp(log_se - log_est) if math.isfinite(log_est) else float("inf")
        rows_e.append(ERow(n=cp, estimate=est, log_estimate=log_est,
                           rel_stderr=rel))
    params = {
        "checkpoints": cps, "n_samples": n_samples, "eps_e": eps_e,
        "s": list(s.digits), "eps_f": eps_f, "seed": seed,
        "method_e": "tilted-importance", "theta_hi": theta_hi,
        "theta_lo": theta_lo, "method_f": "plain",
    }
    return EFDecayReport(params=params, rows_e=rows_e, rows_f=rows_f)
