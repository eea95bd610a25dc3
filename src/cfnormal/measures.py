"""Cylinder sets of the Gauss map and their Lebesgue and Gauss measures.

The cylinder C_s for a digit string s = (d_1, ..., d_k) is the set of x in
[0, 1) whose first k continued fraction digits are exactly s.  Its endpoints
are the values <d_1, ..., d_k> = p_k/q_k and <d_1, ..., d_k + 1> =
(p_k + p_{k-1}) / (q_k + q_{k-1}); which endpoint is smaller alternates with
the parity of k.  Membership is taken on the half-open interval
[lower, upper).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

from .core import continuants

LN2 = math.log(2.0)

#: Khinchin-Levy exponent pi^2 / (12 ln 2): almost every x has
#: log q_N(x) / N -> g, and it is also (1/ln 2) * int_0^1 -ln(x)/(1+x) dx.
KHINCHIN_LEVY = math.pi ** 2 / (12.0 * LN2)

GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0


@dataclass(frozen=True)
class Pattern:
    """A finite digit string used as a frequency target."""

    digits: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.digits:
            raise ValueError("pattern must have at least one digit")
        if any(d < 1 for d in self.digits):
            raise ValueError("pattern digits must be >= 1")

    def __len__(self) -> int:
        return len(self.digits)

    def __iter__(self):
        return iter(self.digits)

    def __str__(self) -> str:
        return ",".join(str(d) for d in self.digits)

    @classmethod
    def parse(cls, text: str) -> "Pattern":
        """Parse '1,2' or '1 2' into a Pattern."""
        parts = text.replace(",", " ").split()
        if not parts:
            raise ValueError("empty pattern")
        try:
            digits = tuple(int(p) for p in parts)
        except ValueError:
            raise ValueError(f"pattern must be integers, got {text!r}") from None
        return cls(digits)

    @classmethod
    def coerce(cls, s: Union["Pattern", Sequence[int]]) -> "Pattern":
        if isinstance(s, cls):
            return s
        return cls(tuple(s))


@dataclass(frozen=True)
class CylinderGeometry:
    """Endpoints and the final two convergent pairs of a cylinder set."""

    lower: Fraction
    upper: Fraction
    pn: int
    qn: int
    pn1: int
    qn1: int


@dataclass(frozen=True)
class Constants:
    g: float
    G: float
    log2: float


def constants() -> Constants:
    """The Khinchin-Levy exponent g, the golden ratio G, and ln 2."""
    return Constants(g=KHINCHIN_LEVY, G=GOLDEN, log2=LN2)


def cylinder_geometry(s: Union[Pattern, Sequence[int]]) -> CylinderGeometry:
    """Exact endpoints of C_s, ordered so that lower < upper."""
    s = Pattern.coerce(s)
    pn1, qn1, pn, qn = continuants(s.digits)
    a = Fraction(pn, qn)
    b = Fraction(pn + pn1, qn + qn1)
    lower, upper = (a, b) if a < b else (b, a)
    return CylinderGeometry(lower=lower, upper=upper, pn=pn, qn=qn, pn1=pn1, qn1=qn1)


def lebesgue_measure(s: Union[Pattern, Sequence[int]]) -> Fraction:
    """lambda(C_s) = 1 / (q_k (q_k + q_{k-1})), exactly."""
    s = Pattern.coerce(s)
    _, qn1, _, qn = continuants(s.digits)
    return Fraction(1, qn * (qn + qn1))


def gauss_measure(s: Union[Pattern, Sequence[int]]) -> float:
    """mu(C_s) = log2((1 + upper) / (1 + lower)).

    Computed from the exact integer convergents as
    (1/ln 2) |ln( (p_k + q_k)(q_{k-1} + q_k) /
                  (q_k (p_{k-1} + p_k + q_{k-1} + q_k)) )|
    with a single log1p on the exact ratio, so deep cylinders stay accurate.
    """
    s = Pattern.coerce(s)
    pn1, qn1, pn, qn = continuants(s.digits)
    top = (pn + qn) * (qn1 + qn)
    bot = qn * (pn1 + pn + qn1 + qn)
    # log1p of an exact Fraction delta keeps precision when top/bot is near 1
    delta = Fraction(top - bot, bot)
    return abs(math.log1p(float(delta))) / LN2


def gauss_interval(lo: float, hi: float) -> float:
    """mu([lo, hi)) = log2((1 + hi) / (1 + lo)) for 0 <= lo <= hi <= 1."""
    if not (0.0 <= lo <= hi <= 1.0):
        raise ValueError("need 0 <= lo <= hi <= 1")
    return (math.log1p(hi) - math.log1p(lo)) / LN2


def sample_gauss(u):
    """Map a Uniform(0,1) draw to a Gauss-distributed point via 2**u - 1.

    Works elementwise on numpy arrays as well as on floats, since
    mu([0, x]) = log2(1 + x) makes this the exact inverse CDF.
    """
    return 2.0 ** u - 1.0


def pattern_grid(max_digit: int, max_len: int) -> list[Pattern]:
    """All patterns over digits 1..max_digit with length 1..max_len."""
    if max_digit < 1 or max_len < 1:
        raise ValueError("max_digit and max_len must be >= 1")
    out: list[Pattern] = []
    level: list[tuple[int, ...]] = [()]
    for _ in range(max_len):
        level = [t + (d,) for t in level for d in range(1, max_digit + 1)]
        out.extend(Pattern(t) for t in level)
    return out
