"""Exact continued fraction arithmetic on rationals in (0, 1).

Every rational p/q with 0 < p < q and gcd(p, q) = 1 has exactly two finite
continued fraction expansions: the short one, whose last digit is at least 2,
and the long one, obtained by rewriting the tail <..., a> as <..., a-1, 1>.
Both are kept exact; all integer work uses Python's unbounded ints.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Sequence


class Convention(enum.Enum):
    """Which of the two expansions of a rational is meant."""

    SHORT = "short"
    LONG = "long"

    @classmethod
    def from_string(cls, text: str) -> "Convention":
        try:
            return cls(text.lower())
        except ValueError:
            raise ValueError(f"unknown convention {text!r}; use 'short' or 'long'") from None


@dataclass(frozen=True)
class Rational:
    """A rational number in (0, 1) held in lowest terms."""

    num: int
    den: int

    def __post_init__(self) -> None:
        if not (0 < self.num < self.den):
            raise ValueError(f"{self.num}/{self.den} is not in (0, 1)")
        if math.gcd(self.num, self.den) != 1:
            raise ValueError(f"{self.num}/{self.den} is not in lowest terms")

    def __str__(self) -> str:
        return f"{self.num}/{self.den}"

    @classmethod
    def parse(cls, text: str) -> "Rational":
        """Parse 'P/Q' into a Rational."""
        parts = text.split("/")
        if len(parts) != 2:
            raise ValueError(f"expected 'P/Q', got {text!r}")
        try:
            num, den = int(parts[0]), int(parts[1])
        except ValueError:
            raise ValueError(f"expected 'P/Q' with integer parts, got {text!r}") from None
        return cls(num, den)

    @classmethod
    def reduced(cls, num: int, den: int) -> "Rational":
        """Build a Rational from a not-necessarily-reduced pair."""
        g = math.gcd(num, den)
        return cls(num // g, den // g)


@dataclass(frozen=True)
class CFExpansion:
    """A finite digit string together with the convention it follows.

    Digits are all >= 1.  A SHORT expansion ends in a digit >= 2; a LONG one
    ends in 1.  The single string (1,) is allowed under LONG purely as the
    artifact produced by shifting a length-2 long expansion; it evaluates to
    1, which lies outside (0, 1), so evaluate() rejects it.
    """

    digits: tuple[int, ...]
    convention: Convention

    def __post_init__(self) -> None:
        if not self.digits:
            raise ValueError("expansion must have at least one digit")
        if any(d < 1 for d in self.digits):
            raise ValueError("all digits must be >= 1")
        if self.convention is Convention.SHORT:
            if self.digits[-1] < 2:
                raise ValueError("short expansion must end in a digit >= 2")
        else:
            if self.digits[-1] != 1:
                raise ValueError("long expansion must end in 1")

    def __len__(self) -> int:
        return len(self.digits)


@dataclass(frozen=True)
class Convergent:
    """The index-th convergent p/q of an expansion (index 0 is 0/1)."""

    p: int
    q: int
    index: int


def euclid_digits(num: int, den: int) -> list[int]:
    """Short-convention digits of num/den via the Euclidean algorithm.

    The pair need not be reduced; the digits are those of the reduced value.
    """
    if not (0 < num < den):
        raise ValueError(f"{num}/{den} is not in (0, 1)")
    digits = []
    while num:
        a, r = divmod(den, num)
        digits.append(a)
        den, num = num, r
    return digits


def cf_digits(num: int, den: int, convention: Convention) -> list[int]:
    """Digits of num/den (reduced or not) under the given convention."""
    digits = euclid_digits(num, den)
    if convention is Convention.LONG:
        # the short form always ends in a digit >= 2, so this never hits 0
        digits[-1] -= 1
        digits.append(1)
    return digits


def expand(r: Rational, convention: Convention = Convention.LONG) -> CFExpansion:
    """Continued fraction expansion of r under the given convention."""
    return CFExpansion(tuple(cf_digits(r.num, r.den, convention)), convention)


def continuants(digits: Sequence[int]) -> tuple[int, int, int, int]:
    """(p_{k-1}, q_{k-1}, p_k, q_k) of a digit string of length k, exactly.

    p_k/q_k is the string's value, and the empty string gives the seeds
    p_{-1}/q_{-1} = 1/0 and p_0/q_0 = 0/1.
    """
    p_prev, q_prev, p_cur, q_cur = 1, 0, 0, 1
    for a in digits:
        a = int(a)
        p_prev, p_cur = p_cur, a * p_cur + p_prev
        q_prev, q_cur = q_cur, a * q_cur + q_prev
    return p_prev, q_prev, p_cur, q_cur


def evaluate_digits(digits: Sequence[int]) -> tuple[int, int]:
    """Exact value of a digit string as a raw (num, den) pair in lowest terms.

    Works for any nonempty string of digits >= 1, including strings like (1,)
    whose value is 1/1 and therefore not a Rational.
    """
    if not digits:
        raise ValueError("cannot evaluate an empty digit string")
    if any(d < 1 for d in digits):
        raise ValueError("all digits must be >= 1")
    return continuants(digits)[2:]


def evaluate(e: CFExpansion) -> Rational:
    """Exact rational value of an expansion."""
    num, den = evaluate_digits(e.digits)
    if num >= den:
        raise ValueError(f"digit string {e.digits} evaluates to {num}/{den}, outside (0, 1)")
    return Rational(num, den)


def convergents(e: CFExpansion) -> list[Convergent]:
    """All convergents p_0/q_0 = 0/1 through p_L/q_L of the expansion.

    q follows q_0 = 1, q_1 = a_1, q_n = a_n q_{n-1} + q_{n-2}; p analogously
    with p_0 = 0, p_1 = 1.
    """
    out = [Convergent(0, 1, 0)]
    p_prev, q_prev = 1, 0
    p_cur, q_cur = 0, 1
    for i, a in enumerate(e.digits, start=1):
        p_prev, p_cur = p_cur, a * p_cur + p_prev
        q_prev, q_cur = q_cur, a * q_cur + q_prev
        out.append(Convergent(p_cur, q_cur, i))
    return out


def concat_rationals(r: Rational, r2: Rational,
                     convention: Convention = Convention.LONG) -> Rational:
    """Value of the digit string digits(r) ++ digits(r2).

    With p/q = r, v/u = r2, and p'/q' the value of r's expansion with its last
    digit removed (0/1 when r has a single digit), the concatenation equals
    (u p + v p') / (u q + v q').  Which expansion r uses changes the answer,
    so the convention matters; r2 enters only through its value.
    """
    p1, q1, _, _ = continuants(expand(r, convention).digits)
    v, u = r2.num, r2.den
    return Rational(u * r.num + v * p1, u * r.den + v * q1)


def gauss_shift(e: CFExpansion) -> CFExpansion | None:
    """Drop the first digit; None signals the empty expansion.

    On short expansions of length >= 2 this realizes the Gauss map on the
    underlying value.  Long expansions shift digit-wise all the way down to
    (1,) and then to None.
    """
    if len(e.digits) == 1:
        return None
    return CFExpansion(e.digits[1:], e.convention)


def gauss_map(x: float) -> float:
    """T(x) = 1/x mod 1, with T(0) = 0, on [0, 1)."""
    if not 0.0 <= x < 1.0:
        raise ValueError(f"gauss_map needs 0 <= x < 1, got {x}")
    if x == 0.0:
        return 0.0
    inv = 1.0 / x
    return inv - math.floor(inv)


def mirror(digits: Sequence[int]) -> tuple[int, ...]:
    """The digit string reversed."""
    return tuple(reversed(digits))
