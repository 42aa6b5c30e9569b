"""Best lower/upper approximation chains and minus continued fractions.

A best lower approximation of a rational alpha is a fraction c/d <= alpha
such that no fraction with smaller denominator lies in [c/d, alpha].  The
chains of these approximations are the backbone of the explicit one- and
two-point presentations: consecutive chain vectors (d, c) form a
positively oriented Z-basis of the plane lattice, and a chain is built by
the recurrence v_{i+1} = a_i * v_i - v_{i-1} of the minus continued
fraction (Khinchin, Continued Fractions, ch. I-II).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

from .errors import CanringError

Rational = Union[Fraction, int]


def parse_fraction(text: str) -> Fraction:
    """Parse "num/den" (or "num" when the denominator is 1)."""
    text = text.strip()
    if text in ("inf", "-inf"):
        raise CanringError("'inf' denotes a point at infinity, not a coefficient")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise CanringError(f"not a rational number: {text!r}") from exc


def format_fraction(value: Rational) -> str:
    """The text num/den, or num when the denominator is 1: str of a Fraction
    or an int (not a bool), and of any other value through Fraction."""
    if type(value) not in (Fraction, int):
        value = Fraction(value)
    return str(value)


@dataclass(frozen=True)
class LatticeVec2:
    """Lattice vector (d, c) standing for the fraction c/d with d >= 0."""

    d: int
    c: int

    def __post_init__(self) -> None:
        if self.d < 0:
            raise CanringError("lattice vector needs d >= 0")
        if self.d == 0 and self.c == 0:
            raise CanringError("lattice vector (0, 0) is not allowed")

    @staticmethod
    def from_fraction(fr: Rational) -> "LatticeVec2":
        fr = Fraction(fr)
        return LatticeVec2(fr.denominator, fr.numerator)

    def __add__(self, other: "LatticeVec2") -> "LatticeVec2":
        return LatticeVec2(self.d + other.d, self.c + other.c)


def cross(u: LatticeVec2, v: LatticeVec2) -> int:
    """2D cross product; positive when v lies counterclockwise of u."""
    return u.d * v.c - u.c * v.d


def minimal_denominator_in_interval(lo: Rational, hi: Rational) -> Fraction:
    """The fraction of minimal denominator in the closed interval [lo, hi].

    If several integers qualify the tie is broken toward the smallest
    absolute numerator and then toward the positive value; for denominators
    >= 2 the minimal-denominator fraction is unique.  With no integer in
    [lo, hi] and n = floor(lo), it is n + 1/y for the simplest y in
    [1/(hi - n), 1/(lo - n)]: the continued-fraction descent, run as a loop.
    """
    lo, hi = Fraction(lo), Fraction(hi)
    if lo > hi:
        raise CanringError(f"empty interval [{lo}, {hi}]")
    ilo, ihi = math.ceil(lo), math.floor(hi)
    if ilo <= ihi:
        if lo <= 0 <= hi:
            return Fraction(0)
        return Fraction(ilo if lo > 0 else ihi)
    p, q, r, s = 1, 0, 0, 1  # the answer is (p*y + r)/(q*y + s), y the simplest in [lo, hi]
    while math.ceil(lo) > hi:
        n = math.floor(lo)
        lo, hi = 1 / (hi - n), 1 / (lo - n)
        p, q, r, s = n * p + r, n * q + s, p, q
    y = math.ceil(lo)
    return Fraction(p * y + r, q * y + s)


def best_lower_approximations(alpha: Rational, start: Rational) -> tuple[Fraction, ...]:
    """All best lower approximations of alpha in [start, alpha], increasing.

    ``start`` must itself be a best lower approximation; the chain always
    terminates at alpha since alpha is rational.  Consecutive chain vectors
    satisfy v_{i-1} + v_{i+1} = a_i * v_i: with g(d, c) = p*d - q*c for
    alpha = p/q and any u with cross(u, v) = 1, the successor of v is
    a*v - u for the least a that keeps it at or below alpha.
    """
    alpha, start = Fraction(alpha), Fraction(start)
    if start > alpha:
        raise CanringError(f"start {start} exceeds target {alpha}")
    witness = minimal_denominator_in_interval(start, alpha)
    if witness.denominator != start.denominator:
        raise CanringError(
            f"{start} is not a best approximation of {alpha}: "
            f"{witness} has a smaller denominator"
        )
    p, q = alpha.numerator, alpha.denominator
    c, d = start.numerator, start.denominator
    ud = pow(c, -1, d)  # u = (0, -1) for an integer start
    uc = (ud * c - 1) // d
    gu, gv = p * ud - q * uc, p * d - q * c
    entries = [start]
    while gv:
        a = -(-gu // gv)
        ud, uc, d, c = d, c, a * d - ud, a * c - uc
        gu, gv = gv, a * gv - gu
        entries.append(Fraction(c, d))
    return tuple(entries)


def best_upper_approximations(beta: Rational, start: Rational) -> tuple[Fraction, ...]:
    """All best upper approximations of beta in [beta, start], decreasing.

    A best upper approximation of beta is the negative of a best lower
    approximation of -beta, so the chain is computed by reflection.
    """
    beta, start = Fraction(beta), Fraction(start)
    if start < beta:
        raise CanringError(f"start {start} lies below target {beta}")
    return tuple(-e for e in best_lower_approximations(-beta, -start))


def minus_continued_fraction(alpha: Rational) -> list[int]:
    """Partial quotients [e0, a1, ..., a_{r-1}] of the minus continued
    fraction of alpha > 0.

    The terms are read off the best lower approximation chain of alpha
    starting at 0: e0 is the denominator of the first nonzero entry and
    each a_i satisfies v_{i-1} + v_{i+1} = a_i * v_i on the chain vectors,
    which makes every a_i at least 2.  Reconstruction via
    ``minus_continued_fraction_value`` is exact.
    """
    alpha = Fraction(alpha)
    if alpha <= 0:
        raise CanringError("minus continued fraction requires alpha > 0")
    chain = [LatticeVec2.from_fraction(x) for x in best_lower_approximations(alpha, 0)]
    terms = [chain[1].d]
    for i in range(1, len(chain) - 1):
        a, rem = divmod(chain[i - 1].d + chain[i + 1].d, chain[i].d)
        if rem != 0 or chain[i - 1].c + chain[i + 1].c != a * chain[i].c:
            raise CanringError(f"chain of {alpha} violates the quotient identity")
        terms.append(a)
    return terms


def minus_continued_fraction_value(terms: Sequence[int]) -> Fraction:
    """Evaluate 1/(e0 - 1/(a1 - 1/(... - 1/a_{r-1}))) exactly."""
    if not terms:
        raise CanringError("empty expansion")
    acc = Fraction(terms[-1])
    for t in reversed(terms[:-1]):
        if acc == 0:
            raise CanringError("expansion hits a zero tail")
        acc = t - 1 / acc
    if acc == 0:
        raise CanringError("expansion evaluates to infinity")
    return 1 / acc
