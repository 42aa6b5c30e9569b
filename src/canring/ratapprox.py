"""Best lower/upper approximation chains and minus continued fractions.

A best lower approximation of a rational alpha is a fraction c/d <= alpha
such that no fraction with smaller denominator lies in [c/d, alpha].  The
chains of these approximations are the backbone of the explicit one- and
two-point presentations: consecutive chain vectors (d, c) form a
positively oriented Z-basis of the plane lattice.
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


def _sb_between(lo: Fraction, hi: Fraction, lo_open: bool, hi_open: bool) -> Fraction:
    """Minimal-denominator fraction in an integer-free interval.

    Stern-Brocot mediant descent inside the integer gap containing
    [lo, hi], with steps in the same direction batched so the walk takes
    O(log max-denominator) iterations.  With no integer available the
    minimal-denominator element is unique, so the open/closed flags fully
    determine the result.
    """
    n = math.floor(lo)
    ln, ld = n, 1  # left bound, <= the interval
    rn, rd = n + 1, 1  # right bound, >= the interval
    lop, loq = lo.numerator, lo.denominator
    hin, hiq = hi.numerator, hi.denominator
    while True:
        mn, md = ln + rn, ld + rd
        below = mn * loq - lop * md  # sign of mediant - lo
        if below < 0 or (below == 0 and lo_open):
            # mediant still too small: batch right steps
            a = rn * loq - lop * rd  # > 0 since R > lo
            b = lop * ld - ln * loq  # >= 0 since L <= lo
            k = b // a if lo_open else (b - 1) // a
            k = max(k, 1)
            ln, ld = ln + k * rn, ld + k * rd
            continue
        above = mn * hiq - hin * md  # sign of mediant - hi
        if above > 0 or (above == 0 and hi_open):
            # mediant still too big: batch left steps
            a = hin * ld - ln * hiq  # > 0 since L < hi
            b = rn * hiq - hin * rd  # >= 0 since R >= hi
            k = b // a if hi_open else (b - 1) // a
            k = max(k, 1)
            rn, rd = k * ln + rn, k * ld + rd
            continue
        return Fraction(mn, md)


def minimal_denominator_in_interval(lo: Rational, hi: Rational) -> Fraction:
    """The fraction of minimal denominator in the closed interval [lo, hi].

    If several integers qualify the tie is broken toward the smallest
    absolute numerator and then toward the positive value; for denominators
    >= 2 the minimal-denominator fraction is unique.
    """
    lo, hi = Fraction(lo), Fraction(hi)
    if lo > hi:
        raise CanringError(f"empty interval [{lo}, {hi}]")
    ilo, ihi = math.ceil(lo), math.floor(hi)
    if ilo <= ihi:
        if lo <= 0 <= hi:
            return Fraction(0)
        return Fraction(ilo if lo > 0 else ihi)
    if lo == hi:
        return lo
    return _sb_between(lo, hi, lo_open=False, hi_open=False)


def _next_lower(x: Fraction, alpha: Fraction) -> Fraction:
    """Successor of the best lower approximation x < alpha.

    This is the minimal-denominator fraction in (x, alpha], taking the
    smallest value when several integers share denominator 1.
    """
    m = math.floor(x) + 1
    if m <= alpha:
        return Fraction(m)
    return _sb_between(x, alpha, lo_open=True, hi_open=False)


def best_lower_approximations(alpha: Rational, start: Rational) -> tuple[Fraction, ...]:
    """All best lower approximations of alpha in [start, alpha], increasing.

    ``start`` must itself be a best lower approximation; the chain always
    terminates at alpha since alpha is rational.
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
    entries = [start]
    x = start
    while x != alpha:
        x = _next_lower(x, alpha)
        entries.append(x)
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
