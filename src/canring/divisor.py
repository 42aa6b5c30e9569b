"""Rational divisors on the projective line and their degree bookkeeping."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

from .errors import CanringError, UnsupportedDivisorError
from .ratapprox import Rational, format_fraction, parse_fraction


@dataclass(frozen=True)
class PointP1:
    """A point of the projective line: a rational value, or infinity (None)."""

    value: Optional[Fraction]

    @staticmethod
    def infinity() -> "PointP1":
        return PointP1(None)

    @staticmethod
    def of(value: Union[Rational, None, str, "PointP1"]) -> "PointP1":
        if isinstance(value, PointP1):
            return value
        if value is None:
            return PointP1(None)
        if isinstance(value, str):
            if value.strip() == "inf":
                return PointP1(None)
            return PointP1(parse_fraction(value))
        return PointP1(Fraction(value))

    @property
    def is_infinity(self) -> bool:
        return self.value is None

    def __str__(self) -> str:
        return "inf" if self.value is None else format_fraction(self.value)


@dataclass(frozen=True)
class QDivisor:
    """A formal sum of distinct points with rational coefficients."""

    points: tuple[PointP1, ...]
    alphas: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        if len(self.points) != len(self.alphas):
            raise CanringError("points and coefficients differ in length")
        if not self.points:
            raise CanringError("a divisor needs at least one point")
        if len(set(self.points)) != len(self.points):
            raise CanringError("divisor points must be pairwise distinct")

    @staticmethod
    def of(points: Sequence, alphas: Sequence[Rational]) -> "QDivisor":
        return QDivisor(
            tuple(PointP1.of(p) for p in points),
            tuple(Fraction(a) for a in alphas),
        )

    @property
    def n(self) -> int:
        return len(self.points)

    @property
    def degree(self) -> Fraction:
        return sum(self.alphas, Fraction(0))

    @property
    def denominators(self) -> tuple[int, ...]:
        return tuple(a.denominator for a in self.alphas)

    def __str__(self) -> str:
        terms = ", ".join(
            f"{format_fraction(a)}*({p})" for a, p in zip(self.alphas, self.points)
        )
        return f"QDivisor({terms})"


@dataclass(frozen=True)
class DenominatorData:
    """lcm data of the coefficient denominators: ell and the leave-one-out ell_i."""

    ell: int
    ell_i: tuple[int, ...]
    deg_D: Fraction


def denominator_data(D: QDivisor) -> DenominatorData:
    qs = D.denominators
    ell = math.lcm(*qs)
    ell_i = tuple(
        math.lcm(*(q for j, q in enumerate(qs) if j != i)) if D.n > 1 else 1
        for i in range(D.n)
    )
    return DenominatorData(ell, ell_i, D.degree)


def floor_divisor(D: QDivisor, d: int) -> list[int]:
    """Multiplicities of floor(d*D): b_i = floor(d * alpha_i)."""
    return [d * a.numerator // a.denominator for a in D.alphas]


def graded_dim(D: QDivisor, d: int) -> int:
    """dim of the degree-d graded piece: max(deg floor(d*D) + 1, 0)."""
    return max(sum(floor_divisor(D, d)) + 1, 0)


_GHOST_CANDIDATES = [None, 0, 1, -1, 2, -2, 3, -3]


def with_ghost_point(D: QDivisor) -> QDivisor:
    """Append one coefficient-zero point at an unused location."""
    used = set(D.points)
    for cand in _GHOST_CANDIDATES:
        pt = PointP1.of(cand)
        if pt not in used:
            return QDivisor(D.points + (pt,), D.alphas + (Fraction(0),))
    k = 4
    while PointP1.of(k) in used:
        k += 1
    return QDivisor(D.points + (PointP1.of(k),), D.alphas + (Fraction(0),))


def padded(D: QDivisor) -> QDivisor:
    """The divisor itself for n >= 2; a one-point divisor gains a ghost point.

    The exponent-vector combinatorics (sum of exponents = 0) needs at least
    two points to say anything, so one-point divisors are handled through
    this normalization everywhere downstream.
    """
    return D if D.n >= 2 else with_ghost_point(D)


def _require_positive_degree(D: QDivisor) -> None:
    deg = D.degree
    if deg < 0:
        raise UnsupportedDivisorError(
            f"total degree {deg} < 0: the ring is trivial"
        )
    if deg == 0:
        raise UnsupportedDivisorError(
            "total degree 0: the ring is a polynomial ring in one element; "
            "degree bounds do not apply"
        )


def degree_bounds(D: QDivisor) -> tuple[int, int]:
    """Strict upper bounds for generator and relation degrees.

    Generators live in degrees < sum_i ell_i and relations in degrees
    < max(ell + sum_i ell_i, 2 sum_i ell_i).  Requires degree > 0.
    """
    _require_positive_degree(D)
    data = denominator_data(padded(D))
    gen_bound = sum(data.ell_i)
    rel_bound = max(data.ell + gen_bound, 2 * gen_bound)
    return gen_bound, rel_bound


def semigroup_count_bound(D: QDivisor) -> int:
    """Upper bound n - 1 + ell_1 ... ell_n (deg D)^(n-1) on the number of
    semigroup generators (rays plus fundamental-cube points)."""
    _require_positive_degree(D)
    P = padded(D)
    data = denominator_data(P)
    count = Fraction(P.n - 1) + math.prod(data.ell_i) * data.deg_D ** (P.n - 1)
    return math.ceil(count)


def divisor_to_json(D: QDivisor, char: int = 0) -> dict:
    return {
        "points": [str(p) for p in D.points],
        "alphas": [format_fraction(a) for a in D.alphas],
        "char": char,
    }


def divisor_from_json(obj: dict) -> tuple[QDivisor, int]:
    try:
        points = obj["points"]
        alphas = obj["alphas"]
    except (KeyError, TypeError) as exc:
        raise CanringError(f"divisor object needs 'points' and 'alphas': {obj!r}") from exc
    if not (isinstance(points, list) and isinstance(alphas, list)):
        # a string or an object would be read one character or key at a time
        raise CanringError(f"malformed 'points' or 'alphas' in {obj!r}: both must be JSON lists")
    char = obj.get("char", 0)
    if type(char) is not int or char < 0:  # bool is an int subclass
        raise CanringError(f"malformed 'char' {char!r}: must be 0 or a prime")
    try:
        # a JSON float is binary, not the decimal it shows, and true reads 1
        if not all(isinstance(x, str) or type(x) is int for x in (*points, *alphas)):
            raise CanringError(
                f"malformed point or coefficient in {obj!r}: "
                "give strings or integers, not floats or booleans"
            )
        return QDivisor.of(points, alphas), char
    except CanringError:
        raise
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise CanringError(f"malformed point or coefficient in {obj!r}") from exc
