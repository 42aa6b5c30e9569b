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

    def reduces_to_infinity(self, p: int) -> bool:
        """True at inf, and in characteristic p > 0 at a value whose
        denominator p divides."""
        return self.value is None or (p > 0 and self.value.denominator % p == 0)

    def __hash__(self) -> int:  # of (num, den): a C tuple hash, not Fraction.__hash__
        v = self.value
        return hash(None if v is None else (v.numerator, v.denominator))

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
        return tuple([a.denominator for a in self.alphas])

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


def denominator_data(D: QDivisor) -> DenominatorData:
    qs = D.denominators
    ell = math.lcm(*qs)
    # the argument tuples from lists, not generators (see presentation._word)
    ell_i = tuple([
        math.lcm(*[q for j, q in enumerate(qs) if j != i]) if D.n > 1 else 1
        for i in range(D.n)
    ])
    return DenominatorData(ell, ell_i)


def floor_divisor(D: QDivisor, d: int) -> list[int]:
    """Multiplicities of floor(d*D): b_i = floor(d * alpha_i)."""
    return [d * a.numerator // a.denominator for a in D.alphas]


def graded_dim(D: QDivisor, d: int) -> int:
    """dim of the degree-d graded piece: max(deg floor(d*D) + 1, 0)."""
    return max(sum(floor_divisor(D, d)) + 1, 0)


def padded(D: QDivisor, characteristic: int = 0) -> QDivisor:
    """The divisor itself for n >= 2; a one-point divisor gains a ghost
    point of coefficient 0 at inf, or at 0 when its point is inf or
    reduces to inf in the given characteristic.

    The exponent-vector combinatorics (sum of exponents = 0) needs at least
    two points to say anything, so one-point divisors are handled through
    this normalization everywhere downstream.
    """
    if D.n >= 2:
        return D
    pt = D.points[0]
    ghost = PointP1.of(0 if pt.reduces_to_infinity(characteristic) else None)
    return QDivisor(D.points + (ghost,), D.alphas + (Fraction(0),))


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


_CERTIFICATE_CAP = 1 << 16  # the largest |degree| and split count a certificate searches


def parameter_certificate(D: QDivisor) -> Optional[tuple[int, int, int, int]]:
    """(a, e_1, e_2, s) of a system of parameters of two monomials, from
    the coefficients alone; None when deg D <= 0 or a search passes its cap.

    For deg D > 0, S_D is a normal graded domain of dimension 2 (Demazure,
    "Anneaux gradues normaux", 1988), so it is Cohen-Macaulay, with
    a-invariant a = max{d : r(d) <= -2}, r(d) = sum_i floor(d alpha_i) for
    every integer d, as H^2_m(S_D)_d = H^1(P^1, O(floor(dD))) (Watanabe,
    Nagoya Math. J. 83, 1981).  The monomial u^e prod t_i^{c_i} vanishes,
    on the stacky curve, exactly at the points i with c_i + e alpha_i > 0.
    Split the padded points into nonempty T and S: for e_1 the least
    multiple of lcm(q_j : j in T) with r(e_1) >= 0, some monomial y_1 of
    degree e_1 has c_j = -e_1 alpha_j on T, so no zero there, and y_2 of
    degree e_2 likewise on S.  With no common zero, y_1
    and y_2 are a regular sequence in every field and configuration, S_D
    is free over k[y_1, y_2], and S_D / (y_1, y_2) has top degree s = a +
    e_1 + e_2 (Bruns-Herzog, Cohen-Macaulay Rings, ch. 3 and 4).  So every
    minimal generator has degree at most G = max(s, e_1, e_2), and the
    relations in any generating monomials of weights w are generated in
    degrees at most B = s + max w: they are spanned by x_j M_l minus its
    expansion over k[y_1, y_2] in the M_l, monomials whose images are a
    basis of S_D / (y_1, y_2) (Sturmfels, Algorithms in Invariant Theory,
    ch. 2).  The split taken has the least e_1 + e_2, the first such in
    the order of T's bitmask.

    As floor(x) >= x - (q - 1)/q on (1/q)Z, r(d) >= d deg D - sum_i (1 -
    1/q_i), which exceeds -2 above the degree where the scan for a starts;
    e_1 is memoized by its lcm.
    """
    pq = [(a.numerator, a.denominator) for a in padded(D).alphas]
    ell, cap = math.lcm(*[q for _, q in pq]), _CERTIFICATE_CAP
    num = sum([p * (ell // q) for p, q in pq])  # deg D = num / ell
    if num <= 0 or len(pq) > 17:  # past 2^16 splits
        return None

    def r(d: int) -> int:
        return sum([d * p // q for p, q in pq])

    a = (sum([(q - 1) * (ell // q) for _, q in pq]) - 2 * ell) // num
    while -cap <= a <= cap and r(a) > -2:
        a -= 1
    if not -cap <= a <= cap:
        return None
    lcms = [1]  # lcm(q_j : j in T) by the bitmask of T
    for _, q in pq:
        lcms += [math.lcm(L, q) for L in lcms]
    least: dict[int, int] = {}  # e by lcm
    for L in lcms[1:-1]:
        if L not in least:
            e = L
            while e <= cap and r(e) < 0:
                e += L
            if e > cap:
                return None
            least[L] = e
    es = [least[L] for L in lcms[1:-1]]  # by T; the complement of T is read reversed
    sums = [x + y for x, y in zip(es, reversed(es))]
    T = sums.index(min(sums))
    return a, es[T], es[-1 - T], a + sums[T]


def semigroup_count_bound(D: QDivisor) -> int:
    """Upper bound n - 1 + ell_1 ... ell_n (deg D)^(n-1) on the number of
    semigroup generators (rays plus fundamental-cube points)."""
    _require_positive_degree(D)
    P = padded(D)
    data = denominator_data(P)
    count = Fraction(P.n - 1) + math.prod(data.ell_i) * P.degree ** (P.n - 1)
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
