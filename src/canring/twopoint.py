"""Closed-form presentations for section rings supported at two points.

The ring of a divisor alpha*P + beta*Q with alpha + beta >= 0 is generated
by the monomials along the best-approximation chains between -beta and
alpha, one generator per chain vector, with a quadratic relation
f_i f_j = f_h^a f_{h+1}^b for every index pair at distance >= 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from .errors import TrivialRingError
from .ratapprox import (
    LatticeVec2,
    Rational,
    best_lower_approximations,
    best_upper_approximations,
    cross,
    format_fraction,
    minimal_denominator_in_interval,
)


@dataclass(frozen=True)
class TwoPointRelation:
    """f_i f_j = f_h^a f_{h+1}^b; b = 0 encodes the single-monomial form."""

    i: int
    j: int
    h: int
    a: int
    b: int


@dataclass(frozen=True)
class TwoPointPresentation:
    """Generators indexed -s..r by increasing slope, plus their relations."""

    alpha: Fraction
    beta: Fraction
    generators: tuple[LatticeVec2, ...]
    neg_count: int  # s: number of generators below the seed
    relations: tuple[TwoPointRelation, ...]

    @property
    def pos_count(self) -> int:
        return len(self.generators) - 1 - self.neg_count

    def generator(self, i: int) -> LatticeVec2:
        """Generator by chain index, -s <= i <= r; IndexError outside."""
        k = i + self.neg_count
        if not 0 <= k < len(self.generators):
            raise IndexError(f"generator index {i} outside -{self.neg_count}..{self.pos_count}")
        return self.generators[k]

    @property
    def indices(self) -> range:
        return range(-self.neg_count, self.pos_count + 1)

    @property
    def is_polynomial_ring(self) -> bool:
        return not self.relations


def two_point_presentation(alpha: Rational, beta: Rational) -> TwoPointPresentation:
    """Minimal presentation of the ring of alpha*P + beta*Q.

    The seed generator is the minimal-denominator fraction in
    [-beta, alpha]; the remaining generators follow the best lower chain up
    to alpha and the best upper chain down to -beta.  For every pair (i, j)
    with j >= i + 2 the vector v_i + v_j is located in the fan of
    consecutive chain angles by binary search on exact cross products,
    which yields the exponents of the monomial f_h^a f_{h+1}^b it equals.

    Raises TrivialRingError when alpha + beta < 0.  When alpha + beta = 0
    the result is the polynomial ring on the single seed generator.
    """
    alpha, beta = Fraction(alpha), Fraction(beta)
    if alpha + beta < 0:
        raise TrivialRingError(
            f"divisor {alpha}*P + {beta}*Q has negative degree; the ring is trivial"
        )
    seed = minimal_denominator_in_interval(-beta, alpha)
    lower = list(best_lower_approximations(alpha, seed))
    upper = list(best_upper_approximations(-beta, seed))
    s = len(upper) - 1
    chain = [*reversed(upper[1:]), *lower]
    vecs = [LatticeVec2.from_fraction(x) for x in chain]

    relations = []
    total = len(vecs)
    for ii in range(total):
        for jj in range(ii + 2, total):
            target = vecs[ii] + vecs[jj]
            lo, hi = ii, jj - 1
            while lo < hi:
                mid = (lo + hi + 1) // 2
                if cross(vecs[mid], target) >= 0:
                    lo = mid
                else:
                    hi = mid - 1
            h = lo
            b = cross(vecs[h], target)
            a = cross(target, vecs[h + 1])
            if a < 1 or b < 0 or h <= ii or (b and h + 1 >= jj):
                raise AssertionError(
                    f"angle location failed for pair ({ii - s}, {jj - s})"
                )
            relations.append(TwoPointRelation(ii - s, jj - s, h - s, a, b))

    return TwoPointPresentation(alpha, beta, tuple(vecs), s, tuple(relations))


def verify_presentation(p: TwoPointPresentation) -> bool:
    """Exactness check: every relation balances in degree and exponent, and
    the generator/relation counts match the chain length."""
    total = len(p.generators)
    if total != p.pos_count + p.neg_count + 1:
        return False
    expected_pairs = (total - 1) * (total - 2) // 2
    if len(p.relations) != expected_pairs:
        return False
    seen = set()
    for rel in p.relations:
        if rel.j < rel.i + 2 or not (rel.i < rel.h < rel.j):
            return False
        if rel.a < 1 or rel.b < 0:
            return False
        if rel.b and rel.h + 1 >= rel.j:
            return False
        try:
            vi, vj = p.generator(rel.i), p.generator(rel.j)
            vh, vh1 = p.generator(rel.h), p.generator(rel.h + 1)
        except IndexError:
            return False
        if vi.d + vj.d != rel.a * vh.d + rel.b * vh1.d:
            return False
        if vi.c + vj.c != rel.a * vh.c + rel.b * vh1.c:
            return False
        seen.add((rel.i, rel.j))
    return len(seen) == expected_pairs


def presentation_to_json(p: TwoPointPresentation) -> dict:
    return {
        "alpha": format_fraction(p.alpha),
        "beta": format_fraction(p.beta),
        "offset": p.neg_count,
        "generators": [[v.d, v.c] for v in p.generators],
        "relations": [
            {"i": r.i, "j": r.j, "h": r.h, "a": r.a, "b": r.b} for r in p.relations
        ],
    }
