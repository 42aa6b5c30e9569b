"""General-n engine: concrete graded pieces over an exact field, minimal
generator selection, relation ideals, truncated Groebner leading terms,
and stability scans over point configurations.

Sections are realized as polynomials: the monomial u^d prod t_i^{c_i}
maps to prod over finite points of (t - p_i)^(c_i + b_i) where
b_i = floor(d * alpha_i), a polynomial of degree <= r = deg floor(dD)
stored as a coefficient vector of length r + 1.  Infinite points
contribute the constant section 1.

Products are formed over the integers: a finite point a/q contributes the
factor (q t - a), whose powers each realization tabulates, and a section
is one integer product divided once by its denominator prod q_i^(g_i)
(in GF(p) the factor is (t - p_i), reduced mod p).  Sections therefore
keep the rational coordinates of the monic factors (t - p_i).

Relations and Groebner leading terms come from one degreewise pass that
renders only the standard monomials and the new leading terms.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Optional, Sequence

from .conelattice import GradedMonomial, monomial_basis
from .divisor import (
    PointP1,
    QDivisor,
    degree_bounds,
    denominator_data,
    floor_divisor,
    padded,
)
from .errors import (
    CanringError,
    GenerationError,
    OversizeError,
    PointCollisionError,
    UnsupportedDivisorError,
)
from .exactla import (
    ExactMatrix,
    FieldSpec,
    RowBasis,
    SparseRowBasis,
    TrackingRowBasis,
    kernel_basis,
    rank,
)
from .ratapprox import format_fraction

INFINITE = object()  # marker for a point at infinity inside a field realization


@dataclass(frozen=True)
class GeneratorRecord:
    """A minimal generator: its degree, monomial, rendered section, and
    vanishing order at the marked (first) point of the divisor."""

    degree: int
    monomial: GradedMonomial
    section: tuple
    order_at_marked_point: int


@dataclass(frozen=True)
class RelationPoly:
    """Weighted-homogeneous polynomial in the generator variables, stored
    as (exponent tuple, coefficient) terms; maps to zero in the ring."""

    degree: int
    terms: tuple[tuple[tuple[int, ...], object], ...]

    @property
    def support(self) -> tuple[tuple[int, ...], ...]:
        return tuple(e for e, _ in self.terms)

    @property
    def support_size(self) -> int:
        return len(self.terms)


@dataclass(frozen=True)
class GroebnerReport:
    """Divisibility-minimal leading terms of the relation ideal, computed
    degree by degree up to the stated truncation."""

    order: str
    leading_terms: tuple[tuple[int, ...], ...]
    truncation_degree: int


def _poly_mul(field: FieldSpec, a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Product of integer coefficient vectors, reduced mod p in GF(p)."""
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b, i):
                if bj:
                    out[j] += ai * bj
    p = field.characteristic
    return [c % p for c in out] if p else out


def _cleared(vec: Sequence[Fraction]) -> tuple[list[int], int]:
    """Integer numerators of a rational vector over their common denominator."""
    # unpack a list, not a generator: CPython builds a generator's argument
    # tuple by resizing, which piles tuples up in its per-size free lists
    den = math.lcm(*[c.denominator for c in vec])
    return [c.numerator * (den // c.denominator) for c in vec], den


class _Realization:
    """A divisor with its points embedded in a concrete field."""

    def __init__(self, D: QDivisor, field: FieldSpec):
        self.divisor = padded(D)
        self.field = field
        self.points = []
        for pt in self.divisor.points:
            if pt.is_infinity:
                self.points.append(INFINITE)
                continue
            p = field.characteristic
            if p and pt.value.denominator % p == 0:
                self.points.append(INFINITE)  # reduces to the infinite point
            else:
                self.points.append(field.of(pt.value))
        seen = set()
        for orig, reduced in zip(self.divisor.points, self.points):
            key = ("inf",) if reduced is INFINITE else ("fin", reduced)
            if key in seen:
                raise PointCollisionError(
                    f"points of {self.divisor} collide in {field} (at {orig})"
                )
            seen.add(key)
        self._floors: dict[int, list[int]] = {}
        self._bases: dict[int, list[GradedMonomial]] = {}
        self._sections: dict[int, list[list]] = {}
        self._zero = field.zero
        self._denominators: list[int] = []  # q_i, or 0 at an infinite point
        self._powers: list[list[list[int]]] = []  # (q_i t - a_i)^k by k, grown on demand
        for pt in self.points:
            if pt is INFINITE:
                self._denominators.append(0)
                self._powers.append([[1]])
            elif field.characteristic:
                self._denominators.append(1)
                self._powers.append([[1], [field.neg(pt), 1]])
            else:
                self._denominators.append(pt.denominator)
                self._powers.append([[1], [-pt.numerator, pt.denominator]])

    def floors(self, d: int) -> list[int]:
        if d not in self._floors:
            self._floors[d] = floor_divisor(self.divisor, d)
        return self._floors[d]

    def r(self, d: int) -> int:
        return sum(self.floors(d))

    def dim(self, d: int) -> int:
        return max(self.r(d) + 1, 0)

    def basis(self, d: int) -> list[GradedMonomial]:
        if d not in self._bases:
            self._bases[d] = monomial_basis(self.divisor, d)
        return self._bases[d]

    def _power(self, i: int, k: int) -> list[int]:
        """(q_i t - a_i)^k; the constant 1 at an infinite point."""
        table = self._powers[i]
        if self._denominators[i]:
            while len(table) <= k:
                table.append(_poly_mul(self.field, table[-1], table[1]))
            return table[k]
        return table[0]

    def _product(self, poly: list[int], exponents: Sequence[int]) -> tuple[list[int], int]:
        """poly times prod_i (q_i t - a_i)^(g_i), with prod_i q_i^(g_i)."""
        den = 1
        for i, g in enumerate(exponents):
            if g and self._denominators[i]:
                poly = _poly_mul(self.field, poly, self._power(i, g))
                den *= self._denominators[i] ** g
        return poly, den

    def _to_field(self, poly: list[int], den: int, width: int) -> list:
        """The field vector poly / den, padded to width coordinates."""
        if any(poly[width:]):
            raise AssertionError("section left the graded piece")
        zero = self._zero
        if self.field.characteristic:
            out = poly[:width]
        else:
            out = [Fraction(c, den) if c else zero for c in poly[:width]]
        out += [zero] * (width - len(out))
        return out

    def render_exponents(self, exponents: Sequence[int], width: int) -> list:
        """Coefficients of prod over finite points of (t - p_i)^(g_i)."""
        return self._to_field(*self._product([1], exponents), width)

    def render(self, mono: GradedMonomial) -> list:
        b = self.floors(mono.d)
        return self.render_exponents(
            [ci + bi for ci, bi in zip(mono.c, b)], self.r(mono.d) + 1
        )

    def basis_sections(self, d: int) -> list[list]:
        if d not in self._sections:
            self._sections[d] = [self.render(m) for m in self.basis(d)]
        return self._sections[d]

    def multiply(self, d1: int, v1: Sequence, d2: int, v2: Sequence) -> list:
        """Product of sections, expressed in the coordinates of degree d1+d2."""
        d = d1 + d2
        b, b1, b2 = self.floors(d), self.floors(d1), self.floors(d2)
        if self.field.characteristic:
            den = 1
        else:
            v1, den1 = _cleared(v1)
            v2, den2 = _cleared(v2)
            den = den1 * den2
        poly, excess_den = self._product(
            _poly_mul(self.field, v1, v2),
            [bi - bi1 - bi2 for bi, bi1, bi2 in zip(b, b1, b2)],
        )
        return self._to_field(poly, den * excess_den, self.r(d) + 1)

    def defect_sections(self, d: int, subset: frozenset[int]) -> list[list[int]]:
        """Spanning rows of u^d H^0(floor(dD) - sum_{i in subset} P_i) in
        degree-d coordinates, each an integer multiple of a section; empty
        when that space is zero."""
        b = self.floors(d)
        e = sum(b) - len(subset)
        if e < 0:
            return []
        width = self.r(d) + 1
        base, _ = self._product(
            [1], [1 if i in subset and i > 1 else 0 for i in range(len(b))]
        )
        g0, g1 = int(0 in subset), int(1 in subset)
        out = []
        for k in range(e + 1):
            row = _poly_mul(self.field, base, self._power(0, g0 + k))
            row = _poly_mul(self.field, row, self._power(1, g1 + e - k))
            out.append(row + [0] * (width - len(row)))
        return out

    def marked_order(self, mono: GradedMonomial) -> int:
        """Vanishing order at the first point, as a section of floor(dD)."""
        return mono.c[0] + self.floors(mono.d)[0]


def _pregen_subsets(real: _Realization, d: int) -> Optional[set[frozenset[int]]]:
    """Defect subsets A_c of the products S_c * S_{d-c}.

    S_c S_{d-c} is V_A = u^d H^0(floor(dD) - sum_{i in A} P_i) for A = A_c,
    the sections of degree d that vanish at the points of A (at infinity:
    degree <= r - 1).  In the dual of S_d = k[t]_{<=r}, V_A is annihilated
    by span(E_i : i in A), E_i the evaluation at P_i (at infinity, the
    coefficient of t^r).  Evaluations at k distinct points of P^1 are
    independent when k <= r + 1 = dim S_d, so if the minimal subsets cover
    at most dim S_d points, the annihilator of sum_A V_A is the
    intersection of the span(E_A), span(E_{cap A}): the span has dimension
    dim S_d - |cap A|.  The size guard is needed: past it the E_i are
    dependent and the span can be smaller (alphas -3/2, -1/3, 2/3, 3/2 at
    inf, 0, 1, -1: degree 6 has dim 3 and minimal subsets {0, 3}, {1, 2},
    whose span has rank 2, so degree 6 has a generator).

    Returns None when the degree is certified fully pregenerated: the
    minimal subsets have empty intersection (some split with no defect
    included) and cover at most dim S_d points.  Else returns the
    inclusion-minimal subsets, whose defect sections span sum_A V_A.
    """
    floors_d = real.floors(d)
    subsets: set[frozenset[int]] = set()
    for c in range(1, d // 2 + 1):
        if real.dim(c) == 0 or real.dim(d - c) == 0:
            continue
        fc, fdc = real.floors(c), real.floors(d - c)
        A = frozenset(
            i for i in range(real.divisor.n) if fc[i] + fdc[i] != floors_d[i]
        )
        if not A:
            return None
        subsets.add(A)
    minimal = {
        A for A in subsets if not any(B < A for B in subsets)
    }
    if minimal and len(frozenset.union(*minimal)) <= real.dim(d):
        if not frozenset.intersection(*minimal):
            return None
    return minimal


def minimal_generators(
    D: QDivisor,
    field: FieldSpec,
    up_to: Optional[int] = None,
) -> list[GeneratorRecord]:
    """Minimal generators with degrees < up_to (default: the certified
    generator-degree bound).

    Degree by degree, the pregenerated subspace sum_c S_c S_{d-c} is
    realized through the floor-sum identity S_c S_{d-c} =
    u^d H^0(floor(cD) + floor((d-c)D)), the sections vanishing at the
    points of the split's defect subset.  A degree whose minimal defect
    subsets meet in no point and cover at most dim S_d points is certified
    fully pregenerated without elimination: evaluations at that many
    distinct points are independent, so the annihilator of the span is
    spanned by the evaluations at the common points, of which there are
    none (_pregen_subsets gives the argument and why the size guard is
    needed).  Elsewhere the span is built by elimination from the defect
    sections, and new generators are picked from the pinned monomial basis
    in order of decreasing vanishing order at the first point, greedily
    extending the pregenerated span.  The returned records keep that order
    within each degree (generators of one degree carry strictly decreasing
    vanishing orders at the marked point), which is the ordering the
    Groebner computation relies on.
    """
    deg = D.degree
    if deg < 0:
        return []
    real = _Realization(D, field)
    if deg == 0:
        ell = denominator_data(real.divisor).ell
        if up_to is not None and ell >= up_to:
            return []
        c = tuple(int(-ell * a) for a in real.divisor.alphas)
        mono = GradedMonomial(ell, c)
        return [
            GeneratorRecord(ell, mono, tuple(real.render(mono)), real.marked_order(mono))
        ]
    if up_to is None:
        up_to = degree_bounds(D)[0]

    found: list[GeneratorRecord] = []
    for d in range(1, up_to):
        dim = real.dim(d)
        if dim == 0:
            continue
        subsets = _pregen_subsets(real, d)
        if subsets is None:
            continue  # certified: the products fill the graded piece
        span = RowBasis(field)
        for A in sorted(subsets, key=sorted):
            for vec in real.defect_sections(d, A):
                span.add(vec)
        if span.rank == dim:
            continue
        candidates = sorted(
            zip(real.basis(d), real.basis_sections(d)),
            key=lambda pair: -real.marked_order(pair[0]),
        )
        for mono, vec in candidates:
            if span.add(vec):
                found.append(
                    GeneratorRecord(d, mono, tuple(vec), real.marked_order(mono))
                )
                if span.rank == dim:
                    break
        if span.rank != dim:
            raise AssertionError(f"monomial basis failed to span degree {d}")
    return found


def _word(e: tuple[int, ...]) -> tuple[int, ...]:
    """Sort key of the dictionary word order on monomials x_1^{e[0]} x_2^{e[1]} ...

    The word of a monomial lists its variable indices in increasing order
    with multiplicity; tuple comparison is dictionary order, a proper
    prefix coming first.
    """
    # from a list, not a generator: see _cleared on resized tuples
    return tuple([k for k, x in enumerate(e) for _ in range(x)])


def _weighted_exponents(weights: Sequence[int], total: int) -> list[tuple[int, ...]]:
    """All exponent tuples e with sum e_k * weights[k] = total."""
    out: list[tuple[int, ...]] = []

    def rec(idx: int, remaining: int, prefix: tuple[int, ...]) -> None:
        if idx == len(weights) - 1:
            q, r = divmod(remaining, weights[idx])
            if r == 0:
                out.append(prefix + (q,))
            return
        w = weights[idx]
        for e in range(remaining // w + 1):
            rec(idx + 1, remaining - e * w, prefix + (e,))

    if weights:
        rec(0, total, ())
    return out


class _MonomialEvaluator:
    """Renders monomials in the generators as sections, memoized so each
    monomial costs one section product over its parent."""

    def __init__(self, real: _Realization, gens: Sequence[GeneratorRecord]):
        self.real = real
        self.gens = list(gens)
        self.weights = [g.degree for g in self.gens]
        self._memo: dict[tuple[int, ...], list] = {
            tuple([0] * len(self.gens)): [real.field.one]
        }

    def degree(self, exps: tuple[int, ...]) -> int:
        return sum(e * w for e, w in zip(exps, self.weights))

    def section(self, exps: tuple[int, ...]) -> list:
        vec = self._memo.get(exps)
        if vec is not None:
            return vec
        k = next(i for i, e in enumerate(exps) if e)
        parent = exps[:k] + (exps[k] - 1,) + exps[k + 1 :]
        parent_vec = self.section(parent)
        g = self.gens[k]
        vec = self.real.multiply(
            g.degree, g.section, self.degree(parent), parent_vec
        )
        self._memo[exps] = vec
        return vec


def _default_rel_bound(D: QDivisor) -> int:
    if D.degree > 0:
        return degree_bounds(D)[1]
    if D.degree == 0:
        return denominator_data(padded(D)).ell + 1
    return 1


def _standard_pass(
    D: QDivisor,
    field: FieldSpec,
    gens: Sequence[GeneratorRecord],
    up_to: int,
) -> Iterator[tuple[int, int, list[tuple[tuple[int, ...], dict]]]]:
    """The degreewise pass over the standard monomials (those that are not
    initial terms) behind relation_ideal and groebner_leading_terms.  The
    candidates of degree d are x_k s, s standard of degree d - w_k and k at
    most its first variable, in word order; those that a lower leading term
    divides are skipped unrendered, the rest go to one TrackingRowBasis.
    Yields d, dim I_d = #monomials(d) - dim S_d and the new (leading term,
    relation) pairs of each degree that has any.
    """
    real = _Realization(D, field)
    ev = _MonomialEvaluator(real, gens)
    count = [1] + [0] * up_to  # monomials of each degree (coin change)
    for w in ev.weights:
        for d in range(w, up_to + 1):
            count[d] += count[d - w]
    zero = (0,) * len(gens)
    units = [zero[:k] + (1,) + zero[k + 1 :] for k, w in enumerate(ev.weights) if w == 1]
    standard = {0: [zero], 1: units}  # by degree, in word order
    known = {zero, *units}
    for d in range(2, up_to + 1):
        dim = real.dim(d)
        if not count[d]:
            if dim > 0:
                raise GenerationError(
                    f"no generator monomials reach degree {d} but dim S_{d} = {dim}"
                )
            continue
        if dim <= 0:
            raise AssertionError("monomials exist in a zero graded piece")
        tracker = TrackingRowBasis(field)
        standard[d], new = [], []
        for k, w in enumerate(ev.weights):
            for s in standard.get(d - w, ()):
                e = s[:k] + (s[k] + 1,) + s[k + 1 :]
                if any(s[:k]) or any(
                    x and e[:j] + (x - 1,) + e[j + 1 :] not in known
                    for j, x in enumerate(e[k + 1 :], k + 1)
                ):
                    continue
                combo = tracker.add(ev.section(e), e)
                if combo is None:
                    standard[d].append(e)
                    known.add(e)
                else:
                    new.append((e, combo))
        if tracker.rank != dim:
            raise GenerationError(
                f"generators span only {tracker.rank} of {dim} dimensions in degree {d}"
            )
        if new:
            yield d, count[d] - dim, new


def relation_ideal(
    D: QDivisor,
    field: FieldSpec,
    gens: Sequence[GeneratorRecord],
    up_to: Optional[int] = None,
) -> list[RelationPoly]:
    """Minimal generating set of the relation ideal through degree up_to
    (default: the certified relation-degree bound).

    The pass over the standard monomials gives one relation g_e per new
    leading term e.  At e the tracker's rows are exactly the standard
    monomials below e, as under full elimination, so g_e is unchanged,
    scale included.  The word order is multiplicative within a degree, so a
    relation whose leading term is a multiple of a lower one lies in (mI)_d
    (m the ideal of the generators) plus the g_e below it, and is never
    emitted.  Graded Nakayama runs only in degrees with new leading terms,
    seeded with the shifts x^a g (a != 0) of the lower g_e, which span
    (mI)_d, until its rank reaches dim I_d.  Raises GenerationError if the
    generators fail the dimension (Hilbert series) check at any degree.
    """
    if up_to is None:
        up_to = _default_rel_bound(D)
    weights = [g.degree for g in gens]
    lower: dict[int, list[dict]] = {}  # the relations g_e by degree
    minimal: list[RelationPoly] = []
    for d, target, new in _standard_pass(D, field, gens, up_to):
        nakayama = SparseRowBasis(field)
        shifts = [
            {tuple([x + y for x, y in zip(e, a)]): c for e, c in g.items()}
            for d0, rels in lower.items()
            for a in _weighted_exponents(weights, d - d0)
            for g in rels
        ]
        shifts.sort(key=min, reverse=True)  # pivots descending: far less fill-in
        for vec in shifts:
            nakayama.add(vec)
            if nakayama.rank == target:
                break  # (mI)_d is all of I_d
        else:
            for _, vec in new:
                if nakayama.add(vec):
                    terms = tuple(sorted(vec.items(), key=lambda t: _word(t[0])))
                    minimal.append(RelationPoly(d, terms))
        lower[d] = [vec for _, vec in new]
    return minimal


def minimal_relation_degrees(
    D: QDivisor,
    field: FieldSpec,
    gens: Sequence[GeneratorRecord],
    up_to: Optional[int] = None,
) -> list[int]:
    return sorted(r.degree for r in relation_ideal(D, field, gens, up_to))


def groebner_leading_terms(
    D: QDivisor,
    field: FieldSpec,
    gens: Sequence[GeneratorRecord],
    up_to: Optional[int] = None,
) -> GroebnerReport:
    """Degreewise initial-ideal computation under the dictionary word order
    on generator monomials: the new leading terms of the pass over the
    standard monomials.  A multiple of a leading term is one again, and its
    section lies in the span of those below it, so skipping it unrendered
    changes no judgement.  The terms found are the divisibility-minimal
    ones up to the truncation degree.
    """
    if up_to is None:
        up_to = _default_rel_bound(D)
    leading = [e for _, _, new in _standard_pass(D, field, gens, up_to) for e, _ in new]
    leading.sort(key=_word)
    return GroebnerReport(
        order="revlex (dictionary word order on generator monomials)",
        leading_terms=tuple(leading),
        truncation_degree=up_to,
    )


def xgen_threshold(D: QDivisor) -> int:
    """Degree threshold (2n-2)/deg(D) above which generators are always
    stably selectable."""
    if D.degree <= 0:
        raise UnsupportedDivisorError("threshold needs positive degree")
    return math.ceil(Fraction(2 * D.n - 2) / D.degree)


def relation_evaluates_to_zero(
    D: QDivisor,
    field: FieldSpec,
    gens: Sequence[GeneratorRecord],
    poly: RelationPoly,
) -> bool:
    """Substitute the generator sections into a relation polynomial."""
    real = _Realization(D, field)
    ev = _MonomialEvaluator(real, gens)
    width = real.r(poly.degree) + 1
    total = [field.zero] * width
    for exps, coeff in poly.terms:
        vec = ev.section(exps)
        total = [field.add(t, field.mul(coeff, v)) for t, v in zip(total, vec)]
    return not any(total)


# ---------------------------------------------------------------------------
# stability scanning


def generic_configs(
    n: int,
    count: int,
    chars: Sequence[int],
    seed: int,
) -> list[tuple[tuple[PointP1, ...], int]]:
    """Deterministic pseudo-random point configurations: small distinct
    rationals with numerator and denominator bounded by 100, re-drawn on
    collision, crossed with the requested characteristics."""
    rng = random.Random(seed)
    configs = []
    for _ in range(count):
        pts: list[Fraction] = []
        while len(pts) < n:
            cand = Fraction(rng.randint(-99, 99), rng.randint(1, 20))
            if cand not in pts:
                pts.append(cand)
        tup = tuple(PointP1.of(p) for p in pts)
        for char in chars:
            configs.append((tup, char))
    return configs


def stability_scan(
    alphas: Sequence,
    configs: Sequence[tuple[Sequence, int]],
    up_to: Optional[int] = None,
    with_groebner: bool = False,
    with_relations: bool = False,
    truncation: Optional[int] = None,
) -> dict:
    """Run the engine over many point configurations and report agreement.

    The stability verdict covers the generator-degree multisets and, when
    requested, the Groebner leading-term sets.  Minimal-relation degree
    multisets can be reported as well but never affect the verdict: their
    stability is an experimental observation, not an asserted property.
    Configurations whose points collide after reduction are skipped and
    recorded; raises CanringError when no configuration is left to judge.
    """
    alphas = tuple(Fraction(a) for a in alphas)
    runs = []
    gen_multisets = []
    groebner_sets = []
    relation_multisets = []
    for points, char in configs:
        field = FieldSpec(char)
        entry: dict = {
            "config": {
                "points": [str(PointP1.of(p)) for p in points],
                "char": char,
            }
        }
        try:
            D = QDivisor.of(points, alphas)
            gens = minimal_generators(D, field, up_to)
            entry["generators"] = [
                {"degree": g.degree, "monomial": g.monomial.to_json()} for g in gens
            ]
            gen_multisets.append(tuple(sorted(g.degree for g in gens)))
            if with_groebner:
                report = groebner_leading_terms(D, field, gens, truncation)
                entry["groebner"] = {
                    "truncation": report.truncation_degree,
                    "leading_terms": [list(e) for e in report.leading_terms],
                }
                groebner_sets.append(report.leading_terms)
            if with_relations:
                rels = relation_ideal(D, field, gens, truncation)
                entry["relations"] = [
                    {"degree": r.degree, "support_size": r.support_size} for r in rels
                ]
                relation_multisets.append(tuple(sorted(r.degree for r in rels)))
            entry["skipped"] = False
        except PointCollisionError as exc:
            entry["skipped"] = True
            entry["reason"] = str(exc)
        runs.append(entry)
    if not gen_multisets:
        raise CanringError(f"scan evaluated none of its {len(runs)} configurations")

    stable = len(set(gen_multisets)) <= 1 and len(set(groebner_sets)) <= 1
    # flag outliers against the most common multiset, not the first run
    modal = max(set(gen_multisets), key=gen_multisets.count)
    for entry, multiset in zip((e for e in runs if not e["skipped"]), gen_multisets):
        entry["agrees"] = multiset == modal
    report = {
        "alphas": [format_fraction(a) for a in alphas],
        "runs": runs,
        "stable": stable,
    }
    if sum(alphas) > 0:
        # generators at or above this degree are stably selectable by the
        # general theory; disagreements can only involve lower degrees
        report["xgen_threshold"] = xgen_threshold(
            QDivisor.of(range(len(alphas)), alphas)
        )
    if with_relations:
        report["relation_degrees_agree"] = len(set(relation_multisets)) <= 1
    return report


# ---------------------------------------------------------------------------
# independent brute-force oracle


def brute_force_oracle(
    D: QDivisor,
    field: FieldSpec,
    up_to: int,
) -> tuple[list[int], list[int]]:
    """Recompute generator and minimal-relation degree multisets from
    scratch: pregenerated spans by naive section products, candidate
    monomials in plain lexicographic order, one-shot rank computations.

    Only meant for small instances; refuses anything with a graded piece
    of dimension above 40 below the requested degree.
    """
    real = _Realization(D, field)
    if any(real.dim(d) > 40 for d in range(up_to + 1)):
        raise OversizeError(f"graded pieces exceed dimension 40 below {up_to}")
    if D.degree < 0:
        return [], []

    gens: list[tuple[int, list]] = []  # (degree, section)
    gen_degrees: list[int] = []
    for d in range(1, up_to):
        dim = real.dim(d)
        if dim == 0:
            continue
        products = []
        for c in range(1, d // 2 + 1):
            for u in real.basis_sections(c):
                for v in real.basis_sections(d - c):
                    products.append(real.multiply(c, u, d - c, v))
        width = real.r(d) + 1
        pre_rank = rank(ExactMatrix(field, products, ncols=width)) if products else 0
        if pre_rank == dim:
            continue
        candidates = sorted(
            zip(real.basis(d), real.basis_sections(d)), key=lambda p: p[0].c
        )
        rows = list(products)
        current = pre_rank
        for _, vec in candidates:
            trial = rows + [vec]
            new_rank = rank(ExactMatrix(field, trial, ncols=width))
            if new_rank > current:
                rows = trial
                current = new_rank
                gens.append((d, vec))
                gen_degrees.append(d)
                if current == dim:
                    break
        if current != dim:
            raise AssertionError(f"oracle failed to span degree {d}")

    weights = [d for d, _ in gens]
    rel_degrees: list[int] = []
    monomials: dict[int, list[tuple]] = {}
    kernels: dict[int, list[list]] = {}
    for d in range(2, up_to + 1):
        exps = monomials[d] = sorted(_weighted_exponents(weights, d))
        if not exps:
            continue
        sections = {}
        for e in exps:
            vec = [field.one]
            deg_so_far = 0
            for k, (gd, gvec) in enumerate(gens):
                for _ in range(e[k]):
                    vec = real.multiply(deg_so_far, vec, gd, gvec)
                    deg_so_far += gd
            sections[e] = vec
        width = real.r(d) + 1
        mat = ExactMatrix(field, [sections[e] for e in exps], ncols=width)
        if rank(mat) != real.dim(d):
            raise GenerationError(f"oracle generators do not span degree {d}")
        transpose = ExactMatrix(field, [list(col) for col in zip(*mat.rows)], ncols=len(exps))
        kern = kernel_basis(transpose)
        kernels[d] = kern
        if not kern:
            continue
        shifted_rows = []
        index = {e: i for i, e in enumerate(exps)}
        for k, (gd, _) in enumerate(gens):
            for vec in kernels.get(d - gd, []):
                row = [field.zero] * len(exps)
                for coeff, le in zip(vec, monomials[d - gd]):
                    if coeff:
                        target = le[:k] + (le[k] + 1,) + le[k + 1 :]
                        row[index[target]] = field.add(row[index[target]], coeff)
                shifted_rows.append(row)
        old_rank = (
            rank(ExactMatrix(field, shifted_rows, ncols=len(exps)))
            if shifted_rows
            else 0
        )
        count = len(kern) - old_rank
        rel_degrees.extend([d] * count)

    return sorted(gen_degrees), sorted(rel_degrees)
