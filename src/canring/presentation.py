"""General-n engine: concrete graded pieces over an exact field, minimal
generator selection, relation ideals, truncated Groebner leading terms,
and stability scans over point configurations.

Sections are realized as polynomials: the monomial u^d prod t_i^{c_i}
maps to prod over finite points of (t - p_i)^(c_i + b_i) where
b_i = floor(d * alpha_i), a polynomial of degree <= r = deg floor(dD)
stored as a coefficient vector of length r + 1.  Infinite points
contribute the constant section 1.

Products are formed over the integers: a finite point a/q contributes the
factor (q t - a), whose powers each realization tabulates (in GF(p) the
factor is (t - p_i), reduced mod p).  A product of sections of degrees c
and d - c gains that factor at each point of the split's defect subset, a
bitmask read off the realization's packed floor table (_Realization).  A
section is the pair (row, den): an integer row over one positive
denominator, normalised so that gcd(den, *row) == 1, in the coordinates of
the monic factors (t - p_i); in GF(p) row holds residues and den is 1.
Rendering, products and elimination stay on these rows, since rank and
span ignore the scale of a row.  Fractions are built only where a value is
read: the relation coefficients and the substitution check.  The oracle
stays on integer rows throughout (brute_force_oracle).

Relations and Groebner leading terms come from one degreewise pass that
renders only the x_0-free standard monomials and the new leading terms:
the multiples of the first generator x_0 fill a block x_0 S_{d - w_0} of
known echelon form, which the other candidates are divided by.  Only a
reader of relations forms them, and only those minimal modulo x_0
(relation_ideal), monic at the leading term and one x_0 level at a time,
each level one solve in the x_0-free standard monomials of its degree
(_relation).  A scan configuration, like a CLI command (_presentation),
runs every stage on one realization and one pass.
"""

from __future__ import annotations

import math
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from typing import Callable, Iterable, Iterator, Optional, Sequence

from .conelattice import GradedMonomial, _weighted_exponents, monomial_basis
from .divisor import (
    PointP1,
    QDivisor,
    degree_bounds,
    denominator_data,
    floor_divisor,
    graded_dim,
    padded,
    parameter_certificate,
)
from .errors import (
    CanringError,
    GenerationError,
    OversizeError,
    PointCollisionError,
    UnsupportedDivisorError,
)
from .exactla import (
    FieldSpec,
    RowBasis,
    SparseRowBasis,
    TrackingRowBasis,
    _integer_kernel,
    rank,
)
from .ratapprox import format_fraction

@dataclass(frozen=True)
class GeneratorRecord:
    """A minimal generator: its degree and its monomial u^d prod t_i^{c_i},
    which fixes its section in every field (_Realization.render_monomial)."""

    degree: int
    monomial: GradedMonomial

    def to_json(self) -> dict:
        return {"degree": self.degree, "monomial": self.monomial.to_json()}


@dataclass(frozen=True)
class RelationPoly:
    """Weighted-homogeneous polynomial in the generator variables, stored
    as (exponent tuple, coefficient) terms; maps to zero in the ring."""

    degree: int
    terms: tuple[tuple[tuple[int, ...], object], ...]

    @property
    def support_size(self) -> int:
        return len(self.terms)

    def summary(self) -> dict:
        """The reported record: degree and support size, not the terms."""
        return {"degree": self.degree, "support_size": self.support_size}


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


Section = tuple[list[int], int]  # (row, den), see the module docstring


class _FloorTable:
    """The per-degree state of a realization (_Realization): it reads only
    the padded coefficients, so a scan grows one for all its configurations
    and reads the degrees its generator stage eliminates off it once per
    window (_pending)."""

    def __init__(self, alphas: tuple[Fraction, ...]):
        self.alphas, self.ell = alphas, math.lcm(*[a.denominator for a in alphas])
        self.r: list[int] = []  # r(c) by c, grown by _Realization.packed
        self.keys: list[int] = []  # K(c) by c, likewise


class _Realization:
    """A divisor with its points embedded in a concrete field; every row of
    a graded piece is rendered by render_exponents.  Its only per-degree
    state is its floor table, which reads only the padded coefficients and
    may so be shared: the lists r(c) = deg floor(cD) and K(c) = sum_i
    floor(c alpha_i) 2^i for 0 <= c <= d grown by packed(d).  As floor(x +
    y) - floor(x) - floor(y) is 0 or 1, bit i of K(d) - K(c) - K(d - c) is
    set exactly when floor(c alpha_i) + floor((d - c) alpha_i) < floor(d
    alpha_i): that mask is the defect subset of the split (c, d - c), the
    points i where S_c S_{d-c} = u^d H^0(floor(cD) + floor((d-c)D))
    vanishes in degree d.
    The table has period ell = lcm of the denominators: ell D is integral,
    so floor((c + ell)D) = floor(cD) + ell D, r(c + ell) = r(c) + r(ell)
    and K(c + ell) = K(c) + K(ell), and packed grows it by this identity
    past ell, which makes every defect subset periodic in c as well."""

    def __init__(self, D: QDivisor, field: FieldSpec, table: Optional[_FloorTable] = None):
        self.divisor = padded(D, field.characteristic)
        self.field = field
        if table is not None and table.alphas != self.divisor.alphas:
            raise AssertionError(f"a floor table of {table.alphas} does not fit {self.divisor}")
        self._denominators: list[int] = []  # q_i, or 0 at an infinite point
        self._powers: list[list[list[int]]] = []  # (q_i t - a_i)^k by k, grown on demand
        p = field.characteristic
        seen = set()  # the reduced points, None for infinity
        for pt in self.divisor.points:
            if pt.reduces_to_infinity(p):
                key, q, a = None, 0, 0  # infinite, or reduces to the infinite point
            else:  # the point a/q, in GF(p) reduced to a/1 (p does not divide q)
                a, q = pt.value.numerator, pt.value.denominator
                key = a, q = (a * pow(q, -1, p) % p, 1) if p else (a, q)
            if key in seen:
                raise PointCollisionError(
                    f"points of {self.divisor} collide in {field} (at {pt})"
                )
            seen.add(key)
            self._denominators.append(q)
            self._powers.append([[1], [field.neg(a), q]] if q else [[1]])
        self.table = table = table or _FloorTable(self.divisor.alphas)
        self._r, self._keys, self._ell = table.r, table.keys, table.ell  # shared, grown by packed

    def packed(self, d: int) -> tuple[list[int], list[int]]:
        rs, keys = self._r, self._keys
        if d >= len(keys):
            ell = self._ell
            for c in range(len(keys), d + 1):
                if c > ell:
                    rs.append(rs[c - ell] + rs[ell])
                    keys.append(keys[c - ell] + keys[ell])
                else:
                    b = floor_divisor(self.divisor, c)
                    rs.append(sum(b))
                    keys.append(sum(x << i for i, x in enumerate(b)))
        return rs, keys

    def r(self, d: int) -> int:
        return (self._r if d < len(self._r) else self.packed(d)[0])[d]

    def dim(self, d: int) -> int:
        return max((self._r if d < len(self._r) else self.packed(d)[0])[d] + 1, 0)

    def _power(self, i: int, k: int) -> list[int]:
        """(q_i t - a_i)^k at a finite point."""
        table = self._powers[i]
        while len(table) <= k:
            table.append(_poly_mul(self.field, table[-1], table[1]))
        return table[k]

    def _to_field(self, poly: list[int], den: int, width: int) -> Section:
        """The section poly / den, padded to width coordinates and
        normalised: den shares no prime with all of the row."""
        if any(poly[width:]):
            raise AssertionError("section left the graded piece")
        row = poly[:width]
        row += [0] * (width - len(row))
        if den != 1:
            g = math.gcd(den, *row)
            if g != 1:
                den //= g
                row = [c // g for c in row]
        return row, den

    def render_exponents(self, exponents: Sequence[int], width: int) -> Section:
        """Coefficients of prod over finite points of (t - p_i)^(g_i)."""
        poly, den = [1], 1
        for i, g in enumerate(exponents):
            if g and self._denominators[i]:
                poly = _poly_mul(self.field, poly, self._power(i, g))
                den *= self._denominators[i] ** g
        return self._to_field(poly, den, width)

    def render_monomial(self, mono: GradedMonomial) -> Section:
        """The section of u^d prod t_i^{c_i}: exponents c + floor(dD), the
        row of defect_sections(d, 0) that the monomial indexes."""
        floors = floor_divisor(self.divisor, mono.d)
        return self.render_exponents([c + b for c, b in zip(mono.c, floors)], sum(floors) + 1)

    def multiply(self, d1: int, s1: Section, d2: int, s2: Section) -> Section:
        """Product of sections in the coordinates of degree d = d1 + d2:
        times (q_i t - a_i) at each finite point of the split's defect subset."""
        d = d1 + d2
        rs, keys = self.packed(d)
        defect = keys[d] - keys[d1] - keys[d2]
        (v1, den1), (v2, den2) = s1, s2
        poly, den = _poly_mul(self.field, v1, v2), den1 * den2
        for i, q in enumerate(self._denominators):
            if defect >> i & 1 and q:
                poly = _poly_mul(self.field, poly, self._powers[i][1])
                den *= q
        return self._to_field(poly, den, rs[d] + 1)

    def defect_sections(self, d: int, mask: int) -> list[Section]:
        """A basis of V_A = u^d H^0(floor(dD) - sum_{i in A} P_i), A the
        set bits of mask, in degree-d coordinates, empty when it is zero:
        with e = r(d) - |A| and g the indicator of A, row k = 0..e renders
        g + (k, e - k, 0, ...), vanishing to order g_0 + k at the first
        point.  Mask 0 gives the monomial basis of S_d in its order, which
        pins every later point at its floor."""
        r = self.r(d)
        e = r - mask.bit_count()
        g = [mask >> i & 1 for i in range(self.divisor.n)]
        return [self.render_exponents([g[0] + k, g[1] + e - k, *g[2:]], r + 1) for k in range(e + 1)]


def _pregen_subsets(real: _Realization, d: int) -> Optional[set[int]]:
    """Defect subsets A_c of the products S_c * S_{d-c}, as bitmasks.

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
    whose span has rank 2, so degree 6 has a generator).  A_c is K(d) -
    K(c) - K(d - c) (_Realization).

    Returns None when the degree is certified fully pregenerated: the
    minimal subsets have empty intersection (some split with no defect
    included) and cover at most dim S_d points.  Else returns the
    inclusion-minimal subsets, whose defect sections span sum_A V_A.
    """
    rs, keys = real.packed(d)
    masks: set[int] = set()
    for c in range(1, d // 2 + 1):
        if rs[c] >= 0 and rs[d - c] >= 0:
            A = keys[d] - keys[c] - keys[d - c]
            if not A:
                return None  # a split with no defect
            masks.add(A)
    minimal = {A for A in masks if not any(B & A == B != A for B in masks)}
    cover, common = 0, -1  # union and intersection of the minimal subsets
    for A in minimal:
        cover, common = cover | A, common & A
    return None if cover.bit_count() <= rs[d] + 1 and not common else minimal


Certificate = Optional[tuple[int, int, int, int]]  # (a, e_1, e_2, s), see parameter_certificate


def _window(D: QDivisor, given: Optional[int], stage: int, certificate: Certificate = None) -> int:
    """The given window, else the default of the stage (0: generators, 1:
    relations), which reads only the coefficients: the paper's bound
    (degree_bounds), and for generators at most G + 1, G = max(s, e_1, e_2)
    of the certificate when one is given; past ell in degree 0, where S_D =
    k[s] with s of degree ell."""
    if given is not None:
        return given
    if D.degree > 0:
        bound = degree_bounds(D)[stage]
        return min(bound, max(certificate[1:]) + 1) if certificate and not stage else bound
    return denominator_data(padded(D)).ell + 1 if D.degree == 0 else 1


def _stop(certificate: Certificate, gens: Sequence[GeneratorRecord], truncation: int) -> int:
    """Where a pass that serves relations only ends: min(truncation, max(B,
    G)), B = s + max w over the weights w of the generators, as no minimal
    relation lies above B nor generator above G (parameter_certificate);
    the truncation when there is no certificate or no generator.  Past
    max(B, G) the pass runs no spanning check (GenerationError): a
    generator left out of gens has degree <= G, where the check still runs.
    A truncation past the longest list, which no full pass can index, is
    refused as the full pass refuses it (MemoryError)."""
    if truncation > sys.maxsize // 8:
        raise MemoryError(f"a pass to degree {truncation}")
    if certificate is None or not gens:
        return truncation
    _, e1, e2, s = certificate
    return min(truncation, max(s + max(g.degree for g in gens), e1, e2))


def minimal_generators(
    D: QDivisor,
    field: FieldSpec,
    up_to: Optional[int] = None,
) -> list[GeneratorRecord]:
    """Minimal generators with degrees < up_to (default: the generator
    window of _window, at most G + 1 by the certificate of
    parameter_certificate, computed once for the call).

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
    Groebner computation relies on.  In degree 0 the same loop finds the
    one generator: S_d is zero off the multiples of ell, in degree ell
    every split has a zero piece, and each higher multiple has the split
    c = ell with no defect.
    """
    if D.degree < 0:
        return []
    real = _Realization(D, field)
    certificate = parameter_certificate(D) if up_to is None else None
    return _generators(real, _pending(real, _window(D, up_to, 0, certificate)))


def _pending(real: _Realization, up_to: int) -> list[tuple[int, int, set[int], list[GradedMonomial]]]:
    """The degrees 1 <= d < up_to that the generator stage eliminates, those
    with dim S_d > 0 that _pregen_subsets does not certify, each with dim
    S_d, its minimal defect subsets and its monomial_basis.  It reads only
    the floor table and the coefficients, so a scan builds it once per
    window for all its configurations."""
    pending = []
    for d in range(1, up_to):
        subsets = _pregen_subsets(real, d) if real.dim(d) else None
        if subsets is not None:
            pending.append((d, real.dim(d), subsets, monomial_basis(real.divisor, d)))
    return pending


def _generators(real: _Realization, pending: list[tuple]) -> list[GeneratorRecord]:
    """The body of minimal_generators, on a realization and the degrees
    _pending lists for its window: only the renders and eliminations, which
    read the points."""
    found: list[GeneratorRecord] = []
    for d, dim, subsets, basis in pending:
        span = RowBasis(real.field)
        for A in subsets:
            for row, _ in real.defect_sections(d, A):
                span.add(row)
        if span.rank == dim:
            continue
        sections = real.defect_sections(d, 0)
        # basis element k vanishes to order k at the first point
        for k in reversed(range(dim)):
            if span.add(sections[k][0]):
                found.append(GeneratorRecord(d, basis[k]))
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
    # from a list, not a generator: CPython builds a generator's argument
    # tuple by resizing, which piles tuples up in its per-size free lists
    return tuple([k for k, x in enumerate(e) for _ in range(x)])


class _MonomialEvaluator:
    """Renders x^a in the generators as the section of its lattice point
    sum_k a_k m_k, from the floors of its own degree: no section product,
    so the substitution check shares none with the passes."""

    def __init__(self, real: _Realization, gens: Sequence[GeneratorRecord]):
        self.real = real
        self.monomials = [g.monomial for g in gens]

    def section(self, exps: tuple[int, ...]) -> Section:
        d, c = 0, [0] * self.real.divisor.n
        for a, m in zip(exps, self.monomials):
            d, c = d + a * m.d, [x + a * y for x, y in zip(c, m.c)]
        return self.real.render_monomial(GradedMonomial(d, tuple(c)))


def _divide(field: FieldSpec, row: list[int], block: Optional[tuple]) -> list[int]:
    """Low-order division of a row of degree d by the block of x_0 S_{d - w_0}.

    The block (lo, nq, support, den) has the echelon rows g t^j, j < nq,
    where g over den is x_0 times 1 and support lists the nonzero (index,
    entry) pairs of g; row j leads at lo + j.  Returns the rest: a nonzero
    multiple of the row minus a combination of the block's rows, zero at
    lo..lo+nq-1 and given off those coordinates.  Mod p the multiple is 1;
    over QQ the division is fraction-free, on integer rows.
    """
    if block is None:
        return row
    lo, nq, support, _ = block
    a, p = support[0][1], field.characteristic
    inv = pow(a, -1, p) if p else 0
    row = list(row)
    for j in range(nq):
        f = row[lo + j]
        if not f:
            continue
        if p:
            f = f * inv % p
            for i, c in support:
                row[i + j] = (row[i + j] - f * c) % p
        else:
            g = math.gcd(a, f) if a > 0 else -math.gcd(a, f)
            m, f = a // g, f // g
            if m != 1:
                row = [m * x for x in row]
            for i, c in support:
                row[i + j] -= f * c
    return row[:lo] + row[lo + nq :]


def _carried(field: FieldSpec, section: Section, block: Optional[tuple], i: int, m: int) -> list[int]:
    """The tracked row rest | quotient | kappa at i of a section s = (row,
    den), m + 1 scale columns wide: kappa s = quotient g + rest, g and the
    rest as in _divide, which runs once on the row widened by nq zeros for
    the quotient (block row j is widened by -1 in the j-th) and by the
    scale columns, den in column i, for kappa.
    """
    row, den = section
    scale = [0] * (m + 1)
    scale[i] = den
    if block is None:
        return row + scale
    lo, nq, support, _ = block
    return _divide(field, [*row, *[0] * nq, *scale], (lo, nq, [*support, (len(row), -1)], None))


def _relation(
    field: FieldSpec, free: dict, blocks: dict, trackers: dict, w0: int, d: int, e, section: Section
) -> dict[tuple[int, ...], object]:
    """The relation of a dependent candidate e of degree d, once F(d) is
    complete: e minus its expansion in the standard monomials std(d) =
    x_0 std(d - w_0) and F(d), solved one x_0 level at a time.

    The t-th of the m sections of F(d) is tracked as kappa_t s_t =
    quotient_t g + rest_t, g over den_g being x_0 times 1 (_carried, kappa
    at column t), in the degree's tracker, built on first need and kept in
    trackers by degree; the probe, first the section of e, carries its
    kappa at column m.  The rests of F(d) are independent, so one
    combination sum_t c_t rest_t = 0 (ints over QQ) reduces the probe, and
    the tracker returns its tail: q = sum_t c_t quotient_t and the scales
    s_t = c_t kappa_t.  With a_t = s_t / s_m it says sum_t a_t s_t = x_0 Q,
    Q of degree d - w_0 the section with row den_g q and den s_m.  Q is the
    next probe, Q + sum_f a_f s_f = x_0 Q' in F(d - w_0), and so on down: a
    loop, as with w_0 = 1 the chain is d deep.  The relation is e plus
    sum_f a_f x_0^i f at depth i; only its coefficients are Fractions.
    """
    relation: dict[tuple[int, ...], object] = {e: field.of(1)}
    power = 0  # of x_0
    while True:
        block, level, tracker = blocks[d], free[d], trackers.get(d)
        m, nq = len(level), block[1] if block else 0
        n = len(section[0]) - nq  # the rest's columns
        if tracker is None:
            tracker = trackers[d] = TrackingRowBasis(field)
            for i, s in enumerate(level.values()):
                tracker.add(_carried(field, s, block, i, m), n)
        tail = tracker.add(_carried(field, section, block, m, m), n)
        if tail is None:
            raise AssertionError(f"the standard monomials fail to span degree {d}")
        q, scales = tail[:nq], tail[nq:]
        inv = field.inv(scales[m])
        for t, c in zip(level, scales):
            if c:
                relation[(power,) + t[1:]] = field.mul(c, inv)
        if not any(q):
            return relation
        d, power, section = d - w0, power + 1, ([block[3] * x for x in q], scales[m])


def _standard_pass(
    real: _Realization,
    gens: Sequence[GeneratorRecord],
    up_to: int,
) -> Iterator[tuple[int, dict, list[tuple[tuple[int, ...], Callable[[], dict]]]]]:
    """The degreewise pass over the standard monomials (those that are not
    initial terms) of a realization; relations and leading terms read it.

    S_d is a space of polynomials, so multiplying by a generator is
    injective, and in word order every monomial with x_0 precedes every
    x_0-free one.  So the standard monomials of degree d are x_0 std(d -
    w_0) and F(d), the x_0-free ones, and no minimal leading term contains
    x_0.  The multiples of x_0 are derived, not rendered: they fill the
    block x_0 S_{d - w_0}, whose echelon rows are (x_0 times 1) t^j.  As
    x_0 times 1 is g_0 prod_{i in A} (q_i t - a_i), A the defect subset of
    the split (w_0, d - w_0), which is periodic in d (_Realization), it is
    rendered once per subset; dim S_d, dim S_{d - w_0} and A are read off
    the floor table, grown once to up_to.  The candidates of degree d are
    the x_k s, k >= 1, s in F(d - w_k) and k at most its first variable,
    in word order; those that a lower leading term divides are skipped
    unrendered.  Each other one is one product, divided by the block
    (_divide), and its rest goes to the degree's RowBasis, untracked; F(d)
    keeps each section.  A dependent rest gives the unique relation of e
    over the standard monomials below it, with coefficient 1 at e,
    deferred: a call of _relation, valid once F(d) is complete, that only a
    reader of relations makes.  Yields d, F(d), complete by then, and the
    new (leading term, deferred relation) pairs of each degree with any.
    """
    field, weights = real.field, [g.degree for g in gens]
    gen_sections = [real.render_monomial(g.monomial) for g in gens]
    count = [1] + [0] * up_to  # monomials of each degree (coin change)
    for w in weights:
        for d in range(w, up_to + 1):
            count[d] += count[d - w]
    keys = real.packed(up_to)[1]  # after count, which refuses a window past memory
    # by degree: F(d) in word order, each monomial with its section; the
    # block (None when it is zero); the tracker of the rests of F(d), each
    # carrying its quotient and scale, once a relation needs it
    free: dict[int, dict] = {0: {(0,) * len(gens): ([1], 1)}}
    blocks: dict[int, Optional[tuple]] = {0: None}
    trackers: dict[int, TrackingRowBasis] = {}
    x0: dict[int, tuple] = {}  # (support, den) of x_0 times 1 by defect subset
    for d in range(1, up_to + 1):
        dim = real.dim(d)
        if not count[d]:
            if dim > 0:
                raise GenerationError(
                    f"no generator monomials reach degree {d} but dim S_{d} = {dim}"
                )
            continue
        if dim <= 0:
            raise AssertionError("monomials exist in a zero graded piece")
        w0 = weights[0]  # there are generators: count[d] > 0
        nq, block = real.dim(d - w0) if d >= w0 else 0, None
        if nq:
            mask = keys[d] - keys[w0] - keys[d - w0]
            if mask not in x0:
                g, den = real.multiply(w0, gen_sections[0], d - w0, ([1], 1))
                x0[mask] = [(i, c) for i, c in enumerate(g) if c], den
            support, den = x0[mask]
            block = (support[0][0], nq, support, den)
        span, level, new = RowBasis(field), {}, []
        free[d], blocks[d] = level, block
        for k in range(1, len(gens)):
            w = weights[k]
            for s, s_section in free.get(d - w, {}).items():
                e = s[:k] + (s[k] + 1,) + s[k + 1 :]
                if any(s[:k]) or any(
                    x and e[:j] + (x - 1,) + e[j + 1 :] not in free[d - weights[j]]
                    for j, x in enumerate(e[k + 1 :], k + 1)
                ):
                    continue
                section = real.multiply(w, gen_sections[k], d - w, s_section)
                if span.add(_divide(field, section[0], block)):
                    level[e] = section
                else:
                    new.append((e, partial(_relation, field, free, blocks, trackers, w0, d, e, section)))
        if nq + span.rank != dim:
            raise GenerationError(
                f"generators span only {nq + span.rank} of {dim} dimensions in degree {d}"
            )
        if new:
            yield d, level, new


def relation_ideal(
    D: QDivisor,
    field: FieldSpec,
    gens: Sequence[GeneratorRecord],
    up_to: Optional[int] = None,
) -> list[RelationPoly]:
    """Minimal generating set of the relation ideal I through degree up_to
    (default: the paper's relation-degree bound).  The pass ends at
    min(up_to, max(B, G)) (_stop), as no minimal relation lies above B = s
    + max w (parameter_certificate, computed once for the call).

    The pass over the standard monomials gives one relation g_e per new
    leading term e: e minus its unique expansion in the standard monomials
    below it, with coefficient 1 at e in every field (so a QQ relation
    reduces mod p to the GF(p) one when the leading terms agree).  The word
    order is multiplicative, so the relation of a term that a lower leading
    term divides lies in (mI)_d (m the ideal of the generators) plus the g_e
    below it; the pass skips such terms.  g_e is emitted unless it lies in
    (mI)_d plus the span of those emitted before it, tested modulo x_0: x_0
    is a nonzerodivisor on the domain S_D, so I/mI = Ibar/mbar Ibar, Ibar
    the kernel of k[x_1, ...] -> S_D / x_0 S_D (change of rings, Eisenbud,
    Commutative Algebra, ch. 17).  F(d) is a basis of S_d / x_0 S_{d - w_0},
    so an element of Ibar_d is fixed by its coefficients at the x_0-free
    monomials outside F(d), where the image of g_e is the unit vector at e.
    There one SparseRowBasis per degree takes the x_0-free shifts x^a g
    (a != 0) of the lower minimal relations, which span (mbar Ibar)_d, then
    the unit of each new leading term in pass order; g_e is formed only
    when its unit is independent.  Raises GenerationError if the generators
    fail the dimension (Hilbert series) check at any degree the pass
    reaches: a generator left out has degree <= G, which it reaches.
    """
    stop = _stop(parameter_certificate(D), gens, _window(D, up_to, 1))
    return _relations(field, gens, _standard_pass(_Realization(D, field), gens, stop))


def _relations(field: FieldSpec, gens: Sequence[GeneratorRecord], passed: Iterable) -> list[RelationPoly]:
    """The body of relation_ideal, over the items of a standard pass."""
    weights = [g.degree for g in gens[1:]]  # of the x_0-free shifts
    minimal: list[RelationPoly] = []
    for d, level, new in passed:
        nakayama, exponents = SparseRowBasis(field), {}  # the shift exponents by their degree
        for g in minimal:
            free, k = [(e[1:], c) for e, c in g.terms if not e[0]], d - g.degree
            if k not in exponents:
                exponents[k] = _weighted_exponents(weights, k)
            for a in exponents[k]:
                shifted = (((0, *[x + y for x, y in zip(e, a)]), c) for e, c in free)
                nakayama.add({e: c for e, c in shifted if e not in level})
        for e, relation in new:
            if nakayama.add({e: 1}):
                terms = tuple(sorted(relation().items(), key=lambda t: _word(t[0])))
                minimal.append(RelationPoly(d, terms))
    return minimal


def groebner_leading_terms(
    D: QDivisor,
    field: FieldSpec,
    gens: Sequence[GeneratorRecord],
    up_to: Optional[int] = None,
) -> GroebnerReport:
    """Degreewise initial-ideal computation under the dictionary word order
    on generator monomials: the new leading terms of the pass over the
    standard monomials, none with x_0.  A multiple of a leading term is one
    again, and its section lies in the span of those below it, so skipping
    it unrendered changes no judgement.  The pass's deferred relations are
    never formed, so no elimination here is tracked.  The terms found are
    the divisibility-minimal ones up to the truncation degree.
    """
    up_to = _window(D, up_to, 1)
    return _groebner(_standard_pass(_Realization(D, field), gens, up_to), up_to)


def _groebner(passed: Iterable, truncation: int) -> GroebnerReport:
    """The body of groebner_leading_terms, over the items of a standard pass."""
    leading = [e for _, _, new in passed for e, _ in new]
    return GroebnerReport(
        order="revlex (dictionary word order on generator monomials)",
        leading_terms=tuple(sorted(leading, key=_word)),
        truncation_degree=truncation,
    )


def _presentation(
    D: QDivisor,
    field: FieldSpec,
    up_to: Optional[int],
    truncation: Optional[int],
    relations: bool = False,
    ceiling: Optional[int] = None,
) -> tuple[list[GeneratorRecord], list, int]:
    """The generators with degrees < up_to, the items of one standard pass
    through the truncation, and the truncation, each window defaulting as in
    _window, the generator window at most the ceiling: every stage on
    one realization, which _relations and _groebner read.  A pass that
    serves relations only ends at _stop.  The certificate is computed once,
    where a default generator window or the stop reads it.  In negative
    degree there is no generator and no generator window."""
    certificate = parameter_certificate(D) if up_to is None or relations else None
    real = _Realization(D, field)
    window = min(_window(D, up_to, 0, certificate), ceiling or math.inf)
    gens = _generators(real, _pending(real, window)) if D.degree >= 0 else []
    truncation = _window(D, truncation, 1)
    stop = _stop(certificate, gens, truncation) if relations else truncation
    return gens, list(_standard_pass(real, gens, stop)), truncation


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
    """Substitute the generator sections into a relation polynomial, each
    term rendered as its summed monomial (_MonomialEvaluator); CanringError
    for a term that is no monomial of the relation's degree in them."""
    real = _Realization(D, field)
    ev = _MonomialEvaluator(real, gens)
    total = [field.zero] * (real.r(poly.degree) + 1)
    for exps, coeff in poly.terms:
        if len(exps) != len(gens) or sum(a * g.degree for a, g in zip(exps, gens)) != poly.degree:
            raise CanringError(f"{exps} is not a monomial of degree {poly.degree} in {len(gens)} generators")
        row, den = ev.section(exps)
        scale = field.mul(coeff, field.inv(den))
        total = [field.add(t, field.mul(scale, v)) for t, v in zip(total, row)]
    return not any(total)


# ---------------------------------------------------------------------------
# stability scanning


def generic_configs(
    n: int,
    count: int,
    chars: Sequence[int],
    seed: int,
) -> list[tuple[tuple[PointP1, ...], int]]:
    """Deterministic pseudo-random point configurations: distinct rationals
    with numerator in -99..99 and denominator in 1..20, re-drawn on
    collision, crossed with the requested characteristics.  Raises
    CanringError when n exceeds the number of distinct draws."""
    numerators, denominators = range(-99, 100), range(1, 21)
    distinct = sum(math.gcd(a, q) == 1 for a in numerators for q in denominators)  # a/q in lowest terms
    if count and n > distinct:
        raise CanringError(f"a generic configuration has at most {distinct} distinct points, not {n}")
    rng = random.Random(seed)
    configs = []
    for _ in range(count):
        pts: dict[Fraction, None] = {}  # the distinct draws, in order
        while len(pts) < n:
            pts[Fraction(rng.choice(numerators), rng.choice(denominators))] = None
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
    recorded; raises CanringError when no configuration is left to judge,
    or when every graded piece of the window is zero, so that no generator
    could be compared.  dim S_d, the defect subsets and the monomial basis
    read only the coefficients, so all configurations share one floor table
    and one list of the degrees to eliminate (_pending), built by the first
    realization; each configuration then only renders and eliminates those
    degrees, and runs all its stages on one realization and one standard
    pass; the certificate (parameter_certificate) is computed once, where a
    default generator window or a pass that serves relations only (_stop)
    reads it.
    """
    coefficients = QDivisor.of(range(len(alphas)), alphas)
    stops = with_relations and not with_groebner
    certificate = parameter_certificate(coefficients) if up_to is None or stops else None
    window, truncation = _window(coefficients, up_to, 0, certificate), _window(coefficients, truncation, 1)
    # S_d = 0 for all d >= 1 in negative degree; else S_ell != 0 ends any() by d = ell
    if coefficients.degree < 0 or not any(graded_dim(coefficients, d) for d in range(1, window)):
        raise CanringError(
            f"no degree 1 <= d < {window} has a nonzero graded piece: the scan compares no generator"
        )
    table, pending = _FloorTable(padded(coefficients).alphas), None
    runs = []
    for points, char in configs:
        field = FieldSpec(char)
        points = tuple(PointP1.of(p) for p in points)
        entry: dict = {
            "config": {
                "points": [str(p) for p in points],
                "char": char,
            }
        }
        try:
            D = QDivisor(points, coefficients.alphas)  # the table's Fractions: a cheap fit check
            real = _Realization(D, field, table)
            pending = _pending(real, window) if pending is None else pending
            gens = _generators(real, pending)
            entry["generators"] = [g.to_json() for g in gens]
            stop = _stop(certificate, gens, truncation) if stops else truncation
            passed = list(_standard_pass(real, gens, stop)) if with_groebner or with_relations else []
            if with_groebner:
                leading = _groebner(passed, truncation).leading_terms
                entry["groebner"] = {"truncation": truncation, "leading_terms": [list(e) for e in leading]}
            if with_relations:
                entry["relations"] = [r.summary() for r in _relations(field, gens, passed)]
            entry["skipped"] = False
        except PointCollisionError as exc:
            entry["skipped"] = True
            entry["reason"] = str(exc)
        runs.append(entry)
    evaluated = [entry for entry in runs if not entry["skipped"]]
    if not evaluated:
        raise CanringError(f"scan evaluated none of its {len(runs)} configurations")

    def degrees(entry: dict, key: str) -> tuple[int, ...]:
        return tuple(sorted(x["degree"] for x in entry[key]))

    multisets = [degrees(entry, "generators") for entry in evaluated]
    terms = [entry["groebner"]["leading_terms"] for entry in evaluated if with_groebner]
    stable = len(set(multisets)) == 1 and all(t == terms[0] for t in terms)
    # flag outliers against the most common multiset, not the first run
    modal = max(set(multisets), key=multisets.count)
    for entry, multiset in zip(evaluated, multisets):
        entry["agrees"] = multiset == modal
    report = {
        "alphas": [format_fraction(a) for a in coefficients.alphas],
        "runs": runs,
        "stable": stable,
    }
    if coefficients.degree > 0:
        # generators at or above this degree are stably selectable by the
        # general theory; disagreements can only involve lower degrees
        report["xgen_threshold"] = xgen_threshold(coefficients)
    if with_relations:
        report["relation_degrees_agree"] = len({degrees(e, "relations") for e in evaluated}) == 1
    return report


# ---------------------------------------------------------------------------
# independent brute-force oracle


def brute_force_oracle(
    D: QDivisor,
    field: FieldSpec,
    up_to: int,
) -> tuple[list[int], list[int]]:
    """Recompute generator and minimal-relation degree multisets from
    scratch, generators and relations through up_to, in one degreewise
    pass: naive section products, candidate monomials in plain
    lexicographic order, one-shot rank computations.

    The monomials in the generators found so far are words, nondecreasing
    tuples of generator indices: those of degree d are w + (k,), w a word
    of degree d - w_k with last index at most k, each rendered once as the
    section of w (from a memo local to the call) times generator k.  Every
    lower degree is spanned, so the words of degree d span sum_c S_c
    S_{d-c}, of rank #words - dim of their relation kernel (rank-nullity).
    Where that is short of dim S_d, the basis monomials are tried in order,
    each with a fresh rank of the word rows plus the candidate.  The
    minimal relations are the kernel modulo the lower kernels shifted by
    one generator (x_k w: the word with k inserted).

    No Fraction is built.  The kernel of the integer rows of the sections
    row_j / den_j gives the relations v_j = u_j den_j, as integer (residue)
    terms.  A vector of the degree-d kernel, which holds every shifted
    relation, is fixed by its coordinates at the kernel's free columns, so
    the shifted rows are ranked on those #kernel columns alone.

    Only meant for small instances; refuses anything with a graded piece
    of dimension above 40 at or below the requested degree.
    """
    real = _Realization(D, field)
    if any(real.dim(d) > 40 for d in range(up_to + 1)):
        raise OversizeError(f"graded pieces exceed dimension 40 at or below {up_to}")

    gens: list[tuple[int, Section]] = []  # (degree, section)
    words: dict[int, dict[tuple[int, ...], Section]] = {}  # sections by word, by degree
    kernels: dict[int, list[list]] = {}  # (word, coefficient) terms by degree
    rel_degrees: list[int] = []
    for d in range(1, up_to + 1):
        level = words[d] = {}
        for k, (gd, gsec) in enumerate(gens):
            for w, sec in words.get(d - gd, {}).items():
                if w[-1] <= k:
                    level[w + (k,)] = real.multiply(d - gd, sec, gd, gsec)
        ws, secs = list(level), list(level.values())
        rows, width = [row for row, _ in secs], real.r(d) + 1
        kern = _integer_kernel(field, list(zip(*rows)), len(ws))
        kernels[d] = [[(ws[j], u * secs[j][1]) for j, u in vec.items()] for vec in kern]
        if kern:
            free = {ws[next(iter(vec))]: i for i, vec in enumerate(kern)}
            shifted_rows = []
            for k, (gd, _) in enumerate(gens):
                for terms in kernels.get(d - gd, []):
                    row = [0] * len(kern)
                    for w, coeff in terms:
                        i = free.get(tuple(sorted(w + (k,))))
                        if i is not None:
                            row[i] += coeff
                    shifted_rows.append(row)
            count = len(kern) - rank(field, shifted_rows, len(kern))
            rel_degrees.extend([d] * count)

        current, dim = len(ws) - len(kern), real.dim(d)
        if current == dim:
            continue
        for vec in real.defect_sections(d, 0):
            trial = rows + [vec[0]]
            new_rank = rank(field, trial, width)
            if new_rank > current:
                rows, current = trial, new_rank
                level[(len(gens),)] = vec
                gens.append((d, vec))
                if current == dim:
                    break
        if current != dim:
            raise AssertionError(f"oracle failed to span degree {d}")

    return [d for d, _ in gens], rel_degrees
