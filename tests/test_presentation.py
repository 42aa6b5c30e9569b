import collections
import functools
import gc
import hashlib
import itertools
import math
import random
import timeit
from fractions import Fraction
from unittest import mock

import pytest
from field_tracker import FieldTracker
from hypothesis import example, given, reject, settings
from hypothesis import strategies as st

from canring import presentation
from canring.conelattice import GradedMonomial, monomial_basis
from canring.divisor import (
    QDivisor,
    degree_bounds,
    denominator_data,
    floor_divisor,
    graded_dim,
    padded,
    parameter_certificate,
)
from canring.errors import (
    CanringError,
    GenerationError,
    OversizeError,
    PointCollisionError,
    UnsupportedDivisorError,
)
from canring.exactla import (
    FieldSpec,
    RowBasis,
    SparseRowBasis,
    TrackingRowBasis,
    rank,
)
from canring.presentation import (
    RelationPoly,
    _FloorTable,
    _MonomialEvaluator,
    _Realization,
    _pregen_subsets,
    _word,
    brute_force_oracle,
    generic_configs,
    groebner_leading_terms,
    minimal_generators,
    relation_evaluates_to_zero,
    relation_ideal,
    stability_scan,
    xgen_threshold,
)
from canring.twopoint import two_point_presentation

QQ = FieldSpec(0)
GF2 = FieldSpec(2)
GF3 = FieldSpec(3)
GF7 = FieldSpec(7)
GFBIG = FieldSpec(2**61 - 1)


def F(s):
    return Fraction(s)


D235 = QDivisor.of(["inf", 0, 1], [F("-1/2"), F("1/3"), F("1/5")])
D2PT = QDivisor.of(["inf", 0], [F("13/5"), F("-1/4")])
# criterion 07: 9/5 is where the chords (0,1), (2,3), (4,x) of the conic concur
CHORDS = QDivisor.of(
    [0, 1, 2, 3, 4, F("9/5")],
    [F("-1/2"), F("-1/2"), F("1/3"), F("1/3"), F("1/5"), F("1/5")],
)


# degree 0 with ell = 6: the ring is k[s], s = u^6 t1^-2 t2^3 t3^-1
FLAT = QDivisor.of([0, 1, 2], [F("1/3"), F("-1/2"), F("1/6")])
NEGATIVE = QDivisor.of([0, 1], [F("-1/2"), F("1/4")])


def gen_degrees(gens):
    return sorted(g.degree for g in gens)


def field_values(field, section):
    """The field values row / den of a section (row, den), which must be
    normalised: den >= 1 shares no prime with all of the row, and is 1 in GF(p)."""
    row, den = section
    assert all(type(c) is int for c in row)
    assert den >= 1 and math.gcd(den, *row) == 1
    if field.characteristic:
        assert den == 1
        return list(row)
    return [Fraction(c, den) for c in row]


def cleared(vec):
    """The section (row, den) of a vector of field values: its numerators
    over their least common denominator."""
    den = math.lcm(*[Fraction(c).denominator for c in vec])
    return [int(c * den) for c in vec], den


def section_matrix(D, field, d):
    """The degree-d basis sections of D as (field, rows, ncols), the
    arguments of rank: each section (row, den) gives its integer row, which
    spans what its field values row / den span."""
    real = _Realization(D, field)
    rows = [row for row, _ in real.defect_sections(d, 0)]
    return field, rows, max(real.r(d) + 1, 0)


class TestSectionSpace:
    """Graded pieces realized as section matrices by _Realization."""

    def test_235_degree30(self):
        # deg floor(30 D) = -15 + 10 + 6 = 1, so sections are linear
        # polynomials: a 2 x 2 matrix of full rank.
        field, rows, ncols = section_matrix(D235, QQ, 30)
        assert len(rows) == 2
        assert ncols == 2
        assert rank(field, rows, ncols) == 2

    def test_empty_piece(self):
        real = _Realization(D235, QQ)
        assert real.defect_sections(5, 0) == []
        assert monomial_basis(real.divisor, 5) == []

    def test_inflated_double_point(self):
        D = QDivisor.of(["inf", 0, 1], [2, 0, 0])
        assert rank(*section_matrix(D, QQ, 1)) == 3

    def test_rank_equals_dim_on_samples(self):
        rng = random.Random(3)
        for _ in range(25):
            n = rng.randint(1, 4)
            alphas = [
                Fraction(rng.randint(-4, 6), rng.randint(1, 6)) for _ in range(n)
            ]
            pts = ["inf", 0, 1, -1][:n]
            D = QDivisor.of(pts, alphas)
            d = rng.randint(0, 20)
            assert rank(*section_matrix(D, QQ, d)) == graded_dim(D, d)

    def test_spanning_set_rank_equals_basis_rank(self):
        # every spanning monomial reduces to the pinned basis: the spanning
        # sections span no more than the basis sections
        from canring.conelattice import monomial_spanning_set

        for char in (0, 7):
            field = FieldSpec(char)
            real = _Realization(D235, field)
            for d in (6, 20, 30, 36):
                width, floors = real.r(d) + 1, floor_divisor(real.divisor, d)
                span_rows = [
                    real.render_exponents([c + b for c, b in zip(m.c, floors)], width)[0]
                    for m in monomial_spanning_set(D235, d)
                ]
                if not span_rows:
                    continue
                assert rank(field, span_rows, width) == graded_dim(D235, d)

    def test_collision_mod_p(self):
        D = QDivisor.of([0, 7], [F("1/2"), F("1/2")])
        with pytest.raises(PointCollisionError):
            _Realization(D, FieldSpec(7))

    def test_denominator_reduces_to_infinity(self):
        D = QDivisor.of(["inf", F("1/2")], [F("1/2"), F("1/2")])
        with pytest.raises(PointCollisionError):
            _Realization(D, FieldSpec(2))


def reference_product(real, exponents, start=None):
    """start (default 1) times prod over finite points of (t - p_i)^(g_i),
    one linear factor at a time, in Fractions or mod p."""
    field = real.field
    p = field.characteristic
    poly = list(start) if start is not None else [field.of(1)]
    for pt, g in zip(real.divisor.points, exponents):
        if pt.value is None or (p and pt.value.denominator % p == 0):
            continue  # the point is infinite in this field
        a = field.of(pt.value)
        for _ in range(g):
            poly = [
                field.sub(x, field.mul(a, y))
                for x, y in zip([field.zero] + poly, poly + [field.zero])
            ]
    return poly


def padded_to(poly, width, field):
    assert not any(poly[width:])
    return poly[:width] + [field.zero] * (width - len(poly))


def as_mask(subset):
    """The bitmask of a set of point indices, as defect_sections takes it."""
    return sum(1 << i for i in subset)


_RENDER_POINTS = st.one_of(
    # inf, and a point that reduces to infinity in GF(2^61 - 1)
    st.sampled_from(["inf", Fraction(3, 2**61 - 1)]),
    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6)),
)


class TestRenderReference:
    """The integer render layer against naive products of linear factors."""

    @settings(max_examples=60, deadline=None)
    @given(
        terms=st.lists(
            st.tuples(_RENDER_POINTS, st.builds(Fraction, st.integers(-2, 3), st.integers(1, 4))),
            min_size=1,
            max_size=4,
            unique_by=lambda term: term[0],
        ).filter(lambda terms: sum(a for _, a in terms) > 0),
        field=st.sampled_from([QQ, GFBIG]),
        data=st.data(),
    )
    def test_matches_naive_products(self, terms, field, data):
        points, alphas = zip(*terms)
        try:
            real = _Realization(QDivisor.of(points, alphas), field)
        except PointCollisionError:
            return  # the reduced point collides with inf
        n = real.divisor.n

        exps = data.draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
        width = sum(exps) + 1 + data.draw(st.integers(0, 2))
        got = field_values(field, real.render_exponents(exps, width))
        want = padded_to(reference_product(real, exps), width, field)
        assert got == want
        assert list(map(type, got)) == list(map(type, want))

        d1, d2 = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 6))
        for d in (d1, d2):
            floors = floor_divisor(real.divisor, d)
            for mono, section in zip(monomial_basis(real.divisor, d), real.defect_sections(d, 0)):
                g = [c + b for c, b in zip(mono.c, floors)]
                want = padded_to(reference_product(real, g), real.r(d) + 1, field)
                assert field_values(field, section) == want
                assert real.render_monomial(mono) == section

        coeff = st.builds(Fraction, st.integers(-7, 7), st.integers(1, 5)).map(field.of)
        if real.dim(d1) and real.dim(d2):
            v1 = data.draw(st.lists(coeff, min_size=real.dim(d1), max_size=real.dim(d1)))
            v2 = data.draw(st.lists(coeff, min_size=real.dim(d2), max_size=real.dim(d2)))
            excess = [
                b - b1 - b2
                for b, b1, b2 in zip(
                    floor_divisor(real.divisor, d1 + d2),
                    floor_divisor(real.divisor, d1),
                    floor_divisor(real.divisor, d2),
                )
            ]
            conv = [field.zero] * (len(v1) + len(v2) - 1)
            for i, x in enumerate(v1):
                for j, y in enumerate(v2):
                    conv[i + j] = field.add(conv[i + j], field.mul(x, y))
            got = field_values(field, real.multiply(d1, cleared(v1), d2, cleared(v2)))
            want = padded_to(reference_product(real, excess, conv), real.r(d1 + d2) + 1, field)
            assert got == want
            assert list(map(type, got)) == list(map(type, want))

        subset = frozenset(data.draw(st.sets(st.integers(0, n - 1))))
        floors = floor_divisor(real.divisor, d1)
        e = sum(floors) - len(subset)
        width = real.r(d1) + 1
        rows = real.defect_sections(d1, as_mask(subset))
        assert len(rows) == max(e + 1, 0)
        ref_rows = []
        for k in range(e + 1):
            g = [int(i in subset) for i in range(n)]
            g[0] += k
            g[1] += e - k
            ref_rows.append(padded_to(reference_product(real, g), width, field))
        assert [field_values(field, s) for s in rows] == ref_rows


class TestSectionPairs:
    """A section is (row, den), normalised as field_values checks, and it is
    exactly the cleared vector of the naive product of linear factors."""

    @settings(max_examples=60, deadline=None)
    @given(
        terms=st.lists(
            st.tuples(
                # denominators up to 7: points that reduce to infinity in GF(7)
                st.one_of(
                    st.just("inf"), st.builds(Fraction, st.integers(-9, 9), st.integers(1, 7))
                ),
                st.builds(Fraction, st.integers(-2, 3), st.integers(1, 4)),
            ),
            min_size=1,
            max_size=4,
            unique_by=lambda term: term[0],
        ).filter(lambda terms: sum(a for _, a in terms) > 0),
        field=st.sampled_from([QQ, GF7, GFBIG]),
        data=st.data(),
    )
    def test_normalised_rows_of_the_naive_products(self, terms, field, data):
        points, alphas = zip(*terms)
        try:
            real = _Realization(QDivisor.of(points, alphas), field)
        except PointCollisionError:
            return  # two points meet after reduction
        n = real.divisor.n

        def check(section, exponents, width):
            want = padded_to(reference_product(real, exponents), width, field)
            assert field_values(field, section) == want
            assert section == cleared(want)

        exps = data.draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
        check(real.render_exponents(exps, sum(exps) + 1), exps, sum(exps) + 1)

        # a product of basis sections, one factor at a time: it renders the
        # sum of their monomials' exponents
        product, degree, c = ([1], 1), 0, [0] * n
        for d in data.draw(st.lists(st.integers(1, 6), min_size=1, max_size=3)):
            sections = real.defect_sections(d, 0)
            for mono, section in zip(monomial_basis(real.divisor, d), sections):
                floors = floor_divisor(real.divisor, d)
                check(section, [ci + bi for ci, bi in zip(mono.c, floors)], real.r(d) + 1)
            if not sections:
                continue
            k = data.draw(st.integers(0, len(sections) - 1))
            product = real.multiply(degree, product, d, sections[k])
            degree += d
            c = [x + y for x, y in zip(c, monomial_basis(real.divisor, d)[k].c)]
            floors = floor_divisor(real.divisor, degree)
            check(product, [ci + bi for ci, bi in zip(c, floors)], real.r(degree) + 1)


class TestMinimalGenerators:
    def test_235_degrees(self):
        gens = minimal_generators(D235, QQ)
        assert gen_degrees(gens) == [6, 10, 15]

    def test_235_char7(self):
        gens = minimal_generators(D235, FieldSpec(7))
        assert gen_degrees(gens) == [6, 10, 15]

    def test_two_point_matches_closed_form(self):
        gens = minimal_generators(D2PT, QQ)
        assert gen_degrees(gens) == [1, 1, 2, 2, 3, 4, 5]
        pres = two_point_presentation(F("13/5"), F("-1/4"))
        assert gen_degrees(gens) == sorted(v.d for v in pres.generators)

    def test_one_point_chain_monomials(self):
        D = QDivisor.of(["inf"], [F("13/5")])
        gens = minimal_generators(D, QQ)
        assert gen_degrees(gens) == [1, 1, 1, 2, 5]
        # ghost-padded exponents (c1, c2) with c2 the power of t
        chain = {(1, 0), (1, 1), (1, 2), (2, 5), (5, 13)}
        assert {(g.monomial.d, g.monomial.c[1]) for g in gens} == chain

    def test_trivial_and_polynomial_rings(self):
        neg = QDivisor.of([0, 1], [F("-1/2"), F("1/4")])
        assert minimal_generators(neg, QQ) == []
        flat = QDivisor.of([0, 1], [F("-1/2"), F("1/2")])
        gens = minimal_generators(flat, QQ)
        assert gen_degrees(gens) == [2]

    @pytest.mark.parametrize("field", [QQ, GF7, GFBIG], ids=str)
    def test_degree_zero_single_generator(self, field):
        (gen,) = minimal_generators(FLAT, field)
        assert gen.degree == 6
        assert gen.monomial == GradedMonomial(6, (-2, 3, -1))
        assert _Realization(FLAT, field).render_monomial(gen.monomial) == ([1], 1)
        assert minimal_generators(FLAT, field, up_to=6) == []
        assert minimal_generators(FLAT, field, up_to=7) == [gen]
        assert minimal_generators(FLAT, field, up_to=500) == [gen]

    def test_negative_degree_returns_before_collision_check(self):
        D = QDivisor.of([0, 2], [F("-1/2"), F("1/3")])  # 0 and 2 collide in GF(2)
        with pytest.raises(PointCollisionError):
            _Realization(D, GF2)
        assert minimal_generators(D, GF2) == []

    def test_distinct_marked_orders_within_degree(self):
        for D in (D2PT, GUARDED):
            by_degree = {}
            for g in minimal_generators(D, QQ):
                # the vanishing order at the first point is its exponent there
                floors = floor_divisor(padded(D), g.degree)
                by_degree.setdefault(g.degree, []).append(g.monomial.c[0] + floors[0])
            for orders in by_degree.values():
                assert len(set(orders)) == len(orders)
                assert orders == sorted(orders, reverse=True)

    def test_up_to_truncates(self):
        gens = minimal_generators(D235, QQ, up_to=11)
        assert gen_degrees(gens) == [6, 10]


# degree 6 has dim 3 and minimal defect subsets {0, 3}, {1, 2}: they meet in
# no point, but four evaluations on a 3-dimensional piece are dependent, so
# the products span only rank 2 and degree 6 has a generator
GUARDED = QDivisor.of(["inf", 0, 1, -1], [F("-3/2"), F("-1/3"), F("2/3"), F("3/2")])


def minimal_defect_subsets(real, d):
    """The inclusion-minimal defect subsets {i : floor(c a_i) + floor((d-c) a_i)
    < floor(d a_i)} over the splits of degree d into two nonzero pieces."""
    subsets = set()
    for c in range(1, d):
        if real.dim(c) and real.dim(d - c):
            fc, fdc, fd = (floor_divisor(real.divisor, x) for x in (c, d - c, d))
            subsets.add(frozenset(i for i in range(len(fd)) if fc[i] + fdc[i] < fd[i]))
    return {A for A in subsets if not any(B < A for B in subsets)}


_CERTIFICATE_POOL = ["inf", 0, 1, 2, 3, -1]


@st.composite
def _certificate_cases(draw):
    """A field and a divisor of positive degree on at most six points that
    stay distinct in that field."""
    field = draw(st.sampled_from([QQ, GF2, FieldSpec(3), GF7, GFBIG]))
    p = field.characteristic
    pool = _CERTIFICATE_POOL[: p + 1] if p and p < 6 else _CERTIFICATE_POOL
    points = draw(st.permutations(pool))[: draw(st.integers(1, len(pool)))]
    alphas = [
        Fraction(draw(st.integers(-3, 3)), draw(st.integers(1, 6))) for _ in points
    ]
    alphas[0] += max(math.floor(-sum(alphas)) + 1, 0)  # positive degree
    return field, QDivisor.of(points, alphas)


@st.composite
def _packed_cases(draw):
    """A divisor on one to six points (a one-point divisor is padded),
    coefficients of either sign, and a degree up to 60."""
    points = draw(st.permutations(_CERTIFICATE_POOL))[: draw(st.integers(1, 6))]
    alphas = [Fraction(draw(st.integers(-5, 5)), draw(st.integers(1, 7))) for _ in points]
    return QDivisor.of(points, alphas), draw(st.integers(1, 60))


@st.composite
def _periodic_cases(draw):
    """A field, a divisor on one to six points (a one-point divisor is
    padded; 1/7 reduces to inf in GF(7)), signed coefficients with
    denominators up to 7, a degree up to 3 ell + 5 (at most 120) and a
    degree to grow the table to first."""
    field = draw(st.sampled_from([QQ, GF7]))
    pool = ["1/7", 0, 1, 2, 3, "inf" if field is QQ else -1]
    points = draw(st.permutations(pool))[: draw(st.integers(1, 6))]
    alphas = [Fraction(draw(st.integers(-7, 7)), draw(st.integers(1, 7))) for _ in points]
    ell = math.lcm(*[a.denominator for a in alphas])
    d = draw(st.integers(-2, min(3 * ell + 5, 120)))
    return field, QDivisor.of(points, alphas), draw(st.integers(0, max(d, 0))), d


class TestPeriodicTable:
    """_Realization.packed grows r(c) and K(c) past ell by r(c + ell) =
    r(c) + r(ell), K likewise; every entry equals the direct floors."""

    @settings(max_examples=150, deadline=None)
    @given(_periodic_cases())
    @example((QQ, QDivisor.of([0, 1], [2, -3]), 4, 9))  # integral: ell = 1
    @example((GF7, QDivisor.of(["1/7"], [F("5/2")]), 3, 11))  # ghost at 0 in GF(7)
    @example((QQ, QDivisor.of(["1/7"], [F("-5/3")]), 0, 11))  # ghost at inf
    @example((QQ, CHORDS, 30, 95))  # ell = 30
    @example((GF7, NEGATIVE, 0, 0))
    @example((QQ, D235, 0, -1))
    def test_packed_matches_direct_floors(self, case):
        field, D, mid, d = case
        real = _Realization(D, field)
        real.dim(mid)  # the table grows in two steps
        rs, keys = real.packed(d)
        assert len(rs) == len(keys) == max(d, mid) + 1
        for c in range(d + 1):
            b = floor_divisor(D, c)
            assert (rs[c], keys[c]) == (sum(b), sum(x << i for i, x in enumerate(b)))
            assert (real.r(c), real.dim(c)) == (sum(b), graded_dim(D, c))


class TestPregeneratedCertificate:
    """Where the minimal defect subsets cover at most dim S_d points, the
    products of degree d span a space of dimension dim S_d - |cap A|."""

    @pytest.mark.parametrize("field", [QQ, GF7, GFBIG])
    def test_size_guard_keeps_generator(self, field):
        real = _Realization(GUARDED, field)
        assert real.dim(6) == 3
        assert minimal_defect_subsets(real, 6) == {frozenset({0, 3}), frozenset({1, 2})}
        gens = minimal_generators(GUARDED, field)
        assert gen_degrees(gens) == [2, 3, 6]
        assert gen_degrees(gens) == brute_force_oracle(GUARDED, field, degree_bounds(GUARDED)[0])[0]

    @settings(max_examples=300, deadline=None)
    @given(_packed_cases())
    @example((GUARDED, 6))
    def test_packed_certificate_matches_frozenset_reference(self, case):
        D, d = case
        real = _Realization(D, QQ)
        minimal = minimal_defect_subsets(real, d)
        empty_defect = any(
            real.dim(c) and real.dim(d - c)
            and [x + y for x, y in zip(floor_divisor(real.divisor, c), floor_divisor(real.divisor, d - c))]
            == floor_divisor(real.divisor, d)
            for c in range(1, d)
        )
        covered = bool(minimal) and len(frozenset.union(*minimal)) <= real.dim(d)
        if empty_defect or (covered and not frozenset.intersection(*minimal)):
            assert _pregen_subsets(real, d) is None
        else:
            assert _pregen_subsets(real, d) == {as_mask(A) for A in minimal}

    @settings(max_examples=80, deadline=None)
    @given(_certificate_cases())
    def test_span_rank_from_defect_points(self, case):
        field, D = case
        real = _Realization(D, field)
        up_to = min(degree_bounds(D)[0], 14)
        gens = gen_degrees(minimal_generators(D, field, up_to=up_to))
        for d in range(1, up_to):
            subsets = minimal_defect_subsets(real, d)
            if not subsets or real.dim(d) > 60:
                continue
            span = RowBasis(field)
            for A in subsets:
                for row, _ in real.defect_sections(d, as_mask(A)):
                    span.add(row)
            # the generators of degree d complement the products
            assert gens.count(d) == real.dim(d) - span.rank
            if len(frozenset.union(*subsets)) <= real.dim(d):
                assert span.rank == real.dim(d) - len(frozenset.intersection(*subsets))


def word_cmp(e1, e2):
    """Dictionary comparison of the words x_1^{e[0]} x_2^{e[1]} ..., a proper
    prefix first, read off the exponents."""
    for v in range(len(e1)):
        a, b = e1[v], e2[v]
        if a == b:
            continue
        if a < b:
            return -1 if not any(e1[v + 1 :]) else 1
        return 1 if not any(e2[v + 1 :]) else -1
    return 0


word_key = functools.cmp_to_key(word_cmp)


def monomials_of_degree(weights, d):
    """Every exponent tuple of weighted degree d, in word order."""
    exps = [
        e
        for e in itertools.product(*(range(d // w + 1) for w in weights))
        if sum(x * w for x, w in zip(e, weights)) == d
    ]
    return sorted(exps, key=word_key)


def reference_leading_terms(D, field, gens, up_to):
    """Every monomial of every degree through a FieldTracker in word order;
    the hits filtered to the divisibility-minimal ones."""
    real = _Realization(D, field)
    ev = _MonomialEvaluator(real, gens)
    weights = [g.degree for g in gens]
    hits = []
    for d in range(2, up_to + 1):
        span = FieldTracker(field)
        for e in monomials_of_degree(weights, d):
            if span.add(field_values(field, ev.section(e)), e) is not None:
                hits.append(e)
    minimal = [
        e
        for e in hits
        if not any(o != e and all(a <= b for a, b in zip(o, e)) for o in hits)
    ]
    return tuple(sorted(minimal, key=word_key))


def reference_relations(D, field, gens, up_to):
    """Full elimination: every monomial of every degree through one
    FieldTracker in word order, each kernel vector kept, and graded
    Nakayama, through another, against the x_k shifts of the full
    lower-degree kernels; each relation scaled to coefficient 1 at its
    word-largest term.  No elimination code of the engine runs here."""
    real = _Realization(D, field)
    ev = _MonomialEvaluator(real, gens)
    weights = [g.degree for g in gens]
    kernels = {}
    minimal = []
    for d in range(2, up_to + 1):
        tracker = FieldTracker(field)
        monomials = monomials_of_degree(weights, d)
        found = []
        for e in monomials:
            combo = tracker.add(field_values(field, ev.section(e)), e)
            if combo is not None:
                found.append(combo)
        kernels[d] = found
        shifts = [
            {e[:k] + (e[k] + 1,) + e[k + 1 :]: c for e, c in vec.items()}
            for k, w in enumerate(weights)
            for vec in kernels.get(d - w, [])
        ]
        nakayama = FieldTracker(field)
        for i, vec in enumerate(shifts + found):
            independent = nakayama.add([vec.get(e, 0) for e in monomials], i) is None
            if independent and i >= len(shifts):
                terms = sorted(vec.items(), key=lambda t: word_key(t[0]))
                inv = field.inv(terms[-1][1])
                minimal.append(RelationPoly(d, tuple((e, field.mul(c, inv)) for e, c in terms)))
    return minimal


def criterion_09_window(D):
    if D.degree < 0:
        return 8
    if D.degree == 0:
        return denominator_data(D).ell + 2
    return min(degree_bounds(D)[1], 15)


_CRITERION_09_ALPHAS = st.lists(
    st.builds(Fraction, st.integers(-2, 2), st.integers(1, 4)),
    min_size=1,
    max_size=3,
).filter(lambda a: sum(a) <= 1)
# four points with small nonzero coefficients and 0 < deg D <= 1
_FOUR_POINT_ALPHAS = st.lists(
    st.builds(Fraction, st.sampled_from([-2, -1, 1, 2]), st.integers(1, 4)),
    min_size=4,
    max_size=4,
).filter(lambda a: 0 < sum(a) <= 1)


def assert_x0_free_work(field, consumer, top, work, monkeypatch):
    """The multiples of x_0 (degree 6) on the chords divisor are derived:
    each degree through top, the last the consumer's pass reaches when
    asked for 120, renders and eliminates its dim S_d - dim S_{d-6} x_0-free
    standard monomials and new leading terms, work of them (43 to degree
    120, where eliminating every standard monomial takes 385), and x_0
    times 1 is rendered once per defect subset {i : floor(6 a_i) + floor((d-6)
    a_i) < floor(d a_i)} of the degrees with dim S_{d-6} > 0: 2 products
    where one per degree would be 100."""
    gens = minimal_generators(CHORDS, field)
    assert gens[0].degree == 6
    real = _Realization(CHORDS, field)
    below = [real.dim(d - 6) if d >= 6 else 0 for d in range(top + 1)]
    free = sum(real.dim(d) - below[d] for d in range(1, top + 1))
    leading = groebner_leading_terms(CHORDS, field, gens, up_to=top).leading_terms
    assert free + len(leading) == work and not any(e[0] for e in leading)
    candidates, products, yielded = [], [], []
    add, multiply, standard_pass = RowBasis.add, _Realization.multiply, presentation._standard_pass

    def counted_add(self, vec):
        candidates.append(vec)
        return add(self, vec)

    def counted_multiply(self, *args):
        products.append(args[0])
        return multiply(self, *args)

    def recorded_pass(*args):
        for item in standard_pass(*args):
            yielded.append(item)
            yield item

    monkeypatch.setattr(RowBasis, "add", counted_add)
    monkeypatch.setattr(_Realization, "multiply", counted_multiply)
    monkeypatch.setattr(presentation, "_standard_pass", recorded_pass)
    consumer(CHORDS, field, gens, up_to=120)
    assert len(candidates) == work
    # the candidates are the independent F(d) entries, which each deferred
    # relation holds (by the end of the pass all of them), and the new
    # leading terms: none contains x_0
    new = [pair for _, _, pairs in yielded for pair in pairs]
    free = new[0][1].args[1]
    assert all(relation.args[1] is free for _, relation in new)
    eliminated = [e for d, level in free.items() if d for e in level] + [e for e, _ in new]
    assert len(eliminated) == work and not any(e[0] for e in eliminated)
    floors = [floor_divisor(CHORDS, d) for d in range(top + 1)]
    subsets = {
        tuple(i for i, (a, b, c) in enumerate(zip(floors[6], floors[d - 6], floors[d])) if a + b < c)
        for d in range(6, top + 1)
        if below[d]
    }
    assert len(subsets) == 2
    assert len(products) == work + len(subsets)


def rotated_multiply(self, d1, s1, d2, s2):
    """_Realization.multiply with a faulty defect mask: bit i moved to point
    i + 1 mod n."""
    d, n = d1 + d2, self.divisor.n
    rs, keys = self.packed(d)
    mask = keys[d] - keys[d1] - keys[d2]
    mask = (mask << 1 | mask >> (n - 1)) & ((1 << n) - 1)
    (v1, den1), (v2, den2) = s1, s2
    poly, den = presentation._poly_mul(self.field, v1, v2), den1 * den2
    for i, q in enumerate(self._denominators):
        if mask >> i & 1 and q:
            poly = presentation._poly_mul(self.field, poly, self._powers[i][1])
            den *= q
    return self._to_field(poly, den, rs[d] + 1)


class TestRelations:
    def test_235_single_relation(self):
        gens = minimal_generators(D235, QQ)
        rels = relation_ideal(D235, QQ, gens)
        assert [r.degree for r in rels] == [30]
        rel = rels[0]
        assert {e for e, _ in rel.terms} == {(5, 0, 0), (0, 3, 0), (0, 0, 2)}
        assert all(coeff != 0 for _, coeff in rel.terms)
        assert relation_evaluates_to_zero(D235, QQ, gens, rel)

    def test_235_char7(self):
        field = FieldSpec(7)
        gens = minimal_generators(D235, field)
        rels = relation_ideal(D235, field, gens)
        assert [r.degree for r in rels] == [30]
        assert {e for e, _ in rels[0].terms} == {(5, 0, 0), (0, 3, 0), (0, 0, 2)}

    @pytest.mark.parametrize("field", [QQ, GF7, GFBIG], ids=str)
    def test_substitution_forms_no_product(self, field, monkeypatch):
        # the referee renders each term from its own floors, not through
        # the section product of the passes
        gens = minimal_generators(D235, field)
        (rel,) = relation_ideal(D235, field, gens)
        assert rel.degree == 30

        def product(*args):
            raise AssertionError("the substitution check formed a product")

        monkeypatch.setattr(_Realization, "multiply", product)
        assert relation_evaluates_to_zero(D235, field, gens, rel)

    @pytest.mark.parametrize("field", [QQ, GF7, GFBIG], ids=str)
    def test_substitution_rejects_a_faulty_product(self, field, monkeypatch):
        # a fault in the product corrupts the emitted relation, and the
        # referee, sharing no product with the pass, refuses it
        gens = minimal_generators(D235, field)
        (true,) = relation_ideal(D235, field, gens, 35)
        monkeypatch.setattr(_Realization, "multiply", rotated_multiply)
        (wrong,) = relation_ideal(D235, field, gens, 35)
        assert wrong != true
        assert not relation_evaluates_to_zero(D235, field, gens, wrong)

    @pytest.mark.parametrize(
        "edit",
        [
            # an exponent on a fourth generator, which 2,3,5 does not have
            lambda terms: ((terms[0][0] + (7,), terms[0][1]),) + terms[1:],
            # a term of degree 2, with coefficient 0 or 1, in a relation of degree 30
            lambda terms: terms + (((1, 0, 0), F(0)),),
            lambda terms: terms + (((1, 0, 0), F(1)),),
        ],
        ids=["extra-generator", "zero-term-of-another-degree", "term-of-another-degree"],
    )
    def test_substitution_refuses_a_term_it_cannot_read(self, edit):
        # each term is read against the generators and the relation's
        # degree, not zipped against them, which would drop or cut entries
        gens = minimal_generators(D235, QQ)
        (rel,) = relation_ideal(D235, QQ, gens)
        bad = RelationPoly(rel.degree, edit(rel.terms))
        with pytest.raises(CanringError, match="is not a monomial of degree 30 in 3 generators"):
            relation_evaluates_to_zero(D235, QQ, gens, bad)

    def test_two_point_relation_degrees_match_closed_form(self):
        rng = random.Random(5)
        for _ in range(6):
            alpha = Fraction(rng.randint(1, 12), rng.randint(1, 6))
            beta = Fraction(rng.randint(-6, 6), rng.randint(1, 6))
            if alpha + beta <= 0:
                continue
            pres = two_point_presentation(alpha, beta)
            expected = sorted(
                pres.generator(r.i).d + pres.generator(r.j).d for r in pres.relations
            )
            D = QDivisor.of(["inf", 0], [alpha, beta])
            gens = minimal_generators(D, QQ)
            window = 2 * max((v.d for v in pres.generators), default=1)
            got = sorted(r.degree for r in relation_ideal(D, QQ, gens, up_to=window))
            assert got == expected, (alpha, beta)

    @pytest.mark.parametrize(
        "consumer", [relation_ideal, groebner_leading_terms], ids=lambda f: f.__name__
    )
    def test_generation_error_on_truncated_gens(self, consumer):
        gens = minimal_generators(D235, QQ, up_to=11)  # drops the degree-15 one
        with pytest.raises(GenerationError):
            consumer(D235, QQ, gens, up_to=35)

    @pytest.mark.parametrize(
        "consumer", [relation_ideal, groebner_leading_terms], ids=lambda f: f.__name__
    )
    @pytest.mark.parametrize(
        "kept, message",
        [
            (0, "no generator monomials reach degree 1 but dim S_1 = 3"),
            (1, "generators span only 1 of 3 dimensions in degree 1"),
        ],
        ids=["none-kept", "one-kept"],
    )
    def test_degree_one_is_checked(self, consumer, kept, message):
        # the check starts at degree 1, from the empty monomial
        D = QDivisor.of(["inf"], [F("13/5")])
        gens = minimal_generators(D, QQ)
        gens = [g for g in gens if g.degree == 1][:kept] + [g for g in gens if g.degree > 1]
        with pytest.raises(GenerationError, match=message):
            consumer(D, QQ, gens)

    @settings(max_examples=90, deadline=None)
    @given(alphas=_CRITERION_09_ALPHAS | _FOUR_POINT_ALPHAS, field=st.sampled_from([QQ, GF7, GFBIG]))
    def test_matches_full_elimination(self, alphas, field):
        # the criterion-09 oracle ranges and windows, and four points to
        # degree 10, where the dense reference takes at most about 0.2 s;
        # generators through the window
        D = QDivisor.of(range(len(alphas)), alphas)
        window = criterion_09_window(D) if D.n < 4 else min(degree_bounds(D)[1], 10)
        gens = minimal_generators(D, field, up_to=window + 1)
        rels = relation_ideal(D, field, gens, window)
        assert rels == reference_relations(D, field, gens, window)
        for rel in rels:
            assert relation_evaluates_to_zero(D, field, gens, rel)

    @settings(max_examples=60, deadline=None)
    @given(
        alphas=_CRITERION_09_ALPHAS,
        points=st.permutations(["inf", F("1/2"), F("2/3"), F("3/4")]),  # distinct mod 7
        field=st.sampled_from([QQ, GF7, GFBIG]),
    )
    def test_matches_full_elimination_off_integer_points(self, alphas, points, field):
        # points a/q with q > 1 give sections over denominators other than 1,
        # so each relation coefficient is rescaled by the one of its monomial
        D = QDivisor.of(points[: len(alphas)], alphas)
        window = criterion_09_window(D)
        gens = minimal_generators(D, field, up_to=window)
        rels = relation_ideal(D, field, gens, window)
        assert rels == reference_relations(D, field, gens, window)
        for rel in rels:
            assert relation_evaluates_to_zero(D, field, gens, rel)

    @pytest.mark.parametrize(
        "points, alphas",
        [((F("7/5"), F("5/3")), ("1/2", "1/2")), ((F("7/5"), F("2/3")), ("1", "3"))],
    )
    def test_records_from_another_field(self, points, alphas):
        # a record is its monomial, so records selected in one field give
        # the relations of another field as its own records do
        D = QDivisor.of(points, [F(a) for a in alphas])
        gens = {field: minimal_generators(D, field, 13) for field in (QQ, GFBIG)}
        for field, other in ((GFBIG, QQ), (QQ, GFBIG)):
            rels = relation_ideal(D, field, gens[other], 12)
            assert rels == relation_ideal(D, field, gens[field], 12)
            assert all(relation_evaluates_to_zero(D, field, gens[other], r) for r in rels)
        coeffs = [c for r in relation_ideal(D, GFBIG, gens[QQ], 12) for _, c in r.terms]
        assert coeffs and all(0 <= c < GFBIG.characteristic for c in coeffs)
        assert gens[QQ] == gens[GFBIG]

    @pytest.mark.parametrize("field", [QQ, GFBIG])
    def test_tracks_standard_monomials_and_leading_terms_only(self, field, monkeypatch):
        # the pass ends at B = s + max w = 45 + 30 = 75 (parameter_certificate)
        assert_x0_free_work(field, relation_ideal, 75, 25, monkeypatch)

    @pytest.mark.parametrize(
        "field, digest",
        [
            (QQ, "66e896221c803b27ce83cebda5c085c0c726748681847d4335858abff2fe2478"),
            (GFBIG, "579ce3fc50098130ce607246150587253c18866de59d8c41391b4f14f55ac01a"),
        ],
        ids=["QQ", "GFBIG"],
    )
    def test_forms_relations_only_where_nakayama_needs_them(self, field, digest, monkeypatch):
        # degrees 9 and 10 each have a new leading term, but modulo x_0 its
        # unit vector lies in the span of the shifts of the lower relations,
        # so neither relation is formed: 15 reads, one per minimal relation,
        # where forming every deferred relation took 17; the relations,
        # pinned by the sha256 of their repr, are those of forming every one
        D = QDivisor.of([0, 1, 2], [F("3/2"), F("-1/4"), F("2/3")])
        gens = minimal_generators(D, field)
        weights = [g.degree for g in gens]
        leading = groebner_leading_terms(D, field, gens, 12).leading_terms
        new = sorted(sum(a * w for a, w in zip(e, weights)) for e in leading)
        formed, relation = [], presentation._relation

        def recorded_relation(*args):
            formed.append(args[5])  # the degree
            return relation(*args)

        monkeypatch.setattr(presentation, "_relation", recorded_relation)
        rels = relation_ideal(D, field, gens, 12)
        assert new == formed + [9, 10]
        assert formed == [r.degree for r in rels] == [4] * 5 + [5] * 5 + [6] * 4 + [7]
        assert hashlib.sha256(repr(rels).encode()).hexdigest() == digest

    @pytest.mark.parametrize(
        "field, digest",
        [
            (QQ, "0dcb731b99c0dfce3821f7ab9d135967a0bcf802019eeb5301ac285c8f111084"),
            (GFBIG, "7c40221c3dba8a4d759ead694f2441399d485fc53a7cbb2dd96054c238da1261"),
        ],
        ids=["QQ", "GFBIG"],
    )
    def test_minimality_modulo_x0_on_many_generators(self, field, digest, monkeypatch):
        # 13 generators, w_0 = 1, to truncation 11: the minimality test runs
        # in the x_0-free monomials outside F(d), one vector per x_0-free
        # shift x^a g of a lower minimal relation and one unit vector per new
        # leading term, 54 398 adds, where shifting by every a, x_0 included,
        # until the rank reached dim I_d made 109 581 with the same relations
        # (pinned by the sha256 of their repr)
        D = QDivisor.of(["inf", 0, 1, -1], [F(4), F("3/2"), F("2/5"), F("-1/6")])
        gens = minimal_generators(D, field)
        assert (len(gens), gens[0].degree) == (13, 1)
        levels, added = [], []
        standard_pass, add = presentation._standard_pass, SparseRowBasis.add

        def recorded_pass(*args):
            for item in standard_pass(*args):
                levels.append(item[1])  # F(d), complete when yielded
                yield item

        def recorded_add(self, vec):
            added.append(all(not e[0] and e not in levels[-1] for e in vec))
            return add(self, vec)

        monkeypatch.setattr(presentation, "_standard_pass", recorded_pass)
        monkeypatch.setattr(SparseRowBasis, "add", recorded_add)
        rels = relation_ideal(D, field, gens, 11)
        assert len(rels) == 66
        assert hashlib.sha256(repr(rels).encode()).hexdigest() == digest
        assert len(added) == 54398 and all(added)

    @pytest.mark.parametrize("field", [QQ, GFBIG])
    def test_tracks_only_the_degrees_a_relation_reaches(self, field, monkeypatch):
        # a degree's rests are tracked once, on the first relation or
        # descent that reaches it: |F(d)| adds, then one probe per visit;
        # each tracked section is divided by its degree's block once
        gens = minimal_generators(CHORDS, field)
        w0 = gens[0].degree
        calls, adds, reading, divides = [], [], [], []
        relation, add, divide = presentation._relation, TrackingRowBasis.add, presentation._divide

        def recorded_relation(*args):
            reading.append(args)
            calls.append((args, relation(*args)))
            reading.pop()
            return calls[-1][1]

        def recorded_add(self, *args):
            adds.append(self)
            return add(self, *args)

        def recorded_divide(*args):
            divides.append(bool(reading))
            return divide(*args)

        monkeypatch.setattr(presentation, "_relation", recorded_relation)
        monkeypatch.setattr(TrackingRowBasis, "add", recorded_add)
        monkeypatch.setattr(presentation, "_divide", recorded_divide)
        relation_ideal(CHORDS, field, gens, 120)
        trackers = calls[0][0][3]  # the pass's trackers by degree
        assert {id(t) for t in adds} == {id(t) for t in trackers.values()}
        probes = collections.Counter()
        for args, rel in calls:
            depth = max(e[0] for e in rel)  # the descent ends where x_0 does
            probes.update(args[5] - i * w0 for i in range(depth + 1))
        assert set(trackers) == set(probes) == set(range(0, 61, w0))
        real = _Realization(CHORDS, field)
        for d, tracker in trackers.items():
            free = real.dim(d) - (real.dim(d - w0) if d >= w0 else 0)
            assert sum(t is tracker for t in adds) == free + probes[d]
        assert len(adds) == 22
        blocks, degree = calls[0][0][2], {id(t): d for d, t in trackers.items()}
        assert sum(divides) == sum(blocks[degree[id(t)]] is not None for t in adds) == 19

    @pytest.mark.parametrize("field", [QQ, GF7, GFBIG])
    @pytest.mark.parametrize(
        "D, window, order",
        [(D235, 62, [2, 1, 0]), (CHORDS, 60, [3, 2, 1, 0]), (CHORDS, 60, [1, 3, 0, 2])],
        ids=["235-reversed", "chords-reversed", "chords-shuffled"],
    )
    def test_any_generator_order(self, D, window, order, field):
        # x_0 need not have the least degree: the block of its multiples is
        # empty below w_0 and the pass still gives the unique relations
        gens = minimal_generators(D, field)
        gens = [gens[i] for i in order]
        rels = relation_ideal(D, field, gens, window)
        assert rels == reference_relations(D, field, gens, window)
        assert all(relation_evaluates_to_zero(D, field, gens, r) for r in rels)
        report = groebner_leading_terms(D, field, gens, window)
        assert report.leading_terms == reference_leading_terms(D, field, gens, window)

    @pytest.mark.parametrize("field", [QQ, GFBIG])
    def test_leaves_no_cyclic_garbage(self, field):
        gens = minimal_generators(CHORDS, field)
        gc.collect()
        gc.disable()
        try:
            relation_ideal(CHORDS, field, gens, 120)
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestGroebner:
    def test_word_key_is_dictionary_order(self):
        exps = list(itertools.product(range(4), repeat=4))
        for n in range(1, 5):
            monos = sorted({e[:n] for e in exps})
            by_cmp = sorted(monos, key=functools.cmp_to_key(word_cmp))
            assert sorted(monos, key=_word) == by_cmp
            for e1, e2 in itertools.combinations(by_cmp, 2):
                assert _word(e1) < _word(e2)

    def test_235_single_leading_term(self):
        gens = minimal_generators(D235, QQ)
        report = groebner_leading_terms(D235, QQ, gens)
        assert report.truncation_degree == 62
        assert report.leading_terms == ((0, 0, 2),)

    def test_leading_terms_form_antichain(self):
        D = QDivisor.of(["inf", 0, 1], [F("-1/3"), F("1/2"), F("1/2")])
        gens = minimal_generators(D, QQ)
        report = groebner_leading_terms(D, QQ, gens)
        for e in report.leading_terms:
            for other in report.leading_terms:
                if e != other:
                    assert not all(o <= x for o, x in zip(other, e))

    def test_nonminimal_groebner_witness(self):
        D = QDivisor.of(["inf", 0, 1], [F("-1/3"), F("1/2"), F("1/2")])
        gens = minimal_generators(D, QQ)
        rels = relation_ideal(D, QQ, gens)
        report = groebner_leading_terms(D, QQ, gens)
        assert len(report.leading_terms) > len(rels)

    def test_one_point_13_5_quadratic_count(self):
        # The six relations have distinct quadratic terms f_i f_j; the
        # initial ideal computed by degreewise rank has five minimal
        # leading monomials (one quadratic pair shares its initial term
        # with a pure power).
        D = QDivisor.of(["inf"], [F("13/5")])
        gens = minimal_generators(D, QQ)
        report = groebner_leading_terms(D, QQ, gens, up_to=8)
        weights = [g.degree for g in gens]
        degrees = sorted(
            sum(e * w for e, w in zip(exp, weights)) for exp in report.leading_terms
        )
        assert len(report.leading_terms) == len(degrees)
        # cross-check against an independent full row reduction per degree
        from canring.exactla import row_reduce

        real = _Realization(D, QQ)
        ev = _MonomialEvaluator(real, gens)
        brute_hits = []
        for d in range(2, 9):
            exps = monomials_of_degree(weights, d)
            if not exps:
                continue
            rows = []
            seen_rank = 0
            for e in exps:
                rows.append(ev.section(e)[0])
                new_rank = len(row_reduce(QQ, rows, real.r(d) + 1)[1])
                if new_rank == seen_rank:
                    brute_hits.append(e)
                seen_rank = new_rank
        minimal = [
            e
            for e in brute_hits
            if not any(
                o != e and all(a <= b for a, b in zip(o, e)) for o in brute_hits
            )
        ]
        assert sorted(minimal) == sorted(report.leading_terms)
        # leading terms of several degrees, reported in word order
        assert report.leading_terms == reference_leading_terms(D, QQ, gens, 8)

    @settings(max_examples=40, deadline=None)
    @given(alphas=_CRITERION_09_ALPHAS, field=st.sampled_from([QQ, GFBIG]))
    def test_minimal_relation_tops_lie_in_initial_ideal(self, alphas, field):
        # the criterion-09 oracle ranges and windows
        D = QDivisor.of(range(len(alphas)), alphas)
        window = criterion_09_window(D)
        gens = minimal_generators(D, field, up_to=window)
        rels = relation_ideal(D, field, gens, window)
        leading = groebner_leading_terms(D, field, gens, window).leading_terms
        for rel in rels:
            top = rel.terms[-1][0]  # terms run in ascending word order
            assert any(all(a <= b for a, b in zip(lt, top)) for lt in leading)

    @settings(max_examples=60, deadline=None)
    @given(alphas=_CRITERION_09_ALPHAS, field=st.sampled_from([QQ, GF2, GF7, GFBIG]))
    def test_matches_full_elimination(self, alphas, field):
        D = QDivisor.of(range(len(alphas)), alphas)
        try:
            _Realization(D, field)
        except PointCollisionError:
            return  # the points 0, 1, 2 collide in GF(2)
        window = criterion_09_window(D)
        gens = minimal_generators(D, field, up_to=window)
        report = groebner_leading_terms(D, field, gens, window)
        assert report.leading_terms == reference_leading_terms(D, field, gens, window)

    @pytest.mark.parametrize("field", [QQ, GFBIG])
    def test_renders_standard_monomials_and_leading_terms_only(self, field, monkeypatch):
        assert_x0_free_work(field, groebner_leading_terms, 120, 43, monkeypatch)

    @pytest.mark.parametrize(
        "D, field, window, leading",
        [
            (CHORDS, QQ, 120, ((0, 0, 2, 0), (0, 0, 0, 2))),
            (CHORDS, GFBIG, 120, ((0, 0, 2, 0), (0, 0, 0, 2))),
            (D235, QQ, None, ((0, 0, 2),)),
        ],
        ids=["chords-QQ", "chords-GFBIG", "235-QQ"],
    )
    def test_forms_no_relation(self, D, field, window, leading, monkeypatch):
        # the pass defers each relation; the Groebner stage reads none
        gens = minimal_generators(D, field)

        def forbidden(*args):
            raise AssertionError("the Groebner stage formed a relation")

        monkeypatch.setattr(presentation, "_relation", forbidden)
        monkeypatch.setattr(TrackingRowBasis, "add", forbidden)
        assert groebner_leading_terms(D, field, gens, window).leading_terms == leading


class TestDefaultWindows:
    @pytest.mark.parametrize(
        "consumer", [relation_ideal, groebner_leading_terms], ids=lambda f: f.__name__
    )
    @pytest.mark.parametrize(
        "D, window",
        [(FLAT, 7), (NEGATIVE, 1), (QDivisor.of(["inf"], [F("-7/3")]), 1)],
        ids=["degree-0", "negative", "negative-one-point"],
    )
    def test_relation_window(self, consumer, D, window, monkeypatch):
        windows = []
        standard_pass = presentation._standard_pass

        def spy(real, gens, up_to):
            windows.append(up_to)
            return standard_pass(real, gens, up_to)

        monkeypatch.setattr(presentation, "_standard_pass", spy)
        gens = minimal_generators(D, QQ)
        result = consumer(D, QQ, gens)
        assert windows == [window]
        if consumer is relation_ideal:
            assert result == []
        else:
            assert (result.leading_terms, result.truncation_degree) == ((), window)

    def test_degree_zero_window_reaches_ell(self):
        with pytest.raises(GenerationError, match="reach degree 6 but dim S_6 = 1"):
            relation_ideal(FLAT, QQ, [])


def _parameters(real, e1, e2):
    """Monomials y_1, y_2 of degrees e_1, e_2 with no common zero, for some
    split T | S of the points: c_j = -e alpha_j on its side, so no zero
    there, and all of deg floor(eD) at the last point of the other."""
    P, full = real.divisor, (1 << real.divisor.n) - 1
    for T in range(1, full):
        ys = []
        for e, side in ((e1, T), (e2, full ^ T)):
            b = floor_divisor(P, e)
            if sum(b) < 0 or any(side >> j & 1 and e * a != b[j] for j, a in enumerate(P.alphas)):
                break
            g = [0] * P.n
            g[(full ^ side).bit_length() - 1] = sum(b)
            ys.append(GradedMonomial(e, tuple(x - y for x, y in zip(g, b))))
        else:
            return ys
    raise AssertionError(f"no split fits degrees {e1} and {e2}")


def _quotient_dim(real, ys, d):
    """dim (S_D / (y_1, y_2))_d: dim S_d less the rank of the products of
    the y with the monomial basis, each rendered as one monomial of degree d
    and ranked by plain field arithmetic (FieldTracker)."""
    tracker = FieldTracker(real.field)
    products = [
        GradedMonomial(d, tuple(a + b for a, b in zip(y.c, m.c)))
        for y in ys
        if d >= y.d
        for m in monomial_basis(real.divisor, d - y.d)
    ]
    rank = sum(tracker.add(real.render_monomial(m)[0], i) is None for i, m in enumerate(products))
    return real.dim(d) - rank


class TestCertifiedWindows:
    """parameter_certificate gives (a, e_1, e_2, s) from the coefficients:
    no minimal generator lies above G = max(s, e_1, e_2), and no minimal
    relation above B = s + max w."""

    @pytest.mark.parametrize(
        "D, pinned",
        [
            (CHORDS, (29, 6, 10, 45, 45, 75)),
            (QDivisor.of(["inf", 0, 1, -1], [F(4), F("3/2"), F("2/5"), F("-1/6")]), (-1, 5, 6, 10, 10, 16)),
            (QDivisor.of(["inf", 0, 1, -1], [F("-2/3"), F("1/2"), F("3/5"), F("1/4")]), (-1, 5, 12, 16, 16, 21)),
            (D235, (-1, 6, 10, 15, 15, 30)),
            (QDivisor.of([F("1/3")], [F("402/401")]), (-1, 401, 1, 401, 401, 802)),
        ],
        ids=["chords", "13-generators", "four-point", "2,3,5", "402/401"],
    )
    def test_pinned(self, D, pinned):
        certificate = parameter_certificate(D)
        a, e1, e2, s = certificate
        if D.n == 1:  # the closed form: the engine's generator stage takes seconds at 402/401
            weights = [v.d for v in two_point_presentation(D.alphas[0], 0).generators]
        else:
            weights = [g.degree for g in minimal_generators(D, GFBIG)]
        G, B = max(s, e1, e2), s + max(weights)
        assert (a, e1, e2, s, G, B) == pinned
        assert presentation._window(D, None, 0, certificate) == min(degree_bounds(D)[0], G + 1)

    def test_cap_falls_back_to_the_paper_bounds(self):
        # e_1 would be 2^55, past the cap: None at once, and the windows
        # are the paper's bounds
        D = QDivisor.of(["inf", 0], [F("1/36028797018963968"), F("1/3")])
        assert parameter_certificate(D) is None
        took = min(timeit.repeat(lambda: parameter_certificate(D), number=1, repeat=5))
        assert took < 1e-3
        assert presentation._window(D, None, 0, None) == degree_bounds(D)[0]
        gens = minimal_generators(D235, QQ)
        assert presentation._stop(None, gens, 10**6) == 10**6
        assert presentation._stop(parameter_certificate(D235), gens, 10**6) == 30

    @pytest.mark.parametrize(
        "D",
        [FLAT, NEGATIVE, QDivisor.of(["inf"], [F("-7/3")])],
        ids=["degree-0", "negative", "negative-one-point"],
    )
    def test_no_certificate_off_positive_degree(self, D):
        assert parameter_certificate(D) is None

    @settings(max_examples=80, deadline=None)
    @given(
        st.one_of(
            _CRITERION_09_ALPHAS.map(lambda a: (tuple(range(len(a))), a)),
            _FOUR_POINT_ALPHAS.map(lambda a: (("inf", 0, 1, -1), a)),
        ),
        st.sampled_from([QQ, GF7, GFBIG]),
    )
    def test_windows_against_the_paper_bounds(self, draw, field):
        # generators and relations at the paper's windows lie within G and
        # B, and y_1, y_2 are a regular sequence: S_D / (y_1, y_2) is
        # nonzero in degree s and zero on (s, s + max w]
        D = QDivisor.of(*draw)
        if D.degree <= 0:
            reject()
        try:
            real = _Realization(D, field)
        except PointCollisionError:
            reject()
        a, e1, e2, s = parameter_certificate(D)
        gen_bound, rel_bound = degree_bounds(D)
        gens = presentation._generators(real, presentation._pending(real, gen_bound))
        rels = presentation._relations(field, gens, presentation._standard_pass(real, gens, rel_bound))
        top = max(g.degree for g in gens)
        assert top <= max(s, e1, e2)
        assert all(r.degree <= s + top for r in rels)
        ys = _parameters(real, e1, e2)
        dims = [_quotient_dim(real, ys, d) for d in range(s, s + top + 1)]
        assert dims[0] > 0 and not any(dims[1:])


class TestThreshold:
    def test_examples(self):
        assert xgen_threshold(D235) == 120
        assert xgen_threshold(QDivisor.of(["inf"], [F("13/5")])) == 0
        chords = QDivisor.of(
            ["inf", 0, 1, 2, 3, 4],
            [F("-1/2"), F("-1/2"), F("1/3"), F("1/3"), F("1/5"), F("1/5")],
        )
        assert xgen_threshold(chords) == 150

    def test_requires_positive_degree(self):
        with pytest.raises(UnsupportedDivisorError):
            xgen_threshold(QDivisor.of([0], [-1]))


@st.composite
def _split_cases(draw):
    """A field and the realization of a divisor on at most three points,
    some off the integers, some infinite in GF(7)."""
    field = draw(st.sampled_from([QQ, GF7, GFBIG]))
    pool = ["inf", 0, 1, F("1/2"), F("-3/5"), F("2/7"), 3]  # 4, 5 and inf in GF(7)
    points = draw(st.permutations(pool))[: draw(st.integers(1, 3))]
    alphas = [Fraction(draw(st.integers(-2, 2)), draw(st.integers(1, 4))) for _ in points]
    alphas[0] += max(math.floor(-sum(alphas)) + 1, 0)  # positive degree
    try:
        return field, _Realization(QDivisor.of(points, alphas), field)
    except PointCollisionError:  # 2/7 meets inf, given or padded, in GF(7)
        reject()


class TestOracle:
    def test_matches_engine_on_235(self):
        gens = minimal_generators(D235, QQ)
        rels = sorted(r.degree for r in relation_ideal(D235, QQ, gens, up_to=35))
        odeg, orel = brute_force_oracle(D235, QQ, 35)
        assert odeg == gen_degrees(gens)
        assert orel == rels

    def test_matches_engine_on_two_point(self):
        D = QDivisor.of(["inf", 0], [F("1/2"), F("1/2")])
        gens = minimal_generators(D, QQ)
        rels = sorted(r.degree for r in relation_ideal(D, QQ, gens, up_to=8))
        odeg, orel = brute_force_oracle(D, QQ, 8)
        assert odeg == gen_degrees(gens)
        assert orel == rels

    def test_trivial_ring_empty(self):
        D = QDivisor.of([0, 1], [F("-1/2"), F("1/4")])
        assert brute_force_oracle(D, QQ, 10) == ([], [])

    @pytest.mark.parametrize("field", [QQ, GF2, GF7, GFBIG], ids=str)
    @pytest.mark.parametrize(
        "D",
        [
            NEGATIVE,
            QDivisor.of(["inf"], [F("-7/3")]),
            QDivisor.of(["inf", 0, 1], [-1, F("1/3"), F("1/5")]),
        ],
        ids=["two-point", "one-point", "three-point"],
    )
    def test_negative_degree_empty(self, D, field):
        assert brute_force_oracle(D, field, 12) == ([], [])

    def test_refuses_oversized(self):
        big = QDivisor.of([0, 1], [3, 3])
        with pytest.raises(OversizeError):
            brute_force_oracle(big, QQ, 30)

    @settings(max_examples=30, deadline=None)
    @given(case=_split_cases(), d=st.integers(2, 9))
    def test_split_products_render_summed_monomials(self, case, d):
        # a product of basis sections is the section of the summed monomial,
        # equal to the naive product of linear factors
        field, real = case
        width = real.r(d) + 1
        for c in range(1, d // 2 + 1):
            for mu, u in zip(monomial_basis(real.divisor, c), real.defect_sections(c, 0)):
                for mv, v in zip(monomial_basis(real.divisor, d - c), real.defect_sections(d - c, 0)):
                    summed = tuple(x + y for x, y in zip(mu.c, mv.c))
                    g = [x + b for x, b in zip(summed, floor_divisor(real.divisor, d))]
                    naive = padded_to(reference_product(real, g), width, field)
                    product = real.multiply(c, u, d - c, v)
                    assert product == cleared(naive)
                    assert product == real.render_exponents(g, width)

    @settings(max_examples=30, deadline=None)
    @given(case=_split_cases(), d=st.integers(2, 9))
    def test_distinct_products_keep_the_pregenerated_rank(self, case, d):
        field, real = case
        width = real.r(d) + 1
        every, distinct = [], {}
        for c in range(1, d // 2 + 1):
            for mu, u in zip(monomial_basis(real.divisor, c), real.defect_sections(c, 0)):
                for mv, v in zip(monomial_basis(real.divisor, d - c), real.defect_sections(d - c, 0)):
                    row = real.multiply(c, u, d - c, v)[0]
                    every.append(row)
                    distinct.setdefault(tuple(x + y for x, y in zip(mu.c, mv.c)), row)
        assert len(every) == sum(
            real.dim(c) * real.dim(d - c) for c in range(1, d // 2 + 1)
        )
        pregenerated = rank(field, every, width)
        assert rank(field, list(distinct.values()), width) == pregenerated
        # the oracle's reading: the monomials in the generators below d,
        # rendered by naive products, span the same
        gens = [(g.degree, real.render_monomial(g.monomial))
                for g in minimal_generators(real.divisor, field, d)]
        monomials = [
            functools.reduce(lambda a, b: (a[0] + b[0], real.multiply(*a, *b)), word)[1]
            for length in range(2, d + 1)
            for word in itertools.combinations_with_replacement(gens, length)
            if sum(w for w, _ in word) == d
        ]
        rows = [row for row, _ in monomials]
        assert rank(field, rows, width) == pregenerated

    @pytest.mark.parametrize("field", [QQ, GF7, GFBIG], ids=str)
    @pytest.mark.parametrize(
        "points, alphas, window, degrees",
        [
            # the heavy cost class of the criterion 09 draw
            ((0, 1, 2), ("2/3", "1/3", "-1/4"), 15,
             ([2, 3, 3, 3, 4, 4], [6, 6, 6, 6, 7, 7, 7, 7, 8, 8])),
            ((0, 1, 2), ("-1/4", "-1/4", "1"), 15, ([2, 3, 3, 4, 4], [6, 6, 6, 7, 7, 8])),
            ((0, 1, 2), ("1", "1/3", "-1/3"), 15, ([1, 2, 3, 3], [4, 5, 6])),
            ((0, 1, 2), ("0", "1/4", "2/3"), 15, ([1, 2, 3, 4], [4, 6, 7])),
            ((0, 1, 2), ("-1/4", "-1", "2"), 15, ([1, 2, 3, 4], [4, 5, 6])),
            ((0, 1, 2), ("1/2", "-1/3", "1/4"), 15, ([2, 3, 4, 5], [7, 8, 10])),
            ((0, 1), ("1/4", "1/2"), 12, ([1, 2, 4], [6])),
            (("inf", "1/2", "-3/4"), ("1/2", "1/3", "-1/4"), 14,
             ([2, 3, 3, 4, 4], [6, 6, 7, 7, 8, 8])),
            ((0, 1, 2), ("1/3", "-1/2", "1/6"), 8, ([6], [])),  # degree 0
            ((0, 1), ("-1/2", "1/4"), 8, ([], [])),
        ],
    )
    def test_pinned_degrees(self, field, points, alphas, window, degrees):
        D = QDivisor.of(points, [F(a) for a in alphas])
        assert brute_force_oracle(D, field, window) == degrees

    @pytest.mark.parametrize("field", [QQ, GF7, GFBIG], ids=str)
    def test_generator_at_the_window_top(self, field):
        # degree 5 of 13/5 needs a generator of its own: the oracle picks
        # generators through the window, as it checks relations
        D = QDivisor.of(["inf"], [F("13/5")])
        degrees = ([1, 1, 1, 2, 5], [2, 3, 3])
        assert brute_force_oracle(D, field, 5) == degrees
        gens = minimal_generators(D, field, 6)
        assert (gen_degrees(gens), sorted(r.degree for r in relation_ideal(D, field, gens, 5))) == degrees

    @pytest.mark.parametrize("field", [QQ, GFBIG], ids=str)
    @pytest.mark.parametrize(
        "alphas, degrees",
        [
            # the heaviest criterion-09 cases: their shifted ranks saturate
            # at the kernel dimension
            (("1/2", "2/3", "-1/3"), ([2, 2, 3, 3, 3], [5, 5, 6, 6, 6, 6])),
            (("-2/3", "1", "2/3"), ([1, 2, 3, 3], [4, 5, 6])),
            (("0", "1/4", "2/3"), ([1, 2, 3, 4], [4, 6, 7])),
        ],
    )
    def test_heaviest_cases_match_the_engine(self, field, alphas, degrees):
        D = QDivisor.of([0, 1, 2], [F(a) for a in alphas])
        gens = minimal_generators(D, field, 16)
        engine = (gen_degrees(gens), sorted(r.degree for r in relation_ideal(D, field, gens, 15)))
        assert brute_force_oracle(D, field, 15) == engine == degrees

    @pytest.mark.parametrize("point", [F("1/3"), F("2/9")], ids=str)
    def test_point_reducing_to_inf(self, point):
        # the ghost point of 5/2 at 1/3 or 2/9 sits at 0 in GF(3), as for inf
        D, at_inf = QDivisor.of([point], [F("5/2")]), QDivisor.of(["inf"], [F("5/2")])
        degrees = ([1, 1, 1, 2], [2, 3, 3])
        for E in (D, at_inf):
            gens = minimal_generators(E, GF3)
            assert gen_degrees(gens) == degrees[0]
            rels = relation_ideal(E, GF3, gens, 6)
            assert [r.degree for r in rels] == degrees[1]
            assert all(relation_evaluates_to_zero(E, GF3, gens, r) for r in rels)
            assert brute_force_oracle(E, GF3, 6) == degrees
        assert minimal_generators(D, GF3) == minimal_generators(at_inf, GF3)
        assert relation_ideal(D, GF3, gens, 6) == rels

    def test_unspanned_degree_is_an_internal_error(self, monkeypatch):
        defect_sections = _Realization.defect_sections
        monkeypatch.setattr(
            _Realization, "defect_sections", lambda self, d, A: defect_sections(self, d, A)[:-1]
        )
        with pytest.raises(AssertionError, match="oracle failed to span degree 1"):
            brute_force_oracle(QDivisor.of(["inf"], [F("13/5")]), QQ, 5)

    def test_uses_no_engine_machinery(self, monkeypatch):
        def engine(*args, **kwargs):
            raise AssertionError("the oracle used the engine")

        for owner, name in [
            (RowBasis, "add"),
            (TrackingRowBasis, "add"),
            (SparseRowBasis, "add"),
            (_MonomialEvaluator, "section"),
            (presentation, "_pregen_subsets"),
            (presentation, "_standard_pass"),
            (presentation, "_weighted_exponents"),
        ]:
            monkeypatch.setattr(owner, name, engine)
        assert brute_force_oracle(D235, QQ, 35) == ([6, 10, 15], [30])
        heavy = QDivisor.of([0, 1, 2], [F("2/3"), F("1/3"), F("-1/4")])
        assert brute_force_oracle(heavy, GFBIG, 15) == (
            [2, 3, 3, 3, 4, 4], [6, 6, 6, 6, 7, 7, 7, 7, 8, 8]
        )


@st.composite
def _generic_divisors(draw):
    """A divisor of positive degree on a generic configuration of at most
    four points."""
    n = draw(st.integers(1, 4))
    points = generic_configs(n, 1, [0], draw(st.integers(0, 2**32)))[0][0]
    alphas = [Fraction(draw(st.integers(-2, 2)), draw(st.integers(1, 4))) for _ in points]
    alphas[0] += max(math.floor(-sum(alphas)) + 1, 0)
    return QDivisor.of(points, alphas)


class TestGenericConfigurations:
    """The differential referees: on generic configurations QQ and
    GF(2^61 - 1) give the same presentation degrees, every emitted relation
    vanishes on the generator sections, and the QQ relations, monic at
    their leading terms, reduce mod p to the GF(2^61 - 1) ones."""

    @settings(max_examples=40, deadline=None)
    @given(_generic_divisors())
    def test_relations_vanish_and_large_prime_agrees(self, D):
        window = min(degree_bounds(D)[1], 12)
        degrees, relations = [], []
        for field in (QQ, GFBIG):
            gens = minimal_generators(D, field, window + 1)
            rels = relation_ideal(D, field, gens, window)
            assert all(relation_evaluates_to_zero(D, field, gens, r) for r in rels)
            degrees.append((gen_degrees(gens), sorted(r.degree for r in rels)))
            relations.append(rels)
        assert degrees[0] == degrees[1]
        reduced = [
            RelationPoly(r.degree, tuple((e, GFBIG.of(c)) for e, c in r.terms))
            for r in relations[0]
        ]
        assert reduced == relations[1]


@st.composite
def _scan_cases(draw):
    """Coefficients of positive degree on at most five points (one point is
    padded), a window, and configurations from a pool whose points collide
    or reduce to infinity in GF(2), GF(3) or GF(7)."""
    n = draw(st.integers(1, 5))
    alphas = [Fraction(draw(st.integers(-3, 3)), draw(st.integers(1, 6))) for _ in range(n)]
    alphas[0] += max(math.floor(-sum(alphas)) + 1, 0)
    pool = [None, 0, 1, -1, 2, 3, 7, 9, F("1/2"), F("1/3"), F("2/7"), F("5/2")]
    points = st.permutations(pool).map(lambda p: tuple(p[:n]))
    configs = draw(st.lists(st.tuples(points, st.sampled_from([0, 2, 3, 7])), min_size=1, max_size=20))
    return alphas, configs, draw(st.integers(2, 14))


def _floor_degrees(run):
    """run() and the degrees it passed to the engine's floor_divisor."""
    degrees = []

    def counted(D, d):
        degrees.append(d)
        return floor_divisor(D, d)

    with mock.patch.object(presentation, "floor_divisor", counted):
        return run(), degrees


class TestSharedFloorTable:
    """stability_scan builds one floor table and hands it to the one
    realization of each configuration, on which all its stages run."""

    @settings(max_examples=60, deadline=None)
    @given(_scan_cases())
    def test_scan_matches_one_realization_per_configuration(self, case):
        alphas, configs, window = case
        coefficients = QDivisor.of(range(len(alphas)), alphas)
        if not any(graded_dim(coefficients, d) for d in range(1, window)):
            with pytest.raises(CanringError, match="has a nonzero graded piece"):
                stability_scan(alphas, configs, window)
            return
        expected = []  # the generators or the collision message of each configuration
        for points, char in configs:
            D = QDivisor.of(points, alphas)
            try:
                _Realization(D, FieldSpec(char))
            except PointCollisionError as exc:
                expected.append(str(exc))
                continue
            expected.append([g.to_json() for g in minimal_generators(D, FieldSpec(char), window)])
        evaluated = [c for c, e in zip(configs, expected) if not isinstance(e, str)]
        if not evaluated:
            with pytest.raises(CanringError, match="scan evaluated none"):
                stability_scan(alphas, configs, window)
            return
        report, degrees = _floor_degrees(lambda: stability_scan(alphas, configs, window))
        got = [run["reason"] if run["skipped"] else run["generators"] for run in report["runs"]]
        assert got == expected
        # the table is grown once, by floor_divisor up to its period ell
        ell = math.lcm(*[a.denominator for a in alphas])
        table = list(range(min(ell, window - 1) + 1))
        assert degrees == table
        many = (evaluated * 20)[:20]
        for scan in ([evaluated[0]], many):
            assert _floor_degrees(lambda: stability_scan(alphas, scan, window))[1] == degrees
        # with both reports, each configuration's pass reads the same table
        # and renders each generator from the floors of its degree
        report, degrees = _floor_degrees(
            lambda: stability_scan(
                alphas, configs, window, with_groebner=True, with_relations=True, truncation=window - 1
            )
        )
        runs = [run for run in report["runs"] if not run["skipped"]]
        assert degrees[: len(table)] == table
        assert degrees[len(table) :] == [g["degree"] for run in runs for g in run["generators"]]
        for (points, char), run in zip(evaluated, runs):
            D, field = QDivisor.of(points, alphas), FieldSpec(char)
            gens = minimal_generators(D, field, window)
            groebner = groebner_leading_terms(D, field, gens, window - 1)
            assert run["groebner"] == {
                "truncation": window - 1,
                "leading_terms": [list(e) for e in groebner.leading_terms],
            }
            assert run["relations"] == [r.summary() for r in relation_ideal(D, field, gens, window - 1)]

    def test_one_realization_and_one_pass_per_configuration(self, monkeypatch):
        """The n = 4 draw alphas 1/4, 1/5, -1/2, 1/6 of criterion 08 on 100
        configurations, 37 of them evaluated, with both reports to degree 34:
        one realization per configuration and one standard pass per evaluated
        one, where building each stage its own took 174 and 74.  floor_divisor
        grows the table through the generator window, to G = 25 (certificate
        (3, 10, 12, 25)), renders the generators of the first evaluated
        configuration, grows the table on to the truncation in its pass, and
        renders the generators of each other one: 294 calls, where the
        paper's window 122 grew the table to ell = 60 for 320, and one table
        per stage made 3169."""
        alphas = [F("1/4"), F("1/5"), F("-1/2"), F("1/6")]
        configs = generic_configs(4, 20, [0, 2, 3, 5, 7], 88)
        calls = collections.Counter()

        def counted(name, function):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return function(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(_Realization, "__init__", counted("realization", _Realization.__init__))
        for name in ("_standard_pass", "_relation"):
            monkeypatch.setattr(presentation, name, counted(name, getattr(presentation, name)))
        report, degrees = _floor_degrees(
            lambda: stability_scan(alphas, configs, with_groebner=True, with_relations=True, truncation=34)
        )
        runs = [run for run in report["runs"] if not run["skipped"]]
        assert (len(report["runs"]), len(runs)) == (100, 37)
        assert (calls["realization"], calls["_standard_pass"]) == (100, 37)
        assert calls["_relation"] > 0
        generator_degrees = [g["degree"] for run in runs for g in run["generators"]]
        first = len(runs[0]["generators"])
        assert degrees == [*range(26), *generator_degrees[:first], *range(26, 35), *generator_degrees[first:]]
        assert len(degrees) == 294
        # the Groebner report forces no deferred relation
        calls.clear()
        groebner = stability_scan(alphas, configs, with_groebner=True, truncation=34)
        assert [run.get("groebner") for run in groebner["runs"]] == [
            run.get("groebner") for run in report["runs"]
        ]
        assert (calls["realization"], calls["_standard_pass"], calls["_relation"]) == (100, 37, 0)

    def test_coefficient_only_work_once_per_scan(self):
        """The scan-n5 coefficients (window 45) leave degrees 4, 5, 6, 7 and
        9 uncertified: a scan takes their monomial basis once, whether it has
        1 or 16 configurations, and every configuration renders and
        rank-checks the monomial basis of each of them."""
        alphas = [F("-2/3"), F("1/2"), F("3/5"), F("1/4"), F("-1/6")]
        pending = [4, 5, 6, 7, 9]
        render = _Realization.defect_sections
        for count in (1, 16):
            bases, renders = [], collections.Counter()

            def counted_basis(D, d):
                bases.append(d)
                return monomial_basis(D, d)

            def counted_render(real, d, mask):
                renders[d] += not mask
                return render(real, d, mask)

            with mock.patch.object(presentation, "monomial_basis", counted_basis), mock.patch.object(
                _Realization, "defect_sections", counted_render
            ):
                report = stability_scan(alphas, generic_configs(5, count, [0], 1), up_to=45)
            assert [run["skipped"] for run in report["runs"]] == [False] * count
            assert bases == pending
            assert renders == {d: count for d in pending}

    def test_table_must_fit_the_padded_coefficients(self):
        table = _FloorTable(padded(D235).alphas)
        assert _Realization(QDivisor.of([0, 1, 2], D235.alphas), GF7, table).table is table
        assert _Realization(QDivisor.of([F("1/2")], [5]), GF2, _FloorTable((F(5), F(0)))).dim(1) == 6
        for D in (D2PT, QDivisor.of(["inf", 0, 1], [F("-1/2"), F("1/3"), F("1/4")])):
            with pytest.raises(AssertionError, match="does not fit"):
                _Realization(D, QQ, table)


@st.composite
def _collision_cases(draw):
    """A characteristic and one to six distinct points: inf, values whose
    denominator p may divide, and values that differ by a multiple of
    2^61 - 1."""
    p = draw(st.sampled_from([0, 2, 3, 5, 7, 2**61 - 1]))
    numerator = st.integers(-12, 12) | st.integers(-12, 12).map(lambda a: a + 2**61 - 1)
    value = st.builds(Fraction, numerator, st.sampled_from([1, 2, 3, 4, 5, 6, 7, 9, 2**61 - 1]))
    return p, draw(st.lists(st.none() | value, min_size=1, max_size=6, unique=True))


class TestCollisionKeys:
    @settings(max_examples=300, deadline=None)
    @given(_collision_cases())
    def test_collision_exactly_when_two_points_share_their_image(self, case):
        # a collision is two points with one FieldSpec.of image, or both
        # reducing to infinity; the message names the first repeated point
        p, values = case
        field = FieldSpec(p)
        D = padded(QDivisor.of(values, [F("1/2")] * len(values)), p)
        seen, message = set(), None
        for pt in D.points:
            key = None if pt.reduces_to_infinity(p) else field.of(pt.value)
            if key in seen:
                message = f"points of {D} collide in {field} (at {pt})"
                break
            seen.add(key)
        if message is None:
            _Realization(D, field)
        else:
            with pytest.raises(PointCollisionError) as info:
                _Realization(D, field)
            assert str(info.value) == message


class TestStabilityScan:
    def test_char2_inflated_divisor_stable(self):
        configs = [((None, 0, 1), 0), ((None, 0, 1), 2)]
        report = stability_scan([2, 0, 0], configs)
        assert report["stable"]
        degs = [
            sorted(g["degree"] for g in run["generators"]) for run in report["runs"]
        ]
        assert degs == [[1, 1, 1], [1, 1, 1]]

    def test_harmonic_configuration_stable(self):
        configs = [((None, 0, 1, -1), 0), ((None, 0, 1, 5), 0), ((None, 0, 1, -1), 3)]
        report = stability_scan([2, 0, 0, 0], configs)
        assert report["stable"]
        for run in report["runs"]:
            assert sorted(g["degree"] for g in run["generators"]) == [1, 1, 1]

    def test_collision_skipped_and_recorded(self):
        configs = [((0, 1, 3), 3), ((0, 1, 2), 0)]
        report = stability_scan([F("1/2"), F("1/2"), 0], configs)
        assert report["runs"][0]["skipped"]
        assert not report["runs"][1]["skipped"]

    def test_no_evaluated_configuration_raises(self):
        with pytest.raises(CanringError):
            stability_scan([F("1/2"), F("1/2")], [((0, 2), 2)])
        with pytest.raises(CanringError):
            stability_scan([F("1/2"), F("1/2")], [])

    @pytest.mark.parametrize(
        "alphas, up_to",
        [
            ([F("1/2"), F("1/3")], 1),
            ([F("-1/2"), F("1/3"), F("1/5")], 6),  # dim S_d = 0 for d < 6
            ([F("-1/2"), F("1/4")], None),
            ([F("-1/2"), F("1/4")], 10**12),  # negative degree: refused at once
        ],
    )
    def test_window_of_zero_pieces_raises(self, alphas, up_to):
        configs = [(tuple(range(len(alphas))), 0)]
        with pytest.raises(CanringError, match=f"no degree 1 <= d < {up_to or 1} has"):
            stability_scan(alphas, configs, up_to)

    def test_window_reaching_a_nonzero_piece_is_judged(self):
        report = stability_scan([F("-1/2"), F("1/3"), F("1/5")], [((None, 0, 1), 0)], 7)
        assert report["stable"]
        assert [g["degree"] for g in report["runs"][0]["generators"]] == [6]

    def test_generic_configs_deterministic(self):
        a = generic_configs(3, 4, [0, 2], seed=9)
        b = generic_configs(3, 4, [0, 2], seed=9)
        assert a == b
        assert len(a) == 8
        for points, _ in a:
            assert len(set(points)) == 3

    def test_relations_reported_but_not_part_of_verdict(self):
        configs = [((None, 0, 1), 0), ((None, 0, 2), 0)]
        report = stability_scan(
            [F("-1/2"), F("1/3"), F("1/5")],
            configs,
            with_relations=True,
            truncation=35,
        )
        assert report["stable"]
        assert report["relation_degrees_agree"] is True
        for run in report["runs"]:
            assert run["relations"] == [{"degree": 30, "support_size": 3}]
        assert report["xgen_threshold"] == 120

    def test_relation_disagreement_does_not_flip_stable(self):
        # chords: the concurrent configuration adds a degree-30 generator,
        # so generator multisets (and hence `stable`) disagree, but the
        # relation agreement flag is reported independently.
        alphas = [F("-1/2"), F("-1/2"), F("1/3"), F("1/3"), F("1/5"), F("1/5")]
        configs = [
            ((0, 1, 2, 3, 4, 7), 0),
            ((0, 1, 2, 3, 4, F("9/5")), 0),
        ]
        report = stability_scan(alphas, configs, with_relations=True, truncation=61)
        assert not report["stable"]
        assert report["relation_degrees_agree"] is False
        degs = [
            sorted(g["degree"] for g in run["generators"]) for run in report["runs"]
        ]
        assert degs == [[6, 10, 15], [6, 10, 15, 30]]
