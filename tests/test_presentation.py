import functools
import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from canring.divisor import QDivisor, degree_bounds, denominator_data, graded_dim
from canring.errors import (
    CanringError,
    GenerationError,
    OversizeError,
    PointCollisionError,
    UnsupportedDivisorError,
)
from canring.exactla import (
    ExactMatrix,
    FieldSpec,
    RowBasis,
    SparseRowBasis,
    TrackingRowBasis,
    rank,
)
from canring.presentation import (
    RelationPoly,
    _MonomialEvaluator,
    _Realization,
    _word,
    brute_force_oracle,
    generic_configs,
    groebner_leading_terms,
    minimal_generators,
    minimal_relation_degrees,
    relation_evaluates_to_zero,
    relation_ideal,
    stability_scan,
    xgen_threshold,
)
from canring.twopoint import two_point_presentation

QQ = FieldSpec(0)
GF2 = FieldSpec(2)
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


def gen_degrees(gens):
    return sorted(g.degree for g in gens)


def section_matrix(D, field, d):
    """The degree-d basis sections of D as rows of an exact matrix."""
    real = _Realization(D, field)
    return ExactMatrix(field, real.basis_sections(d), ncols=max(real.r(d) + 1, 0))


class TestSectionSpace:
    """Graded pieces realized as section matrices by _Realization."""

    def test_235_degree30(self):
        # deg floor(30 D) = -15 + 10 + 6 = 1, so sections are linear
        # polynomials: a 2 x 2 matrix of full rank.
        m = section_matrix(D235, QQ, 30)
        assert m.nrows == 2
        assert m.ncols == 2
        assert rank(m) == 2

    def test_empty_piece(self):
        real = _Realization(D235, QQ)
        assert real.basis_sections(5) == []
        assert real.basis(5) == []

    def test_inflated_double_point(self):
        D = QDivisor.of(["inf", 0, 1], [2, 0, 0])
        assert rank(section_matrix(D, QQ, 1)) == 3

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
            assert rank(section_matrix(D, QQ, d)) == graded_dim(D, d)

    def test_spanning_set_rank_equals_basis_rank(self):
        # every spanning monomial reduces to the pinned basis: the spanning
        # sections span no more than the basis sections
        from canring.conelattice import monomial_spanning_set

        for char in (0, 7):
            field = FieldSpec(char)
            real = _Realization(D235, field)
            for d in (6, 20, 30, 36):
                span_rows = [real.render(m) for m in monomial_spanning_set(D235, d)]
                if not span_rows:
                    continue
                width = real.r(d) + 1
                assert rank(ExactMatrix(field, span_rows, ncols=width)) == graded_dim(
                    D235, d
                )

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
    poly = list(start) if start is not None else [field.one]
    for pt, g in zip(real.divisor.points, exponents):
        if pt.is_infinity or (p and pt.value.denominator % p == 0):
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


def span_rank(field, rows, width):
    return rank(ExactMatrix(field, [[field.of(x) for x in r] for r in rows], ncols=width))


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
        got = real.render_exponents(exps, width)
        want = padded_to(reference_product(real, exps), width, field)
        assert got == want
        assert list(map(type, got)) == list(map(type, want))

        d1, d2 = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 6))
        for d in (d1, d2):
            floors = real.floors(d)
            for mono, vec in zip(real.basis(d), real.basis_sections(d)):
                g = [c + b for c, b in zip(mono.c, floors)]
                assert vec == padded_to(reference_product(real, g), real.r(d) + 1, field)

        coeff = st.builds(Fraction, st.integers(-7, 7), st.integers(1, 5)).map(field.of)
        if real.dim(d1) and real.dim(d2):
            v1 = data.draw(st.lists(coeff, min_size=real.dim(d1), max_size=real.dim(d1)))
            v2 = data.draw(st.lists(coeff, min_size=real.dim(d2), max_size=real.dim(d2)))
            excess = [
                b - b1 - b2
                for b, b1, b2 in zip(real.floors(d1 + d2), real.floors(d1), real.floors(d2))
            ]
            conv = [field.zero] * (len(v1) + len(v2) - 1)
            for i, x in enumerate(v1):
                for j, y in enumerate(v2):
                    conv[i + j] = field.add(conv[i + j], field.mul(x, y))
            got = real.multiply(d1, v1, d2, v2)
            want = padded_to(reference_product(real, excess, conv), real.r(d1 + d2) + 1, field)
            assert got == want
            assert list(map(type, got)) == list(map(type, want))

        subset = frozenset(data.draw(st.sets(st.integers(0, n - 1))))
        floors = real.floors(d1)
        e = sum(floors) - len(subset)
        width = real.r(d1) + 1
        rows = real.defect_sections(d1, subset)
        assert len(rows) == max(e + 1, 0)
        ref_rows = []
        for k in range(e + 1):
            g = [int(i in subset) for i in range(n)]
            g[0] += k
            g[1] += e - k
            ref_rows.append(padded_to(reference_product(real, g), width, field))
        if ref_rows:
            ref_rank = span_rank(field, ref_rows, width)
            assert span_rank(field, rows, width) == ref_rank
            assert span_rank(field, rows + ref_rows, width) == ref_rank


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

    def test_distinct_marked_orders_within_degree(self):
        gens = minimal_generators(D2PT, QQ)
        by_degree = {}
        for g in gens:
            by_degree.setdefault(g.degree, []).append(g.order_at_marked_point)
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
            fc, fdc, fd = real.floors(c), real.floors(d - c), real.floors(d)
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
                for vec in real.defect_sections(d, A):
                    span.add(vec)
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
    """Every monomial of every degree through a RowBasis in word order; the
    hits filtered to the divisibility-minimal ones."""
    real = _Realization(D, field)
    ev = _MonomialEvaluator(real, gens)
    weights = [g.degree for g in gens]
    hits = []
    for d in range(2, up_to + 1):
        span = RowBasis(field)
        for e in monomials_of_degree(weights, d):
            if not span.add(ev.section(e)):
                hits.append(e)
    minimal = [
        e
        for e in hits
        if not any(o != e and all(a <= b for a, b in zip(o, e)) for o in hits)
    ]
    return tuple(sorted(minimal, key=word_key))


def reference_relations(D, field, gens, up_to):
    """Full elimination: every monomial of every degree through one
    TrackingRowBasis in word order, each kernel vector kept, and graded
    Nakayama against the x_k shifts of the full lower-degree kernels."""
    real = _Realization(D, field)
    ev = _MonomialEvaluator(real, gens)
    weights = [g.degree for g in gens]
    kernels = {}
    minimal = []
    for d in range(2, up_to + 1):
        tracker = TrackingRowBasis(field)
        found = []
        for e in monomials_of_degree(weights, d):
            combo = tracker.add(ev.section(e), e)
            if combo is not None:
                found.append(combo)
        kernels[d] = found
        nakayama = SparseRowBasis(field)
        for k, w in enumerate(weights):
            for vec in kernels.get(d - w, []):
                nakayama.add({e[:k] + (e[k] + 1,) + e[k + 1 :]: c for e, c in vec.items()})
        for vec in found:
            if nakayama.add(vec):
                terms = tuple(sorted(vec.items(), key=lambda t: word_key(t[0])))
                minimal.append(RelationPoly(d, terms))
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


class TestRelations:
    def test_235_single_relation(self):
        gens = minimal_generators(D235, QQ)
        rels = relation_ideal(D235, QQ, gens)
        assert [r.degree for r in rels] == [30]
        rel = rels[0]
        assert set(rel.support) == {(5, 0, 0), (0, 3, 0), (0, 0, 2)}
        assert all(coeff != 0 for _, coeff in rel.terms)
        assert relation_evaluates_to_zero(D235, QQ, gens, rel)

    def test_235_char7(self):
        field = FieldSpec(7)
        gens = minimal_generators(D235, field)
        rels = relation_ideal(D235, field, gens)
        assert [r.degree for r in rels] == [30]
        assert set(rels[0].support) == {(5, 0, 0), (0, 3, 0), (0, 0, 2)}

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
            got = minimal_relation_degrees(D, QQ, gens, up_to=window)
            assert got == expected, (alpha, beta)

    @pytest.mark.parametrize(
        "consumer", [relation_ideal, groebner_leading_terms], ids=lambda f: f.__name__
    )
    def test_generation_error_on_truncated_gens(self, consumer):
        gens = minimal_generators(D235, QQ, up_to=11)  # drops the degree-15 one
        with pytest.raises(GenerationError):
            consumer(D235, QQ, gens, up_to=35)

    @settings(max_examples=60, deadline=None)
    @given(alphas=_CRITERION_09_ALPHAS, field=st.sampled_from([QQ, GF7, GFBIG]))
    def test_matches_full_elimination(self, alphas, field):
        # the criterion-09 oracle ranges and windows
        D = QDivisor.of(range(len(alphas)), alphas)
        window = criterion_09_window(D)
        gens = minimal_generators(D, field, up_to=window)
        rels = relation_ideal(D, field, gens, window)
        assert rels == reference_relations(D, field, gens, window)
        for rel in rels:
            assert relation_evaluates_to_zero(D, field, gens, rel)

    @pytest.mark.parametrize("field", [QQ, GFBIG])
    def test_tracks_standard_monomials_and_leading_terms_only(self, field, monkeypatch):
        gens = minimal_generators(CHORDS, field)
        leading = groebner_leading_terms(CHORDS, field, gens, up_to=120).leading_terms
        real = _Realization(CHORDS, field)
        standard = sum(real.dim(d) for d in range(2, 121))
        calls = []
        add = TrackingRowBasis.add

        def counted(self, vec, tag):
            calls.append(tag)
            return add(self, vec, tag)

        monkeypatch.setattr(TrackingRowBasis, "add", counted)
        relation_ideal(CHORDS, field, gens, up_to=120)
        assert len(calls) == standard + len(leading)


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
                rows.append(ev.section(e))
                new_rank = len(row_reduce(ExactMatrix(QQ, rows, ncols=real.r(d) + 1))[1])
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
        gens = minimal_generators(CHORDS, field)
        calls = []
        multiply = _Realization.multiply

        def counted(self, *args):
            calls.append(args[0])
            return multiply(self, *args)

        monkeypatch.setattr(_Realization, "multiply", counted)
        report = groebner_leading_terms(CHORDS, field, gens, up_to=120)
        standard = sum(graded_dim(CHORDS, d) for d in range(1, 121))
        assert len(calls) == standard + len(report.leading_terms)


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


class TestOracle:
    def test_matches_engine_on_235(self):
        gens = minimal_generators(D235, QQ)
        rels = minimal_relation_degrees(D235, QQ, gens, up_to=35)
        odeg, orel = brute_force_oracle(D235, QQ, 35)
        assert odeg == gen_degrees(gens)
        assert orel == rels

    def test_matches_engine_on_two_point(self):
        D = QDivisor.of(["inf", 0], [F("1/2"), F("1/2")])
        gens = minimal_generators(D, QQ)
        rels = minimal_relation_degrees(D, QQ, gens, up_to=8)
        odeg, orel = brute_force_oracle(D, QQ, 8)
        assert odeg == gen_degrees(gens)
        assert orel == rels

    def test_trivial_ring_empty(self):
        D = QDivisor.of([0, 1], [F("-1/2"), F("1/4")])
        assert brute_force_oracle(D, QQ, 10) == ([], [])

    def test_refuses_oversized(self):
        big = QDivisor.of([0, 1], [3, 3])
        with pytest.raises(OversizeError):
            brute_force_oracle(big, QQ, 30)


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
