import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from canring.errors import TrivialRingError
from canring.ratapprox import minus_continued_fraction
from canring.twopoint import (
    TwoPointRelation,
    presentation_to_json,
    two_point_presentation,
    verify_presentation,
)


def F(s):
    return Fraction(s)


def gen_pairs(p):
    return [(v.d, v.c) for v in p.generators]


class TestOnePointCase:
    def test_13_5(self):
        p = two_point_presentation(F("13/5"), 0)
        assert gen_pairs(p) == [(1, 0), (1, 1), (1, 2), (2, 5), (5, 13)]
        assert p.neg_count == 0
        assert len(p.relations) == 6

    def test_13_5_quadratic_gaps_match_minus_cf(self):
        p = two_point_presentation(F("13/5"), 0)
        gaps = sorted(
            (r for r in p.relations if r.j == r.i + 2), key=lambda r: r.i
        )
        assert [r.b for r in gaps] == [0, 0, 0]
        assert [r.a for r in gaps] == [2, 3, 3]
        assert minus_continued_fraction(F("13/5"))[1:] == [2, 3, 3]

    def test_named_relations(self):
        p = two_point_presentation(F("13/5"), 0)
        by_pair = {(r.i, r.j): r for r in p.relations}
        assert by_pair[(0, 2)] == TwoPointRelation(0, 2, 1, 2, 0)  # f0f2 = f1^2
        assert by_pair[(1, 3)] == TwoPointRelation(1, 3, 2, 3, 0)  # f1f3 = f2^3
        assert by_pair[(2, 4)] == TwoPointRelation(2, 4, 3, 3, 0)  # f2f4 = f3^3

    def test_free_case(self):
        p = two_point_presentation(1, 0)
        assert gen_pairs(p) == [(1, 0), (1, 1)]
        assert p.relations == ()
        assert p.is_polynomial_ring


class TestTwoPointCase:
    def test_13_5_minus_quarter_generators(self):
        p = two_point_presentation(F("13/5"), F("-1/4"))
        assert p.neg_count == 3
        assert p.pos_count == 3
        assert gen_pairs(p) == [
            (4, 1),
            (3, 1),
            (2, 1),
            (1, 1),
            (1, 2),
            (2, 5),
            (5, 13),
        ]
        assert len(p.relations) == 15  # C(6, 2)

    def test_polynomial_ring_at_degree_zero(self):
        p = two_point_presentation(F("1/2"), F("-1/2"))
        assert gen_pairs(p) == [(2, 1)]
        assert p.is_polynomial_ring

    def test_trivial_ring_signalled(self):
        with pytest.raises(TrivialRingError):
            two_point_presentation(F("1/4"), F("-1/2"))

    def test_quadratic_gap_exponent_at_least_two(self):
        rng = random.Random(11)
        for _ in range(30):
            alpha = Fraction(rng.randint(-10, 30), rng.randint(1, 12))
            beta = Fraction(rng.randint(-10, 30), rng.randint(1, 12))
            if alpha + beta < 0:
                continue
            p = two_point_presentation(alpha, beta)
            for rel in p.relations:
                if rel.j == rel.i + 2:
                    assert rel.b == 0
                    assert rel.a >= 2


class TestVerification:
    def test_constructed_presentations_verify(self):
        assert verify_presentation(two_point_presentation(F("13/5"), F("-1/4")))
        assert verify_presentation(two_point_presentation(F("13/5"), 0))

    def test_tampered_exponent_fails(self):
        p = two_point_presentation(F("13/5"), 0)
        bad_rels = tuple(
            replace(r, a=r.a - 1) if idx == 0 else r
            for idx, r in enumerate(p.relations)
        )
        assert not verify_presentation(replace(p, relations=bad_rels))

    def test_index_outside_the_chain_fails(self):
        p = two_point_presentation(F("13/5"), F("-1/4"))
        assert (p.neg_count, p.pos_count) == (3, 3)
        assert p.generator(-3) == p.generators[0]
        for i in (-4, 4, -10):
            with pytest.raises(IndexError):
                p.generator(i)
        # -10 would wrap round to the index -3 of the first relation
        assert p.relations[0].i == -3
        bad_rels = (replace(p.relations[0], i=-10),) + p.relations[1:]
        assert not verify_presentation(replace(p, relations=bad_rels))

    def test_dropped_relation_fails(self):
        p = two_point_presentation(F("13/5"), 0)
        assert not verify_presentation(replace(p, relations=p.relations[1:]))

    @settings(max_examples=50, deadline=None)
    @given(
        alpha=st.fractions(min_value=-3, max_value=4, max_denominator=40),
        beta=st.fractions(min_value=-3, max_value=4, max_denominator=40),
    )
    def test_random_self_check(self, alpha, beta):
        if alpha + beta < 0:
            with pytest.raises(TrivialRingError):
                two_point_presentation(alpha, beta)
            return
        p = two_point_presentation(alpha, beta)
        assert verify_presentation(p)
        slopes = [Fraction(v.c, v.d) for v in p.generators]
        assert slopes == sorted(slopes)
        assert len(set(slopes)) == len(slopes)
        expected = (len(p.generators) - 1) * (len(p.generators) - 2) // 2
        assert len(p.relations) == expected


class TestJson:
    def test_one_point_layout(self):
        obj = presentation_to_json(two_point_presentation(F("13/5"), 0))
        assert obj["offset"] == 0
        assert obj["generators"][0] == [1, 0]
        assert {"i", "j", "h", "a", "b"} == set(obj["relations"][0])
