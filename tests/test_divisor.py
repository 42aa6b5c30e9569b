import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from canring.divisor import (
    PointP1,
    QDivisor,
    degree_bounds,
    denominator_data,
    divisor_from_json,
    divisor_to_json,
    floor_divisor,
    graded_dim,
    padded,
    semigroup_count_bound,
    with_ghost_point,
)
from canring.errors import CanringError, UnsupportedDivisorError


def F(s):
    return Fraction(s)


D235 = QDivisor.of(["inf", 0, 1], [F("-1/2"), F("1/3"), F("1/5")])
D2PT = QDivisor.of(["inf", 0], [F("13/5"), F("-1/4")])


class TestModel:
    def test_distinct_points_enforced(self):
        with pytest.raises(CanringError):
            QDivisor.of([0, 0], [1, 1])

    def test_point_parsing(self):
        assert PointP1.of("inf").is_infinity
        assert PointP1.of("-1/2").value == F("-1/2")
        assert str(PointP1.of(None)) == "inf"

    def test_degree(self):
        assert D235.degree == F("1/30")
        assert D2PT.degree == F("47/20")

    def test_ghost_padding(self):
        one = QDivisor.of(["inf"], [F("13/5")])
        two = padded(one)
        assert two.n == 2
        assert two.alphas[1] == 0
        assert padded(D235) is D235

    def test_ghost_point_avoids_used_spots(self):
        D = QDivisor.of(["inf"], [2])
        assert not with_ghost_point(D).points[1].is_infinity


class TestFloorsAndDims:
    def test_floor_235_at_6(self):
        assert floor_divisor(D235, 6) == [-3, 2, 1]

    def test_floor_zero_degree(self):
        assert floor_divisor(D2PT, 0) == [0, 0]

    def test_floor_two_point(self):
        assert floor_divisor(D2PT, 4) == [10, -1]

    @settings(max_examples=200, deadline=None)
    @given(
        alphas=st.lists(
            st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**6),
            min_size=1,
            max_size=6,
        ),
        d=st.integers(min_value=0, max_value=10**6),
    )
    def test_floor_is_fraction_floor(self, alphas, d):
        D = QDivisor.of(range(len(alphas)), alphas)
        assert floor_divisor(D, d) == [math.floor(d * a) for a in alphas]

    def test_dims_235(self):
        assert graded_dim(D235, 30) == 2
        assert graded_dim(D235, 5) == 0
        assert graded_dim(D235, 0) == 1

    @settings(max_examples=100, deadline=None)
    @given(
        alpha=st.fractions(min_value=-3, max_value=3, max_denominator=12),
        c=st.integers(min_value=0, max_value=40),
        d=st.integers(min_value=0, max_value=40),
    )
    def test_floor_superadditivity(self, alpha, c, d):
        lhs = math.floor(c * alpha) + math.floor(d * alpha)
        total = math.floor((c + d) * alpha)
        assert total - 1 <= lhs <= total

    @settings(max_examples=60, deadline=None)
    @given(
        k1=st.integers(min_value=1, max_value=5),
        k2=st.integers(min_value=1, max_value=5),
    )
    def test_dim_slope_on_lcm_multiples(self, k1, k2):
        data = denominator_data(D235)
        d1 = k1 * data.ell
        d2 = (k1 + k2) * data.ell
        diff = graded_dim(D235, d2) - graded_dim(D235, d1)
        assert diff == (d2 - d1) * D235.degree


class TestBounds:
    def test_bounds_235(self):
        assert denominator_data(D235).ell == 30
        assert denominator_data(D235).ell_i == (15, 10, 6)
        assert degree_bounds(D235) == (31, 62)

    def test_bounds_two_point(self):
        gen, rel = degree_bounds(D2PT)
        assert gen == 9
        assert rel == max(20 + 9, 18)

    def test_single_integer_point(self):
        # One-point divisors are ghost-padded before the bound formula; the
        # generators of the unit-coefficient ring sit in degree 1 < 2.
        gen, rel = degree_bounds(QDivisor.of(["inf"], [1]))
        assert gen == 2
        assert rel == 4

    def test_bounds_reject_nonpositive_degree(self):
        with pytest.raises(UnsupportedDivisorError):
            degree_bounds(QDivisor.of([0, 1], [F("-1/2"), F("1/2")]))
        with pytest.raises(UnsupportedDivisorError):
            degree_bounds(QDivisor.of([0], [-1]))

    def test_semigroup_count_235(self):
        assert semigroup_count_bound(D235) == 3

    def test_semigroup_count_unimodular(self):
        assert semigroup_count_bound(QDivisor.of(["inf", 0], [1, 0])) == 2

    def test_semigroup_count_two_point(self):
        assert semigroup_count_bound(D2PT) == 48


class TestJson:
    def test_roundtrip(self):
        obj = divisor_to_json(D235, char=7)
        D, char = divisor_from_json(obj)
        assert D == D235
        assert char == 7
        assert obj["points"] == ["inf", "0", "1"]
        assert obj["alphas"] == ["-1/2", "1/3", "1/5"]

    def test_rejects_bad_char(self):
        with pytest.raises(CanringError):
            divisor_from_json({"points": ["0"], "alphas": ["1"], "char": -3})

    def test_rejects_missing_keys(self):
        with pytest.raises(CanringError):
            divisor_from_json({"points": ["0"]})

    @pytest.mark.parametrize(
        "obj",
        [
            {"points": [[0]], "alphas": ["1/2"]},
            {"points": ["0"], "alphas": ["abc"]},
            {"points": ["0"], "alphas": ["1/0"]},
            {"points": ["0"], "alphas": [None]},
            {"points": [0], "alphas": [0.1]},
            {"points": [True, 0], "alphas": ["1/2", "1/3"]},
            {"points": ["0", "1"], "alphas": [True, "1/3"]},
            {"points": ["0"], "alphas": ["1/2"], "char": True},
            {"points": "01", "alphas": ["1/2", "1/3"]},
            {"points": {"0": 1, "1": 2}, "alphas": "12"},
        ],
    )
    def test_rejects_malformed_entries(self, obj):
        with pytest.raises(CanringError, match="malformed"):
            divisor_from_json(obj)

    def test_keeps_specific_errors(self):
        with pytest.raises(CanringError, match="pairwise distinct"):
            divisor_from_json({"points": ["0", "0"], "alphas": ["1", "1"]})
