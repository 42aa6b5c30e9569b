import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from canring.conelattice import (
    GradedMonomial,
    barycentric_coordinates,
    build_cone_model,
    decompose,
    monomial_basis,
    monomial_spanning_set,
    semigroup_generators,
)
from canring.divisor import QDivisor, denominator_data, graded_dim, padded
from canring.errors import CanringError, UnsupportedDivisorError


def F(s):
    return Fraction(s)


D235 = QDivisor.of(["inf", 0, 1], [F("-1/2"), F("1/3"), F("1/5")])
D2PT = QDivisor.of(["inf", 0], [F("13/5"), F("-1/4")])
DCHORDS = QDivisor.of(
    ["inf", 0, 1, 2, 3, 4],
    [F("-1/2"), F("-1/2"), F("1/3"), F("1/3"), F("1/5"), F("1/5")],
)


def brute_spanning(D, d):
    """Triple-nested-loop oracle over a safe exponent box."""
    P = padded(D)
    lows = [math.ceil(-d * a) for a in P.alphas]
    highs = [low + max(sum(math.floor(d * a) for a in P.alphas), -1) + 1 for low in lows]
    out = set()
    for combo in itertools.product(*(range(lo, hi) for lo, hi in zip(lows, highs))):
        if sum(combo) == 0:
            out.add(combo)
    return out


class TestSpanningSet:
    def test_one_point_13_5_degree2(self):
        mons = monomial_spanning_set(QDivisor.of(["inf"], [F("13/5")]), 2)
        assert len(mons) == 6
        # exponents of t = t_2/t_1 run over 0..5
        assert sorted(-m.c[0] for m in mons) == [0, 1, 2, 3, 4, 5]

    def test_degree_zero_unit(self):
        mons = monomial_spanning_set(D235, 0)
        assert len(mons) == 1
        assert mons[0] == GradedMonomial(0, (0, 0, 0))

    def test_235_degree30_brute_force(self):
        mons = monomial_spanning_set(D235, 30)
        assert len(mons) == 3
        assert {m.c for m in mons} == brute_spanning(D235, 30)

    def test_negative_degree_empty(self):
        assert monomial_spanning_set(D235, 5) == []


class TestBasis:
    def test_235_degree30(self):
        assert len(monomial_basis(D235, 30)) == graded_dim(D235, 30) == 2

    def test_degree_zero(self):
        assert len(monomial_basis(D235, 0)) == 1

    def test_chords_degree30(self):
        assert len(monomial_basis(DCHORDS, 30)) == 3

    def test_basis_subset_of_spanning(self):
        span = {m.c for m in monomial_spanning_set(D235, 30)}
        assert all(m.c in span for m in monomial_basis(D235, 30))

    @settings(max_examples=80, deadline=None)
    @given(
        alphas=st.lists(
            st.fractions(min_value=-2, max_value=2, max_denominator=6),
            min_size=1,
            max_size=4,
        ),
        d=st.integers(min_value=0, max_value=25),
    )
    def test_basis_cardinality_matches_dim(self, alphas, d):
        D = QDivisor.of(range(len(alphas)), alphas)
        mons = monomial_basis(D, d)
        assert len(mons) == graded_dim(D, d)
        for m in mons:
            m.validate(D)


class TestConeModel:
    def test_235_rays_and_empty_cube(self):
        model = build_cone_model(D235)
        assert tuple(r.d for r in model.rays) == (15, 10, 6)
        assert model.cube_points == ()
        assert model.lattice_index == 1
        assert semigroup_generators(model) == sorted(
            model.rays, key=lambda m: (m.d, m.c)
        )

    def test_unimodular_two_point(self):
        model = build_cone_model(QDivisor.of(["inf", 0], [1, 0]))
        assert tuple(r.d for r in model.rays) == (1, 1)
        assert model.lattice_index == 1

    def test_two_point_13_5_quarter(self):
        model = build_cone_model(D2PT)
        assert tuple(r.d for r in model.rays) == (4, 5)
        assert model.lattice_index == 47
        assert len(model.cube_points) == 46
        assert len(semigroup_generators(model)) == 48

    def test_cube_points_match_barycentric_filter(self):
        model = build_cone_model(D2PT)
        data = denominator_data(model.divisor)
        expected = set()
        for d in range(1, sum(data.ell_i)):
            for mono in monomial_spanning_set(model.divisor, d):
                coords = barycentric_coordinates(model, mono)
                if all(0 <= a < 1 for a in coords):
                    expected.add((mono.d, mono.c))
        assert expected == {(m.d, m.c) for m in model.cube_points}

    def test_rejects_nonpositive_degree(self):
        with pytest.raises(UnsupportedDivisorError):
            build_cone_model(QDivisor.of([0, 1], [F("-1/2"), F("1/2")]))

    def test_rays_validate_in_cone(self):
        model = build_cone_model(D2PT)
        for ray in model.rays:
            ray.validate(model.divisor)
            coords = barycentric_coordinates(model, ray)
            assert sum(1 for a in coords if a) == 1


class TestEpsilon:
    def test_235(self):
        model = build_cone_model(D235)
        assert model.epsilon == (30, 15, -10, -6)

    def test_single_integer_point(self):
        model = build_cone_model(QDivisor.of(["inf"], [1]))
        # ghost-padded to alphas (1, 0)
        assert model.epsilon == (1, -1, 0)

    def test_two_point(self):
        model = build_cone_model(D2PT)
        assert model.epsilon == (F("20/47"), F("-52/47"), F("5/47"))

    def test_relation_bound_audit(self):
        # deg(epsilon + sum of rays) = 1/deg D + sum ell_i
        model = build_cone_model(D235)
        data = denominator_data(model.divisor)
        total = model.epsilon[0] + sum(r.d for r in model.rays)
        assert total == Fraction(1) / model.divisor.degree + sum(data.ell_i)


class TestDecomposition:
    @pytest.mark.parametrize("D", [D235, D2PT, DCHORDS])
    def test_random_lattice_points_decompose(self, D):
        model = build_cone_model(D)
        data = denominator_data(model.divisor)
        rng = random.Random(7)
        top = 2 * sum(data.ell_i)
        for _ in range(40):
            d = rng.randrange(1, top)
            mons = monomial_spanning_set(model.divisor, d)
            if not mons:
                continue
            mono = rng.choice(mons)
            cube, floors = decompose(model, mono)
            rebuilt_d = sum(f * r.d for f, r in zip(floors, model.rays))
            rebuilt_c = [0] * model.divisor.n
            for f, r in zip(floors, model.rays):
                for i, ci in enumerate(r.c):
                    rebuilt_c[i] += f * ci
            if cube is not None:
                rebuilt_d += cube.d
                for i, ci in enumerate(cube.c):
                    rebuilt_c[i] += ci
            assert rebuilt_d == mono.d
            assert tuple(rebuilt_c) == mono.c
            assert all(f >= 0 for f in floors)


class TestGradedMonomial:
    def test_rejects_unbalanced(self):
        with pytest.raises(CanringError):
            GradedMonomial(1, (1, 1))

    def test_validate_against_divisor(self):
        GradedMonomial(6, (3, -2, -1)).validate(D235)
        with pytest.raises(CanringError):
            GradedMonomial(6, (4, -3, -1)).validate(D235)

    def test_json_roundtrip(self):
        m = GradedMonomial(6, (3, -2, -1))
        assert GradedMonomial.from_json(m.to_json()) == m
