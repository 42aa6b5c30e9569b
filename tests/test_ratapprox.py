import math
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from canring.errors import CanringError
from canring.ratapprox import (
    LatticeVec2,
    best_lower_approximations,
    best_upper_approximations,
    cross,
    format_fraction,
    minimal_denominator_in_interval,
    minus_continued_fraction,
    minus_continued_fraction_value,
    parse_fraction,
)


def F(s):
    return Fraction(s)


def brute_lower_chain(alpha: Fraction, start: Fraction) -> list[Fraction]:
    """Definitional scan over all fractions with denominator <= den(alpha)."""

    def is_best_lower(x: Fraction) -> bool:
        for d in range(1, x.denominator):
            if math.floor(alpha * d) >= math.ceil(x * d):
                return False  # some c/d lies in [x, alpha]
        return True

    found = set()
    for d in range(1, alpha.denominator + 1):
        for c in range(math.ceil(start * d), math.floor(alpha * d) + 1):
            fr = Fraction(c, d)
            if start <= fr <= alpha and is_best_lower(fr):
                found.add(fr)
    return sorted(found)


rationals = st.fractions(min_value=-20, max_value=20, max_denominator=60)
positive_rationals = st.fractions(min_value=Fraction(1, 60), max_value=20, max_denominator=60)


class TestBestLower:
    def test_chain_13_5(self):
        chain = best_lower_approximations(F("13/5"), 0)
        assert list(chain) == [F(0), F(1), F(2), F("5/2"), F("13/5")]

    def test_integer_target(self):
        chain = best_lower_approximations(3, 0)
        assert list(chain) == [F(0), F(1), F(2), F(3)]

    def test_7_10_matches_brute_force(self):
        assert list(best_lower_approximations(F("7/10"), 0)) == [
            F(0),
            F("1/2"),
            F("2/3"),
            F("7/10"),
        ]
        assert brute_lower_chain(F("7/10"), F(0)) == [F(0), F("1/2"), F("2/3"), F("7/10")]

    def test_rejects_start_above_target(self):
        with pytest.raises(CanringError):
            best_lower_approximations(F("1/2"), 1)

    def test_rejects_non_best_start(self):
        # 2/5 <= 1/2 <= 13/5 with smaller denominator, so 2/5 is not best.
        with pytest.raises(CanringError):
            best_lower_approximations(F("13/5"), F("2/5"))

    @settings(max_examples=150, deadline=None)
    @given(alpha=rationals)
    def test_brute_force_completeness(self, alpha):
        start = Fraction(math.floor(alpha))
        chain = list(best_lower_approximations(alpha, start))
        assert chain == brute_lower_chain(alpha, start)

    @settings(max_examples=150, deadline=None)
    @given(alpha=rationals, data=st.data())
    def test_brute_force_completeness_from_every_start(self, alpha, data):
        # every entry of the chain from floor(alpha) is a valid start, most
        # of them with denominator > 1 (the seeds of two-point chains)
        start = data.draw(st.sampled_from(brute_lower_chain(alpha, Fraction(math.floor(alpha)))))
        chain = list(best_lower_approximations(alpha, start))
        assert chain == brute_lower_chain(alpha, start)

    def test_deep_fibonacci_chain(self):
        # F_3001/F_3000 has a continued fraction 3000 terms deep; its chain
        # from 1 is F_{2j+2}/F_{2j+1}, j = 0..1499, then alpha, with
        # v_{i-1} + v_{i+1} = a_i * v_i for a_i = 3, 3, ..., 3, 2
        fib = [0, 1]
        while len(fib) < 3002:
            fib.append(fib[-1] + fib[-2])
        alpha = Fraction(fib[3001], fib[3000])
        chain = best_lower_approximations(alpha, 1)
        assert chain == tuple(Fraction(fib[2 * j + 2], fib[2 * j + 1]) for j in range(1500)) + (alpha,)
        vecs = [LatticeVec2.from_fraction(x) for x in chain]
        assert all(cross(u, v) == 1 for u, v in zip(vecs, vecs[1:]))
        quotients = []
        for u, v, w in zip(vecs, vecs[1:], vecs[2:]):
            a, rem = divmod(u.d + w.d, v.d)
            assert rem == 0 and u.c + w.c == a * v.c
            quotients.append(a)
        assert quotients == [3] * 1498 + [2]

    @settings(max_examples=200, deadline=None)
    @given(alpha=st.fractions(min_value=-50, max_value=50, max_denominator=200))
    def test_unimodularity(self, alpha):
        start = Fraction(math.floor(alpha))
        vecs = [LatticeVec2.from_fraction(x) for x in best_lower_approximations(alpha, start)]
        for u, v in zip(vecs, vecs[1:]):
            assert cross(u, v) == 1

    @settings(max_examples=100, deadline=None)
    @given(alpha=st.fractions(min_value=0, max_value=10, max_denominator=40))
    def test_mediant_exclusion(self, alpha):
        # No chain entry is a mediant of two smaller-denominator fractions
        # both <= alpha with one of them >= the entry.
        chain = list(best_lower_approximations(alpha, Fraction(math.floor(alpha))))
        for entry in chain:
            d = entry.denominator
            for d1 in range(1, d):
                d2 = d - d1
                if d2 < 1 or d2 >= d:
                    continue
                c1_max = math.floor(alpha * d1)
                for c1 in range(c1_max - 2 * d1, c1_max + 1):
                    c2 = entry.numerator - c1
                    if Fraction(c2, d2) > alpha:
                        continue
                    assert not (
                        Fraction(c1, d1) >= entry or Fraction(c2, d2) >= entry
                    ) or Fraction(c1, d1) > alpha or Fraction(c2, d2) > alpha


class TestBestUpper:
    def test_quarter_family(self):
        chain = best_upper_approximations(F("1/4"), 1)
        assert list(chain) == [F(1), F("1/2"), F("1/3"), F("1/4")]

    def test_degenerate(self):
        assert list(best_upper_approximations(2, 2)) == [F(2)]

    @settings(max_examples=100, deadline=None)
    @given(beta=rationals)
    def test_negation_symmetry(self, beta):
        start = Fraction(math.ceil(beta))
        upper = list(best_upper_approximations(beta, start))
        lower = list(best_lower_approximations(-beta, -start))
        assert upper == [-x for x in lower]

    @settings(max_examples=100, deadline=None)
    @given(beta=rationals)
    def test_upper_unimodularity(self, beta):
        start = Fraction(math.ceil(beta))
        vecs = [LatticeVec2.from_fraction(x) for x in best_upper_approximations(beta, start)]
        for u, v in zip(vecs, vecs[1:]):
            assert cross(u, v) == -1


class TestMinimalDenominator:
    def test_tie_break_prefers_small_numerator(self):
        assert minimal_denominator_in_interval(F("1/4"), F("13/5")) == 1

    def test_zero_in_interval(self):
        assert minimal_denominator_in_interval(F("-1/2"), F("1/2")) == 0

    def test_degenerate_interval(self):
        assert minimal_denominator_in_interval(F("5/7"), F("5/7")) == F("5/7")

    def test_negative_interval(self):
        assert minimal_denominator_in_interval(F("-13/5"), F("-1/4")) == -1

    def test_empty_interval_rejected(self):
        with pytest.raises(CanringError):
            minimal_denominator_in_interval(F("1/2"), F("1/3"))

    def test_tie_break_positive_on_symmetric_nonzero(self):
        # [-3, -2] vs [2, 3]: strictly one-signed intervals pick the value
        # closest to zero.
        assert minimal_denominator_in_interval(-3, -2) == -2
        assert minimal_denominator_in_interval(2, 3) == 2

    def test_deep_fibonacci_endpoints(self):
        # the descent runs about 2000 levels deep on these endpoints, so a
        # recursive descent would end in RecursionError
        fib = [0, 1]
        while len(fib) < 2004:
            fib.append(fib[-1] + fib[-2])
        near, far = Fraction(fib[2001], fib[2000]), Fraction(fib[2002], fib[2001])
        lo, hi = sorted((near, far))
        assert minimal_denominator_in_interval(lo, hi) == near
        # strictly between the Farey neighbours only their mediant has a
        # denominator below F_2002 + F_2001
        eps = Fraction(1, fib[2003] ** 2)
        assert minimal_denominator_in_interval(lo + eps, hi - eps) == Fraction(fib[2003], fib[2002])

    @settings(max_examples=200, deadline=None)
    @given(a=rationals, b=rationals)
    def test_minimality_against_brute_force(self, a, b):
        lo, hi = min(a, b), max(a, b)
        best = minimal_denominator_in_interval(lo, hi)
        assert lo <= best <= hi
        for d in range(1, best.denominator):
            assert math.floor(hi * d) < math.ceil(lo * d)


class TestMinusContinuedFraction:
    def test_13_5(self):
        terms = minus_continued_fraction(F("13/5"))
        assert terms == [1, 2, 3, 3]
        assert minus_continued_fraction_value(terms) == F("13/5")

    def test_integer(self):
        assert minus_continued_fraction(2) == [1, 2]
        assert minus_continued_fraction_value([1, 2]) == 2

    def test_5_2(self):
        terms = minus_continued_fraction(F("5/2"))
        assert minus_continued_fraction_value(terms) == F("5/2")
        assert terms == [1, 2, 3]

    def test_rejects_nonpositive(self):
        with pytest.raises(CanringError):
            minus_continued_fraction(0)
        with pytest.raises(CanringError):
            minus_continued_fraction(F("-1/2"))

    @settings(max_examples=200, deadline=None)
    @given(alpha=positive_rationals)
    def test_roundtrip_identity(self, alpha):
        terms = minus_continued_fraction(alpha)
        assert minus_continued_fraction_value(terms) == alpha
        assert all(t >= 2 for t in terms[1:])


class TestSerialization:
    def test_format(self):
        assert format_fraction(F("13/5")) == "13/5"
        assert format_fraction(F(-3)) == "-3"

    def test_parse(self):
        assert parse_fraction("13/5") == F("13/5")
        assert parse_fraction(" -1/2 ") == F("-1/2")
        assert parse_fraction("7") == 7

    def test_inf_reserved(self):
        with pytest.raises(CanringError):
            parse_fraction("inf")

    @settings(max_examples=100, deadline=None)
    @given(x=rationals)
    def test_roundtrip(self, x):
        assert parse_fraction(format_fraction(x)) == x

    @settings(max_examples=300, deadline=None)
    @given(
        st.one_of(
            st.integers(),
            st.booleans(),
            st.fractions(),
            st.decimals(allow_nan=False, allow_infinity=False),
            st.floats(allow_nan=False, allow_infinity=False),
        )
    )
    @example(True)
    @example(False)
    @example(-7)
    @example(F("-1/2"))
    @example(Decimal("-0.25"))
    def test_format_reads_fractions_and_ints_directly(self, value):
        # ints, bools and Fractions are read as given, all else through
        # Fraction: every text must be that of Fraction(value)
        fr = Fraction(value)
        reference = str(fr.numerator) if fr.denominator == 1 else f"{fr.numerator}/{fr.denominator}"
        assert format_fraction(value) == reference


class TestLatticeVec2:
    def test_rejects_origin(self):
        with pytest.raises(CanringError):
            LatticeVec2(0, 0)

    def test_slope_and_add(self):
        v = LatticeVec2(2, 5) + LatticeVec2(1, 0)
        assert (v.d, v.c) == (3, 5)
        w = LatticeVec2(2, 5)
        assert Fraction(w.c, w.d) == F("5/2")
