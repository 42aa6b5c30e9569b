from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from canring.errors import CanringError
from canring.exactla import (
    ExactMatrix,
    FieldSpec,
    RowBasis,
    SparseRowBasis,
    TrackingRowBasis,
    kernel_basis,
    rank,
    row_reduce,
)

QQ = FieldSpec(0)
GF2 = FieldSpec(2)
GF7 = FieldSpec(7)


def qmat(rows):
    return ExactMatrix.from_rational_rows(QQ, rows)


class TestFieldSpec:
    def test_rejects_composite(self):
        with pytest.raises(CanringError):
            FieldSpec(6)

    def test_rejects_huge_prime(self):
        with pytest.raises(CanringError):
            FieldSpec((1 << 61) + 100)

    def test_large_prime_accepted(self):
        FieldSpec((1 << 61) - 1)  # Mersenne prime below the cap

    def test_embedding(self):
        assert GF7.of(Fraction(1, 2)) == 4
        assert QQ.of(Fraction(1, 2)) == Fraction(1, 2)
        with pytest.raises(CanringError):
            GF2.of(Fraction(1, 2))

    def test_arithmetic_mod_p(self):
        assert GF7.div(GF7.one, 3) == 5
        assert GF7.sub(2, 5) == 4


class TestRowReduce:
    def test_identity(self):
        _, pivots = row_reduce(qmat([[1, 0, 0], [0, 1, 0], [0, 0, 1]]))
        assert pivots == [0, 1, 2]

    def test_rank_two_example(self):
        m = qmat([[1, 0, 1], [0, 1, -2], [1, 1, -1]])
        assert rank(m) == 2

    def test_char2_versus_char0(self):
        # coefficient rows of 1, t^2, (t-1)^2 in basis 1, t, t^2
        rows = [[1, 0, 0], [0, 0, 1], [1, -2, 1]]
        assert rank(ExactMatrix.from_rational_rows(QQ, rows)) == 3
        assert rank(ExactMatrix.from_rational_rows(GF2, rows)) == 2

    def test_idempotent(self):
        m = qmat([[2, 4, 1], [1, 2, 3], [0, 1, 1]])
        rref, pivots = row_reduce(m)
        again, pivots2 = row_reduce(rref)
        assert again.rows == rref.rows
        assert pivots == pivots2


class TestKernel:
    def test_injective(self):
        assert kernel_basis(qmat([[1, 0], [0, 1]])) == []

    def test_char2_kernel_vector(self):
        rows = [[1, 0, 0], [0, 0, 1], [1, -2, 1]]
        # columns = the three functions; kernel of the transpose detects the
        # dependency 1 + t^2 + (t-1)^2 = 0 in characteristic 2.
        m = ExactMatrix.from_rational_rows(GF2, [list(col) for col in zip(*rows)])
        basis = kernel_basis(m)
        assert basis == [[1, 1, 1]]

    def test_zero_row(self):
        basis = kernel_basis(ExactMatrix(QQ, [[Fraction(0), Fraction(0)]]))
        assert len(basis) == 2

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.lists(st.integers(min_value=-6, max_value=6), min_size=4, max_size=4),
            min_size=1,
            max_size=5,
        )
    )
    def test_rank_nullity(self, rows):
        m = qmat(rows)
        assert rank(m) + len(kernel_basis(m)) == m.ncols

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(
            st.lists(st.integers(min_value=-6, max_value=6), min_size=3, max_size=3),
            min_size=1,
            max_size=5,
        )
    )
    def test_kernel_vectors_annihilate(self, rows):
        m = qmat(rows)
        for vec in kernel_basis(m):
            for row in m.rows:
                assert sum(a * b for a, b in zip(row, vec)) == 0


class TestQuotientComplement:
    """Greedy complement selection: RowBasis.add keeps exactly the
    candidates that extend the span, as minimal_generators relies on."""

    def test_zero_subspace(self):
        rb = RowBasis(QQ, 3)
        cands = qmat([[1, 0, 0], [0, 1, 0], [0, 0, 1]]).rows
        assert [i for i, c in enumerate(cands) if rb.add(c)] == [0, 1, 2]

    def test_greedy_selection(self):
        rb = RowBasis(QQ, 3)
        rb.add(qmat([[1, 0, 0]]).rows[0])
        cands = qmat([[1, 0, 0], [0, 1, 0], [1, 1, 0], [0, 0, 1]]).rows
        assert [i for i, c in enumerate(cands) if rb.add(c)] == [1, 3]
        assert rb.rank == 3

    @settings(max_examples=40, deadline=None)
    @given(st.permutations([[0, 1, 0], [0, 0, 1], [0, 1, 1], [1, 1, 1]]))
    def test_selection_size_order_independent(self, cands):
        rb = RowBasis(QQ, 3)
        rb.add(qmat([[1, 0, 0]]).rows[0])
        assert sum(rb.add(c) for c in qmat(cands).rows) == 2
        assert rb.rank == 3


class TestRowBasis:
    @pytest.mark.parametrize("field", [QQ, GF7])
    def test_incremental_rank(self, field):
        rb = RowBasis(field, 3)
        assert rb.add([field.of(1), field.of(2), field.of(3)])
        assert not rb.add([field.of(2), field.of(4), field.of(6)])
        assert rb.add([field.of(0), field.of(1), field.of(1)])
        assert rb.rank == 2
        assert not rb.add([field.of(1), field.of(3), field.of(4)])

    def test_fraction_input_char0(self):
        rb = RowBasis(QQ, 2)
        assert rb.add([Fraction(1, 2), Fraction(1, 3)])
        assert not rb.add([Fraction(3, 2), Fraction(1)])

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.lists(st.integers(min_value=-9, max_value=9), min_size=4, max_size=4),
            min_size=1,
            max_size=6,
        )
    )
    def test_matches_one_shot_rank(self, rows):
        rb = RowBasis(QQ, 4)
        for r in rows:
            rb.add(r)
        assert rb.rank == rank(qmat(rows))


class TestTrackingRowBasis:
    @pytest.mark.parametrize("field", [QQ, GF7])
    def test_reports_dependency(self, field):
        trb = TrackingRowBasis(field, 3)
        rows = {
            "a": [1, 2, 0],
            "b": [0, 1, 1],
            "c": [2, 5, 1],  # = 2a + b
        }
        assert trb.add([field.of(x) for x in rows["a"]], "a") is None
        assert trb.add([field.of(x) for x in rows["b"]], "b") is None
        combo = trb.add([field.of(x) for x in rows["c"]], "c")
        assert combo is not None and combo.get("c")
        # the reported combination really sums to zero
        for col in range(3):
            total = field.zero
            for t, coeff in combo.items():
                total = field.add(total, field.mul(coeff, field.of(rows[t][col])))
            assert total == field.zero

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.lists(st.integers(min_value=-5, max_value=5), min_size=3, max_size=3),
            min_size=1,
            max_size=7,
        )
    )
    def test_combinations_vanish(self, rows):
        trb = TrackingRowBasis(QQ, 3)
        for tag, row in enumerate(rows):
            combo = trb.add([Fraction(x) for x in row], tag)
            if combo is not None:
                assert combo[tag] != 0
                for col in range(3):
                    assert sum(c * rows[t][col] for t, c in combo.items()) == 0


class TestSparseRowBasis:
    def test_rank_tracking(self):
        srb = SparseRowBasis(GF7)
        assert srb.add({0: 1, 5: 2})
        assert srb.add({0: 1, 3: 1})
        assert not srb.add({3: 2, 5: 3})  # 2*(second - first), mod 7
        assert srb.rank == 2

    def test_char0(self):
        srb = SparseRowBasis(QQ)
        assert srb.add({1: Fraction(1, 2)})
        assert not srb.add({1: Fraction(7)})
