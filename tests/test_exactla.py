import math
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
GF_M61 = FieldSpec((1 << 61) - 1)


def qmat(rows):
    return ExactMatrix.from_rational_rows(QQ, rows)


def _content_free(row):
    g = math.gcd(*row)
    return [x // g for x in row] if g > 1 else row


class _FractionTracker:
    """The characteristic-0 ``TrackingRowBasis.add`` with ``Fraction``
    expressions, kept as the reference for the fraction-free one: integer
    rows, content stripped after each step, and each row's expression
    divided by the content removed from the row."""

    def __init__(self):
        self.rows = []

    def add(self, vec, tag):
        den = math.lcm(*(Fraction(x).denominator for x in vec))
        row = _content_free([int(x * den) for x in vec])
        scale = Fraction(1)
        for x, y in zip(row, vec):
            if x:
                scale = Fraction(x) / Fraction(y)
                break
        expr = {tag: scale}  # row == scale * vec
        for col, stored, sexpr in self.rows:
            f = row[col]
            if f:
                piv = stored[col]
                new_row = [piv * a - f * b for a, b in zip(row, stored)]
                stripped = _content_free(new_row)
                factor = 1
                for a, b in zip(new_row, stripped):
                    if b:
                        factor = a // b
                        break
                row = stripped
                expr = {
                    t: (piv * expr.get(t, Fraction(0)) - f * sexpr.get(t, Fraction(0)))
                    * Fraction(1, factor)
                    for t in set(expr) | set(sexpr)
                }
                expr = {t: c for t, c in expr.items() if c}
        lead = next((i for i, x in enumerate(row) if x), None)
        if lead is None:
            return expr
        self.rows.append((lead, row, expr))
        self.rows.sort(key=lambda item: item[0])
        return None


_qq_entries = st.one_of(
    st.integers(min_value=-6, max_value=6),
    st.fractions(min_value=-6, max_value=6, max_denominator=12),
)


@st.composite
def _qq_sequences(draw):
    """A width and a list of QQ vectors of that width: random rows with
    Fraction and int entries, zero vectors, rows with a zero first entry,
    and combinations of earlier rows (forced dependencies)."""
    width = draw(st.integers(min_value=1, max_value=5))
    vecs = []
    for _ in range(draw(st.integers(min_value=1, max_value=8))):
        kind = draw(st.sampled_from(["random", "zero", "leading zero", "combination"]))
        if kind == "zero":
            vec = [draw(st.sampled_from([0, Fraction(0)]))] * width
        elif kind == "combination" and vecs:
            picks = draw(st.lists(st.sampled_from(range(len(vecs))), min_size=1, max_size=3))
            coeffs = [draw(_qq_entries) for _ in picks]
            vec = [
                sum((c * vecs[i][j] for c, i in zip(coeffs, picks)), Fraction(0))
                for j in range(width)
            ]
        else:
            vec = draw(st.lists(_qq_entries, min_size=width, max_size=width))
            if kind == "leading zero":
                vec[0] = 0
        vecs.append(vec)
    return width, vecs


def _reference_row_reduce(m):
    """Dense Gauss-Jordan with ``Fraction``/``FieldSpec`` arithmetic on every
    entry, kept as the reference for the fraction-free ``row_reduce``."""
    field = m.field
    rows = [list(r) for r in m.rows]
    pivots = []
    r = 0
    for col in range(m.ncols):
        pivot_row = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        inv = field.inv(rows[r][col])
        rows[r] = [field.mul(inv, x) for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col]:
                f = rows[i][col]
                rows[i] = [field.sub(a, field.mul(f, b)) for a, b in zip(rows[i], rows[r])]
        pivots.append(col)
        r += 1
        if r == len(rows):
            break
    return rows, pivots


def _reference_kernel(field, ncols, rows, pivots):
    basis = []
    for free in sorted(set(range(ncols)) - set(pivots)):
        vec = [field.zero] * ncols
        vec[free] = field.one
        for i, c in enumerate(pivots):
            vec[c] = field.neg(rows[i][free])
        basis.append(vec)
    return basis


@st.composite
def _matrices(draw, fields=(QQ, GF2, GF7, GF_M61)):
    """A matrix over QQ (Fraction and int entries) or GF(2), GF(7),
    GF(2^61 - 1) (reduced residues): random rows, zero rows, repeated rows
    and combinations of earlier rows, in tall, wide and empty-row shapes."""
    field = draw(st.sampled_from(fields))
    p = field.characteristic
    if p:
        entries = st.one_of(st.integers(0, min(p - 1, 6)), st.integers(0, p - 1))
    else:
        entries = _qq_entries
    ncols = draw(st.integers(min_value=1, max_value=6))
    rows = []
    for _ in range(draw(st.integers(min_value=0, max_value=8))):
        kind = draw(st.sampled_from(["random", "zero", "repeat", "combination"]))
        if kind == "zero":
            row = [draw(st.sampled_from([0] if p else [0, Fraction(0)]))] * ncols
        elif kind == "repeat" and rows:
            row = list(rows[draw(st.integers(0, len(rows) - 1))])
        elif kind == "combination" and rows:
            picks = draw(st.lists(st.integers(0, len(rows) - 1), min_size=1, max_size=3))
            coeffs = [draw(entries) for _ in picks]
            row = [
                sum((c * rows[i][j] for c, i in zip(coeffs, picks)), field.zero)
                for j in range(ncols)
            ]
            if p:
                row = [x % p for x in row]
        else:
            row = draw(st.lists(entries, min_size=ncols, max_size=ncols))
        rows.append(row)
    return ExactMatrix(field, rows, ncols)


def _assert_field_entries(field, rows):
    p = field.characteristic
    for row in rows:
        for x in row:
            if p:
                assert type(x) is int and 0 <= x < p
            else:
                assert type(x) is Fraction


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
        assert GF7.mul(GF7.one, GF7.inv(3)) == 5
        assert GF7.sub(2, 5) == 4

    def test_int_input_stays_exact_over_qq(self):
        rref, pivots = row_reduce(ExactMatrix(QQ, [[3, 1], [1, 1]]))
        assert pivots == [0, 1]
        assert rref.rows == [[1, 0], [0, 1]]
        assert all(type(x) is Fraction for row in rref.rows for x in row)
        kernel = kernel_basis(ExactMatrix(QQ, [[3, 1, 1]]))
        assert kernel == [[Fraction(-1, 3), 1, 0], [Fraction(-1, 3), 0, 1]]
        assert all(type(x) is Fraction for vec in kernel for x in vec)
        srb = SparseRowBasis(QQ)
        assert srb.add({0: 3, 1: 1})
        assert not srb.add({0: 6, 1: 2})
        (stored,) = srb._pivots.values()
        assert stored == {0: 1, 1: Fraction(1, 3)}
        assert all(type(x) is Fraction for x in stored.values())


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

    @settings(max_examples=300, deadline=None)
    @given(_matrices())
    def test_matches_fraction_reference(self, m):
        ref_rows, ref_pivots = _reference_row_reduce(m)
        rref, pivots = row_reduce(m)
        assert pivots == ref_pivots
        assert rref.rows == ref_rows
        assert (rref.nrows, rref.ncols) == (m.nrows, m.ncols)
        assert rank(m) == len(ref_pivots)
        kernel = kernel_basis(m)
        assert kernel == _reference_kernel(m.field, m.ncols, ref_rows, ref_pivots)
        _assert_field_entries(m.field, rref.rows)
        _assert_field_entries(m.field, kernel)

    def test_unreduced_residues(self):
        # 7 and 14 are zero in GF(7): neither may be taken as a pivot
        m = ExactMatrix(GF7, [[7, 14]])
        assert rank(m) == 0
        assert row_reduce(m)[1] == []
        assert kernel_basis(m) == [[1, 0], [0, 1]]

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
        rb = RowBasis(QQ)
        cands = qmat([[1, 0, 0], [0, 1, 0], [0, 0, 1]]).rows
        assert [i for i, c in enumerate(cands) if rb.add(c)] == [0, 1, 2]

    def test_greedy_selection(self):
        rb = RowBasis(QQ)
        rb.add(qmat([[1, 0, 0]]).rows[0])
        cands = qmat([[1, 0, 0], [0, 1, 0], [1, 1, 0], [0, 0, 1]]).rows
        assert [i for i, c in enumerate(cands) if rb.add(c)] == [1, 3]
        assert rb.rank == 3

    @settings(max_examples=40, deadline=None)
    @given(st.permutations([[0, 1, 0], [0, 0, 1], [0, 1, 1], [1, 1, 1]]))
    def test_selection_size_order_independent(self, cands):
        rb = RowBasis(QQ)
        rb.add(qmat([[1, 0, 0]]).rows[0])
        assert sum(rb.add(c) for c in qmat(cands).rows) == 2
        assert rb.rank == 3


class TestRowBasis:
    @pytest.mark.parametrize("field", [QQ, GF7])
    def test_incremental_rank(self, field):
        rb = RowBasis(field)
        assert rb.add([field.of(1), field.of(2), field.of(3)])
        assert not rb.add([field.of(2), field.of(4), field.of(6)])
        assert rb.add([field.of(0), field.of(1), field.of(1)])
        assert rb.rank == 2
        assert not rb.add([field.of(1), field.of(3), field.of(4)])

    def test_gfp_rejects_non_integral_entries(self):
        # 1/2 is 4 in GF(7): truncating it to 0 would drop the row
        half = [Fraction(1, 2)]
        with pytest.raises(TypeError):
            rank(ExactMatrix(GF7, [half]))
        with pytest.raises(TypeError):
            RowBasis(GF7).add(half)
        with pytest.raises(TypeError):
            TrackingRowBasis(GF7).add(half, "a")

    def test_fraction_input_char0(self):
        rb = RowBasis(QQ)
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
        rb = RowBasis(QQ)
        for r in rows:
            rb.add(r)
        assert rb.rank == rank(qmat(rows))


class TestTrackingRowBasis:
    @pytest.mark.parametrize("field", [QQ, GF7])
    def test_reports_dependency(self, field):
        trb = TrackingRowBasis(field)
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
        trb = TrackingRowBasis(QQ)
        for tag, row in enumerate(rows):
            combo = trb.add([Fraction(x) for x in row], tag)
            if combo is not None:
                assert combo[tag] != 0
                for col in range(3):
                    assert sum(c * rows[t][col] for t, c in combo.items()) == 0

    @settings(max_examples=300, deadline=None)
    @given(_matrices(fields=(GF2, GF7, GF_M61)))
    def test_gfp_combinations_are_exact(self, m):
        """The rows kept are independent, so a combination with coefficient
        1 on its own tag, supported on earlier kept tags and summing to 0
        mod p is the only one there is."""
        p = m.field.characteristic
        trb, kept = TrackingRowBasis(m.field), []
        for tag, row in enumerate(m.rows):
            combo = trb.add(row, tag)
            if combo is None:
                kept.append(tag)
                continue
            assert combo[tag] == 1
            assert set(combo) - {tag} <= set(kept)
            assert all(0 < c < p for c in combo.values())
            for col in range(m.ncols):
                assert sum(c * m.rows[t][col] for t, c in combo.items()) % p == 0
        assert trb.rank == len(kept) == rank(m)

    @settings(max_examples=300, deadline=None)
    @given(_qq_sequences())
    def test_matches_fraction_reference(self, case):
        _, vecs = case
        trb, reference = TrackingRowBasis(QQ), _FractionTracker()
        for tag, vec in enumerate(vecs):
            combo = trb.add(vec, tag)
            assert combo == reference.add(vec, tag)
            if combo is not None:
                assert all(type(c) is Fraction for c in combo.values())
        assert trb.rank == len(reference.rows)

    def test_zero_vector_and_int_entries(self):
        trb = TrackingRowBasis(QQ)
        assert trb.add([0, 0], "z") == {"z": Fraction(1)}
        assert trb.add([2, 4], "a") is None
        combo = trb.add([Fraction(1, 3), Fraction(2, 3)], "b")
        assert combo == {"a": Fraction(-1, 2), "b": Fraction(3)}  # the scales of both rows
        assert all(type(c) is Fraction for c in combo.values())


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
