import math
from collections import namedtuple
from fractions import Fraction

import pytest
from field_tracker import FieldTracker
from hypothesis import given, settings
from hypothesis import strategies as st

from canring.errors import CanringError
from canring.exactla import (
    FieldSpec,
    RowBasis,
    SparseRowBasis,
    TrackingRowBasis,
    _integer_kernel,
    rank,
    row_reduce,
)

QQ = FieldSpec(0)
GF2 = FieldSpec(2)
GF7 = FieldSpec(7)
GF_M61 = FieldSpec((1 << 61) - 1)


# a matrix as the arguments of rank, row_reduce and _integer_kernel
Mat = namedtuple("Mat", "field rows ncols")


def integer_row(vec):
    """A row of rationals scaled by the lcm of its denominators: a row of
    ints with the same rank, echelon form, kernel and span as the row."""
    den = math.lcm(*[Fraction(x).denominator for x in vec])
    return [int(x * den) for x in vec]


def qmat(rows):
    return Mat(QQ, [integer_row(r) for r in rows], len(rows[0]))


_qq_entries = st.one_of(
    st.integers(min_value=-6, max_value=6),
    st.fractions(min_value=-6, max_value=6, max_denominator=12),
)


@st.composite
def _qq_sequences(draw):
    """A width and a list of QQ vectors of that width: random rows with
    Fraction and int entries, zero vectors, rows with a zero first entry,
    and combinations of earlier rows (forced dependencies), each scaled to
    an integer row."""
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
    return width, [integer_row(vec) for vec in vecs]


class Tagged:
    """A TrackingRowBasis read through tags: a vector tagged t carries the
    unit column of t, one column per tag, all reserved up front, so a
    stored row never changes; a dependent vector's carried tail reads back
    as its combination {tag: coeff} over the added vectors."""

    def __init__(self, field, tags):
        self.basis, self.tags = TrackingRowBasis(field), list(tags)

    def add(self, vec, tag):
        tail = self.basis.add([*vec, *[int(t == tag) for t in self.tags]], len(vec))
        return None if tail is None else {t: c for t, c in zip(self.tags, tail) if c}


def _monic(field, combo, tag):
    """A combination divided by its coefficient on its own tag."""
    inv = field.inv(combo[tag])
    return {t: field.mul(c, inv) for t, c in combo.items()}


def _check_combination(field, combo, tag, vecs, kept):
    """A tracked combination holds ints (residues mod p, 1 on its own tag),
    is nonzero on its own tag, is supported on the kept tags and its own,
    and sums the added vectors (vecs[tag]) to zero."""
    p = field.characteristic
    assert all(type(c) is int for c in combo.values())
    assert combo[tag] and set(combo) - {tag} <= set(kept)
    if p:
        assert combo[tag] == 1 and all(0 < c < p for c in combo.values())
    for col in range(len(vecs[tag])):
        assert field.mul(1, sum(c * vecs[t][col] for t, c in combo.items())) == 0


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
        vec[free] = field.of(1)
        for i, c in enumerate(pivots):
            vec[c] = field.neg(rows[i][free])
        basis.append(vec)
    return basis


@st.composite
def _matrices(draw, fields=(QQ, GF2, GF7, GF_M61)):
    """A matrix over QQ (rows of Fraction and int entries, each scaled to
    an integer row) or GF(2), GF(7), GF(2^61 - 1) (reduced residues):
    random rows, zero rows, repeated rows and combinations of earlier rows,
    in tall, wide and empty-row shapes."""
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
    return Mat(field, rows if p else [integer_row(r) for r in rows], ncols)


def _assert_scaled_reference(field, kernel, reference):
    """Each integer kernel vector, dense, is its reference vector (1 at its
    free column f, 0 at the other free columns) times its entry at f."""
    assert len(kernel) == len(reference)
    for vec, ref_vec in zip(kernel, reference):
        scale = vec[next(iter(vec))]
        dense = [vec.get(c, 0) for c in range(len(ref_vec))]
        assert [field.mul(scale, x) for x in ref_vec] == dense


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
        assert GF7.mul(1, GF7.inv(3)) == 5
        assert GF7.sub(2, 5) == 4

    def test_int_input_stays_exact_over_qq(self):
        rref, pivots = row_reduce(QQ, [[3, 1], [1, 1]], 2)
        assert pivots == [0, 1]
        assert rref == [[1, 0], [0, 1]]
        assert all(type(x) is Fraction for row in rref for x in row)
        assert _integer_kernel(QQ, [[3, 1, 1]], 3) == [{1: 3, 0: -1}, {2: 3, 0: -1}]
        srb = SparseRowBasis(QQ)
        assert srb.add({0: 3, 1: 1})
        assert not srb.add({0: 6, 1: 2})
        (stored,) = srb._pivots.values()
        assert stored == {0: 1, 1: Fraction(1, 3)}
        assert all(type(x) is Fraction for x in stored.values())


class TestRowReduce:
    def test_identity(self):
        _, pivots = row_reduce(*qmat([[1, 0, 0], [0, 1, 0], [0, 0, 1]]))
        assert pivots == [0, 1, 2]

    def test_rank_two_example(self):
        m = qmat([[1, 0, 1], [0, 1, -2], [1, 1, -1]])
        assert rank(*m) == 2

    def test_char2_versus_char0(self):
        # coefficient rows of 1, t^2, (t-1)^2 in basis 1, t, t^2
        rows = [[1, 0, 0], [0, 0, 1], [1, -2, 1]]
        assert rank(QQ, rows, 3) == 3
        assert rank(GF2, rows, 3) == 2

    @settings(max_examples=300, deadline=None)
    @given(_matrices())
    def test_matches_fraction_reference(self, m):
        ref_rows, ref_pivots = _reference_row_reduce(m)
        rref, pivots = row_reduce(*m)
        assert pivots == ref_pivots
        assert rref == ref_rows
        assert len(rref) == len(m.rows) and all(len(row) == m.ncols for row in rref)
        assert rank(*m) == len(ref_pivots)
        kernel = _integer_kernel(*m)
        reference = _reference_kernel(m.field, m.ncols, ref_rows, ref_pivots)
        _assert_scaled_reference(m.field, kernel, reference)
        _assert_field_entries(m.field, rref)
        p = m.field.characteristic
        assert all(type(x) is int and (not p or 0 < x < p) for vec in kernel for x in vec.values())

    def test_unreduced_residues(self):
        # 7 and 14 are zero in GF(7): neither may be taken as a pivot
        m = Mat(GF7, [[7, 14]], 2)
        assert rank(*m) == 0
        assert row_reduce(*m)[1] == []
        assert _integer_kernel(*m) == [{0: 1}, {1: 1}]

    def test_idempotent(self):
        m = qmat([[2, 4, 1], [1, 2, 3], [0, 1, 1]])
        rref, pivots = row_reduce(*m)
        again, pivots2 = row_reduce(m.field, [integer_row(r) for r in rref], m.ncols)
        assert again == rref
        assert pivots == pivots2

    def test_row_of_wrong_length(self):
        # a ragged row, and rows that disagree with the column count, in
        # both fields and for every one-shot routine
        for func in (rank, row_reduce, _integer_kernel):
            for field in (QQ, GF7):
                for rows, ncols in [([[1, 2], [3]], 2), ([[1, 2]], 3), ([[1, 2]], 0)]:
                    with pytest.raises(CanringError, match=f"needs {ncols} entries"):
                        func(field, rows, ncols)


class TestKernel:
    def test_injective(self):
        assert _integer_kernel(*qmat([[1, 0], [0, 1]])) == []

    def test_char2_kernel_vector(self):
        rows = [[1, 0, 0], [0, 0, 1], [1, -2, 1]]
        # columns = the three functions; kernel of the transpose detects the
        # dependency 1 + t^2 + (t-1)^2 = 0 in characteristic 2.
        basis = _integer_kernel(GF2, list(zip(*rows)), 3)
        assert basis == [{0: 1, 1: 1, 2: 1}]

    def test_zero_row(self):
        basis = _integer_kernel(QQ, [[0, 0]], 2)
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
        assert rank(*m) + len(_integer_kernel(*m)) == m.ncols

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
        for vec in _integer_kernel(*m):
            for row in m.rows:
                assert sum(row[c] * x for c, x in vec.items()) == 0


@st.composite
def _kernel_cases(draw):
    """A QQ or GF(7) matrix from ``_matrices``, or one of the edge shapes:
    no rows, no columns, wide, a zero column; QQ rows are integer rows."""
    kind = draw(st.sampled_from(["random", "no rows", "no columns", "wide", "zero column"]))
    if kind == "random":
        return draw(_matrices(fields=(QQ, GF7)))
    field = draw(st.sampled_from([QQ, GF7]))
    p = field.characteristic
    entries = st.integers(0, p - 1) if p else _qq_entries
    nrows, ncols = {
        "no rows": (0, draw(st.integers(0, 4))),
        "no columns": (draw(st.integers(0, 3)), 0),
        "wide": (draw(st.integers(1, 3)), draw(st.integers(5, 9))),
        "zero column": (draw(st.integers(1, 5)), draw(st.integers(1, 5))),
    }[kind]
    rows = [draw(st.lists(entries, min_size=ncols, max_size=ncols)) for _ in range(nrows)]
    if kind == "zero column":
        zero = draw(st.integers(0, ncols - 1))
        for row in rows:
            row[zero] = 0
    return Mat(field, rows if p else [integer_row(r) for r in rows], ncols)


class TestIntegerKernel:
    @settings(max_examples=150, deadline=None)
    @given(_kernel_cases())
    def test_matches_fraction_reference(self, m):
        field, p = m.field, m.field.characteristic
        ref_rows, ref_pivots = _reference_row_reduce(m)
        reference = _reference_kernel(field, m.ncols, ref_rows, ref_pivots)
        kernel = _integer_kernel(*m)
        assert len(kernel) == m.ncols - len(ref_pivots)
        # the reference has 1 at f and 0 at the other free columns, so
        # proportional vectors span the same kernel
        _assert_scaled_reference(field, kernel, reference)
        free = [c for c in range(m.ncols) if c not in ref_pivots]
        for vec, f in zip(kernel, free):
            assert next(iter(vec)) == f  # the free column comes first
            assert all(type(x) is int and x for x in vec.values())
            if p:
                assert vec[f] == 1 and all(0 < x < p for x in vec.values())
            else:
                assert vec[f] > 0
                assert math.gcd(*vec.values()) == 1
            for row in m.rows:
                assert field.mul(1, sum(x * row[c] for c, x in vec.items())) == 0


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
        assert rb.add([1, 2, 3])
        assert not rb.add([2, 4, 6])
        assert rb.add([0, 1, 1])
        assert rb.rank == 2
        assert not rb.add([1, 3, 4])

    def test_rejects_non_integral_entries(self):
        # rows are rows of ints in every field: 1/2 is 4 in GF(7), and
        # truncating it to 0 would drop the row; in QQ a rational row goes
        # in scaled by the lcm of its denominators
        half = [Fraction(1, 2)]
        for field in (QQ, GF7):
            for func in (rank, row_reduce, _integer_kernel):
                with pytest.raises(TypeError):
                    func(field, [half], 1)
            with pytest.raises(TypeError):
                RowBasis(field).add(half)
            with pytest.raises(TypeError):
                Tagged(field, ["a"]).add(half, "a")

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
        assert rb.rank == rank(*qmat(rows))


class TestTrackingRowBasis:
    @pytest.mark.parametrize("field", [QQ, GF7])
    def test_reports_dependency(self, field):
        rows = {
            "a": [1, 2, 0],
            "b": [0, 1, 1],
            "c": [2, 5, 1],  # = 2a + b
        }
        trb = Tagged(field, rows)
        assert trb.add(rows["a"], "a") is None
        assert trb.add(rows["b"], "b") is None
        combo = trb.add(rows["c"], "c")
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
        trb = Tagged(QQ, range(len(rows)))
        for tag, row in enumerate(rows):
            combo = trb.add(row, tag)
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
        trb, kept = Tagged(m.field, range(len(m.rows))), []
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
        assert trb.basis.rank == len(kept) == rank(*m)

    @settings(max_examples=300, deadline=None)
    @given(_qq_sequences())
    def test_matches_fraction_reference(self, case):
        _, vecs = case
        trb, reference, kept = Tagged(QQ, range(len(vecs))), FieldTracker(QQ), []
        for tag, vec in enumerate(vecs):
            combo, expected = trb.add(vec, tag), reference.add(vec, tag)
            if combo is None:
                assert expected is None
                kept.append(tag)
            else:
                _check_combination(QQ, combo, tag, vecs, kept)
                assert _monic(QQ, combo, tag) == expected
        assert trb.basis.rank == len(reference.rows)

    @settings(max_examples=300, deadline=None)
    @given(m=_matrices(), data=st.data())
    def test_carries_any_columns(self, m, data):
        """Carried columns need not be unit columns: a dependent row's tail
        is the reference combination applied to the carried columns, up to
        a nonzero factor, which mod p is 1."""
        field, p = m.field, m.field.characteristic
        width = data.draw(st.integers(min_value=1, max_value=4))
        entries = st.integers(0, p - 1) if p else st.integers(-9, 9)
        carried = [data.draw(st.lists(entries, min_size=width, max_size=width)) for _ in m.rows]
        trb, reference = TrackingRowBasis(field), FieldTracker(field)
        for tag, (row, extra) in enumerate(zip(m.rows, carried)):
            tail, combo = trb.add([*row, *extra], m.ncols), reference.add(row, tag)
            assert (tail is None) == (combo is None)
            if combo is None:
                continue
            assert len(tail) == width and all(type(x) is int for x in tail)
            expected = [field.zero] * width
            for t, c in combo.items():
                expected = [field.add(x, field.mul(c, field.of(y))) for x, y in zip(expected, carried[t])]
            tail = [field.of(x) for x in tail]
            j = next((j for j, x in enumerate(expected) if x), None)
            if j is None:
                assert not any(tail)
                continue
            factor = field.mul(tail[j], field.inv(expected[j]))
            assert factor and (factor == 1 or not p)
            assert tail == [field.mul(factor, x) for x in expected]
        assert trb.rank == len(reference.rows)

    def test_zero_vector_and_int_entries(self):
        # a tracked row is the vector and the unit column of its tag among
        # z, a, b: [1, 2 | 0, 0, 1] steps against [2, 4 | 0, 1, 0] to
        # [0, 0 | 0, -1, 2]
        trb = Tagged(QQ, "zab")
        assert trb.add([0, 0], "z") == {"z": 1}
        assert trb.add([2, 4], "a") is None
        combo = trb.add([1, 2], "b")
        assert combo == {"a": -1, "b": 2}
        assert all(type(c) is int for c in combo.values())

    def test_content_stripping_step_is_pinned(self):
        # QQ, with the unit columns of a, b, c reserved: a = [2, 1] is stored
        # as [2, 1 | 1, 0, 0].  b = [4, 4] enters as [4, 4 | 0, 1, 0]; its
        # step 2 b - 4 a = [0, 4 | -4, 2, 0] has content 2, so b is stored as
        # [0, 2 | -2, 1, 0]: its tag columns say [0, 2] = b - 2 a.  c = [6, 5]
        # steps to [0, 2 | -3, 0, 1] against a, content 2, then to
        # [0, 0 | -1, -1, 1] against b.  Mod 7 every stored row is normalized
        # at its pivot.
        trb = Tagged(QQ, "abc")
        assert trb.add([2, 1], "a") is None
        assert trb.add([4, 4], "b") is None
        assert trb.basis._rows == [(0, [2, 1, 1, 0, 0]), (1, [0, 2, -2, 1, 0])]
        assert trb.add([6, 5], "c") == {"c": 1, "a": -1, "b": -1}
        gfp = Tagged(GF7, "abc")
        assert gfp.add([2, 1], "a") is None and gfp.add([4, 4], "b") is None
        assert gfp.add([6, 5], "c") == {"c": 1, "a": 6, "b": 6}


@st.composite
def _probe_cases(draw):
    """A field, a width and a sequence of (probe, vec): adds of random
    vectors, interleaved with probes, which are combinations of the vectors
    added before them (the zero vector before any); QQ vectors are scaled to
    integer rows."""
    field = draw(st.sampled_from([QQ, GF7, GF_M61]))
    p = field.characteristic
    if p:
        entries = st.one_of(st.integers(0, min(p - 1, 6)), st.integers(0, p - 1))
    else:
        entries = _qq_entries
    width = draw(st.integers(min_value=1, max_value=5))
    steps, added = [], []
    for _ in range(draw(st.integers(min_value=1, max_value=10))):
        if draw(st.booleans()):
            coeffs = [draw(entries) for _ in added]
            vec = [
                sum((c * v[j] for c, v in zip(coeffs, added)), field.zero) for j in range(width)
            ]
            steps.append((True, [x % p for x in vec] if p else vec))
        else:
            vec = draw(st.lists(entries, min_size=width, max_size=width))
            added.append(vec)
            steps.append((False, vec))
    return field, width, [(probe, vec if p else integer_row(vec)) for probe, vec in steps]


class TestProbes:
    """The relation pass probes a tracker with a rest that must be
    dependent, carrying a column of its own, here the tag None's.  A probe
    returns its combination and leaves the tracker as it was."""

    @settings(max_examples=300, deadline=None)
    @given(_probe_cases())
    def test_probes_leave_the_tracker_unchanged(self, case):
        field, width, steps = case
        tags = [None, *range(len(steps))]
        trb, unprobed = Tagged(field, tags), Tagged(field, tags)
        reference = FieldTracker(field)
        vecs, kept = {}, []
        for i, (probe, vec) in enumerate(steps):
            tag = None if probe else i
            vecs[tag] = vec
            before = trb.basis.rank
            combo, expected = trb.add(vec, tag), reference.add(vec, tag)
            if probe:
                assert combo is not None and combo[None]
                assert trb.basis.rank == before
            else:
                # the same combination as without the probes before it
                assert combo == unprobed.add(vec, tag)
                if combo is None:
                    kept.append(tag)
            assert trb.basis._rows == unprobed.basis._rows
            if combo is None:
                assert expected is None
            else:
                _check_combination(field, combo, tag, vecs, kept)
                assert _monic(field, combo, tag) == expected
        added = [vec for probe, vec in steps if not probe]
        assert trb.basis.rank == unprobed.basis.rank == len(kept) == rank(field, added, width)


class TestIntegerRows:
    """Characteristic-0 elimination takes an integer row as it is.  The same
    row scaled by a positive integer gives the same rank and add verdicts,
    and a tracked combination differs only by the scale on each tag, up to
    a common factor."""

    @settings(max_examples=200, deadline=None)
    @given(case=_qq_sequences(), data=st.data())
    def test_scaled_rows_agree(self, case, data):
        width, rows = case
        scales = data.draw(st.lists(st.integers(1, 60), min_size=len(rows), max_size=len(rows)))
        scaled = [[x * q for x in row] for row, q in zip(rows, scales)]
        # a zero row is its own multiple, so its tag keeps the scale 1
        tag_scales = [q if any(row) else 1 for row, q in zip(rows, scales)]
        assert rank(QQ, rows, width) == rank(QQ, scaled, width)
        basis, scaled_basis = RowBasis(QQ), RowBasis(QQ)
        tracker, scaled_tracker = Tagged(QQ, range(len(rows))), Tagged(QQ, range(len(rows)))
        for tag, (row, scaled_row) in enumerate(zip(rows, scaled)):
            assert basis.add(row) == scaled_basis.add(scaled_row)
            combo = tracker.add(row, tag)
            scaled_combo = scaled_tracker.add(scaled_row, tag)
            if scaled_combo is None:
                assert combo is None
            else:
                unscaled = {t: c * tag_scales[t] for t, c in scaled_combo.items()}
                assert _monic(QQ, combo, tag) == _monic(QQ, unscaled, tag)
        assert basis.rank == scaled_basis.rank == tracker.basis.rank == scaled_tracker.basis.rank


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
