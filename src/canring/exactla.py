"""Exact linear algebra over the rationals and over prime fields.

Matrix entries are ``fractions.Fraction`` in characteristic 0 and plain
ints in [0, p) in characteristic p.  Characteristic-0 elimination is
fraction-free, over content-stripped integer rows.  ``RowBasis`` owns the
one incremental elimination loop; ``TrackingRowBasis`` logs its steps and
replays row expressions only for a dependent row's combination.  The
one-shot ``row_reduce`` builds ``Fraction``s once, at the end, and
``rank`` clears only below each pivot.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from fractions import Fraction
from operator import index, itemgetter
from typing import Optional, Sequence

from .errors import CanringError

_MAX_PRIME = 1 << 61


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class FieldSpec:
    """Ground field: the rationals (characteristic 0) or GF(p)."""

    characteristic: int = 0

    def __post_init__(self) -> None:
        p = self.characteristic
        if p == 0:
            return
        if p >= _MAX_PRIME:
            raise CanringError(f"prime fields are limited to p < 2^61, got {p}")
        if not _is_prime(p):
            raise CanringError(f"characteristic must be 0 or prime, got {p}")

    @property
    def zero(self):
        return 0 if self.characteristic else Fraction(0)

    @property
    def one(self):
        return 1 if self.characteristic else Fraction(1)

    def of(self, value) -> object:
        """Embed a rational number into the field."""
        fr = Fraction(value)
        p = self.characteristic
        if p == 0:
            return fr
        if fr.denominator % p == 0:
            raise CanringError(f"{fr} has no image in GF({p})")
        return fr.numerator * pow(fr.denominator, -1, p) % p

    def add(self, a, b):
        return (a + b) % self.characteristic if self.characteristic else a + b

    def sub(self, a, b):
        return (a - b) % self.characteristic if self.characteristic else a - b

    def mul(self, a, b):
        return (a * b) % self.characteristic if self.characteristic else a * b

    def neg(self, a):
        return (-a) % self.characteristic if self.characteristic else -a

    def inv(self, a):
        if not a:
            raise ZeroDivisionError("field inverse of zero")
        if self.characteristic:
            return pow(a, -1, self.characteristic)
        return Fraction(1) / a  # exact for int input as well

    def __str__(self) -> str:
        return "QQ" if self.characteristic == 0 else f"GF({self.characteristic})"


class ExactMatrix:
    """Dense matrix with entries in a fixed exact field."""

    __slots__ = ("field", "rows", "nrows", "ncols")

    def __init__(self, field: FieldSpec, rows: Sequence[Sequence], ncols: Optional[int] = None):
        self.field = field
        self.rows = [list(r) for r in rows]
        self.nrows = len(self.rows)
        if self.rows:
            widths = {len(r) for r in self.rows}
            if len(widths) != 1:
                raise CanringError("ragged matrix rows")
            self.ncols = widths.pop()
            if ncols is not None and ncols != self.ncols:
                raise CanringError("ncols disagrees with row width")
        else:
            if ncols is None:
                raise CanringError("empty matrix needs an explicit column count")
            self.ncols = ncols

    @staticmethod
    def from_rational_rows(field: FieldSpec, rows: Sequence[Sequence]) -> "ExactMatrix":
        return ExactMatrix(field, [[field.of(x) for x in r] for r in rows],
                           ncols=len(rows[0]) if rows else 0)

    def __repr__(self) -> str:
        return f"ExactMatrix({self.field}, {self.nrows}x{self.ncols})"


def _strip_content(row: list[int]) -> tuple[list[int], int]:
    """The row divided by its content, and that content (1 for a zero row)."""
    g = 0
    for x in row:
        g = math.gcd(g, x)
        if g == 1:
            return row, 1
    if g <= 1:
        return row, 1
    return [x // g for x in row], g


def _to_integer_row(vec: Sequence) -> tuple[list[int], int, int]:
    """(row, num, den): the content-stripped integer row vec * num/den.

    num is the lcm of the denominators and den the content it clears; they
    share no prime, so num/den is in lowest terms (1/1 for a zero vector).
    """
    den = 1
    for x in vec:
        d = x.denominator
        if d != 1:
            den = den * d // math.gcd(den, d)
    if den == 1:
        row = [x.numerator for x in vec]
    else:
        row = [x.numerator * (den // x.denominator) for x in vec]
    row, content = _strip_content(row)
    return row, den, content


def _echelon(m: ExactMatrix, reduced: bool) -> tuple[list[list[int]], list[int]]:
    """Echelon rows and pivot columns of m, all zero rows at the bottom.

    QQ rows are content-stripped integer rows, eliminated fraction-free:
    row <- (piv/g) * row - (f/g) * pivot row with g = gcd(piv, f), then
    stripped of content.  GF(p) entries are reduced mod p on entry and
    pivot rows normalized.  ``reduced`` clears above each pivot as well
    (Gauss-Jordan); otherwise only the rows below are cleared.
    """
    p = m.field.characteristic
    if p:
        rows = [[index(x) % p for x in r] for r in m.rows]
    else:
        rows = [_to_integer_row(r)[0] for r in m.rows]
    pivots: list[int] = []
    r = 0
    for col in range(m.ncols):
        if r == len(rows):
            break
        pivot_row = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if pivot_row is None:
            continue
        rows[r], rows[pivot_row] = rows[pivot_row], rows[r]
        prow = rows[r]
        piv = prow[col]
        if p:
            inv = pow(piv, -1, p)
            prow = rows[r] = [inv * x % p for x in prow]
        for i in range(0 if reduced else r + 1, len(rows)):
            f = rows[i][col]
            if i == r or not f:
                continue
            if p:
                rows[i] = [(a - f * b) % p for a, b in zip(rows[i], prow)]
            else:
                g = math.gcd(piv, f)
                mine, theirs = piv // g, f // g
                rows[i] = _strip_content([mine * a - theirs * b for a, b in zip(rows[i], prow)])[0]
        pivots.append(col)
        r += 1
    return rows, pivots


def row_reduce(m: ExactMatrix) -> tuple[ExactMatrix, list[int]]:
    """Reduced row echelon form and the pivot columns, in increasing order."""
    rows, pivots = _echelon(m, reduced=True)
    if not m.field.characteristic:
        rows = [
            [Fraction(x, row[col]) for x in row] for row, col in zip(rows, pivots)
        ] + [[Fraction(0)] * m.ncols for _ in rows[len(pivots):]]
    return ExactMatrix(m.field, rows, m.ncols), pivots


def rank(m: ExactMatrix) -> int:
    return len(_echelon(m, reduced=False)[1])


def kernel_basis(m: ExactMatrix) -> list[list]:
    """Basis of the right kernel; empty when the matrix is injective."""
    field = m.field
    rref, pivots = row_reduce(m)
    pivot_set = set(pivots)
    free_cols = [c for c in range(m.ncols) if c not in pivot_set]
    basis = []
    for f in free_cols:
        vec = [field.zero] * m.ncols
        vec[f] = field.one
        for i, c in enumerate(pivots):
            vec[c] = field.neg(rref.rows[i][f])
        basis.append(vec)
    return basis


class RowBasis:
    """Incremental row-span tracker (forward elimination only).

    Characteristic 0 keeps content-stripped integer rows, row <- piv * row
    - f * stored; prime characteristic keeps pivot-normalized residue rows,
    row <- row - f * stored.  Stored rows never change.  ``add`` reports
    whether the vector enlarged the span.
    """

    __slots__ = ("field", "_rows")

    def __init__(self, field: FieldSpec):
        self.field = field
        self._rows: list[tuple[int, list]] = []  # (pivot col, row), sorted

    @property
    def rank(self) -> int:
        return len(self._rows)

    def add(self, vec: Sequence) -> bool:
        return self._eliminate(vec, None)[0] is not None

    def _eliminate(self, vec: Sequence, steps: Optional[list]) -> tuple[Optional[int], int, int]:
        """Reduce vec by the stored rows and store the rest if nonzero.

        Returns (lead, scale, den), lead None for a dependent vec.  QQ starts
        from the integer row vec * scale/den; mod p, den is 1 and scale the
        inverse pivot the stored row was normalized by (else 1).  Each step
        is logged to ``steps``, if given, as (col, piv, f, factor): row <-
        (piv * row - f * stored) / factor.
        """
        p = self.field.characteristic
        if p:
            scale = den = 1
            row = [index(x) % p for x in vec]
            for col, stored in self._rows:
                f = row[col]
                if f:
                    row = [(a - f * b) % p for a, b in zip(row, stored)]
                    if steps is not None:
                        steps.append((col, 1, f, 1))
        else:
            row, scale, den = _to_integer_row(vec)
            for col, stored in self._rows:
                f = row[col]
                if f:
                    piv = stored[col]
                    row, factor = _strip_content([piv * a - f * b for a, b in zip(row, stored)])
                    if steps is not None:
                        steps.append((col, piv, f, factor))
        lead = next((i for i, x in enumerate(row) if x), None)
        if lead is not None:
            if p:
                scale = pow(row[lead], -1, p)
                row = [scale * x % p for x in row]
            bisect.insort(self._rows, (lead, row), key=itemgetter(0))
        return lead, scale, den


class TrackingRowBasis(RowBasis):
    """Row basis that remembers how each pivot is built from the added rows.

    When an added row turns out dependent, ``add`` returns the sparse
    combination {tag: coeff} over previously added rows (including the new
    tag itself) that sums to zero; independent rows return None.

    Each stored row keeps its origin: its tag, scale, den and logged steps.
    A dependent add replays the pending origins in storage order, which
    works because a row's steps name only rows stored before it, and then
    its own steps.  Stored rows never change, so a late replay gives the
    expressions that updating them at every step would.  A QQ expression is (num, den), a dict tag -> int over one
    positive int, cancelled by their gcd after each step; a GF(p) one is a
    dict tag -> residue, normalized with its row.
    """

    __slots__ = ("_pending", "_exprs")

    def __init__(self, field: FieldSpec):
        super().__init__(field)
        self._pending: list[tuple] = []  # (pivot col, tag, scale, den, steps), in storage order
        self._exprs: dict[int, object] = {}  # pivot col -> expression, once replayed

    def add(self, vec: Sequence, tag) -> Optional[dict]:
        steps: list[tuple[int, int, int, int]] = []
        lead, scale, den = self._eliminate(vec, steps)
        if lead is not None:
            self._pending.append((lead, tag, scale, den, steps))
            return None
        for col, *origin in self._pending:
            self._exprs[col] = self._replay(*origin)
        self._pending.clear()
        expr = self._replay(tag, scale, den, steps)
        if self.field.characteristic:
            return expr
        num, den = expr
        return {t: Fraction(c, den) for t, c in num.items()}

    def _replay(self, tag, scale: int, den: int, steps: list):
        """The expression of one origin, from those of the rows it names."""
        p = self.field.characteristic
        if p:
            expr = {tag: 1}
            for col, _, f, _ in steps:
                for t, c in self._exprs[col].items():
                    expr[t] = (expr.get(t, 0) - f * c) % p
            return {t: scale * c % p for t, c in expr.items() if c}
        num = {tag: scale}  # the row == vec * scale/den
        for col, piv, f, factor in steps:
            snum, sden = self._exprs[col]
            g = math.gcd(den, sden)
            mine, theirs = piv * (sden // g), f * (den // g)
            den *= (sden // g) * factor
            num = {
                t: c
                for t in num | snum
                if (c := mine * num.get(t, 0) - theirs * snum.get(t, 0))
            }
            g = math.gcd(den, *num.values())
            if g > 1:
                den //= g
                num = {t: c // g for t, c in num.items()}
        return num, den


class SparseRowBasis:
    """Incremental basis for sparse vectors given as {index: coeff} dicts."""

    __slots__ = ("field", "_pivots")

    def __init__(self, field: FieldSpec):
        self.field = field
        self._pivots: dict[int, dict] = {}  # lead index -> row with lead coeff 1

    @property
    def rank(self) -> int:
        return len(self._pivots)

    def add(self, vec: dict) -> bool:
        field = self.field
        row = {i: c for i, c in vec.items() if c}
        while row:
            lead = min(row)
            stored = self._pivots.get(lead)
            if stored is None:
                inv = field.inv(row[lead])
                self._pivots[lead] = {i: field.mul(inv, c) for i, c in row.items()}
                return True
            f = row[lead]
            for i, c in stored.items():
                val = field.sub(row.get(i, field.zero), field.mul(f, c))
                if val:
                    row[i] = val
                else:
                    row.pop(i, None)
        return False

