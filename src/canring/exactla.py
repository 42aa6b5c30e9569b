"""Exact linear algebra over the rationals and over prime fields.

Matrix entries are ``fractions.Fraction`` in characteristic 0 and plain
ints in [0, p) in characteristic p.  The incremental ``RowBasis`` keeps
characteristic-0 rows as content-stripped integer vectors so elimination
never leaves the integers; the one-shot ``row_reduce`` returns the usual
normalized reduced echelon form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
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

    def div(self, a, b):
        return self.mul(a, self.inv(b))

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


def row_reduce(m: ExactMatrix) -> tuple[ExactMatrix, list[int]]:
    """Reduced row echelon form and the pivot columns, in increasing order."""
    field = m.field
    rows = [list(r) for r in m.rows]
    pivots: list[int] = []
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
    return ExactMatrix(field, rows, m.ncols), pivots


def rank(m: ExactMatrix) -> int:
    return len(row_reduce(m)[1])


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


def _strip_content(row: list[int]) -> list[int]:
    g = 0
    for x in row:
        g = math.gcd(g, x)
        if g == 1:
            return row
    if g <= 1:
        return row
    return [x // g for x in row]


def _to_integer_row(vec: Sequence) -> list[int]:
    den = 1
    for x in vec:
        if isinstance(x, Fraction):
            den = den * x.denominator // math.gcd(den, x.denominator)
    if den == 1:
        return _strip_content([int(x) for x in vec])
    return _strip_content([int(x * den) for x in vec])


class RowBasis:
    """Incremental row-span tracker (forward elimination only).

    Characteristic 0 keeps integer rows and eliminates fraction-free with
    content stripping; prime characteristic keeps pivot-normalized residue
    rows.  ``add`` reports whether the vector enlarged the span.
    """

    __slots__ = ("field", "width", "_rows")

    def __init__(self, field: FieldSpec, width: int):
        self.field = field
        self.width = width
        self._rows: list[tuple[int, list]] = []  # (pivot col, row), sorted

    @property
    def rank(self) -> int:
        return len(self._rows)

    def add(self, vec: Sequence) -> bool:
        p = self.field.characteristic
        if p:
            row = [int(x) % p for x in vec]
            for col, stored in self._rows:
                f = row[col]
                if f:
                    row = [(a - f * b) % p for a, b in zip(row, stored)]
        else:
            row = _to_integer_row(vec)
            for col, stored in self._rows:
                f = row[col]
                if f:
                    piv = stored[col]
                    row = _strip_content([piv * a - f * b for a, b in zip(row, stored)])
        lead = next((i for i, x in enumerate(row) if x), None)
        if lead is None:
            return False
        if p:
            inv = pow(row[lead], -1, p)
            row = [inv * x % p for x in row]
        self._insert(lead, row)
        return True

    def _insert(self, lead: int, row: list) -> None:
        pos = 0
        while pos < len(self._rows) and self._rows[pos][0] < lead:
            pos += 1
        self._rows.insert(pos, (lead, row))


class TrackingRowBasis:
    """Row basis that remembers how each pivot is built from the added rows.

    When an added row turns out dependent, ``add`` returns the sparse
    combination {tag: coeff} over previously added rows (including the new
    tag itself) that sums to zero; independent rows return None.  This is
    what turns the degreewise section matrices into explicit relation
    polynomials.
    """

    __slots__ = ("field", "width", "_rows")

    def __init__(self, field: FieldSpec, width: int):
        self.field = field
        self.width = width
        self._rows: list[tuple[int, list, dict]] = []  # (pivot col, row, expr)

    @property
    def rank(self) -> int:
        return len(self._rows)

    def add(self, vec: Sequence, tag) -> Optional[dict]:
        p = self.field.characteristic
        if p:
            row = [int(x) % p for x in vec]
            expr = {tag: 1}
            for col, stored, sexpr in self._rows:
                f = row[col]
                if f:
                    row = [(a - f * b) % p for a, b in zip(row, stored)]
                    for t, c in sexpr.items():
                        expr[t] = (expr.get(t, 0) - f * c) % p
            lead = next((i for i, x in enumerate(row) if x), None)
            if lead is None:
                return {t: c for t, c in expr.items() if c}
            inv = pow(row[lead], -1, p)
            row = [inv * x % p for x in row]
            expr = {t: inv * c % p for t, c in expr.items() if c}
        else:
            row = _to_integer_row(vec)
            scale = Fraction(1)
            for x, y in zip(row, vec):
                if x:
                    scale = Fraction(x) / Fraction(y)
                    break
            expr = {tag: scale}  # row == scale * vec
            for col, stored, sexpr in self._rows:
                f = row[col]
                if f:
                    piv = stored[col]
                    new_row = [piv * a - f * b for a, b in zip(row, stored)]
                    stripped = _strip_content(new_row)
                    factor = 1
                    for a, b in zip(new_row, stripped):
                        if b:
                            factor = a // b
                            break
                    row = stripped
                    inv_factor = Fraction(1, factor)
                    expr = {
                        t: (piv * expr.get(t, Fraction(0)) - f * sexpr.get(t, Fraction(0)))
                        * inv_factor
                        for t in set(expr) | set(sexpr)
                    }
                    expr = {t: c for t, c in expr.items() if c}
            lead = next((i for i, x in enumerate(row) if x), None)
            if lead is None:
                return expr
        self._rows.append((lead, row, expr))
        self._rows.sort(key=lambda item: item[0])
        return None


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

