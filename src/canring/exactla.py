"""Exact linear algebra over the rationals and over prime fields.

Rows are rows of ints in every field, each entry read with
``operator.index``, so a non-integral one raises ``TypeError``: mod p in
characteristic p; in characteristic 0 with the row's content divided out,
then eliminated fraction-free.  A rational row enters scaled by the lcm
of its denominators.  ``RowBasis`` owns the one incremental elimination
loop; ``TrackingRowBasis`` eliminates on a row's first columns and
carries the rest along, and runs only where a relation is read.
The one-shot ``rank``, ``row_reduce`` and ``_integer_kernel`` take the
field, the rows and the column count, which a matrix with no rows still
needs; ``rank`` clears only below each pivot.  One sparse integer kernel,
read off the reduced echelon form, serves the brute-force oracle;
``row_reduce`` builds ``Fraction``s only at the end.
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


def _strip_content(row: list[int]) -> list[int]:
    """The row divided by its content (a zero row as it is)."""
    g = math.gcd(*row)
    if g <= 1:
        return row
    return [x // g for x in row]


def _echelon(
    field: FieldSpec, rows: Sequence[Sequence], ncols: int, reduced: bool
) -> tuple[list[list[int]], list[int]]:
    """Echelon rows and pivot columns of the matrix with these rows and
    ncols columns, all zero rows at the bottom.

    QQ rows are stripped of content on entry and eliminated fraction-free:
    row <- (piv/g) * row - (f/g) * pivot row with g = gcd(piv, f), then
    stripped of content.  GF(p) entries are reduced mod p on entry and
    pivot rows normalized.  ``reduced`` clears above each pivot as well
    (Gauss-Jordan); otherwise only the rows below are cleared.
    """
    if any(len(r) != ncols for r in rows):
        raise CanringError(f"every matrix row needs {ncols} entries")
    p = field.characteristic
    if p:
        rows = [[index(x) % p for x in r] for r in rows]
    else:
        rows = [_strip_content([index(x) for x in r]) for r in rows]
    pivots: list[int] = []
    r = 0
    for col in range(ncols):
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
                rows[i] = _strip_content([mine * a - theirs * b for a, b in zip(rows[i], prow)])
        pivots.append(col)
        r += 1
    return rows, pivots


def row_reduce(
    field: FieldSpec, rows: Sequence[Sequence], ncols: int
) -> tuple[list[list], list[int]]:
    """Reduced row echelon form and the pivot columns, in increasing order."""
    rows, pivots = _echelon(field, rows, ncols, reduced=True)
    if not field.characteristic:
        rows = [
            [Fraction(x, row[col]) for x in row] for row, col in zip(rows, pivots)
        ] + [[Fraction(0)] * ncols for _ in rows[len(pivots):]]
    return rows, pivots


def rank(field: FieldSpec, rows: Sequence[Sequence], ncols: int) -> int:
    return len(_echelon(field, rows, ncols, reduced=False)[1])


def _integer_kernel(field: FieldSpec, rows: Sequence[Sequence], ncols: int) -> list[dict]:
    """Right kernel, one sparse integer vector per free column f, in order,
    f its first key.  Where row i of the reduced echelon form has pivot P_i
    at column c_i and x_i != 0 at f, the vector is {f: L, c_i: -x_i L/P_i},
    L > 0 the least integer clearing every x_i/P_i; mod p, {f: 1, c_i: -x_i}.
    """
    rref, pivots = _echelon(field, rows, ncols, reduced=True)
    p = field.characteristic
    basis = []
    for f in sorted(set(range(ncols)).difference(pivots)):
        entries = [(c, row[f], row[c]) for row, c in zip(rref, pivots) if row[f]]
        if p:
            basis.append({f: 1} | {c: -x % p for c, x, _ in entries})
        else:
            # a list, not a generator, as in presentation._word
            L = math.lcm(*[P // math.gcd(P, x) for _, x, P in entries])
            basis.append({f: L} | {c: -x * L // P for c, x, P in entries})
    return basis


class RowBasis:
    """Incremental row-span tracker (forward elimination only).

    Characteristic 0 keeps content-stripped integer rows, row <- (piv * row
    - f * stored) / content; prime characteristic keeps pivot-normalized
    residue rows, row <- row - f * stored.  A stored row never changes.
    ``add`` reports whether the vector enlarged the span, which is all the
    relation pass asks of each candidate.
    """

    __slots__ = ("field", "_rows")

    def __init__(self, field: FieldSpec):
        self.field = field
        self._rows: list[tuple[int, list[int]]] = []  # (pivot col, row), sorted

    @property
    def rank(self) -> int:
        return len(self._rows)

    def add(self, vec: Sequence) -> bool:
        return self._eliminate(vec, len(vec)) is None

    def _eliminate(self, vec: Sequence, ncols: int) -> Optional[list[int]]:
        """Reduce vec by the stored rows.  Store the rest and return None
        if it is nonzero in its first ncols entries, else return it."""
        p = self.field.characteristic
        if p:
            row = [index(x) % p for x in vec]
            for col, stored in self._rows:
                f = row[col]
                if f:
                    row = [(a - f * b) % p for a, b in zip(row, stored)]
        else:
            row = _strip_content([index(x) for x in vec])
            for col, stored in self._rows:
                f = row[col]
                if f:
                    piv = stored[col]
                    row = _strip_content([piv * a - f * b for a, b in zip(row, stored)])
        lead = next((i for i, x in enumerate(row) if x), ncols)
        if lead >= ncols:
            return row
        if p:
            inv = pow(row[lead], -1, p)
            row = [inv * x % p for x in row]
        bisect.insort(self._rows, (lead, row), key=itemgetter(0))
        return None


class TrackingRowBasis(RowBasis):
    """Row basis that eliminates on the first ncols columns of each row and
    carries the later ones along; the relation pass tracks only where a
    relation is read.

    ``add(row, ncols)`` stores a row independent in its first ncols columns
    and returns None.  A dependent row's ``add`` returns the carried tail of
    its reduced row: c row + sum_j c_j stored_j, c != 0 (1 mod p), whose
    first ncols columns vanish.  Carrying unit columns, one per added row,
    gives the combination over the added rows, unique up to a nonzero
    factor, as the stored rows are independent.
    """

    __slots__ = ()

    def add(self, row: Sequence, ncols: int) -> Optional[list[int]]:
        rest = self._eliminate(row, ncols)
        return None if rest is None else rest[ncols:]


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

