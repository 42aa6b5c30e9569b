"""A reference for ``exactla.TrackingRowBasis``, shared by the tests.

``FieldTracker`` takes field values, ``Fraction``s or ints in QQ and
residues in GF(p), and does plain field arithmetic on them through
``FieldSpec``; it shares no elimination code with the engine.  It scales
its rows as the engine does, so the combinations it returns are the
engine's exactly: in QQ a row is divided by its content on entry and
after each step, the positive rational c for which row / c is a
primitive integer row; in GF(p) a row is divided by its leading entry
when it is stored.  Each row's expression over the added tags takes the
same steps as the row.
"""

import math
from fractions import Fraction


class FieldTracker:
    def __init__(self, field):
        self.field = field
        self.rows = []  # (pivot col, row, expr), sorted by pivot col

    def _content(self, row):
        """What the engine divides this QQ row by: 1 for a zero row, and
        always 1 in GF(p), where only a stored row is scaled."""
        if self.field.characteristic:
            return 1
        den = math.lcm(*[x.denominator for x in row])
        return Fraction(math.gcd(*[int(x * den) for x in row]) or 1, den)

    def _divide(self, row, expr, c):
        field = self.field
        inv = field.inv(c)
        return [field.mul(inv, x) for x in row], {t: field.mul(inv, x) for t, x in expr.items()}

    def add(self, vec, tag):
        """None if vec enlarges the span, else its combination {tag: coeff}
        over the added vectors (its own tag included) that sums to zero."""
        field = self.field
        row = [field.of(x) for x in vec]
        row, expr = self._divide(row, {tag: field.of(1)}, self._content(row))
        for col, stored, sexpr in self.rows:
            f = row[col]
            if f:
                piv = stored[col]
                row = [field.sub(field.mul(piv, a), field.mul(f, b)) for a, b in zip(row, stored)]
                expr = {
                    t: field.sub(
                        field.mul(piv, expr.get(t, field.zero)),
                        field.mul(f, sexpr.get(t, field.zero)),
                    )
                    for t in set(expr) | set(sexpr)
                }
                row, expr = self._divide(row, expr, self._content(row))
        expr = {t: c for t, c in expr.items() if c}
        lead = next((i for i, x in enumerate(row) if x), None)
        if lead is None:
            return expr
        if field.characteristic:
            row, expr = self._divide(row, expr, row[lead])
        self.rows.append((lead, row, expr))
        self.rows.sort(key=lambda item: item[0])
        return None
