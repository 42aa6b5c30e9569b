"""A reference for ``exactla.TrackingRowBasis``, shared by the tests.

``FieldTracker`` takes field values, ``Fraction``s or ints in QQ and
residues in GF(p), and does plain field arithmetic on them through
``FieldSpec``; it shares no elimination code with the engine.  A row is
divided by its leading entry when it is stored and an added row is never
scaled, so a combination it returns has coefficient 1 on its own tag.
Each row's expression over the added tags takes the same steps as the
row.  The engine's combination is unique up to a nonzero factor, so it
equals this one once divided by its own tag's coefficient.
"""


class FieldTracker:
    def __init__(self, field):
        self.field = field
        self.rows = []  # (pivot col, row, expr), sorted by pivot col

    def add(self, vec, tag):
        """None if vec enlarges the span, else its combination {tag: coeff}
        over the added vectors, 1 on its own tag, that sums to zero."""
        field = self.field
        row, expr = [field.of(x) for x in vec], {tag: field.of(1)}
        for col, stored, sexpr in self.rows:
            f = row[col]
            if f:
                row = [field.sub(a, field.mul(f, b)) for a, b in zip(row, stored)]
                for t, c in sexpr.items():
                    expr[t] = field.sub(expr.get(t, field.zero), field.mul(f, c))
        lead = next((i for i, x in enumerate(row) if x), None)
        if lead is None:
            return {t: c for t, c in expr.items() if c}
        inv = field.inv(row[lead])
        row, expr = [field.mul(inv, x) for x in row], {t: field.mul(inv, c) for t, c in expr.items()}
        self.rows.append((lead, row, expr))
        self.rows.sort(key=lambda item: item[0])
        return None
