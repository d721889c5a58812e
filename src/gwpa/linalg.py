"""Exact linear algebra over the rationals.

:class:`Echelon`, over sparse rows (``dict`` column -> coefficient), is the
one elimination routine: closures use it directly, centre kernels and
affine inverses through :func:`rref` on dense matrices (lists of rows of
ints or Fractions).  Rows hold ints, eliminated fraction-free (Bareiss,
Math. Comp. 22, 1968).  The reduced row echelon form is canonical for the
row space, so nullspace bases are deterministic given a column order.
"""

from __future__ import annotations

from math import gcd, lcm

from .poly import _ratio


def _primitive(vec: dict, sign: int = 1) -> None:
    """Divide nonzero ``vec`` in place by ``sign`` times its entries' gcd."""
    content = sign * gcd(*vec.values())
    if content != 1:
        for idx in vec:
            vec[idx] //= content


def _eliminate(vec: dict, col: int, row: dict) -> None:
    """Cancel column ``col`` of ``vec`` in place by ``b*vec - a*row``, with
    a/b = vec[col]/row[col] in lowest terms and b > 0, as row[col] > 0."""
    a, b = vec[col], row[col]
    if b != 1:
        g = gcd(a, b)
        a, b = a // g, b // g
        for idx in vec:
            vec[idx] *= b
    for idx, value in row.items():
        if acc := vec.get(idx, 0) - a * value:
            vec[idx] = acc
        else:
            del vec[idx]


class Echelon:
    """Incrementally row-reduced rational span over sparse int rows.

    ``rows`` maps each pivot column to a primitive int row whose smallest
    column is that pivot, with a positive entry there; it stands for the
    rational row ``row / row[pivot]``.  Rows are not reduced above later
    pivots; the closure basis is read off them as they stand, so reducing
    fully would change it.  Vectors passed in hold nonzero entries only.
    """

    def __init__(self):
        self.rows: dict[int, dict[int, int]] = {}

    def reduce(self, vec: dict) -> dict | None:
        """An int multiple of ``vec``, reduced until its leading column is
        not a pivot, or None when it reduces to zero."""
        vec = dict(vec)
        if type(sum(vec.values())) is not int:  # a Fraction entry: scale to ints
            den = lcm(*[value.denominator for value in vec.values()])
            vec = {idx: value.numerator * (den // value.denominator) for idx, value in vec.items()}
        while vec:
            lead = min(vec)
            row = self.rows.get(lead)
            if row is None:
                return vec
            _eliminate(vec, lead, row)
        return None

    def insert(self, vec: dict) -> dict | None:
        """Add a vector; returns the new pivot row, or None if the vector
        was already in the span."""
        row = self.reduce(vec)
        if row is None:
            return None
        lead = min(row)
        _primitive(row, 1 if row[lead] > 0 else -1)
        for other in self.rows.values():
            if lead in other:
                _eliminate(other, lead, row)
                _primitive(other)
        self.rows[lead] = row
        return row

    def __contains__(self, vec: dict) -> bool:
        return self.reduce(vec) is None


def rref(matrix: list[list]) -> tuple[list[list], list[int]]:
    """Reduced row echelon form and pivot column indices.

    The input is not modified.  Rows of the result are fully reduced and
    pivot-normalized to one, with entries that are ints when integral and
    Fractions otherwise; zero rows are dropped.
    """
    if not matrix:
        return [], []
    echelon = Echelon()
    for row in matrix:
        echelon.insert({col: v for col, v in enumerate(row) if v})
    pivots = sorted(echelon.rows)
    for pcol in reversed(pivots):  # back-substitute, last pivot first
        prow = echelon.rows[pcol]
        for lead, other in echelon.rows.items():
            if lead < pcol and pcol in other:
                _eliminate(other, pcol, prow)
                _primitive(other)
    columns = range(len(matrix[0]))
    return [
        [_ratio(row[col], row[p]) if col in row else 0 for col in columns]
        for p, row in sorted(echelon.rows.items())
    ], pivots


def nullspace(matrix: list[list], ncols: int | None = None) -> list[list]:
    """Deterministic basis of the solution space of ``matrix @ x = 0``.

    One basis vector per free column, in ascending column order; the free
    coordinate is set to one and pivot coordinates are back-filled from the
    reduced form.  An empty matrix means every vector is a solution.
    """
    if matrix:
        ncols = len(matrix[0])
    elif ncols is None:
        raise ValueError("ncols is required for an empty constraint matrix")
    reduced, pivots = rref(matrix)
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        vec = [0] * ncols
        vec[free] = 1
        for row, pcol in zip(reduced, pivots):
            value = row[free]
            if value:
                vec[pcol] = -value
        basis.append(vec)
    return basis
