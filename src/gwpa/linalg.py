"""Exact linear algebra over the rationals.

:class:`Echelon`, over sparse rows (``dict`` column -> coefficient), is the
one elimination routine: closures use it directly, centre kernels through
:func:`nullspace` on sparse rows, and affine inverses through :func:`rref`
on dense matrices (lists of rows of ints or Fractions).  Rows hold ints,
eliminated fraction-free (Bareiss, Math. Comp. 22, 1968).  The reduced row
echelon form is canonical for the row space, so nullspace bases are
deterministic given a column order.
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
        was already in the span.

        Scale invariant: every nonzero rational multiple of ``vec`` reduces
        to a multiple of the same vector, so it returns the same row (or
        None) and leaves the same ``rows``.  Bounded closures rely on this
        when they queue rows without dividing by the pivot entry."""
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


def _back_substituted(matrix) -> dict[int, dict[int, int]]:
    """The reduced row echelon form of ``matrix`` as :class:`Echelon` rows
    (pivot -> primitive int row), each reduced above every later pivot.

    Rows may be sparse (``dict``) or dense (lists).  Pivots are visited
    last to first, so every pivot row a row still holds is already fully
    reduced; clearing it adds no pivot column, and each row is scanned
    once for the pivot columns it holds.
    """
    echelon = Echelon()
    for row in matrix:
        if not isinstance(row, dict):
            row = {col: v for col, v in enumerate(row) if v}
        echelon.insert(row)
    rows = echelon.rows
    for pcol in sorted(rows, reverse=True):
        row = rows[pcol]
        held = [col for col in row if col != pcol and col in rows]
        for col in held:
            _eliminate(row, col, rows[col])
        if held:
            _primitive(row)
    return rows


def rref(matrix: list[list]) -> tuple[list[list], list[int]]:
    """Reduced row echelon form and pivot column indices.

    The input is not modified.  Rows of the result are fully reduced and
    pivot-normalized to one, with entries that are ints when integral and
    Fractions otherwise; zero rows are dropped.
    """
    if not matrix:
        return [], []
    rows = _back_substituted(matrix)
    pivots = sorted(rows)
    columns = range(len(matrix[0]))
    return [
        [_ratio(row[col], row[p]) if col in row else 0 for col in columns]
        for p, row in sorted(rows.items())
    ], pivots


def nullspace(matrix: list, ncols: int | None = None) -> list[list]:
    """Deterministic basis of the solution space of ``matrix @ x = 0``.

    Rows are dense lists, or sparse ``dict`` column -> nonzero entry, in
    which case ``ncols`` is required.  One basis vector per free column, in
    ascending column order; the free coordinate is set to one and pivot
    coordinates are read off the reduced rows.  An empty matrix means every
    vector is a solution.
    """
    if matrix and not isinstance(matrix[0], dict):
        ncols = len(matrix[0])
    elif ncols is None:
        raise ValueError("ncols is required for an empty or sparse constraint matrix")
    rows = _back_substituted(matrix)
    basis = {}
    for free in range(ncols):
        if free not in rows:
            vec = basis[free] = [0] * ncols
            vec[free] = 1
    for pcol, row in rows.items():
        lead = row[pcol]
        for col, value in row.items():
            if col != pcol:
                basis[col][pcol] = _ratio(-value, lead)
    return list(basis.values())
