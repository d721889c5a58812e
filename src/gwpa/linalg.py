"""Exact linear algebra over the rationals.

:class:`Echelon`, over sparse rows (``dict`` column -> coefficient), is the
one elimination routine: closures use it directly, centre kernels and
affine inverses through :func:`rref` on dense matrices (lists of rows of
ints or Fractions).  The reduced row echelon form is canonical for the row
space, so nullspace bases are deterministic given a column order.
"""

from __future__ import annotations

from fractions import Fraction

from .poly import normalize_coeff


def _axpy(target: dict, factor, row: dict) -> None:
    """``target -= factor * row`` in place, dropping entries that cancel."""
    for idx, value in row.items():
        acc = target.get(idx, 0) - factor * value
        if acc:
            target[idx] = normalize_coeff(acc)
        else:
            target.pop(idx, None)


class Echelon:
    """Incrementally row-reduced rational span over sparse rows.

    ``rows`` maps each pivot column to its row, whose smallest column is
    that pivot, with entry one.  Rows are not reduced above later pivots;
    the closure basis is read off them as they stand, so reducing fully
    would change it.  Vectors passed in hold nonzero entries only.
    """

    def __init__(self):
        self.rows: dict[int, dict] = {}

    def reduce(self, vec: dict) -> dict | None:
        """A copy of ``vec`` reduced until its leading column is not a
        pivot, or None when it reduces to zero."""
        vec = dict(vec)
        while vec:
            lead = min(vec)
            row = self.rows.get(lead)
            if row is None:
                return vec
            _axpy(vec, vec[lead], row)
        return None

    def insert(self, vec: dict) -> dict | None:
        """Add a vector; returns the new normalized pivot row, or None if
        the vector was already in the span."""
        reduced = self.reduce(vec)
        if reduced is None:
            return None
        lead = min(reduced)
        inv = 1 / Fraction(reduced[lead])
        row = {idx: normalize_coeff(value * inv) for idx, value in reduced.items()}
        for other in self.rows.values():
            if lead in other:
                _axpy(other, other[lead], row)
        self.rows[lead] = row
        return row

    def __contains__(self, vec: dict) -> bool:
        return self.reduce(vec) is None


def rref(matrix: list[list]) -> tuple[list[list], list[int]]:
    """Reduced row echelon form and pivot column indices.

    The input is not modified.  Rows of the result are fully reduced and
    pivot-normalized to one; zero rows are dropped.
    """
    if not matrix:
        return [], []
    echelon = Echelon()
    for row in matrix:
        echelon.insert({col: normalize_coeff(Fraction(v)) for col, v in enumerate(row) if v})
    pivots = sorted(echelon.rows)
    for pcol in reversed(pivots):  # back-substitute, last pivot first
        prow = echelon.rows[pcol]
        for lead, other in echelon.rows.items():
            if lead < pcol and pcol in other:
                _axpy(other, other[pcol], prow)
    columns = range(len(matrix[0]))
    return [[echelon.rows[p].get(col, 0) for col in columns] for p in pivots], pivots


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
                vec[pcol] = normalize_coeff(-Fraction(value))
        basis.append(vec)
    return basis
