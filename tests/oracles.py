"""Independent oracles for the library bracket.

:func:`bracket_split` recomputes the Poisson bracket of two generalized Weyl
Poisson algebra elements by Leibniz recursion: every basis term d v_alpha is
factored into a word of atoms (the coefficient d, then single generators
X_i or Y_i), and the bracket of two words is split by halving one of them
until only brackets of atoms remain, which the defining relations give
directly.  It shares nothing with the library's closed-form term bracket
except the product, so agreement checks that closed form.
"""

from __future__ import annotations

# Atoms are ("c", polynomial) for base coefficients and ("X", i) / ("Y", i)
# with zero-based index for single generators.


def _atoms_of(alpha, coeff) -> list:
    atoms = []
    if not coeff.is_constant or coeff.constant_value() != 1:
        atoms.append(("c", coeff))
    for i, x in enumerate(alpha):
        if x > 0:
            atoms.extend([("X", i)] * x)
        elif x < 0:
            atoms.extend([("Y", i)] * (-x))
    return atoms


def _atom_term(A, atom):
    kind, payload = atom
    if kind == "c":
        return A.scalar(payload)
    return A.X(payload + 1) if kind == "X" else A.Y(payload + 1)


def _atom_bracket(A, left, right):
    """Bracket of two atoms from the defining relations."""
    lk, lp = left
    rk, rp = right
    if lk == "c" and rk == "c":
        return A.scalar(A.base.bracket(lp, rp))
    if lk == "c":  # {d, X_i} = p_i(d) X_i and {d, Y_i} = -p_i(d) Y_i
        sign = 1 if rk == "X" else -1
        return A.scalar(A.partials[rp](lp) * sign) * _atom_term(A, right)
    if rk == "c":
        sign = -1 if lk == "X" else 1
        return A.scalar(A.partials[lp](rp) * sign) * _atom_term(A, left)
    if lp != rp or lk == rk:
        return A.zero()
    poly = A.partials[lp](A.a[lp])
    if lk == "X":  # {X_i, Y_i} = -p_i(a_i)
        poly = -poly
    return A.scalar(poly)


def _word_product(A, atoms):
    term = A.one()
    for atom in atoms:
        term = term * _atom_term(A, atom)
    return term


def _bracket_words(A, left: list, right: list):
    """Leibniz recursion: halve the left word down to one atom, then the right."""
    if not left or not right:
        return A.zero()
    if len(left) == 1 and len(right) == 1:
        return _atom_bracket(A, left[0], right[0])
    if len(left) > 1:
        mid = len(left) // 2
        head, tail = left[:mid], left[mid:]
        return (
            _word_product(A, head) * _bracket_words(A, tail, right)
            + _bracket_words(A, head, right) * _word_product(A, tail)
        )
    mid = len(right) // 2
    head, tail = right[:mid], right[mid:]
    return (
        _bracket_words(A, left, head) * _word_product(A, tail)
        + _word_product(A, head) * _bracket_words(A, left, tail)
    )


def bracket_split(u, v):
    """The bracket {u, v} by Leibniz recursion over factorizations."""
    A = u.algebra
    total = A.zero()
    for alpha, d in u.items():
        atoms_u = _atoms_of(alpha, d)
        for beta, e in v.items():
            total = total + _bracket_words(A, atoms_u, _atoms_of(beta, e))
    return total
