"""Exact rational row reduction and nullspace bases."""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from gwpa.linalg import Echelon, nullspace, rref

from oracles import FractionEchelon, fraction_rref
from sampling import random_rational


def test_rref_frozen_example():
    rows, pivots = rref(
        [
            [Fraction(2), Fraction(4), Fraction(2)],
            [Fraction(1), Fraction(2), Fraction(3)],
        ]
    )
    assert pivots == [0, 2]
    assert rows == [
        [Fraction(1), Fraction(2), Fraction(0)],
        [Fraction(0), Fraction(0), Fraction(1)],
    ]


def test_rref_drops_zero_rows():
    rows, pivots = rref([[1, 1], [2, 2], [0, 0]])
    assert pivots == [0]
    assert rows == [[1, 1]]


def test_nullspace_frozen_example():
    basis = nullspace([[1, 2, 3]])
    assert basis == [
        [Fraction(-2), Fraction(1), Fraction(0)],
        [Fraction(-3), Fraction(0), Fraction(1)],
    ]


def test_nullspace_of_identity_is_empty():
    assert nullspace([[1, 0], [0, 1]]) == []


def test_nullspace_of_empty_matrix_spans_everything():
    basis = nullspace([], ncols=2)
    assert basis == [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]


def test_nullspace_vectors_annihilate_matrix():
    rng = random.Random(77)
    for _ in range(40):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 5)
        matrix = [
            [random_rational(rng) for _ in range(cols)] for _ in range(rows)
        ]
        for vec in nullspace(matrix):
            for row in matrix:
                assert sum(r * x for r, x in zip(row, vec)) == 0


def test_rref_is_idempotent():
    rng = random.Random(78)
    for _ in range(30):
        matrix = [
            [random_rational(rng) for _ in range(4)] for _ in range(3)
        ]
        rows, pivots = rref(matrix)
        again, pivots2 = rref(rows)
        assert rows == again
        assert pivots == pivots2


def test_rref_matches_sympy():
    sympy = pytest.importorskip("sympy")
    rng = random.Random(79)
    for trial in range(80):
        short, long = rng.randint(1, 3), rng.randint(3, 7)
        rows, cols = (short, long) if trial % 2 else (long, short)
        matrix = [[random_rational(rng) for _ in range(cols)] for _ in range(rows)]
        if rng.random() < 0.4:
            matrix.append([0] * cols)
        if rng.random() < 0.4:
            matrix.append(list(rng.choice(matrix)))
        rng.shuffle(matrix)
        reduced, pivots = rref(matrix)
        expected, expected_pivots = sympy.Matrix(matrix).rref()
        assert pivots == list(expected_pivots)
        assert reduced == [
            [Fraction(int(x.p), int(x.q)) for x in expected.row(i)]
            for i in range(len(pivots))
        ]


_coeff = st.fractions(-3, 3, max_denominator=3).filter(bool)
_vector = st.dictionaries(st.integers(0, 5), _coeff, max_size=4)


@settings(max_examples=80, deadline=None)
@given(st.lists(_vector, max_size=6), st.data())
def test_echelon_span_does_not_depend_on_insertion_order(vectors, data):
    forward = Echelon()
    for vec in vectors:
        spanned = vec in forward
        assert (forward.insert(vec) is None) == spanned
        assert vec in forward
    shuffled = Echelon()
    for vec in data.draw(st.permutations(vectors)):
        shuffled.insert(vec)
    assert sorted(forward.rows) == sorted(shuffled.rows)
    combination = {}
    for vec in vectors:
        factor = data.draw(_coeff)
        for idx, value in vec.items():
            combination[idx] = combination.get(idx, 0) + factor * value
    combination = {idx: value for idx, value in combination.items() if value}
    assert combination in forward
    assert forward.insert(combination) is None
    for probe in data.draw(st.lists(_vector, max_size=4)):
        assert (probe in forward) == (probe in shuffled)


# int, Fraction and integral-Fraction entries, which the integer rows must
# all scale onto the same span as the Fraction reference.
_entry = st.one_of(
    st.integers(-9, 9),
    st.fractions(-3, 3, max_denominator=4),
    st.integers(-9, 9).map(Fraction),
)
_sparse = st.dictionaries(st.integers(0, 7), _entry.filter(bool), max_size=5)


@settings(max_examples=150, deadline=None)
@given(st.lists(_sparse, max_size=8))
def test_echelon_agrees_with_fraction_reference(vectors):
    ours, reference = Echelon(), FractionEchelon()
    for vec in vectors:
        assert (ours.insert(vec) is None) == (reference.insert(vec) is None)
        assert sorted(ours.rows) == sorted(reference.rows)
        for lead, row in ours.rows.items():
            assert min(row) == lead and row[lead] > 0
            assert all(type(value) is int for value in row.values())
            assert gcd(*row.values()) == 1
            assert {i: Fraction(v, row[lead]) for i, v in row.items()} == reference.rows[lead]


@settings(max_examples=150, deadline=None)
@given(st.lists(_sparse, max_size=6), _sparse, _entry.filter(bool))
def test_echelon_insert_does_not_depend_on_the_scale_of_a_vector(prior, vec, factor):
    # Bounded closures queue tracker rows without dividing by the pivot and
    # rely on this: a multiple of a vector adds the same row, or none.
    plain, scaled = Echelon(), Echelon()
    for row in prior:
        plain.insert(row)
        scaled.insert(row)
    added = plain.insert(vec)
    assert scaled.insert({idx: factor * value for idx, value in vec.items()}) == added
    assert scaled.rows == plain.rows


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 6).flatmap(
        lambda cols: st.lists(st.lists(_entry, min_size=cols, max_size=cols), max_size=5)
    )
)
def test_rref_agrees_with_fraction_reference(matrix):
    reduced, pivots = rref(matrix)
    expected, expected_pivots = fraction_rref(matrix)
    assert pivots == expected_pivots
    assert reduced == expected
    assert [list(map(type, row)) for row in reduced] == [
        list(map(type, row)) for row in expected
    ]


@settings(max_examples=150, deadline=None)
@given(
    st.integers(0, 6).flatmap(
        lambda cols: st.tuples(
            st.just(cols),
            st.lists(st.lists(_entry, min_size=cols, max_size=cols), max_size=6),
        )
    )
)
def test_nullspace_of_sparse_rows_matches_dense_rows(case):
    # Zero rows become empty dicts; no rows at all is every vector.
    ncols, matrix = case
    sparse = [{col: v for col, v in enumerate(row) if v} for row in matrix]
    basis = nullspace(sparse, ncols=ncols)
    assert basis == nullspace(matrix, ncols=ncols)
    assert len(basis) == ncols - len(rref(matrix)[1])
    assert all(len(vec) == ncols for vec in basis)
    with pytest.raises(ValueError):
        nullspace(sparse or [{}])
