"""Exact polynomial, operator and linear-algebra substrate."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contactsym.diffop import DiffOp
from contactsym.errors import TableMismatchError, UnknownVariableError
from contactsym.linalg import exact_nullspace, sparse_nullspace
from contactsym.poly import Poly, poly_from_json
from contactsym.vartable import table

TAB = table(1, ("xi",))
BASE = table(1, ())


def var(name, tab=TAB):
    return Poly.variable(tab, name)


def const(c, tab=TAB):
    return Poly.constant(tab, c)


# -- polynomial arithmetic ----------------------------------------------------


def test_ring_identities():
    x = var("p1")
    assert (x + const(1)) * (x - const(1)) == x * x - const(1)
    assert var("p1") * var("q1") + Poly.zero(TAB) == var("p1") * var("q1")
    assert var("p1").scale(Fraction(1, 2)) * var("p1").scale(Fraction(1, 3)) == (
        var("p1") * var("p1")
    ).scale(Fraction(1, 6))


def test_partial_derivatives():
    p, q, t = var("p1"), var("q1"), var("t")
    assert (p * p * q).diff("p1") == (p * q).scale(2)
    assert p.diff("t") == Poly.zero(TAB)
    xt = var("xi_t")
    assert (xt * xt).diff("xi_t") == xt.scale(2)


def test_table_mismatch_and_unknown_variable():
    with pytest.raises(TableMismatchError):
        var("p1", TAB) + var("p1", BASE)
    with pytest.raises(UnknownVariableError):
        var("p1").diff("eta_t")
    with pytest.raises(UnknownVariableError):
        Poly.variable(BASE, "xi_t")


def test_json_round_trip():
    poly = (var("p1") * var("xi_t")).scale(Fraction(-3, 7)) + const(2)
    doc = poly.to_json()
    assert doc["blocks"] == ["xi"]
    assert poly_from_json(doc) == poly


exponent = st.tuples(*[st.integers(0, 2)] * TAB.size)
coefficient = st.fractions(
    min_value=Fraction(-5), max_value=Fraction(5), max_denominator=4
)


def polys(max_terms=4):
    return st.dictionaries(exponent, coefficient, max_size=max_terms).map(
        lambda terms: Poly(TAB, terms)
    )


@settings(max_examples=60, deadline=None)
@given(polys(), polys(), polys())
def test_distributivity(a, b, c):
    assert (a + b) * c == a * c + b * c


@settings(max_examples=60, deadline=None)
@given(polys(), polys(), st.integers(0, TAB.size - 1))
def test_diff_is_derivation(a, b, idx):
    assert (a * b).diff(idx) == a.diff(idx) * b + a * b.diff(idx)


# -- differential operators ---------------------------------------------------


def test_apply_examples():
    x = var("p1")
    dx = DiffOp.partial(TAB, "p1")
    assert dx.apply(x * x) == x.scale(2)
    euler = DiffOp.partial(TAB, "p1", x)
    assert euler.apply(x**3) == (x**3).scale(3)
    assert DiffOp.identity(TAB).apply(x * var("q1")) == x * var("q1")


def test_canonical_commutation():
    dx = DiffOp.partial(TAB, "p1")
    mul_x = DiffOp.multiplication(var("p1"))
    assert dx.compose(mul_x) == mul_x.compose(dx) + DiffOp.identity(TAB)


def test_euler_square_against_application_oracle():
    # (x d_x)^2 should act as m^2 on x^m; matching x^2 d_x^2 + x d_x.
    x = var("p1")
    euler = DiffOp.partial(TAB, "p1", x)
    squared = euler.compose(euler)
    expected = DiffOp(
        TAB,
        {
            tuple(2 if i == 0 else 0 for i in range(TAB.size)): x * x,
            tuple(1 if i == 0 else 0 for i in range(TAB.size)): x,
        },
    )
    for m in range(4):
        target = x**m
        assert squared.apply(target) == euler.apply(euler.apply(target))
        assert squared.apply(target) == expected.apply(target)
    assert squared == expected


def test_compose_identity_neutral():
    op = DiffOp.partial(TAB, "q1", var("p1") * var("q1")) + DiffOp.identity(TAB).scale(3)
    assert op.compose(DiffOp.identity(TAB)) == op
    assert DiffOp.identity(TAB).compose(op) == op


def operator_strategy():
    def build(entries):
        terms = {}
        for midx, poly in entries:
            if poly:
                prev = terms.get(midx)
                terms[midx] = poly if prev is None else prev + poly
        return DiffOp(TAB, terms)

    midx = st.tuples(*[st.integers(0, 1)] * TAB.size)
    return st.lists(st.tuples(midx, polys(2)), min_size=1, max_size=2).map(build)


@settings(max_examples=25, deadline=None)
@given(operator_strategy(), operator_strategy(), operator_strategy())
def test_compose_associativity(a, b, c):
    assert a.compose(b).compose(c) == a.compose(b.compose(c))


@settings(max_examples=25, deadline=None)
@given(operator_strategy(), operator_strategy(), polys())
def test_compose_matches_application(a, b, f):
    assert a.compose(b).apply(f) == a.apply(b.apply(f))


# -- exact nullspace ----------------------------------------------------------


def test_nullspace_examples():
    basis = exact_nullspace([[1, 2], [2, 4]], 2)
    assert basis == [[Fraction(-2), Fraction(1)]]
    assert exact_nullspace([[1, 0, 0], [0, 1, 0], [0, 0, 1]], 3) == []
    zero = exact_nullspace([[0, 0, 0], [0, 0, 0]], 3)
    assert len(zero) == 3


def test_nullspace_exactness_and_independence():
    m = [
        [Fraction(1, 3), Fraction(2), Fraction(-1), Fraction(0)],
        [Fraction(2), Fraction(12), Fraction(-6), Fraction(0)],
        [Fraction(0), Fraction(1), Fraction(5), Fraction(7)],
    ]
    basis = exact_nullspace(m, 4)
    assert len(basis) == 2  # the second row is 6x the first
    for row in m:
        for v in basis:
            assert sum(a * b for a, b in zip(row, v)) == 0


@st.composite
def sparse_matrices(draw):
    ncols = draw(st.integers(1, 6))
    entry = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    row = st.dictionaries(st.integers(0, ncols - 1), entry, max_size=ncols)
    return draw(st.lists(row, max_size=5)), ncols


@settings(max_examples=150, deadline=None)
@given(sparse_matrices())
def test_sparse_matches_dense(matrix):
    """The echelon engine returns exactly sympy's kernel basis."""
    sympy = pytest.importorskip("sympy")
    rows, ncols = matrix
    dense = [[r.get(c, Fraction(0)) for c in range(ncols)] for r in rows]
    oracle = sympy.Matrix(len(rows), ncols, [sympy.Rational(c.numerator, c.denominator)
                                              for r in dense for c in r])
    ref = [[Fraction(int(x.p), int(x.q)) for x in v] for v in oracle.nullspace()]
    assert sparse_nullspace(rows, ncols) == ref
    assert exact_nullspace(dense, ncols) == ref
