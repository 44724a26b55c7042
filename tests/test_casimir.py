"""Casimir assembly, diagonal form, spectrum and proof constants."""

import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import contactsym.casimir
from contactsym.casimir import (
    assemble_casimir,
    casimir_matrix,
    casimir_terms,
    closed_form_casimir,
    extract_scalar,
    image_columns,
    monomial_family,
    expansion_constants,
    diagonalization_witness,
    verify_diagonal_form,
)
from contactsym.contact import sp_basis
from contactsym.diffop import DiffOp
from contactsym.linalg import exact_nullspace
from contactsym.operators import decompose
from contactsym.poly import Poly
from contactsym.spectra import c_value, critical_set, eigenvalue
from contactsym.symbols import RModule, SymbolElem, lie_action_as_diffop


def test_c_value_formula():
    assert c_value(1, 0, Fraction(1, 3)) == Fraction(-8, 9)
    assert c_value(1, 1, Fraction(1)) == 2
    assert c_value(2, 3, Fraction(1, 2)) == Fraction(9, 4) - Fraction(9, 2) + Fraction(9, 2) + 3


def test_eigenvalue_examples():
    assert eigenvalue(1, 1, 0, Fraction(1)) == Fraction(2, 3)
    assert eigenvalue(1, 1, 1, Fraction(1)) == 0
    assert eigenvalue(2, 4, 0, Fraction(7)) == c_value(2, 4, Fraction(7)) / 4
    eps = [eigenvalue(1, 3, l, Fraction(1, 3)) for l in range(4)]
    assert len(set(eps)) == 4


def test_casimir_acts_as_scalar_on_weight_zero_constants():
    cas = assemble_casimir(1, 0, Fraction(0), "dual_sum")
    tab = RModule(1, 0, Fraction(0)).table
    assert cas.apply(Poly.one(tab)).is_zero()


def test_casimir_scalar_on_r0():
    cas = assemble_casimir(1, 0, Fraction(1, 3), "dual_sum")
    tab = RModule(1, 0, Fraction(1, 3)).table
    for exp in monomial_family(1, 0, 2)[1]:
        mono = Poly.monomial(tab, exp)
        assert cas.apply(mono) == mono.scale(Fraction(-8, 27))


def test_assemblies_agree_on_random_monomials():
    rng = random.Random(3)
    a = assemble_casimir(1, 2, Fraction(1, 3), "dual_sum")
    b = assemble_casimir(1, 2, Fraction(1, 3), "eq_casimir2")
    tab, family = monomial_family(1, 2, 4)
    for exp in rng.sample(family, 30):
        mono = Poly.monomial(tab, exp)
        assert a.apply(mono) == b.apply(mono)


def test_diagonal_form_engine():
    res = verify_diagonal_form(1, 1, Fraction(1), max_base_degree=3)
    assert res.verified and res.counterexample is None
    assert res.eigenvalues == (Fraction(2, 3), Fraction(0))
    doc = res.to_json()
    assert doc["c"] == "2" and doc["verified"] is True

    # C(xi_t) = 0 for n=1, k=1, delta=1
    tab = RModule(1, 1, Fraction(1)).table
    assert res.assembled.apply(Poly.variable(tab, "xi_t")).is_zero()


def test_closed_form_k0_is_scalar():
    op = closed_form_casimir(1, 0, Fraction(9, 5))
    tab = RModule(1, 0, Fraction(9, 5)).table
    from contactsym.diffop import DiffOp

    assert op == DiffOp.identity(tab).scale(c_value(1, 0, Fraction(9, 5)) / 3)


def _matrix(n, k, delta, base_degree):
    return casimir_matrix(assemble_casimir(n, k, delta), n, k, delta, base_degree)


def _dense(restricted):
    """The dense matrix <e_i, C e_j> of a restriction: the reference oracle."""
    index = {exp: i for i, exp in enumerate(restricted.family)}
    size = len(index)
    rows = [[Fraction(0)] * size for _ in range(size)]
    for j, exp in enumerate(restricted.family):
        for out_exp, coeff in restricted.images[exp].items():
            rows[index[out_exp]][j] = coeff
    return rows


def _shifted(rows, eps):
    return [[x - (eps if i == j else 0) for j, x in enumerate(row)] for i, row in enumerate(rows)]


def _dense_annihilated(restricted, spectrum):
    """prod_l (M - eps_l I) == 0, multiplied out densely."""
    rows = _dense(restricted)
    size = len(rows)
    acc = [[Fraction(int(i == j)) for j in range(size)] for i in range(size)]
    for eps in spectrum:
        shifted = _shifted(rows, eps)
        acc = [[sum((acc[i][r] * shifted[r][j] for r in range(size)), Fraction(0))
                for j in range(size)] for i in range(size)]
    return all(x == 0 for row in acc for x in row)


def _dense_dimension(restricted, eps):
    rows = _dense(restricted)
    return len(exact_nullspace(_shifted(rows, eps), len(rows)))


def test_casimir_matrix_cases():
    zero = _matrix(1, 0, Fraction(0), 1)
    assert not any(zero.images.values())
    assert len(zero.family) == 4 and not zero.overflow

    small = _matrix(1, 1, Fraction(1), 0)
    # only xi_t survives the closure shrink at D=0
    assert len(small.family) == 1
    assert small.images == {small.family[0]: {}}
    assert small.annihilated_by_spectrum()

    mid = _matrix(1, 1, Fraction(1), 1)
    assert len(mid.family) == 5 and mid.overflow
    assert mid.annihilated_by_spectrum()
    dims = [mid.eigenspace_dimension(eigenvalue(1, 1, l, Fraction(1))) for l in (0, 1)]
    assert sum(dims) == len(mid.family)

    big = _matrix(1, 2, Fraction(1, 3), 1)
    assert big.annihilated_by_spectrum()


@pytest.fixture(scope="module", params=[Fraction(1, 3), Fraction(-5, 6)], ids=str)
def restricted_n2k3(request):
    # At -5/6 the base-degree-2 span keeps 534 monomials, at 1/3 only 46.
    return _matrix(2, 3, request.param, 2)


def _applied(op, exp):
    """The column op(x^a xi^b) by DiffOp.apply: the oracle for image_columns."""
    return op.apply(Poly.monomial(op.table, exp)).terms


_R1 = RModule(1, 0, Fraction(0)).table


@st.composite
def _order_two_ops(draw):
    """Random operators of order <= 2 on the n = 1 R-table, base and fiber slots alike."""
    slots = st.lists(st.integers(0, _R1.size - 1), max_size=2).map(
        lambda idx: tuple(idx.count(i) for i in range(_R1.size))
    )
    coeff = st.dictionaries(
        slots, st.fractions(min_value=-3, max_value=3, max_denominator=3), max_size=3
    ).map(lambda terms: Poly(_R1, terms))
    return DiffOp(_R1, draw(st.dictionaries(slots, coeff, min_size=1, max_size=4)))


@settings(max_examples=30, deadline=None)
@given(
    st.integers(0, 3), st.integers(0, 2),
    st.fractions(min_value=-3, max_value=3, max_denominator=7), _order_two_ops(),
)
def test_image_columns_match_apply(k, base_degree, delta, op):
    # Base degree 2 against base derivatives of order <= 2 reaches both a
    # falling factorial above 1 and derivatives the exponents cannot absorb.
    if delta in critical_set(k, 1):
        delta += 7
    family = monomial_family(1, k, base_degree)[1]
    cas = assemble_casimir(1, k, delta)
    for operator in (cas, op):
        images = image_columns(operator, k, family)
        assert images == {exp: _applied(operator, exp) for exp in family}


def test_casimir_columns_match_apply_534_family():
    delta = Fraction(-5, 6)
    cas = assemble_casimir(2, 3, delta)
    restricted = casimir_matrix(cas, 2, 3, delta, 2)
    assert len(restricted.family) == 534
    for exp in restricted.family:
        assert restricted.images[exp] == _applied(cas, exp)


def test_casimir_matrix_makes_no_apply_call(monkeypatch):
    # The columns come from the restricted form: a later edit that falls
    # back to applying the Casimir per monomial fails here, not only slower.
    def refuse(*_):
        raise AssertionError("DiffOp.apply called")

    delta = Fraction(1, 3)
    cas = assemble_casimir(2, 3, delta)
    monkeypatch.setattr(DiffOp, "apply", refuse)
    restricted = casimir_matrix(cas, 2, 3, delta, 2)
    assert len(restricted.family) == 46
    assert restricted.annihilated_by_spectrum()


def test_eigenspaces_fill_the_family_n2k3(restricted_n2k3):
    mod = restricted_n2k3.module
    dims = [restricted_n2k3.eigenspace_dimension(eigenvalue(2, 3, l, mod.delta))
            for l in range(4)]
    assert sum(dims) == len(restricted_n2k3.family)


def test_shifted_top_eigenvalue_breaks_certificate(restricted_n2k3, monkeypatch):
    def shifted(n, k, l, delta):
        return eigenvalue(n, k, l, delta) + (1 if l == k else 0)

    assert restricted_n2k3.annihilated_by_spectrum()
    monkeypatch.setattr(contactsym.casimir, "eigenvalue", shifted)
    assert not restricted_n2k3.annihilated_by_spectrum()


@settings(max_examples=25, deadline=None)
@given(
    st.integers(0, 3), st.integers(0, 2),
    st.fractions(min_value=-3, max_value=3, max_denominator=7), st.integers(0, 1),
)
def test_sparse_spectrum_matches_dense_oracle(k, base_degree, delta, shift):
    # shift = 1 moves the top eigenvalue, so both verdicts of the certificate occur.
    if delta in critical_set(k, 1):
        delta += 7
    restricted = _matrix(1, k, delta, base_degree)
    spectrum = [eigenvalue(1, k, l, delta) + (shift if l == k else 0) for l in range(k + 1)]
    with mock.patch.object(contactsym.casimir, "eigenvalue", lambda n, k, l, d: spectrum[l]):
        assert restricted.annihilated_by_spectrum() == _dense_annihilated(restricted, spectrum)
    for eps in spectrum:
        assert restricted.eigenspace_dimension(eps) == _dense_dimension(restricted, eps)


def test_centrality_on_family():
    n, k, delta = 1, 2, Fraction(-5, 7)
    mod = RModule(n, k, delta)
    cas = assemble_casimir(n, k, delta, "dual_sum")
    basis = sp_basis(n)
    tab, family = monomial_family(n, k, 2)
    for g in basis.generators:
        act = lie_action_as_diffop(g.field, mod)
        comm = cas.compose(act) - act.compose(cas)
        for exp in family:
            assert comm.apply(Poly.monomial(tab, exp)).is_zero()


def test_spectrum_on_decomposition():
    n, k, delta = 1, 2, Fraction(1, 3)
    mod = RModule(n, k, delta)
    tab = mod.table
    cas = assemble_casimir(n, k, delta, "dual_sum")
    s = SymbolElem(
        Poly.variable(tab, "xi_p1") * Poly.variable(tab, "xi_t")
        + Poly.variable(tab, "p1") * Poly.variable(tab, "xi_q1") ** 2,
        mod,
    )
    dec = decompose(s)
    for l, lift in enumerate(dec.lifted):
        assert cas.apply(lift.poly) == lift.poly.scale(dec.eigenvalues[l])


def test_diagonalization_witness_in_kernel():
    from contactsym.operators import i_alpha

    for k in (1, 2, 3):
        mod = RModule(1, k, Fraction(1, 3))
        w = SymbolElem(diagonalization_witness(1, k), mod)
        assert i_alpha(w).is_zero()


@pytest.mark.parametrize("k", [1, 2])
def test_term_contributions_match_closed_forms(k):
    n, delta = 1, Fraction(1, 3)
    w = diagonalization_witness(n, k)
    a = 2 * (n + 1) * delta + k
    expected = [
        Fraction(0),
        Fraction(1, 4 * (n + 2)) * a * a,
        Fraction(0),
        Fraction(k, n + 2),
        Fraction(k * (n - 1), 2 * (n + 2)),
        Fraction(k * (n - 1 + k), 4 * (n + 2)),
        -Fraction(1, 2) * Fraction(n + 1, n + 2) * a,
        -Fraction(k * (n + 1), 4 * (n + 2)),
    ]
    got = [extract_scalar(term.apply(w), w) for term in casimir_terms(n, k, delta)]
    assert got == expected
    assert sum(got) == c_value(n, k, delta) / (n + 2)


def test_expansion_constants_recovered():
    c0, c1, c2 = expansion_constants(1, 2, Fraction(1, 3))
    assert c0 == c_value(1, 2, Fraction(1, 3)) / 3
    assert c1 == Fraction(1, 3)
    assert c2 == 0


def test_verify_reports_counterexample_on_false_claim(monkeypatch):
    # Deliberately wrong closed forms must be falsified with a witness.
    exact = closed_form_casimir
    for factor in (Fraction(2), Fraction(1001, 1000)):
        monkeypatch.setattr(
            contactsym.casimir, "closed_form_casimir",
            lambda n, k, delta: exact(n, k, delta).scale(factor),
        )
        res = verify_diagonal_form(1, 1, Fraction(1), max_base_degree=2)
        assert res.closed_form == exact(1, 1, Fraction(1)).scale(factor)
        assert res.verified is False
        assert res.to_json()["counterexample"] is not None
        w = res.counterexample
        assert res.assembled.apply(w) != res.closed_form.apply(w)


def test_diagonal_form_n2():
    cases = ((0, Fraction(1, 3)), (1, Fraction(-5, 7)), (2, Fraction(1, 3)), (3, Fraction(-5, 6)))
    for k, delta in cases:
        res = verify_diagonal_form(2, k, delta)
        assert res.verified and res.counterexample is None, (k, delta)


def test_assembly_equivalence_n2():
    a = assemble_casimir(2, 1, Fraction(1, 3), "dual_sum")
    b = assemble_casimir(2, 1, Fraction(1, 3), "eq_casimir2")
    tab, family = monomial_family(2, 1, 2)
    for exp in family:
        mono = Poly.monomial(tab, exp)
        assert a.apply(mono) == b.apply(mono)
