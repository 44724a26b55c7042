"""Contraction, generalized Hamiltonian, decomposition, classification."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contactsym.casimir import assemble_casimir
from contactsym.contact import sp_basis
from contactsym.enumeration import exponents_of_degree, exponents_up_to
from contactsym.errors import CriticalWeightError, StructuralError
from contactsym.operators import (
    classify_same_weight,
    decompose,
    fiber_restriction,
    gen_hamiltonian,
    gen_hamiltonian_module_op,
    i_alpha,
    i_alpha_module_op,
    intertwines_all_generators,
    predicted_same_weight_ops,
    restriction_coordinates,
    same_weight_predicted_count,
)
from contactsym.diffop import DiffOp
from contactsym.linalg import rank
from contactsym.poly import Poly
from contactsym.spectra import commutation_r, critical_set, eigenvalue
from contactsym.symbols import RModule, SModule, SymbolElem


def elem(poly, mod):
    return SymbolElem(poly, mod)


def fiber_euler_op(tab):
    """E_xi = sum over the whole xi block of v d_v."""
    out = DiffOp.zero(tab)
    for idx in tab.block_range("xi"):
        out = out + DiffOp.partial(tab, idx, Poly.variable(tab, idx))
    return out


def test_i_alpha_examples():
    mod = RModule(1, 1, Fraction(1))
    tab = mod.table
    assert i_alpha(elem(Poly.variable(tab, "xi_t"), mod)).poly == Poly.constant(
        table_of(mod.contracted()), Fraction(-1, 2)
    )
    s = elem(Poly.variable(tab, "p1") * Poly.variable(tab, "xi_q1"), mod)
    out = i_alpha(s)
    p1 = Poly.variable(out.poly.table, "p1")
    assert out.poly == (p1 * p1).scale(Fraction(1, 2))
    zero_mod = RModule(1, 0, Fraction(1))
    z = i_alpha(elem(Poly.one(zero_mod.table), zero_mod))
    assert z.is_zero()


def table_of(mod):
    return mod.table


def test_i_alpha_weight_shift():
    mod = SModule(1, 2, 0, 0, Fraction(3, 4))
    out_mod = i_alpha(elem(Poly.variable(mod.table, "xi_t") ** 2, mod)).module
    assert out_mod.nu == Fraction(3, 4) - Fraction(1, 2)
    assert out_mod.k == 1


def test_gen_hamiltonian_examples():
    r0 = RModule(1, 0, Fraction(5, 7))
    out = gen_hamiltonian(elem(Poly.one(r0.table), r0))
    xi_t = Poly.variable(out.poly.table, "xi_t")
    assert out.poly == xi_t.scale(2 * 2 * Fraction(5, 7))

    s00 = SModule(1, 0, 0, 0, Fraction(0))
    assert gen_hamiltonian(elem(Poly.one(s00.table), s00)).is_zero()

    s1 = SModule(1, 1, 0, 0, Fraction(4, 5))
    src = elem(Poly.variable(s1.table, "xi_t"), s1)
    out = gen_hamiltonian(src)
    xi_t = Poly.variable(out.poly.table, "xi_t")
    assert out.poly == (xi_t * xi_t).scale(2 * 2 * Fraction(4, 5) - 1)


def test_commutation_scalars():
    assert commutation_r(0, 5, Fraction(9, 2), 3) == 0
    assert commutation_r(1, 0, Fraction(1), 1) == Fraction(-2)
    # operator identity on R^0_delta: i_a X (1) - X i_a (1) = -(n+1) delta
    delta = Fraction(3, 5)
    r0 = RModule(1, 0, delta)
    one = elem(Poly.one(r0.table), r0)
    lhs = i_alpha(gen_hamiltonian(one))
    assert lhs.poly == Poly.one(lhs.poly.table).scale(-2 * delta)
    assert commutation_r(1, 0, delta, 1) == -2 * delta


def test_critical_set():
    assert critical_set(0, 1).members == ()
    assert critical_set(2, 1).members == (Fraction(0), Fraction(-1, 4), Fraction(-1, 2))
    assert critical_set(1, 2).members == (Fraction(0),)


@pytest.mark.parametrize("delta", [Fraction(1, 3), Fraction(-5, 7), Fraction(2)])
@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_commutation_identity(k, delta):
    n = 1
    mod = RModule(n, k, delta)
    tab = mod.table
    fibers = exponents_of_degree(tab.base_size, k)
    bases = exponents_up_to(tab.base_size, 3)
    for l in range(4):
        r = commutation_r(l, k, delta, n)
        for bexp in bases:
            for fexp in fibers:
                s = elem(Poly.monomial(tab, bexp + fexp), mod)
                up = s
                for _ in range(l):
                    up = gen_hamiltonian(up)
                lhs = i_alpha(up)
                if l == 0:
                    rhs = i_alpha(s)
                else:
                    mid = s
                    for _ in range(l - 1):
                        mid = gen_hamiltonian(mid)
                    rhs = mid.scale(r)
                    if k > 0:
                        down = i_alpha(s)
                        for _ in range(l):
                            down = gen_hamiltonian(down)
                        rhs = rhs + down
                assert lhs == rhs


def test_decompose_examples():
    delta = Fraction(2, 3)
    mod = RModule(1, 1, delta)
    tab = mod.table
    s = elem(Poly.variable(tab, "xi_t"), mod)
    dec = decompose(s)
    t1 = dec.components[1]
    assert t1.poly == Poly.one(t1.poly.table).scale(Fraction(1, 2 * 2 * delta))
    assert dec.components[0].is_zero()
    assert dec.lifted[1] == s

    k0 = RModule(1, 0, Fraction(4))
    c = elem(Poly.variable(k0.table, "p1"), k0)
    assert decompose(c).components[0] == c

    # elements of ker i_alpha decompose as pure T_0
    mod2 = RModule(1, 2, Fraction(5, 3))
    from contactsym.casimir import diagonalization_witness

    w = elem(diagonalization_witness(1, 2), mod2)
    dec2 = decompose(w)
    assert dec2.components[0] == w
    assert all(dec2.components[l].is_zero() for l in (1, 2))


def test_decompose_rejects_critical_weight():
    mod = RModule(1, 1, Fraction(0))
    s = elem(Poly.variable(mod.table, "xi_t"), mod)
    with pytest.raises(CriticalWeightError) as err:
        decompose(s)
    assert err.value.p == 0


def test_decompose_random_with_casimir_eigenvectors():
    n, k, delta = 1, 3, Fraction(1, 3)
    mod = RModule(n, k, delta)
    tab = mod.table
    cas = assemble_casimir(n, k, delta, "dual_sum")
    eps = [eigenvalue(n, k, l, delta) for l in range(k + 1)]
    rng = random.Random(11)
    fibers = exponents_of_degree(tab.base_size, k)
    bases = exponents_up_to(tab.base_size, 3)
    for _ in range(10):
        acc = {}
        for _ in range(5):
            exp = rng.choice(bases) + rng.choice(fibers)
            acc[exp] = acc.get(exp, Fraction(0)) + Fraction(rng.randint(-5, 5))
        s = elem(Poly(tab, acc), mod)
        dec = decompose(s)
        assert dec.reconstruction() == s
        for l, lift in enumerate(dec.lifted):
            assert cas.apply(lift.poly) == lift.poly.scale(eps[l])
            assert i_alpha(dec.components[l]).is_zero()


def test_module_op_composition_guard():
    mod = RModule(1, 2, Fraction(1, 3))
    drop = i_alpha_module_op(mod)
    lift = gen_hamiltonian_module_op(mod)  # source R^2, not R^1
    with pytest.raises(StructuralError):
        lift.compose(drop)
    ok = gen_hamiltonian_module_op(drop.target).compose(drop)
    assert ok.source == mod and ok.target == mod


@pytest.mark.parametrize(
    "l,k",
    [(1, 1), (2, 1), (1, 2), (2, 2), (2, 0), (0, 1)],
)
def test_classify_same_weight(l, k):
    n, delta, bound = 1, Fraction(1, 3), 2
    dim, ops = classify_same_weight(n, l, k, delta, bound)
    assert dim == same_weight_predicted_count(l, k, bound)
    basis = sp_basis(n)
    for op in ops:
        assert intertwines_all_generators(op, basis)
    predicted = predicted_same_weight_ops(n, l, k, delta, bound)
    vecs, slots = restriction_coordinates(ops + predicted, l)
    ncols = len(slots)
    mat = [[v.get(i, Fraction(0)) for i in range(ncols)] for v in vecs]
    assert rank(mat, ncols) == rank(mat[:dim], ncols) == dim


def test_classify_at_example_bounds():
    n, delta = 1, Fraction(1, 3)
    # order bound 1: identity and X o i_alpha
    dim, _ = classify_same_weight(n, 1, 1, delta, 1)
    assert dim == 2
    # (l, k) = (0, 1): only X survives
    dim, ops = classify_same_weight(n, 0, 1, delta, 1)
    assert dim == 1
    x_op = predicted_same_weight_ops(n, 0, 1, delta, 1)[0]
    vecs, slots = restriction_coordinates(ops + [x_op], 0)
    mat = [[v.get(i, Fraction(0)) for i in range(len(slots))] for v in vecs]
    assert rank(mat, len(slots)) == 1
    # (l, k) = (2, 0) at order bound 0: the pure double contraction
    dim, ops = classify_same_weight(n, 2, 0, delta, 0)
    assert dim == 1
    mod = RModule(n, 2, delta)
    tab = mod.table
    s = SymbolElem(Poly.variable(tab, "xi_t") * Poly.variable(tab, "xi_q1"), mod)
    out = ops[0].apply(s)  # target validity is enforced by the module contract
    assert out.module == RModule(n, 0, delta)


def test_predicted_ops_apply_with_declared_shift():
    n, delta = 1, Fraction(1, 3)
    ops = predicted_same_weight_ops(n, 2, 1, delta, 2)
    mod = RModule(n, 2, delta)
    tab = mod.table
    s = elem(Poly.variable(tab, "xi_t") * Poly.variable(tab, "xi_q1"), mod)
    for op in ops:
        out = op.apply(s)
        assert out.module == RModule(n, 1, delta)


def test_fiber_restriction_detects_annihilator():
    # E_xi - k annihilates fiber degree k exactly.
    mod = RModule(1, 2, Fraction(0))
    tab = mod.table
    op = fiber_euler_op(tab) - DiffOp.identity(tab).scale(2)
    assert fiber_restriction(op, 2) == {}
    assert fiber_restriction(op, 1) != {}


R_TAB = RModule(1, 0, Fraction(0)).table
unit_exponent = st.tuples(*[st.integers(0, 1)] * R_TAB.size)
small_polys = st.dictionaries(
    unit_exponent, st.integers(-3, 3).map(Fraction), min_size=1, max_size=2
).map(lambda terms: Poly(R_TAB, terms))
small_ops = st.dictionaries(unit_exponent, small_polys, max_size=3).map(
    lambda terms: DiffOp(R_TAB, terms)
)


@settings(max_examples=60, deadline=None)
@given(small_ops, small_ops, st.integers(0, 2))
def test_fiber_restriction_matches_evaluation(a, b, k):
    # b o (E_xi - k) annihilates fiber degree k, so both outcomes occur.
    op = a + b.compose(fiber_euler_op(R_TAB) - DiffOp.identity(R_TAB).scale(k))
    nb = R_TAB.base_size
    monomials = [
        Poly.monomial(R_TAB, base + fiber)
        for base in exponents_up_to(nb, op.order())
        for fiber in exponents_of_degree(nb, k)
    ]
    assert (fiber_restriction(op, k) == {}) == all(not op.apply(m) for m in monomials)


def test_classify_n2_spot():
    dim, ops = classify_same_weight(2, 1, 1, Fraction(1, 3), 1)
    assert dim == same_weight_predicted_count(1, 1, 1)
    basis = sp_basis(2)
    for op in ops:
        assert intertwines_all_generators(op, basis)


def test_classify_rows_need_no_compose(monkeypatch):
    # Rows and rechecks come from DiffOp.commutator alone: a later edit that
    # falls back to full products fails here instead of only running slower.
    def refuse(*_):
        raise AssertionError("DiffOp.compose called")

    monkeypatch.setattr(DiffOp, "compose", refuse)
    dim, ops = classify_same_weight(1, 1, 1, Fraction(1, 3), 2)
    assert dim == same_weight_predicted_count(1, 1, 2)
    basis = sp_basis(1)
    assert all(intertwines_all_generators(op, basis) for op in ops)


def test_decompose_n2():
    mod = RModule(2, 2, Fraction(1, 3))
    tab = mod.table
    rng = random.Random(1)
    fibers = exponents_of_degree(tab.base_size, 2)
    bases = exponents_up_to(tab.base_size, 2)
    acc = {}
    for _ in range(5):
        exp = rng.choice(bases) + rng.choice(fibers)
        acc[exp] = acc.get(exp, Fraction(0)) + Fraction(rng.randint(-5, 5))
    s = elem(Poly(tab, acc), mod)
    dec = decompose(s)
    assert dec.reconstruction() == s
    for comp in dec.components:
        assert i_alpha(comp).is_zero()
