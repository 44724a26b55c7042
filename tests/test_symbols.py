"""Symbol modules and the Lie-derivative actions on them."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contactsym.contact import contact_hamiltonian, divergence, sp_basis, vfield_bracket
from contactsym.enumeration import exponents_of_degree, exponents_up_to
from contactsym.errors import StructuralError
from contactsym.poly import Poly
from contactsym.selftest import _lie_action_oracle
from contactsym.symbols import (
    RModule,
    SModule,
    SymbolElem,
    lie_action_as_diffop,
    lie_action_symbol,
    weight_unit,
)
from contactsym.diffop import DiffOp
from contactsym.vartable import table

BASE = table(1, ())


def density_action(x, f, lam):
    """L^lam_X f = X(f) + lam * f * div(X): the action on S^{00}_{0; lam}."""
    return lie_action_symbol(x, SymbolElem(f, SModule(f.table.n, 0, nu=lam))).poly


# -- named Euler-type operators ---------------------------------------------


def _euler_op(tab, indices):
    """sum v d_v over the given variable indices."""
    out = DiffOp.zero(tab)
    for idx in indices:
        out = out + DiffOp.partial(tab, idx, Poly.variable(tab, idx))
    return out


def spatial_euler_op(tab):
    """E_s = sum_s x_s d_{x_s} over the spatial base variables."""
    return _euler_op(tab, tab.spatial_base())


def base_euler_op(tab):
    """Full base Euler field, including t d_t."""
    return _euler_op(tab, tab.base_range)


def fiber_euler_op(tab, block="xi"):
    """E_block = sum over the whole fiber block of v d_v."""
    return _euler_op(tab, tab.block_range(block))


def fiber_spatial_euler_op(tab, block="xi"):
    """Spatial part of the fiber Euler operator (omits the t slot)."""
    return _euler_op(tab, [tab.fiber(block, a) for a in tab.spatial_base()])


def euler_contraction_poly(tab, block="xi"):
    """E(xi) = sum_s x_s xi_s + t xi_t, the pairing of the Euler field with xi."""
    out = Poly.zero(tab)
    for a in tab.base_range:
        out = out + Poly.variable(tab, a) * Poly.variable(tab, tab.fiber(block, a))
    return out


def test_module_weights():
    mod = RModule(1, 2, Fraction(1, 3))
    assert mod.weight == Fraction(1, 3) + Fraction(2, 2)
    assert mod.blocks == ("xi",)
    s = SModule(2, 1, 0, 1, Fraction(1, 3))
    assert s.weight == Fraction(1, 3)
    assert s.blocks == ("xi", "Y")
    assert weight_unit(2) == Fraction(1, 3)


def test_homogeneity_enforced():
    mod = RModule(1, 2, Fraction(0))
    tab = mod.table
    bad = Poly.variable(tab, "xi_t")  # degree 1, not 2
    with pytest.raises(StructuralError):
        SymbolElem(bad, mod)


def test_action_trivial_cases():
    basis = sp_basis(1)
    mod = RModule(1, 1, Fraction(2, 5))
    tab = mod.table
    s = SymbolElem(Poly.variable(tab, "xi_p1") * Poly.variable(tab, "p1"), mod)
    # X_1 = -2 d_t kills t-free symbols: constant coefficients, zero divergence
    assert lie_action_symbol(basis.field("1"), s).is_zero()


@pytest.mark.parametrize("delta", [Fraction(0), Fraction(1, 3), Fraction(2)])
def test_action_xt_weight_scalar(delta):
    basis = sp_basis(1)
    mod = RModule(1, 1, delta)
    tab = mod.table
    s = SymbolElem(Poly.variable(tab, "xi_t"), mod)
    out = lie_action_symbol(basis.field("t"), s)
    assert out.poly == Poly.variable(tab, "xi_t").scale(-4 * delta)


def test_action_transfer_term():
    basis = sp_basis(1)
    mod = RModule(1, 1, Fraction(7, 3))
    tab = mod.table
    s = SymbolElem(Poly.variable(tab, "xi_p1"), mod)
    assert lie_action_symbol(basis.field("p1"), s).poly == Poly.variable(tab, "xi_t")


def test_action_diffop_closed_forms():
    # The operator forms of the generator actions on R^k_delta.
    n, k, delta = 1, 2, Fraction(1, 3)
    mod = RModule(n, k, delta)
    tab = mod.table
    basis = sp_basis(n)
    scalar = 2 * ((n + 1) * delta + k)

    l_x1 = lie_action_as_diffop(basis.field("1"), mod)
    assert l_x1 == DiffOp.partial(tab, "t").scale(-2)

    l_xt = lie_action_as_diffop(basis.field("t"), mod)
    expected = (
        -spatial_euler_op(tab)
        - DiffOp.partial(tab, "t", Poly.variable(tab, "t").scale(2))
        + fiber_spatial_euler_op(tab)
        + DiffOp.partial(tab, "xi_t", Poly.variable(tab, "xi_t").scale(2))
        - DiffOp.identity(tab).scale(scalar)
    )
    assert l_xt == expected

    l_t2 = lie_action_as_diffop(basis.field("t2"), mod)
    t_poly = Poly.variable(tab, "t")
    expected_t2 = (
        _scale_op(base_euler_op(tab), t_poly.scale(-2))
        + _scale_op(fiber_euler_op(tab), t_poly.scale(2))
        + DiffOp.partial(tab, "xi_t", euler_contraction_poly(tab).scale(2))
        - DiffOp.multiplication(t_poly.scale(2 * scalar))
    )
    assert l_t2 == expected_t2


def _scale_op(op, poly):
    return DiffOp(op.table, {m: poly * c for m, c in op.terms.items()})


def test_action_diffop_agrees_with_symbol_action():
    rng = random.Random(5)
    n = 1
    basis = sp_basis(n)
    mod = RModule(n, 2, Fraction(-5, 7))
    tab = mod.table
    fibers = exponents_of_degree(tab.base_size, 2)
    bases = exponents_up_to(tab.base_size, 3)
    for g in basis.generators:
        op = lie_action_as_diffop(g.field, mod)
        for _ in range(20):
            exp = rng.choice(bases) + rng.choice(fibers)
            mono = Poly.monomial(tab, exp)
            want = _lie_action_oracle(g.field, mono, mod)
            assert op.apply(mono) == want
            assert lie_action_symbol(g.field, SymbolElem(mono, mod)).poly == want


N1_LABELS = [g.label for g in sp_basis(1).generators]
weights = st.fractions(min_value=-2, max_value=2, max_denominator=7)


@st.composite
def s_symbols(draw):
    """A random element of an n=1 S-module with xi, eta and Y blocks."""
    mod = SModule(1, *(draw(st.integers(1, 2)) for _ in range(3)), draw(weights))
    tab = mod.table
    nb = tab.base_size
    fibers = [exponents_of_degree(nb, d) for d in (mod.k, mod.m, mod.l)]
    terms = {}
    for _ in range(draw(st.integers(1, 3))):
        exp = draw(st.sampled_from(exponents_up_to(nb, 2)))
        for block in fibers:
            exp += draw(st.sampled_from(block))
        terms[exp] = Fraction(draw(st.integers(1, 3)))
    return SymbolElem(Poly(tab, terms), mod)


@settings(max_examples=40, deadline=None)
@given(s_symbols(), st.sampled_from(N1_LABELS), st.sampled_from(N1_LABELS), weights)
def test_action_routes_agree_on_s_modules(s, la, lb, nu):
    basis = sp_basis(1)
    mod = s.module
    other = SModule(1, mod.k, mod.m, mod.l, nu)
    xa = basis.field(la)
    for x in (xa, vfield_bracket(xa, basis.field(lb))):
        want = _lie_action_oracle(x, s.poly, mod)
        op = lie_action_as_diffop(x, mod)
        assert lie_action_symbol(x, s).poly == want
        assert op.apply(s.poly) == want
        # Only w * div X depends on the weight.
        shift = divergence(x).convert(mod.table).scale(mod.nu - nu)
        assert op - lie_action_as_diffop(x, other) == DiffOp.multiplication(shift)


def test_density_action_examples():
    tab = BASE
    t = Poly.variable(tab, "t")
    from contactsym.contact import VField

    dt = VField(tab, [Poly.zero(tab), Poly.zero(tab), Poly.one(tab)])
    assert density_action(dt, t, Fraction(9, 4)) == Poly.one(tab)

    xt = contact_hamiltonian(t, 1)
    assert density_action(xt, Poly.one(tab), Fraction(-1, 2)) == Poly.constant(tab, 2)

    # representation property of the density action over one bracket
    xp = contact_hamiltonian(Poly.variable(tab, "p1"), 1)
    lam = Fraction(3, 7)
    f = Poly.variable(tab, "p1")
    lhs = density_action(vfield_bracket(xt, xp), f, lam)
    rhs = density_action(xt, density_action(xp, f, lam), lam) - density_action(
        xp, density_action(xt, f, lam), lam
    )
    assert lhs == rhs


def test_bracket_as_density_action():
    n = 1
    tab = BASE
    lam = Fraction(-1, n + 1)
    from contactsym.contact import lagrange_bracket

    monos = [Poly.monomial(tab, e) for e in exponents_up_to(tab.size, 3)]
    for h in monos:
        xh = contact_hamiltonian(h, n)
        for g in monos:
            assert lagrange_bracket(h, g, n) == density_action(xh, g, lam)


@pytest.mark.parametrize("delta", [Fraction(0), Fraction(1, 3), Fraction(2)])
@pytest.mark.parametrize("k", [0, 1, 2])
def test_representation_property(k, delta):
    n = 1
    basis = sp_basis(n)
    mod = RModule(n, k, delta)
    tab = mod.table
    fibers = exponents_of_degree(tab.base_size, k)
    bases = exponents_up_to(tab.base_size, 2)
    exps = [b + f for b in bases for f in fibers]
    rng = random.Random((k, str(delta)).__repr__())
    labels = [g.label for g in basis.generators]
    for _ in range(12):
        la, lb = rng.choice(labels), rng.choice(labels)
        xa, xb = basis.field(la), basis.field(lb)
        br = vfield_bracket(xa, xb)
        exp = rng.choice(exps)
        s = SymbolElem(Poly.monomial(tab, exp), mod)
        lhs = lie_action_symbol(br, s)
        rhs = lie_action_symbol(xa, lie_action_symbol(xb, s)) - lie_action_symbol(
            xb, lie_action_symbol(xa, s)
        )
        assert lhs == rhs


def test_fiber_degree_preserved():
    basis = sp_basis(1)
    mod = SModule(1, 1, 1, 1, Fraction(1, 2))
    tab = mod.table
    poly = (
        Poly.variable(tab, "xi_p1")
        * Poly.variable(tab, "eta_t")
        * Poly.variable(tab, "Y_q1")
        * Poly.variable(tab, "q1")
    )
    s = SymbolElem(poly, mod)
    out = lie_action_symbol(basis.field("tq1"), s)
    assert out.module == mod  # constructor re-checks homogeneity degrees


def test_symbol_product_adds_degrees_and_weights():
    u4_like = SymbolElem(
        Poly.variable(table(1, ("xi",)), "xi_t"), SModule(1, 1, 0, 0, Fraction(1, 2))
    )
    u3_like = SymbolElem(
        Poly.variable(table(1, ("Y",)), "Y_t"), SModule(1, 0, 0, 1, Fraction(-1, 2))
    )
    prod = u4_like * u3_like
    assert prod.module == SModule(1, 1, 0, 1, Fraction(0))
    assert prod.module.blocks == ("xi", "Y")


def test_symbol_serialization_headers():
    r_elem = SymbolElem(
        Poly.variable(table(1, ("xi",)), "xi_t"), RModule(1, 1, Fraction(-2, 3))
    )
    doc = r_elem.to_json()
    assert doc["module"] == "R" and doc["k"] == 1 and doc["delta"] == "-2/3"
    assert doc["poly"]["terms"] == [{"coeff": "1", "exp": {"xi_t": 1}}]

    s_elem = SymbolElem(
        Poly.variable(table(1, ("eta",)), "eta_t"), SModule(1, 0, 1, 0, Fraction(1, 2))
    )
    doc = s_elem.to_json()
    assert doc["module"] == "S"
    assert (doc["k"], doc["m"], doc["l"], doc["nu"]) == (0, 1, 0, "1/2")
