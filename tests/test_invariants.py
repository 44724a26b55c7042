"""Classical invariants, the counting system, and the kernel solver."""

from fractions import Fraction

import pytest

from contactsym.contact import sp_basis
from contactsym.errors import DomainError
from contactsym.invariants import (
    GENERATOR_NAMES,
    InvariantQuery,
    classical_product,
    count_S1,
    generator,
    invariant_space_dim,
    invariants_report,
    monomial_basis_classical,
    s1_solutions,
)
from contactsym.linalg import Echelon
from contactsym.poly import Poly
from contactsym.symbols import SModule, lie_action_symbol, weight_unit


def test_generator_local_forms():
    u4 = generator("u4", 1).elem
    tab = u4.poly.table
    assert u4.poly == Poly.variable(tab, "xi_t").scale(-2)
    assert u4.module == SModule(1, 1, 0, 0, Fraction(1, 2))

    u3 = generator("u3", 1).elem
    tab = u3.poly.table
    expected = (
        Poly.variable(tab, "p1") * Poly.variable(tab, "Y_q1")
        - Poly.variable(tab, "q1") * Poly.variable(tab, "Y_p1")
        - Poly.variable(tab, "Y_t")
    ).scale(Fraction(1, 2))
    assert u3.poly == expected
    assert u3.module.nu == -weight_unit(1)

    l1 = generator("L1", 1).elem
    tab = l1.poly.table
    v = lambda name: Poly.variable(tab, name)
    expected = (
        v("xi_p1") * v("eta_q1")
        - v("xi_q1") * v("eta_p1")
        + v("eta_t") * (v("p1") * v("xi_p1") + v("q1") * v("xi_q1"))
        - v("xi_t") * (v("p1") * v("eta_p1") + v("q1") * v("eta_q1"))
    )
    assert l1.poly == expected

    with pytest.raises(DomainError):
        generator("u9", 1)


@pytest.mark.parametrize("n", [1, 2])
def test_generator_invariance(n):
    basis = sp_basis(n)
    affine = (
        ["1", "t"]
        + [f"p{i}" for i in range(1, n + 1)]
        + [f"q{i}" for i in range(1, n + 1)]
        + [g.label for g in basis.generators
           if "t" not in g.label and sum(c in "pq" for c in g.label) == 2]
    )
    for name in GENERATOR_NAMES:
        el = generator(name, n).elem
        for lbl in affine:
            assert lie_action_symbol(basis.field(lbl), el).is_zero(), (name, lbl)
        t2_kills = lie_action_symbol(basis.field("t2"), el).is_zero()
        assert t2_kills == (name not in ("u4", "u5"))


def test_count_S1_examples():
    assert count_S1(1, 0, 0, 0, Fraction(0)) == 1
    assert count_S1(1, 1, 0, 1, Fraction(0)) == 2
    assert count_S1(1, 1, 0, 1, Fraction(0), contact_only=True) == 1
    assert count_S1(1, 1, 1, 0, Fraction(1, 2)) == 1
    assert count_S1(2, 1, 1, 0, Fraction(1, 3)) == 1  # the L1 monomial at n=2
    assert count_S1(1, 1, 0, 1, Fraction(1, 3)) == 0  # (n+1)nu not an integer


def test_s1_solutions_listing():
    sols = s1_solutions(1, 1, 0, 1, Fraction(0))
    assert sols == [(0, 0, 1, 1, 0, 0), (1, 0, 0, 0, 0, 0)]


def test_monomial_basis_examples():
    basis = monomial_basis_classical(1, 1, 0, 1, Fraction(0))
    assert len(basis) == 2
    u1 = classical_product(1, (1, 0, 0, 0, 0, 0))
    u3u4 = classical_product(1, (0, 0, 1, 1, 0, 0))
    target = basis[0].module.table
    got = {tuple(sorted(b.poly.terms.items())) for b in basis}
    want = {
        tuple(sorted(u1.poly.convert(target).terms.items())),
        tuple(sorted(u3u4.poly.convert(target).terms.items())),
    }
    assert got == want

    only_u3 = monomial_basis_classical(1, 0, 0, 1, Fraction(-1, 2))
    assert len(only_u3) == 1
    assert only_u3[0].poly == generator("u3", 1).elem.poly.convert(only_u3[0].poly.table)

    contact_square = monomial_basis_classical(1, 2, 0, 2, Fraction(0), contact_only=True)
    assert len(contact_square) == 1
    u1sq = classical_product(1, (2, 0, 0, 0, 0, 0))
    assert contact_square[0].poly == u1sq.poly.convert(contact_square[0].poly.table)


def test_invariant_space_examples():
    dim, basis = invariant_space_dim(InvariantQuery(1, 0, 0, 0, Fraction(0)))
    assert dim == 1 and basis[0].poly.total_degree() == 0
    dim, _ = invariant_space_dim(InvariantQuery(1, 0, 0, 0, Fraction(0), "full_sp"))
    assert dim == 1

    affine = InvariantQuery(1, 1, 0, 1, Fraction(0), "affine_contact", 2)
    dim, kernel = invariant_space_dim(affine)
    assert dim == 2
    contact = InvariantQuery(1, 1, 0, 1, Fraction(0), "full_sp", 2)
    dim2, kernel2 = invariant_space_dim(contact)
    assert dim2 == 1

    # the classical products span the solver kernel exactly
    classical = monomial_basis_classical(1, 1, 0, 1, Fraction(0))
    span = Echelon(el.poly.terms for el in kernel)
    assert span.rank == len(kernel)
    for el in classical:
        assert span.reduce(el.poly.terms) == {}


def test_invariant_space_respects_weight_lattice():
    dim, _ = invariant_space_dim(InvariantQuery(1, 1, 0, 1, Fraction(1, 3)))
    assert dim == 0


def test_report_shape():
    rep = invariants_report(InvariantQuery(1, 1, 0, 1, Fraction(0), "full_sp"))
    assert rep["solver_dim"] == rep["count_S1"] == 1
    assert rep["match"] is True
    assert len(rep["basis"]) == 1


def test_weyl_structure_of_generators():
    # u1 decomposes as <Y_s, xi_s> + Y_t xi_t: the spatial pairing plus the
    # explicit t-correction, confirming the stored Weyl-variable shape.
    u1 = generator("u1", 1).elem
    tab = u1.poly.table
    spatial = (
        Poly.variable(tab, "Y_p1") * Poly.variable(tab, "xi_p1")
        + Poly.variable(tab, "Y_q1") * Poly.variable(tab, "xi_q1")
    )
    t_part = Poly.variable(tab, "Y_t") * Poly.variable(tab, "xi_t")
    assert u1.poly == spatial + t_part


def test_solver_matches_count_on_sample_grid():
    n = 1
    for (k, m, l) in [(1, 1, 0), (2, 0, 1), (1, 1, 1), (0, 2, 2)]:
        for lattice in range(-l, k + m + 1):
            nu = Fraction(lattice, n + 1)
            for algebra, contact in (("affine_contact", False), ("full_sp", True)):
                dim, _ = invariant_space_dim(InvariantQuery(n, k, m, l, nu, algebra))
                assert dim == count_S1(n, k, m, l, nu, contact), (k, m, l, nu, algebra)


def test_solver_n2_spot_checks():
    for (k, m, l, lattice) in [(1, 0, 1, 0), (0, 1, 0, 1), (1, 1, 0, 1)]:
        nu = Fraction(lattice, 3)
        for algebra, contact in (("affine_contact", False), ("full_sp", True)):
            dim, _ = invariant_space_dim(InvariantQuery(2, k, m, l, nu, algebra))
            assert dim == count_S1(2, k, m, l, nu, contact), (k, m, l, nu, algebra)


def _full_basis_oracle(n, k, m, l):
    """Every kernel vector must be killed by every field of its algebra."""
    basis = sp_basis(n)
    full = [g.label for g in basis.generators]
    affine = [lbl for lbl in full if lbl == "t" or "t" not in lbl]
    checked = 0
    for lattice in range(-l, k + m + 1):
        nu = Fraction(lattice, n + 1)
        for algebra, labels in (("affine_contact", affine), ("full_sp", full)):
            _, kernel = invariant_space_dim(InvariantQuery(n, k, m, l, nu, algebra))
            for el in kernel:
                for lbl in labels:
                    assert lie_action_symbol(basis.field(lbl), el).is_zero(), (nu, algebra, lbl)
                checked += 1
    return checked


@pytest.mark.parametrize("shape", [(1, 1, 0), (2, 0, 1), (1, 1, 1), (0, 2, 2), (2, 1, 1)])
def test_solver_kernel_invariant_under_full_basis_n1(shape):
    assert _full_basis_oracle(1, *shape) > 0


def test_solver_kernel_invariant_under_full_basis_n2():
    assert _full_basis_oracle(2, 1, 1, 1) > 0
