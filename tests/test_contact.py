"""Darboux-model fields, brackets, the sp basis and its Killing duals."""

import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from contactsym.contact import (
    _certified_generators,
    alpha_of,
    contact_hamiltonian,
    divergence,
    generating_labels,
    killing_form,
    lagrange_bracket,
    reeb_field,
    sp_basis,
    sp_basis_json,
    vfield_bracket,
    VField,
)
from contactsym.enumeration import exponents_up_to
from contactsym.errors import DomainError, SpanError, StructuralError
from contactsym.poly import Poly
from contactsym.vartable import table

BASE = table(1, ())


def var(name, tab=BASE):
    return Poly.variable(tab, name)


def monomials(n, degree):
    tab = table(n, ())
    return tab, [Poly.monomial(tab, e) for e in exponents_up_to(tab.size, degree)]


def test_hamiltonian_examples():
    one = Poly.one(BASE)
    x1 = contact_hamiltonian(one, 1)
    assert list(x1.components) == [Poly.zero(BASE), Poly.zero(BASE), Poly.constant(BASE, -2)]
    xp = contact_hamiltonian(var("p1"), 1)
    assert list(xp.components) == [Poly.zero(BASE), Poly.one(BASE), -var("p1")]
    t = var("t")
    xt2 = contact_hamiltonian(t * t, 1)
    assert list(xt2.components) == [
        (var("p1") * t).scale(-2),
        (var("q1") * t).scale(-2),
        (t * t).scale(-2),
    ]


def test_hamiltonian_rejects_fiber_variables():
    tab = table(1, ("xi",))
    with pytest.raises(DomainError):
        contact_hamiltonian(Poly.variable(tab, "xi_t"), 1)


def test_lagrange_bracket_examples():
    assert lagrange_bracket(var("p1"), var("q1"), 1) == Poly.one(BASE)
    assert lagrange_bracket(var("t"), var("p1"), 1) == var("p1")
    g = var("t") * var("t") + var("p1") * var("q1")
    assert lagrange_bracket(Poly.one(BASE), g, 1) == g.diff("t").scale(-2)


def test_vfield_bracket_examples():
    x1 = contact_hamiltonian(Poly.one(BASE), 1)
    xt = contact_hamiltonian(var("t"), 1)
    br = vfield_bracket(x1, xt)
    assert br == x1.scale(-2)  # 4 d_t
    # cross-check against the Hamiltonian of {1, t} = -2
    assert br == contact_hamiltonian(lagrange_bracket(Poly.one(BASE), var("t"), 1), 1)
    assert vfield_bracket(xt, xt).is_zero()
    dt = VField(BASE, [Poly.zero(BASE), Poly.zero(BASE), Poly.one(BASE)])
    tdt = VField(BASE, [Poly.zero(BASE), Poly.zero(BASE), var("t")])
    assert vfield_bracket(dt, tdt) == dt


def test_divergence_examples():
    assert divergence(contact_hamiltonian(var("t"), 1)) == Poly.constant(BASE, -4)
    assert divergence(contact_hamiltonian(var("p1"), 1)).is_zero()
    h = var("p1") * var("t")
    assert divergence(contact_hamiltonian(h, 1)) == var("p1").scale(-4)


@pytest.mark.parametrize("n", [1, 2])
def test_divergence_identity(n):
    tab, monos = monomials(n, 3)
    for h in monos:
        e_h = h.diff(tab.t).scale(-2)
        assert divergence(contact_hamiltonian(h, n)) == e_h.scale(n + 1)


@pytest.mark.parametrize("n", [1, 2])
def test_alpha_of_hamiltonian(n):
    _, monos = monomials(n, 3)
    for h in monos:
        assert alpha_of(contact_hamiltonian(h, n)) == h


@pytest.mark.parametrize("n", [1, 2])
def test_hamiltonian_is_morphism(n):
    _, monos = monomials(n, 2)
    for h in monos:
        xh = contact_hamiltonian(h, n)
        for g in monos:
            xg = contact_hamiltonian(g, n)
            assert contact_hamiltonian(lagrange_bracket(h, g, n), n) == vfield_bracket(xh, xg)


def test_bracket_antisymmetry_and_jacobi():
    _, monos = monomials(1, 2)
    for h in monos:
        for g in monos:
            assert lagrange_bracket(h, g, 1) == -lagrange_bracket(g, h, 1)
    for h in monos[:8]:
        for g in monos[:8]:
            for f in monos[:8]:
                total = (
                    lagrange_bracket(h, lagrange_bracket(g, f, 1), 1)
                    + lagrange_bracket(g, lagrange_bracket(f, h, 1), 1)
                    + lagrange_bracket(f, lagrange_bracket(h, g, 1), 1)
                )
                assert total.is_zero()


def test_sp_basis_shape():
    basis = sp_basis(1)
    assert basis.dim == 10
    assert sp_basis(2).dim == 21  # (n+1)(2n+3)
    xt = basis.field("t")
    assert list(xt.components) == [-var("p1"), -var("q1"), var("t").scale(-2)]
    # dual of p1p1 carries k_11 = -1/(4(n+2)(1+delta_11)) = -1/24 at n=1
    assert basis.dual_combination("p1p1") == {"q1q1": Fraction(-1, 24)}
    assert basis.dual_combination("t") == {"t": Fraction(1, 12)}
    assert basis.dual_combination("1") == {"t2": Fraction(-1, 24)}


def test_generators_match_hamiltonians():
    for n in (1, 2):
        basis = sp_basis(n)
        for gen in basis.generators:
            assert gen.field == contact_hamiltonian(gen.hamiltonian, n)


@pytest.mark.parametrize("n", [1, 2])
def test_killing_duality(n):
    basis = sp_basis(n)
    for a in basis.generators:
        for b in basis.generators:
            expected = Fraction(1 if a.label == b.label else 0)
            assert killing_form(a.label, basis.dual_combination(b.label), basis) == expected


def test_killing_reeb_isotropic():
    basis = sp_basis(1)
    assert killing_form("1", "1", basis) == 0


def test_basis_closure_and_grading():
    basis = sp_basis(1)

    def grade(label):
        ham = basis.hamiltonian(label)
        exp = next(iter(ham.terms))
        return 2 * exp[2] + exp[0] + exp[1] - 2

    for a in basis.generators:
        for b in basis.generators:
            coords = basis.coordinates(vfield_bracket(a.field, b.field))
            for coeff, gen in zip(coords, basis.generators):
                if coeff:
                    assert grade(gen.label) == grade(a.label) + grade(b.label)


def test_killing_form_rejects_outside_span():
    basis = sp_basis(1)
    cubic = contact_hamiltonian(var("p1") ** 3, 1)
    with pytest.raises(SpanError):
        killing_form(cubic, "t", basis)


def test_export_shape():
    doc = sp_basis_json(1)
    assert len(doc) == 10
    entry = {item["label"]: item for item in doc}["p1p1"]
    assert entry["dual"] == {"q1q1": "-1/24"}
    assert len(entry["field"]) == 3


def test_reeb_field_normalization():
    e = reeb_field(1)
    assert e.apply(var("t")) == Poly.constant(BASE, -2)
    assert alpha_of(e) == Poly.one(BASE)


def test_killing_duality_n3():
    basis = sp_basis(3)
    assert basis.dim == 36
    for a in basis.generators:
        for b in basis.generators:
            expected = Fraction(1 if a.label == b.label else 0)
            assert killing_form(a.label, basis.dual_combination(b.label), basis) == expected


def test_killing_duality_rejects_sp2n_constant():
    # The sp(2n)-style normalization -1/(4(n+1)(1+delta_ij)) is the wrong
    # constant for this algebra; duality fixes -1/(4(n+2)(1+delta_ij)).
    basis = sp_basis(1)
    wrong = {"q1q1": Fraction(-1, 16)}
    assert killing_form("p1p1", wrong, basis) != 1
    assert killing_form("p1p1", {"q1q1": Fraction(-1, 24)}, basis) == 1


def test_generating_labels_at_n2():
    assert generating_labels(2) == ("p1p1", "q1q2", "tp2")
    assert generating_labels(2, "affine_contact") == ("p1p1", "q1q2", "q2", "p2p2")


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("algebra", ["full_sp", "affine_contact"])
def test_generating_labels_certified(n, algebra):
    labels = generating_labels(n, algebra)
    assert len(labels) == (n + 1 if algebra == "full_sp" else n + 2)
    assert _certified_generators(n, algebra, labels) == labels


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("algebra", ["full_sp", "affine_contact"])
def test_generating_set_needs_every_label(n, algebra):
    labels = generating_labels(n, algebra)
    for drop in range(len(labels)):
        with pytest.raises(StructuralError):
            _certified_generators(n, algebra, labels[:drop] + labels[drop + 1:])


def test_generating_set_must_stay_in_the_algebra():
    # With t2 the closure is all of sp(4), which leaves the affine algebra.
    assert _certified_generators(1, "full_sp", ("p1p1", "q1", "q1q1", "t2"))
    with pytest.raises(StructuralError):
        _certified_generators(1, "affine_contact", ("p1p1", "q1", "q1q1", "t2"))
    with pytest.raises(DomainError):
        generating_labels(1, "projective")


def test_generating_set_is_built_lazily():
    # Import, sp_basis and structure_constants do no generating-set work,
    # and leave the Lie-action, unit-operator and exponent caches cold.
    code = (
        "import contactsym\n"
        "from contactsym import diffop, enumeration, symbols\n"
        "from contactsym.contact import generating_labels, sp_basis\n"
        "sp_basis(2).structure_constants()\n"
        "for cached in (generating_labels, symbols._lie_parts, diffop.unit_index,\n"
        "               enumeration.exponents_of_degree):\n"
        "    assert cached.cache_info().currsize == 0, cached.__name__\n"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    subprocess.run([sys.executable, "-c", code], check=True,
                   env={"PYTHONPATH": str(src)})
