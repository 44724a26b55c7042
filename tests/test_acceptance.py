"""Acceptance suite: one test per criterion, each printing a pass line.

All quantifications are exact (tolerance zero); seeded randomness only
selects instances, never weakens the check.  Expected wall time for the
whole module is a few minutes, dominated by the invariant-dimension grid
and the same-weight classification.
"""

import random
from fractions import Fraction

from contactsym.casimir import (
    assemble_casimir,
    casimir_terms,
    closed_form_casimir,
    extract_scalar,
    monomial_family,
    expansion_constants,
    diagonalization_witness,
)
from contactsym.contact import (
    alpha_of,
    contact_hamiltonian,
    divergence,
    killing_form,
    lagrange_bracket,
    sp_basis,
    vfield_bracket,
)
from contactsym.diophantine import (
    admissible_pairs,
    kappa3_delta,
    kappa3_delta_prime,
    kappa3_system_solution,
    relation_R,
)
from contactsym.enumeration import exponents_of_degree, exponents_up_to
from contactsym.invariants import GENERATOR_NAMES, InvariantQuery, count_S1, generator, invariant_space_dim
from contactsym.linalg import rank
from contactsym.operators import (
    classify_same_weight,
    decompose,
    gen_hamiltonian,
    i_alpha,
    intertwines_all_generators,
    predicted_same_weight_ops,
    restriction_coordinates,
    same_weight_predicted_count,
)
from contactsym.poly import Poly
from contactsym.spectra import c_value, commutation_r, critical_set, eigenvalue
from contactsym.symbols import RModule, SymbolElem, lie_action_symbol
from contactsym.vartable import table

DELTAS = (Fraction(1, 3), Fraction(-5, 7), Fraction(2))
GRID = [Fraction(a, b) for a in range(-10, 11) for b in range(1, 6)]


def report(criterion, text):
    print(f"[PASS] criterion {criterion}: {text}")


def test_criterion_01_casimir_diagonal_form():
    n = 1
    for k in range(4):
        for delta in DELTAS:
            assembled = assemble_casimir(n, k, delta, "dual_sum")
            closed = closed_form_casimir(n, k, delta)
            tab, family = monomial_family(n, k, 4)
            for exp in family:
                mono = Poly.monomial(tab, exp)
                assert assembled.apply(mono) == closed.apply(mono), (k, delta, mono)
    report(1, "dual-sum Casimir equals (1/3)(c id + X i_a) for k<=3, three weights, base degree <= 4")


def test_criterion_02_assembly_equivalence():
    n = 1
    for k in range(4):
        for delta in DELTAS:
            a = assemble_casimir(n, k, delta, "dual_sum")
            b = assemble_casimir(n, k, delta, "eq_casimir2")
            tab, family = monomial_family(n, k, 4)
            for exp in family:
                mono = Poly.monomial(tab, exp)
                assert a.apply(mono) == b.apply(mono), (k, delta, mono)
    report(2, "dual_sum and eq_casimir2 assemblies agree on the full family")


def test_criterion_03_commutation_law():
    n = 1
    for delta in DELTAS:
        for k in range(4):
            mod = RModule(n, k, delta)
            tab = mod.table
            fibers = exponents_of_degree(tab.base_size, k)
            bases = exponents_up_to(tab.base_size, 3)
            for l in range(4):
                r = commutation_r(l, k, delta, n)
                for bexp in bases:
                    for fexp in fibers:
                        s = SymbolElem(Poly.monomial(tab, bexp + fexp), mod)
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
                        assert lhs == rhs, (l, k, delta, s.poly)
    report(3, "i_a X^l - X^l i_a = r(l,k) X^(l-1) exactly for l,k <= 3, base degree <= 3")


def test_criterion_04_decomposition():
    n, k, delta = 1, 3, Fraction(1, 3)
    mod = RModule(n, k, delta)
    tab = mod.table
    cas = assemble_casimir(n, k, delta, "dual_sum")
    eps = [eigenvalue(n, k, l, delta) for l in range(k + 1)]
    rng = random.Random(2024)
    fibers = exponents_of_degree(tab.base_size, k)
    bases = exponents_up_to(tab.base_size, 3)
    for _ in range(100):
        acc = {}
        for _ in range(5):
            exp = rng.choice(bases) + rng.choice(fibers)
            acc[exp] = acc.get(exp, Fraction(0)) + Fraction(rng.randint(-9, 9))
        s = SymbolElem(Poly(tab, acc), mod)
        dec = decompose(s)
        assert dec.reconstruction() == s
        for l, lift in enumerate(dec.lifted):
            assert i_alpha(dec.components[l]).is_zero()
            assert cas.apply(lift.poly) == lift.poly.scale(eps[l])
        for l in range(k + 1):
            proj = s.poly
            for j in range(k + 1):
                if j != l:
                    proj = (cas.apply(proj) - proj.scale(eps[j])).scale(
                        Fraction(1) / (eps[l] - eps[j])
                    )
            assert proj == dec.lifted[l].poly
    report(4, "100 random elements of R^3_(1/3) decompose exactly; peeling matches spectral projectors")


def test_criterion_05_eigenvalue_distinctness():
    n = 1
    rng = random.Random(555)
    done = 0
    while done < 200:
        k = rng.randint(0, 4)
        delta = rng.choice(GRID)
        if delta in critical_set(k, n).members:
            continue
        eps = [eigenvalue(n, k, l, delta) for l in range(k + 1)]
        assert len(set(eps)) == len(eps), (k, delta)
        done += 1
    report(5, "eigenvalues pairwise distinct on 200 seeded non-critical weights, k <= 4")


def test_criterion_06_invariant_dimensions():
    n = 1
    checked = 0
    for k in range(5):
        for m in range(5 - k):
            for l in range(5 - k - m):
                for lattice in range(-l, k + m + 1):
                    nu = Fraction(lattice, n + 1)
                    for algebra, contact in (
                        ("affine_contact", False),
                        ("full_sp", True),
                    ):
                        dim, _ = invariant_space_dim(InvariantQuery(n, k, m, l, nu, algebra))
                        assert dim == count_S1(n, k, m, l, nu, contact), (
                            k, m, l, nu, algebra,
                        )
                        checked += 1
    report(6, f"solver dimension equals the counting system on {checked} queries (k+m+l <= 4)")


def test_criterion_06_half_lattice_weights():
    # nu with 2(n+1) nu odd lies halfway between lattice weights: no invariant.
    checked = 0
    for n, top in ((1, 3), (2, 2)):
        for k in range(top + 1):
            for m in range(top + 1 - k):
                for l in range(top + 1 - k - m):
                    for odd in range(-2 * (n + 1) * l - 1, 2 * (n + 1) * (k + m) + 2, 2):
                        nu = Fraction(odd, 2 * (n + 1))
                        for algebra, contact in (("affine_contact", False), ("full_sp", True)):
                            dim, _ = invariant_space_dim(InvariantQuery(n, k, m, l, nu, algebra))
                            assert dim == count_S1(n, k, m, l, nu, contact) == 0, (
                                n, k, m, l, nu, algebra,
                            )
                            checked += 1
    report(6, f"no invariant at half-lattice nu on {checked} queries (n = 1, 2)")


def test_criterion_07_generator_invariance():
    for n in (1, 2):
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
                assert lie_action_symbol(basis.field(lbl), el).is_zero(), (n, name, lbl)
            t2_zero = lie_action_symbol(basis.field("t2"), el).is_zero()
            if name in ("u4", "u5"):
                assert not t2_zero, (n, name)
            else:
                assert t2_zero, (n, name)
    report(7, "u1..u5, L1 affine-invariant; only u4, u5 break under X_{t^2} (n = 1, 2)")


def test_criterion_08_same_weight_classification():
    n, delta, bound = 1, Fraction(1, 3), 2
    basis = sp_basis(n)
    for l, k in ((1, 1), (2, 1), (1, 2), (2, 2), (2, 0), (0, 1)):
        dim, ops = classify_same_weight(n, l, k, delta, bound)
        assert dim == same_weight_predicted_count(l, k, bound), (l, k, dim)
        for op in ops:
            assert intertwines_all_generators(op, basis), (l, k, op.label)
        predicted = predicted_same_weight_ops(n, l, k, delta, bound)
        vecs, slots = restriction_coordinates(ops + predicted, l)
        ncols = len(slots)
        mat = [[v.get(i, Fraction(0)) for i in range(ncols)] for v in vecs]
        assert rank(mat, ncols) == rank(mat[:dim], ncols) == dim, (l, k)
    report(8, "same-weight classifier matches the X^m i_a^(l+m-k) span on all six (l,k) pairs")


def test_criterion_09_hamiltonian_morphism():
    for n in (1, 2):
        tab = table(n, ())
        deg2 = [Poly.monomial(tab, e) for e in exponents_up_to(tab.size, 2)]
        deg3 = [Poly.monomial(tab, e) for e in exponents_up_to(tab.size, 3)]
        for h in deg2:
            xh = contact_hamiltonian(h, n)
            for g in deg2:
                assert contact_hamiltonian(lagrange_bracket(h, g, n), n) == vfield_bracket(
                    xh, contact_hamiltonian(g, n)
                ), (n, h, g)
        for h in deg3:
            xh = contact_hamiltonian(h, n)
            e_h = h.diff(tab.t).scale(-2)
            assert divergence(xh) == e_h.scale(n + 1), (n, h)
            assert alpha_of(xh) == h, (n, h)
    report(9, "X_{h,g} = [X_h, X_g], div X_h = (n+1)E(h), alpha(X_h) = h for n = 1, 2")


def test_criterion_10_killing_duality():
    for n in (1, 2):
        basis = sp_basis(n)
        for a in basis.generators:
            for b in basis.generators:
                expected = Fraction(1 if a.label == b.label else 0)
                got = killing_form(a.label, basis.dual_combination(b.label), basis)
                assert got == expected, (n, a.label, b.label, got)
    report(10, "trace(ad e_a ad e^b) = delta_a^b from structure constants, n = 1, 2")


def test_criterion_11_diophantine_layer():
    n = 1
    rng = random.Random(888)
    factor = None
    done = 0
    while done < 10000:
        k, kp = rng.randint(0, 4), rng.randint(0, 4)
        d, dp = rng.choice(GRID), rng.choice(GRID)
        if d in critical_set(k, n).members or dp in critical_set(kp, n).members:
            continue
        l, lp = rng.randint(0, k), rng.randint(0, kp)
        res = relation_R(n, k, kp, l, lp, d, dp)
        diff = eigenvalue(n, k, l, d) - eigenvalue(n, kp, lp, dp)
        assert (res == 0) == (diff == 0), (k, kp, l, lp, d, dp)
        if diff:
            f = res / diff
            if factor is None:
                factor = f
            assert f == factor
        done += 1
    assert factor == 2 * (n + 2)

    done = 0
    while done < 100:
        k, kp = rng.randint(0, 4), rng.randint(0, 4)
        d, dp = rng.choice(GRID), rng.choice(GRID)
        if d in critical_set(k, n).members or dp in critical_set(kp, n).members:
            continue
        _, injective = admissible_pairs(n, k, kp, d, dp)
        assert injective, (k, kp, d, dp)
        done += 1

    done = 0
    while done < 100:
        k, kp = rng.randint(0, 5), rng.randint(0, 5)
        blocks = [(rng.randint(0, k), rng.randint(0, kp)) for _ in range(3)]
        (l1, lp1), (l2, lp2), (l3, lp3) = blocks
        if (l1 - l2) * (lp1 - lp3) - (l1 - l3) * (lp1 - lp2) == 0:
            continue
        d_sys, dp_sys = kappa3_system_solution(n, k, kp, blocks)
        assert kappa3_delta(n, k, blocks) == d_sys, (k, kp, blocks)
        assert kappa3_delta_prime(n, kp, blocks) == dp_sys, (k, kp, blocks)
        done += 1
    report(11, "residual<->eigenvalue on 10^4 grid (factor 2(n+2)); injectivity and kappa3 cross-checks")


def test_criterion_12_expansion_constants():
    n, delta = 1, Fraction(1, 3)
    for k in (1, 2):
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
        got = [extract_scalar(t.apply(w), w) for t in casimir_terms(n, k, delta)]
        assert got == expected, (k, got)
        assert sum(got) == c_value(n, k, delta) / (n + 2)
        c0, c1, c2 = expansion_constants(n, k, delta)
        assert c0 == c_value(n, k, delta) / (n + 2), (k, c0)
        assert c1 == Fraction(1, n + 2), (k, c1)
        if k >= 2:
            assert c2 == 0, (k, c2)
    report(12, "eight term contributions match their closed forms; c1 = 1/(n+2), c2 = 0 recovered")
