"""Named property suites behind the selftest command.

Every check is deterministic given the seed; the fast level bounds degrees
and instance counts so the whole battery stays well under a minute, while
the full level runs the acceptance-grade quantifications.

The `mutate` hook exists for mutation testing of the suite itself:
"flip_reeb_sign" rebuilds the Lagrange bracket used by the Hamiltonian
morphism check with the wrong Reeb normalization (+2 d_t instead of
-2 d_t), which must be caught by exactly that check.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from .casimir import (
    assemble_casimir,
    casimir_terms,
    diagonalization_witness,
    expansion_constants,
    extract_scalar,
    verify_diagonal_form,
)
from .contact import (
    VField,
    alpha_of,
    contact_hamiltonian,
    divergence,
    killing_form,
    lagrange_bracket,
    sp_basis,
    vfield_bracket,
)
from .diffop import DiffOp
from .diophantine import admissible_pairs, kappa3_delta, kappa3_system_solution, relation_R
from .enumeration import exponents_of_degree, exponents_up_to
from .errors import SpanError
from .invariants import GENERATOR_NAMES, InvariantQuery, count_S1, generator, invariant_space_dim
from .linalg import Echelon, exact_nullspace
from .operators import (
    classify_same_weight,
    decompose,
    fiber_restriction,
    gen_hamiltonian,
    i_alpha,
    intertwines_all_generators,
    same_weight_predicted_count,
)
from .poly import Poly
from .spectra import c_value, commutation_r, critical_set, eigenvalue
from .symbols import (
    ModuleDesc,
    RModule,
    SModule,
    SymbolElem,
    lie_action_as_diffop,
    lie_action_symbol,
)
from .vartable import table


@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: Optional[str] = None

    def to_json(self) -> dict:
        return {"name": self.name, "ok": self.ok, "counterexample": self.detail}


def _random_poly(rng, tab, max_degree, terms=4):
    acc = {}
    exps = exponents_up_to(tab.size, max_degree)
    for _ in range(terms):
        exp = rng.choice(exps)
        acc[exp] = acc.get(exp, Fraction(0)) + Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return Poly(tab, acc)


def _base_monomials(n, max_degree):
    tab = table(n, ())
    return tab, [Poly.monomial(tab, e) for e in exponents_up_to(tab.size, max_degree)]


def check_ring_properties(level, rng, **_):
    tab = table(1, ("xi",))
    for _ in range(40 if level == "fast" else 120):
        a = _random_poly(rng, tab, 3)
        b = _random_poly(rng, tab, 3)
        c = _random_poly(rng, tab, 2)
        if (a + b) * c != a * c + b * c:
            return CheckResult("exact_algebra.ring_properties", False, f"distributivity: {a}, {b}, {c}")
        idx = rng.randrange(tab.size)
        if (a * b).diff(idx) != a.diff(idx) * b + a * b.diff(idx):
            return CheckResult("exact_algebra.ring_properties", False, f"derivation at {tab.names[idx]}")
    return CheckResult("exact_algebra.ring_properties", True)


def check_operator_composition(level, rng, **_):
    tab = table(1, ("xi",))
    x = Poly.variable(tab, 0)
    dx = DiffOp.partial(tab, 0)
    xop = DiffOp.multiplication(x)
    if dx.compose(xop) != xop.compose(dx) + DiffOp.identity(tab):
        return CheckResult("exact_algebra.operator_composition", False, "d_x o x != x d_x + 1")
    for _ in range(10 if level == "fast" else 30):
        ops = []
        for _ in range(3):
            midx = [0] * tab.size
            midx[rng.randrange(tab.size)] += 1
            if rng.random() < 0.5:
                midx[rng.randrange(tab.size)] += 1
            ops.append(DiffOp(tab, {tuple(midx): _random_poly(rng, tab, 2, terms=2)}))
        a, b, c = ops
        if a.compose(b.compose(c)) != a.compose(b).compose(c):
            return CheckResult("exact_algebra.operator_composition", False, "associativity")
        f = _random_poly(rng, tab, 3)
        if a.compose(b).apply(f) != a.apply(b.apply(f)):
            return CheckResult("exact_algebra.operator_composition", False, "apply o compose")
    return CheckResult("exact_algebra.operator_composition", True)


def check_nullspace(level, rng, **_):
    for _ in range(20 if level == "fast" else 60):
        rows = rng.randint(1, 5)
        cols = rng.randint(1, 5)
        m = [[Fraction(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(cols)]
             for _ in range(rows)]
        basis = exact_nullspace(m, cols)
        for v in basis:
            for row in m:
                if sum(a * b for a, b in zip(row, v)) != 0:
                    return CheckResult("exact_algebra.nullspace", False, f"M v != 0 for {m}")
        span = Echelon()
        if any(span.add_row(dict(enumerate(v))) is None for v in basis):
            return CheckResult("exact_algebra.nullspace", False, "kernel basis dependent")
    return CheckResult("exact_algebra.nullspace", True)


def check_hamiltonian_morphism(level, rng, mutate=None, **_):
    reeb_scale = 2 if mutate == "flip_reeb_sign" else -2
    ns = (1,) if level == "fast" else (1, 2)
    for n in ns:
        tab, monos = _base_monomials(n, 2)

        def bracket(h, g):
            e_h = h.diff(tab.t).scale(reeb_scale)
            return contact_hamiltonian(h, n).apply(g) - g * e_h

        for h in monos:
            if alpha_of(contact_hamiltonian(h, n)) != h:
                return CheckResult("contact.hamiltonian_morphism", False, f"alpha(X_h) != h at {h}")
            for g in monos:
                lhs = contact_hamiltonian(bracket(h, g), n)
                rhs = vfield_bracket(contact_hamiltonian(h, n), contact_hamiltonian(g, n))
                if lhs != rhs:
                    return CheckResult(
                        "contact.hamiltonian_morphism", False, f"X_{{h,g}} != [X_h, X_g] at h={h}, g={g}"
                    )
    return CheckResult("contact.hamiltonian_morphism", True)


def check_divergence_identity(level, rng, **_):
    ns = (1,) if level == "fast" else (1, 2)
    for n in ns:
        tab, monos = _base_monomials(n, 3)
        for h in monos:
            x_h = contact_hamiltonian(h, n)
            e_h = h.diff(tab.t).scale(-2)
            if divergence(x_h) != e_h.scale(n + 1):
                return CheckResult("contact.divergence_identity", False, f"h = {h}")
    return CheckResult("contact.divergence_identity", True)


def check_bracket_properties(level, rng, **_):
    n = 1
    tab, monos = _base_monomials(n, 2)
    for h in monos:
        for g in monos:
            if lagrange_bracket(h, g, n) != -lagrange_bracket(g, h, n):
                return CheckResult("contact.bracket_properties", False, f"antisymmetry {h}, {g}")
    sample = monos if level == "full" else monos[:6]
    for h in sample:
        for g in sample:
            for f in sample:
                jac = (
                    lagrange_bracket(h, lagrange_bracket(g, f, n), n)
                    + lagrange_bracket(g, lagrange_bracket(f, h, n), n)
                    + lagrange_bracket(f, lagrange_bracket(h, g, n), n)
                )
                if jac:
                    return CheckResult("contact.bracket_properties", False, f"jacobi {h},{g},{f}")
    return CheckResult("contact.bracket_properties", True)


def check_killing_duality(level, rng, **_):
    ns = (1,) if level == "fast" else (1, 2)
    for n in ns:
        basis = sp_basis(n)
        for a in basis.generators:
            for b in basis.generators:
                want = Fraction(1 if a.label == b.label else 0)
                got = killing_form(a.label, basis.dual_combination(b.label), basis)
                if got != want:
                    return CheckResult(
                        "contact.killing_duality", False, f"n={n}: K({a.label}, dual {b.label}) = {got}"
                    )
    return CheckResult("contact.killing_duality", True)


def check_grading_closure(level, rng, **_):
    n = 2 if level == "full" else 1
    basis = sp_basis(n)

    # grading by generating function: 2 * deg_t + deg_{p,q} - 2
    def fn_grade(label):
        ham = basis.hamiltonian(label)
        exp = next(iter(ham.terms))
        tdeg = exp[2 * n]
        return 2 * tdeg + sum(exp[: 2 * n]) - 2

    for a in basis.generators:
        for b in basis.generators:
            br = vfield_bracket(a.field, b.field)
            try:
                coords = basis.coordinates(br)
            except SpanError:
                return CheckResult("contact.grading_closure", False, f"[{a.label},{b.label}] outside span")
            target = fn_grade(a.label) + fn_grade(b.label)
            for coeff, gen in zip(coords, basis.generators):
                if coeff and fn_grade(gen.label) != target:
                    return CheckResult(
                        "contact.grading_closure", False,
                        f"[{a.label},{b.label}] has component {gen.label} off grade {target}",
                    )
    return CheckResult("contact.grading_closure", True)


def check_representation(level, rng, **_):
    n = 1
    basis = sp_basis(n)
    deltas = (Fraction(0), Fraction(1, 3), Fraction(2))
    ks = (0, 1, 2)
    labels = [g.label for g in basis.generators]
    pairs = [(a, b) for a in labels for b in labels]
    if level == "fast":
        pairs = rng.sample(pairs, 20)
    for delta in deltas:
        for k in ks:
            mod = RModule(n, k, delta)
            tab = mod.table
            fibers = exponents_of_degree(tab.base_size, k)
            bases = exponents_up_to(tab.base_size, 2)
            exps = [b + f for b in bases[:4] for f in fibers]
            for la, lb in pairs:
                xa, xb = basis.field(la), basis.field(lb)
                br = vfield_bracket(xa, xb)
                for exp in exps[:3]:
                    s = SymbolElem(Poly.monomial(tab, exp), mod)
                    lhs = lie_action_symbol(br, s)
                    rhs = lie_action_symbol(xa, lie_action_symbol(xb, s)) - lie_action_symbol(
                        xb, lie_action_symbol(xa, s)
                    )
                    if lhs != rhs:
                        return CheckResult(
                            "symbols.representation", False,
                            f"[{la},{lb}] on {Poly.monomial(tab, exp)} in {mod}",
                        )
    return CheckResult("symbols.representation", True)


def check_density_bracket(level, rng, **_):
    n = 1
    tab, monos = _base_monomials(n, 3)
    dens = SModule(n, 0, nu=Fraction(-1, n + 1))
    for h in monos:
        x_h = contact_hamiltonian(h, n)
        for g in monos:
            if lagrange_bracket(h, g, n) != lie_action_symbol(x_h, SymbolElem(g, dens)).poly:
                return CheckResult("symbols.density_bracket", False, f"h={h}, g={g}")
    return CheckResult("symbols.density_bracket", True)


def _lie_action_oracle(x: VField, q: Poly, module: ModuleDesc) -> Poly:
    """L_X q term by term from the formula, a reference for the cached action."""
    tab = module.table
    out = x.apply(q)
    size = tab.base_size
    for i in range(size):
        for j in range(size):
            dji = x.components[i].diff(j)  # dX^i/dx^j
            if dji.is_zero():
                continue
            dji = dji.convert(tab)
            for block in module.blocks:
                if block == "Y":
                    # + dX^i/dx^j * Y^j * dQ/dY^i
                    dq = q.diff(tab.fiber("Y", i))
                    if dq:
                        out = out + dji * Poly.variable(tab, tab.fiber("Y", j)) * dq
                else:
                    # - dX^i/dx^j * xi_i * dQ/dxi_j
                    dq = q.diff(tab.fiber(block, j))
                    if dq:
                        out = out - dji * Poly.variable(tab, tab.fiber(block, i)) * dq
    w = module.weight
    if w:
        out = out + (q * divergence(x).convert(tab)).scale(w)
    return out


def check_action_diffop_agreement(level, rng, **_):
    n = 1
    basis = sp_basis(n)
    for delta in (Fraction(1, 3), Fraction(-5, 7)):
        for k in (0, 1, 2):
            mod = RModule(n, k, delta)
            tab = mod.table
            fibers = exponents_of_degree(tab.base_size, k)
            for g in basis.generators:
                op = lie_action_as_diffop(g.field, mod)
                for _ in range(5 if level == "fast" else 20):
                    base = rng.choice(exponents_up_to(tab.base_size, 3))
                    exp = base + rng.choice(fibers)
                    mono = Poly.monomial(tab, exp)
                    want = _lie_action_oracle(g.field, mono, mod)
                    if not op.apply(mono) == want == lie_action_symbol(
                        g.field, SymbolElem(mono, mod)
                    ).poly:
                        return CheckResult(
                            "symbols.action_diffop_agreement", False, f"{g.label} on {mono}"
                        )
    return CheckResult("symbols.action_diffop_agreement", True)


def check_commutation(level, rng, **_):
    n = 1
    deltas = (Fraction(1, 3), Fraction(-5, 7), Fraction(2))
    lmax, kmax, dmax = (2, 2, 2) if level == "fast" else (3, 3, 3)
    for delta in deltas:
        for k in range(kmax + 1):
            mod = RModule(n, k, delta)
            tab = mod.table
            fibers = exponents_of_degree(tab.base_size, k)
            bases = exponents_up_to(tab.base_size, dmax)
            for l in range(lmax + 1):
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
                            if k > 0:  # X^l i_alpha S vanishes identically at k = 0
                                down = i_alpha(s)
                                for _ in range(l):
                                    down = gen_hamiltonian(down)
                                rhs = rhs + down
                        if lhs != rhs:
                            return CheckResult(
                                "operators.commutation", False,
                                f"l={l}, k={k}, delta={delta}, monomial={s.poly}",
                            )
    return CheckResult("operators.commutation", True)


def check_equivariance(level, rng, **_):
    n = 1
    basis = sp_basis(n)
    for delta in (Fraction(1, 3), Fraction(2)):
        for k in (1, 2):
            mod = RModule(n, k, delta)
            tab = mod.table
            fibers = exponents_of_degree(tab.base_size, k)
            for _ in range(6 if level == "fast" else 20):
                exp = rng.choice(exponents_up_to(tab.base_size, 2)) + rng.choice(fibers)
                s = SymbolElem(Poly.monomial(tab, exp), mod)
                for g in basis.generators:
                    if gen_hamiltonian(lie_action_symbol(g.field, s)) != lie_action_symbol(
                        g.field, gen_hamiltonian(s)
                    ):
                        return CheckResult("operators.equivariance", False, f"X vs {g.label}")
                    if i_alpha(lie_action_symbol(g.field, s)) != lie_action_symbol(
                        g.field, i_alpha(s)
                    ):
                        return CheckResult("operators.equivariance", False, f"i_a vs {g.label}")
    return CheckResult("operators.equivariance", True)


def check_decomposition(level, rng, **_):
    n, k, delta = 1, 3, Fraction(1, 3)
    mod = RModule(n, k, delta)
    tab = mod.table
    cas = assemble_casimir(n, k, delta, "dual_sum")
    eps = [eigenvalue(n, k, l, delta) for l in range(k + 1)]
    count = 20 if level == "fast" else 100
    fibers = exponents_of_degree(tab.base_size, k)
    bases = exponents_up_to(tab.base_size, 3)
    for _ in range(count):
        acc = {}
        for _ in range(4):
            exp = rng.choice(bases) + rng.choice(fibers)
            acc[exp] = acc.get(exp, Fraction(0)) + Fraction(rng.randint(-5, 5))
        s = SymbolElem(Poly(tab, acc), mod)
        dec = decompose(s)
        if dec.reconstruction() != s:
            return CheckResult("operators.decomposition", False, f"reconstruction of {s.poly}")
        for l, lift in enumerate(dec.lifted):
            if cas.apply(lift.poly) != lift.poly.scale(eps[l]):
                return CheckResult("operators.decomposition", False, f"eigenvector l={l}")
        # spectral projector agreement
        for l in range(k + 1):
            proj = s.poly
            for j in range(k + 1):
                if j == l:
                    continue
                proj = (cas.apply(proj) - proj.scale(eps[j])).scale(
                    Fraction(1) / (eps[l] - eps[j])
                )
            if proj != dec.lifted[l].poly:
                return CheckResult("operators.decomposition", False, f"projector l={l}")
    return CheckResult("operators.decomposition", True)


def check_eigenvalue_distinctness(level, rng, **_):
    n = 1
    grid = [Fraction(a, b) for a in range(-10, 11) for b in range(1, 6)]
    count = 50 if level == "fast" else 200
    done = 0
    while done < count:
        k = rng.randint(0, 4)
        delta = rng.choice(grid)
        if delta in critical_set(k, n).members:
            continue
        eps = [eigenvalue(n, k, l, delta) for l in range(k + 1)]
        if len(set(eps)) != len(eps):
            return CheckResult(
                "casimir.eigenvalue_distinctness", False, f"k={k}, delta={delta}: {eps}"
            )
        done += 1
    return CheckResult("casimir.eigenvalue_distinctness", True)


def check_diagonal_form(level, rng, **_):
    n = 1
    grid = [(k, d) for k in ((0, 1, 2) if level == "fast" else (0, 1, 2, 3))
            for d in (Fraction(1, 3), Fraction(-5, 7), Fraction(2))]
    for k, delta in grid:
        res = verify_diagonal_form(n, k, delta)
        if not res.verified:
            return CheckResult(
                "casimir.diagonal_form", False,
                f"k={k}, delta={delta}, counterexample {res.counterexample}",
            )
    return CheckResult("casimir.diagonal_form", True)


def check_assembly_equivalence(level, rng, **_):
    n = 1
    for k, delta in ((0, Fraction(0)), (1, Fraction(1)), (2, Fraction(1, 3))):
        a = assemble_casimir(n, k, delta, "dual_sum")
        b = assemble_casimir(n, k, delta, "eq_casimir2")
        if fiber_restriction(a - b, k):
            return CheckResult("casimir.assembly_equivalence", False, f"k={k}, delta={delta}")
    return CheckResult("casimir.assembly_equivalence", True)


def check_centrality(level, rng, **_):
    n = 1
    basis = sp_basis(n)
    ks = (0, 1, 2) if level == "fast" else (0, 1, 2, 3)
    for delta in (Fraction(1, 3), Fraction(-5, 7), Fraction(2)):
        for k in ks:
            mod = RModule(n, k, delta)
            cas = assemble_casimir(n, k, delta, "dual_sum")
            for g in basis.generators:
                act = lie_action_as_diffop(g.field, mod)
                if fiber_restriction(act.commutator(cas, act), k):
                    return CheckResult(
                        "casimir.centrality", False, f"[C, L_{g.label}] != 0 at k={k}, delta={delta}"
                    )
    return CheckResult("casimir.centrality", True)


def check_expansion_constants(level, rng, **_):
    n = 1
    delta = Fraction(1, 3)
    for k in (1, 2):
        terms = casimir_terms(n, k, delta)
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
        got = [extract_scalar(t.apply(w), w) for t in terms]
        if got != expected:
            return CheckResult("casimir.expansion_constants", False, f"k={k}: T_i = {got}")
        c0, c1, c2 = expansion_constants(n, k, delta)
        if c0 != c_value(n, k, delta) / (n + 2) or c1 != Fraction(1, n + 2):
            return CheckResult("casimir.expansion_constants", False, f"k={k}: c0={c0}, c1={c1}")
        if k >= 2 and c2 != 0:
            return CheckResult("casimir.expansion_constants", False, f"k={k}: c2={c2}")
    return CheckResult("casimir.expansion_constants", True)


def check_generator_invariance(level, rng, **_):
    ns = (1,) if level == "fast" else (1, 2)
    for n in ns:
        basis = sp_basis(n)
        affine = (["1", "t"] + [f"p{i}" for i in range(1, n + 1)]
                  + [f"q{i}" for i in range(1, n + 1)]
                  + [g.label for g in basis.generators
                     if g.label.count("t") == 0 and sum(c in "pq" for c in g.label) == 2])
        for name in GENERATOR_NAMES:
            elem = generator(name, n).elem
            for lbl in affine:
                if not lie_action_symbol(basis.field(lbl), elem).is_zero():
                    return CheckResult(
                        "invariants.generator_invariance", False, f"L_{lbl} {name} != 0 (n={n})"
                    )
            t2_zero = lie_action_symbol(basis.field("t2"), elem).is_zero()
            if name in ("u4", "u5") and t2_zero:
                return CheckResult(
                    "invariants.generator_invariance", False, f"{name} unexpectedly t2-invariant"
                )
            if name not in ("u4", "u5") and not t2_zero:
                return CheckResult(
                    "invariants.generator_invariance", False, f"{name} not t2-invariant (n={n})"
                )
    return CheckResult("invariants.generator_invariance", True)


def check_dimension_match(level, rng, **_):
    n = 1
    top = 2 if level == "fast" else 4
    for k in range(top + 1):
        for m in range(top + 1 - k):
            for l in range(top + 1 - k - m):
                for lat in range(-l, k + m + 1):
                    nu = Fraction(lat, n + 1)
                    for algebra, contact in (("affine_contact", False), ("full_sp", True)):
                        dim, _ = invariant_space_dim(InvariantQuery(n, k, m, l, nu, algebra))
                        cnt = count_S1(n, k, m, l, nu, contact)
                        if dim != cnt:
                            return CheckResult(
                                "invariants.dimension_match", False,
                                f"(k,m,l)=({k},{m},{l}), nu={nu}, {algebra}: dim {dim} != count {cnt}",
                            )
    return CheckResult("invariants.dimension_match", True)


def check_same_weight_classification(level, rng, **_):
    n = 1
    pairs = ((1, 1), (0, 1)) if level == "fast" else ((1, 1), (2, 1), (1, 2), (2, 2), (2, 0), (0, 1))
    basis = sp_basis(n)
    for l, k in pairs:
        dim, ops = classify_same_weight(n, l, k, Fraction(1, 3), 2)
        pred = same_weight_predicted_count(l, k, 2)
        if dim != pred:
            return CheckResult(
                "operators.same_weight_classification", False, f"(l,k)=({l},{k}): dim {dim} != {pred}"
            )
        for op in ops:
            if not intertwines_all_generators(op, basis):
                return CheckResult(
                    "operators.same_weight_classification", False, f"(l,k)=({l},{k}): kernel recheck"
                )
    return CheckResult("operators.same_weight_classification", True)


def check_residual_link(level, rng, **_):
    n = 1
    grid = [Fraction(a, b) for a in range(-10, 11) for b in range(1, 6)]
    count = 1000 if level == "fast" else 10000
    factor = None
    done = 0
    while done < count:
        k, kp = rng.randint(0, 4), rng.randint(0, 4)
        d, dp = rng.choice(grid), rng.choice(grid)
        if d in critical_set(k, n).members or dp in critical_set(kp, n).members:
            continue
        l, lp = rng.randint(0, k), rng.randint(0, kp)
        res = relation_R(n, k, kp, l, lp, d, dp)
        diff = eigenvalue(n, k, l, d) - eigenvalue(n, kp, lp, dp)
        if (res == 0) != (diff == 0):
            return CheckResult(
                "diophantine.residual_link", False, f"(k,kp,l,lp,d,dp)=({k},{kp},{l},{lp},{d},{dp})"
            )
        if diff:
            f = res / diff
            if factor is None:
                factor = f
            elif f != factor:
                return CheckResult("diophantine.residual_link", False, f"factor drift {f} != {factor}")
        done += 1
    return CheckResult("diophantine.residual_link", True)


def check_injectivity(level, rng, **_):
    n = 1
    grid = [Fraction(a, b) for a in range(-10, 11) for b in range(1, 6)]
    done = 0
    while done < 100:
        k, kp = rng.randint(0, 4), rng.randint(0, 4)
        d, dp = rng.choice(grid), rng.choice(grid)
        if d in critical_set(k, n).members or dp in critical_set(kp, n).members:
            continue
        pairs, injective = admissible_pairs(n, k, kp, d, dp)
        if not injective:
            return CheckResult(
                "diophantine.injectivity", False, f"k={k}, kp={kp}, d={d}, dp={dp}: {pairs}"
            )
        done += 1
    return CheckResult("diophantine.injectivity", True)


def check_kappa3(level, rng, **_):
    n = 1
    done = 0
    while done < 100:
        k, kp = rng.randint(0, 5), rng.randint(0, 5)
        blocks = [(rng.randint(0, k), rng.randint(0, kp)) for _ in range(3)]
        (l1, lp1), (l2, lp2), (l3, lp3) = blocks
        if (l1 - l2) * (lp1 - lp3) - (l1 - l3) * (lp1 - lp2) == 0:
            continue
        delta = kappa3_delta(n, k, blocks)
        d_sys, _ = kappa3_system_solution(n, k, kp, blocks)
        if delta != d_sys:
            return CheckResult("diophantine.kappa3", False, f"k={k}, blocks={blocks}")
        done += 1
    return CheckResult("diophantine.kappa3", True)


CHECKS: list[Callable] = [
    check_ring_properties,
    check_operator_composition,
    check_nullspace,
    check_hamiltonian_morphism,
    check_divergence_identity,
    check_bracket_properties,
    check_killing_duality,
    check_grading_closure,
    check_representation,
    check_density_bracket,
    check_action_diffop_agreement,
    check_commutation,
    check_equivariance,
    check_decomposition,
    check_eigenvalue_distinctness,
    check_diagonal_form,
    check_assembly_equivalence,
    check_centrality,
    check_expansion_constants,
    check_generator_invariance,
    check_dimension_match,
    check_same_weight_classification,
    check_residual_link,
    check_injectivity,
    check_kappa3,
]


def run_selftest(level: str = "fast", seed: int = 0, mutate: Optional[str] = None):
    """Run every named check; reproducible from the seed."""
    results = []
    for fn in CHECKS:
        rng = random.Random((seed, fn.__name__).__repr__())
        results.append(fn(level, rng, mutate=mutate))
    return results
