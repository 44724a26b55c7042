"""Casimir operator of the projective contact algebra on R^k_delta.

Two independent assemblies are implemented:

  * dual_sum -- the raw pairing  sum_a L_{e_a} o L_{e^a}  over the
    Killing-dual generator bases;
  * eq_casimir2 -- the regrouped eight-term form obtained from the bracket
    identities of the quadratic generating functions (their agreement is
    itself a check of those identities).

The diagonal closed form is (1/(n+2)) (c(k, delta) id + X o i_alpha),
where the X-leg carries the intermediate weight delta + (k-1)/(n+1), i.e.
the zeroth-order scalar a = 2(n+1) delta + k - 1.

Operator equality on R^k_delta is decided exactly, not by sampling: two
operators agree on fiber degree k iff their difference has an empty
fiber_restriction, the canonical form of its action on that subspace.

The spectrum is certified on a C-invariant monomial family through the
sparse image columns C e, read from fiber_restriction(C, k) rather than by
applying C, so the certificate and the equality test read the same form.
Every kept e must satisfy prod_l (C - eps_l) e = 0.  The factors act on one
vector at a time (Wiedemann's black-box idea), so no dense matrix or matrix
product is ever formed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from math import perm, prod
from operator import gt, sub
from typing import Optional

from .contact import sp_basis
from .diffop import DiffOp, add_product
from .enumeration import exponents_of_degree, exponents_up_to
from .errors import DomainError
from .linalg import Echelon
from .operators import fiber_restriction, gen_hamiltonian, gen_hamiltonian_op, i_alpha_op
from .poly import Poly, grlex_key
from .rationals import format_rational
from .spectra import c_value, commutation_r, eigenvalue
from .symbols import RModule, SymbolElem, lie_action_as_diffop

__all__ = [
    "CasimirResult",
    "assemble_casimir",
    "casimir_matrix",
    "casimir_terms",
    "closed_form_casimir",
    "diagonalization_witness",
    "expansion_constants",
    "verify_diagonal_form",
]


def _action(basis, label, module) -> DiffOp:
    return lie_action_as_diffop(basis.field(label), module)


def assemble_casimir(n: int, k: int, delta, form: str = "dual_sum") -> DiffOp:
    """Exact Casimir operator on R^k_delta in either assembled form."""
    delta = Fraction(delta)
    module = RModule(n, k, delta)
    basis = sp_basis(n)
    acts = {g.label: _action(basis, g.label, module) for g in basis.generators}
    if form == "dual_sum":
        out = DiffOp.zero(module.table)
        for gen, dual in zip(basis.generators, basis.duals):
            left = acts[gen.label]
            for lbl, c in dual.items():
                out = out + left.compose(acts[lbl]).scale(c)
        return out
    if form == "eq_casimir2":
        out = DiffOp.zero(module.table)
        for term in casimir_terms(n, k, delta):
            out = out + term
        return out
    raise DomainError(f"unknown Casimir form {form!r}")


def casimir_terms(n: int, k: int, delta) -> list[DiffOp]:
    """The eight summands T_1..T_8 of the regrouped Casimir form."""
    delta = Fraction(delta)
    module = RModule(n, k, delta)
    basis = sp_basis(n)
    acts = {g.label: _action(basis, g.label, module) for g in basis.generators}
    zero = DiffOp.zero(module.table)
    c4 = Fraction(1, 4 * (n + 2))
    c2 = Fraction(1, 2 * (n + 2))

    t1 = acts["t2"].compose(acts["1"]).scale(-c4)
    t2 = acts["t"].compose(acts["t"]).scale(c4)
    t3 = zero
    for i in range(1, n + 1):
        t3 = t3 + acts[f"tq{i}"].compose(acts[f"p{i}"]) - acts[f"tp{i}"].compose(acts[f"q{i}"])
    t3 = t3.scale(c2)
    t4 = zero
    for i in range(1, n + 1):
        t4 = t4 + acts[f"p{i}p{i}"].compose(acts[f"q{i}q{i}"])
    t4 = t4.scale(-c4)
    t5 = zero
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            t5 = t5 + acts[f"p{i}p{j}"].compose(acts[f"q{i}q{j}"])
    t5 = t5.scale(-c2)
    t6 = zero
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            # L_{X_{p_i q^j}} o L_{X_{p_j q^i}}: labels carry (p index, q index)
            t6 = t6 + acts[f"p{i}q{j}"].compose(acts[f"p{j}q{i}"])
    t6 = t6.scale(c4)
    t7 = acts["t"].scale(Fraction(n + 1, 2 * (n + 2)))
    t8 = zero
    for i in range(1, n + 1):
        t8 = t8 + acts[f"p{i}q{i}"]
    t8 = t8.scale(Fraction(n + 1, 4 * (n + 2)))
    return [t1, t2, t3, t4, t5, t6, t7, t8]


def closed_form_casimir(n: int, k: int, delta) -> DiffOp:
    """(1/(n+2)) (c(k, delta) id + X o i_alpha) on R^k_delta."""
    delta = Fraction(delta)
    module = RModule(n, k, delta)
    tab = module.table
    out = DiffOp.identity(tab).scale(c_value(n, k, delta))
    if k > 0:
        x_leg = gen_hamiltonian_op(module.contracted())
        out = out + x_leg.compose(i_alpha_op(tab))
    return out.scale(Fraction(1, n + 2))


def monomial_family(n: int, k: int, max_base_degree: int):
    """Exponent tuples for {x^a xi^b : |a| <= D, |b| = k} on the R-table."""
    tab = RModule(n, k, Fraction(0)).table
    base = exponents_up_to(tab.base_size, max_base_degree)
    fiber = exponents_of_degree(tab.base_size, k)
    return tab, [a + b for a in base for b in fiber]


@dataclass(frozen=True)
class CasimirResult:
    n: int
    k: int
    delta: Fraction
    assembled: DiffOp
    closed_form: DiffOp
    c: Fraction
    eigenvalues: tuple
    verified: bool
    max_base_degree: int
    counterexample: Optional[Poly]

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "k": self.k,
            "delta": format_rational(self.delta),
            "c": format_rational(self.c),
            "eigenvalues": [format_rational(e) for e in self.eigenvalues],
            "verified": self.verified,
            "family": {"max_base_degree": self.max_base_degree},
            "counterexample": None if self.counterexample is None
            else self.counterexample.to_json(),
        }


def verify_diagonal_form(n: int, k: int, delta, max_base_degree: int = 4) -> CasimirResult:
    """Compare the assembled Casimir with its diagonal closed form.

    The two agree on R^k_delta iff fiber_restriction(assembled - closed, k)
    is empty.  Otherwise the counterexample is x^gamma xi^b for the nonzero
    (b, gamma) key with the graded-lex smallest gamma: no other key lies
    below gamma, so the difference sends that monomial to gamma! times the
    key's nonzero bucket.  max_base_degree is only echoed in the report; the
    CLI certifies the spectrum on base degree min(max_base_degree, 2), so
    values of 2 and above change nothing but that echo.
    """
    delta = Fraction(delta)
    assembled = assemble_casimir(n, k, delta, "dual_sum")
    closed = closed_form_casimir(n, k, delta)
    diff = fiber_restriction(assembled - closed, k)
    witness = None
    if diff:
        b, gamma = min(diff, key=lambda key: (grlex_key(key[1]), grlex_key(key[0])))
        witness = Poly.monomial(assembled.table, gamma + b)
    eigs = tuple(eigenvalue(n, k, l, delta) for l in range(k + 1))
    return CasimirResult(
        n, k, delta, assembled, closed, c_value(n, k, delta), eigs,
        not diff, max_base_degree, witness,
    )


@dataclass(frozen=True)
class CasimirMatrix:
    """The Casimir on the largest C-invariant monomial subfamily of a span."""

    module: RModule
    family: tuple          # kept exponent tuples, graded-lex
    images: dict           # sparse columns, images[e] = C e as {exp: Fraction}
    overflow: tuple        # dropped exponent tuples (image left the span)

    def _shift(self, vec: dict, eps: Fraction) -> dict:
        """(C - eps) vec for a sparse vector {exp: Fraction} over the family."""
        out = {exp: -eps * v for exp, v in vec.items()}
        for exp, v in vec.items():
            for img, c in self.images[exp].items():
                out[img] = out.get(img, 0) + v * c
        return {exp: v for exp, v in out.items() if v}

    def annihilated_by_spectrum(self) -> bool:
        """prod_l (C - eps_l) e == 0 for every kept e: roots and diagonalizability."""
        m = self.module
        spectrum = [eigenvalue(m.n, m.k, l, m.delta) for l in range(m.k + 1)]
        return not any(reduce(self._shift, spectrum, {e: Fraction(1)}) for e in self.family)

    def eigenspace_dimension(self, eps: Fraction) -> int:
        """Family size minus the rank of the shifted columns C e - eps e."""
        shifted = Echelon(self._shift({exp: Fraction(1)}, eps) for exp in self.family)
        return len(self.family) - shifted.rank


def image_columns(op: DiffOp, k: int, family) -> dict:
    """{e: op(e) as {exp: Fraction}} for monomials e = x^a xi^b with |b| = k.

    Each column is read from form = fiber_restriction(op, k), the same
    canonical form that decides operator equality, without applying op:

        op(x^a xi^b) = sum_{gamma <= a} a!/(a - gamma)! x^(a - gamma) form[(b, gamma)].
    """
    tab = op.table
    nb = tab.base_size
    pad = (0,) * (tab.size - nb)
    by_fiber: dict = {}
    for (b, gamma), bucket in fiber_restriction(op, k).items():
        by_fiber.setdefault(b, []).append((gamma, bucket))
    images = {}
    for exp in family:
        a = exp[:nb]
        col: dict = {}
        for gamma, bucket in by_fiber.get(exp[nb:], ()):
            if any(map(gt, gamma, a)):
                continue
            rest = tuple(map(sub, a, gamma)) + pad
            add_product(col, {rest: 1}, bucket, prod(map(perm, a, gamma)))
        images[exp] = col
    return images


def casimir_matrix(cas: DiffOp, n: int, k: int, delta, base_degree: int) -> CasimirMatrix:
    """Restrict the assembled Casimir cas to {x^a xi^b : |a| <= D, |b| = k}.

    The image columns come from the restricted form fiber_restriction(cas,
    k) through image_columns; cas is never applied to a monomial.  The
    Casimir can raise the base degree of individual monomials, so the span
    is shrunk to its largest C-invariant monomial subfamily; the dropped
    monomials are reported as overflow columns.
    """
    delta = Fraction(delta)
    module = RModule(n, k, delta)
    _, family = monomial_family(n, k, base_degree)
    family = sorted(family, key=grlex_key)
    images = image_columns(cas, k, family)
    kept = set(family)
    changed = True
    while changed:
        changed = False
        for exp in list(kept):
            if any(out_exp not in kept for out_exp in images[exp]):
                kept.discard(exp)
                changed = True
    final = tuple(exp for exp in family if exp in kept)
    overflow = tuple(exp for exp in family if exp not in kept)
    return CasimirMatrix(module, final, {exp: images[exp] for exp in final}, overflow)


# -- expansion-coefficient recovery ----------------------------------------------


def diagonalization_witness(n: int, k: int) -> Poly:
    """(p_1 xi_t + xi_q1)^k: a contraction-free element spanning a top summand."""
    tab = RModule(n, k, Fraction(0)).table
    base = (
        Poly.variable(tab, tab.p(1)) * Poly.variable(tab, tab.fiber("xi", tab.t))
        + Poly.variable(tab, tab.fiber("xi", tab.q(1)))
    )
    return base ** k


def extract_scalar(multiple: Poly, of: Poly) -> Fraction:
    """The exact scalar s with multiple == s * of; DomainError otherwise."""
    if of.is_zero():
        raise DomainError("cannot extract a scalar against the zero polynomial")
    if multiple.is_zero():
        return Fraction(0)
    exp, coeff = next(iter(of.terms.items()))
    s = multiple.terms.get(exp, Fraction(0)) / coeff
    if multiple != of.scale(s):
        raise DomainError("operand is not a scalar multiple")
    return s


def expansion_constants(n: int, k: int, delta) -> tuple:
    """Recover (c0, c1, c2) of C = sum_m c_m X^m i_alpha^m from eigenvectors.

    c0 comes from the witness P^k (a ker-i_alpha element), c1 from X P^{k-1}
    and c2 from X^2 P^{k-2}, exactly as in the diagonalization argument.
    Entries that need k >= 1 or k >= 2 are returned as None below those.
    """
    delta = Fraction(delta)
    cas = assemble_casimir(n, k, delta, "dual_sum")
    witness_k = SymbolElem(diagonalization_witness(n, k), RModule(n, k, delta))
    c0 = extract_scalar(cas.apply(witness_k.poly), witness_k.poly)
    c1 = c2 = None
    if k >= 1:
        lower = SymbolElem(diagonalization_witness(n, k - 1), RModule(n, k - 1, delta))
        lifted = gen_hamiltonian(lower)
        eig1 = extract_scalar(cas.apply(lifted.poly), lifted.poly)
        c1 = (eig1 - c0) / commutation_r(1, k - 1, delta, n)
    if k >= 2:
        lowest = SymbolElem(diagonalization_witness(n, k - 2), RModule(n, k - 2, delta))
        lifted2 = gen_hamiltonian(gen_hamiltonian(lowest))
        eig2 = extract_scalar(cas.apply(lifted2.poly), lifted2.poly)
        r2 = commutation_r(2, k - 2, delta, n)
        r1 = commutation_r(1, k - 2, delta, n)
        c2 = (eig2 - c0 - r2 * c1) / (r1 * r2)
    return c0, c1, c2
