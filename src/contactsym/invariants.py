"""Classical invariant tensor fields and the exact invariant-space solver.

The six classical generators, with their modules S^{k m}_{l; nu}:

    u1 = <Y, xi>                      in S^{10}_{1; 0}
    u2 = <Y, eta>                     in S^{01}_{1; 0}
    u3 = alpha(Y)                     in S^{00}_{1; -I}
    u4 = -2 xi_t                      in S^{10}_{0; I}
    u5 = -2 eta_t                     in S^{01}_{0; I}
    L1 = sum_k (xi_pk eta_qk - xi_qk eta_pk)
         + eta_t <E_s, xi_s> - xi_t <E_s, eta_s>   in S^{11}_{0; I}

with I = 1/(n+1).  The |volume|^(+-I) factors are carried as weight labels
on the module, never as polynomial factors (the chart trivializes them).

invariant_space_dim computes the exact kernel of {L_X Q = 0} over a
monomial ansatz of bounded base degree; the count of classical monomials
u1^a u2^b u3^c u4^d u5^e L1^f lands in the same module exactly when
(a..f) solves

    a+d+f = k,  b+e+f = m,  a+b+c = l,  d+e+f-c = (n+1) nu,

and the contact (full-algebra) case further forces d = e = 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .contact import generating_labels, sp_basis
from .enumeration import exponents_of_degree, exponents_up_to
from .errors import DomainError
from .linalg import Echelon, sparse_nullspace
from .poly import Poly, grlex_key
from .rationals import format_rational
from .symbols import SModule, SymbolElem, lie_action_symbol, weight_unit
from .vartable import table

GENERATOR_NAMES = ("u1", "u2", "u3", "u4", "u5", "L1")


@dataclass(frozen=True)
class InvariantGenerator:
    name: str
    elem: SymbolElem


def generator(name: str, n: int) -> InvariantGenerator:
    """One of the classical generators, as an exact polynomial symbol."""
    iw = weight_unit(n)
    if name == "u1" or name == "u2":
        block = "xi" if name == "u1" else "eta"
        mod = SModule(n, k=1, m=0, l=1, nu=0) if name == "u1" else SModule(n, 0, 1, 1, 0)
        tab = mod.table
        out = Poly.zero(tab)
        for a in tab.base_range:
            out = out + Poly.variable(tab, tab.fiber("Y", a)) * Poly.variable(
                tab, tab.fiber(block, a)
            )
        return InvariantGenerator(name, SymbolElem(out, mod))
    if name == "u3":
        mod = SModule(n, 0, 0, 1, -iw)
        tab = mod.table
        out = Poly.zero(tab)
        for i in range(1, n + 1):
            out = out + Poly.variable(tab, tab.p(i)) * Poly.variable(
                tab, tab.fiber("Y", tab.q(i))
            )
            out = out - Poly.variable(tab, tab.q(i)) * Poly.variable(
                tab, tab.fiber("Y", tab.p(i))
            )
        out = out - Poly.variable(tab, tab.fiber("Y", tab.t))
        return InvariantGenerator(name, SymbolElem(out.scale(Fraction(1, 2)), mod))
    if name == "u4" or name == "u5":
        block = "xi" if name == "u4" else "eta"
        mod = SModule(n, 1, 0, 0, iw) if name == "u4" else SModule(n, 0, 1, 0, iw)
        tab = mod.table
        out = Poly.variable(tab, tab.fiber(block, tab.t)).scale(-2)
        return InvariantGenerator(name, SymbolElem(out, mod))
    if name == "L1":
        mod = SModule(n, 1, 1, 0, iw)
        tab = mod.table
        out = Poly.zero(tab)
        for i in range(1, n + 1):
            out = out + Poly.variable(tab, tab.fiber("xi", tab.p(i))) * Poly.variable(
                tab, tab.fiber("eta", tab.q(i))
            )
            out = out - Poly.variable(tab, tab.fiber("xi", tab.q(i))) * Poly.variable(
                tab, tab.fiber("eta", tab.p(i))
            )
        eta_t = Poly.variable(tab, tab.fiber("eta", tab.t))
        xi_t = Poly.variable(tab, tab.fiber("xi", tab.t))
        for a in tab.spatial_base():
            x_a = Poly.variable(tab, a)
            out = out + eta_t * x_a * Poly.variable(tab, tab.fiber("xi", a))
            out = out - xi_t * x_a * Poly.variable(tab, tab.fiber("eta", a))
        return InvariantGenerator(name, SymbolElem(out, mod))
    raise DomainError(f"unknown generator name {name!r}")


# -- counting ------------------------------------------------------------------


def s1_solutions(n: int, k: int, m: int, l: int, nu, contact_only: bool = False):
    """Exponent tuples (a, b, c, d, e, f) solving the degree/weight system."""
    nu = Fraction(nu)
    rhs = nu * (n + 1)
    if rhs.denominator != 1:
        return []
    rhs = rhs.numerator
    out = []
    for f in range(min(k, m) + 1):
        for a in range(k - f + 1):
            d = k - f - a
            for b in range(min(m - f, l - a) + 1):
                e = m - f - b
                c = l - a - b
                if c < 0:
                    continue
                if d + e + f - c != rhs:
                    continue
                if contact_only and (d or e):
                    continue
                out.append((a, b, c, d, e, f))
    out.sort()
    return out


def count_S1(n: int, k: int, m: int, l: int, nu, contact_only: bool = False) -> int:
    """Number of classical monomials in S^{k m}_{l; nu}; 0 off the weight lattice."""
    return len(s1_solutions(n, k, m, l, nu, contact_only))


def classical_product(n: int, exponents) -> SymbolElem:
    """u1^a u2^b u3^c u4^d u5^e L1^f as a single symbol."""
    a, b, c, d, e, f = exponents
    out = SymbolElem(Poly.one(table(n, ())), SModule(n, 0, 0, 0, 0))
    for name, power in zip(GENERATOR_NAMES, (a, b, c, d, e, f)):
        gen = generator(name, n).elem
        for _ in range(power):
            out = out * gen
    return out


def monomial_basis_classical(n: int, k: int, m: int, l: int, nu,
                             contact_only: bool = False):
    """One classical product per solution; asserted independent exactly."""
    sols = s1_solutions(n, k, m, l, nu, contact_only)
    mod = SModule(n, k, m, l, Fraction(nu))
    elems = []
    span = Echelon()
    for sol in sols:
        prod = classical_product(n, sol)
        elem = SymbolElem(prod.poly.convert(mod.table), mod)
        if span.add_row(elem.poly.terms) is None:
            raise DomainError("classical products are linearly dependent")
        elems.append(elem)
    return elems


# -- the exact invariant-space solver -------------------------------------------


@dataclass(frozen=True)
class InvariantQuery:
    n: int
    k: int
    m: int
    l: int
    nu: Fraction
    algebra: str = "affine_contact"  # or "full_sp"
    x_degree_bound: Optional[int] = None

    def __post_init__(self):
        object.__setattr__(self, "nu", Fraction(self.nu))
        if self.algebra not in ("affine_contact", "full_sp"):
            raise DomainError(f"unknown algebra {self.algebra!r}")

    @property
    def bound(self) -> int:
        if self.x_degree_bound is not None:
            return self.x_degree_bound
        return self.l + min(self.k, self.m) + 1

    def describe(self) -> dict:
        return {
            "n": self.n, "k": self.k, "m": self.m, "l": self.l,
            "nu": format_rational(self.nu), "algebra": self.algebra,
            "x_degree_bound": self.bound,
        }


def _fiber_index(mod: SModule) -> dict:
    """Fiber exponents of mod, concatenated in block order, by (grade, charge).

    The grade is the Euler grade G_xi + G_eta - G_Y (spatial slots 1, the t
    slot 2); charge i is the X_{p_i q^i} eigenvalue, with the base part left
    out.  Both are integers.
    """
    n = mod.n
    sign = {"xi": 1, "eta": 1, "Y": -1}
    index = {(0, (0,) * n): [()]}
    for block, degree in mod.fiber_degrees.items():
        s = sign[block]
        grown: dict = {}
        for exp in exponents_of_degree(2 * n + 1, degree):
            grade = s * (sum(exp[: 2 * n]) + 2 * exp[2 * n])
            charge = tuple(s * (exp[i] - exp[n + i]) for i in range(n))
            for (g, ch), prefixes in index.items():
                key = (g + grade, tuple(a + b for a, b in zip(ch, charge)))
                grown.setdefault(key, []).extend(pre + exp for pre in prefixes)
        index = grown
    return index


def invariant_space_dim(query: InvariantQuery):
    """Exact dimension and basis of the invariant subspace of the ansatz.

    The kernel conditions for X_1 (t-freeness), X_t (an Euler grading) and
    the diagonal fields X_{p_i q^i} (charge conservation) are diagonal on
    the monomial ansatz and are imposed as exact per-monomial filters: a
    t-free base exponent meets only the fiber exponents of the grade and
    charge it forces.  The ansatz is a representation of the algebra on
    which every L_X keeps the fiber degrees, so invariance under a set of
    fields implies invariance under the Lie algebra they generate.  Rows
    are therefore imposed only for contact.generating_labels, which
    together with the filtered fields generate the algebra; that set is
    certified by bracket closure over the structure constants.
    """
    n = query.n
    mod = SModule(n, query.k, query.m, query.l, query.nu)
    tab = mod.table
    target = 2 * (n + 1) * query.nu  # the Euler grade every term must match
    if target.denominator != 1:
        return 0, []
    fibers = _fiber_index(mod)

    monomials = []
    for base in exponents_up_to(tab.base_size, query.bound):
        if base[2 * n]:
            continue  # X_1 invariance kills every t-dependent coefficient
        # The fiber part must carry the grade and charge that the base lacks.
        key = (
            int(target) + sum(base),
            tuple(base[i] - base[n + i] for i in range(n)),
        )
        monomials.extend(base + fiber for fiber in fibers.get(key, ()))
    monomials.sort(key=grlex_key)
    if not monomials:
        return 0, []

    basis = sp_basis(n)
    labels = generating_labels(n, query.algebra)
    rows: dict = {}
    for col, exp in enumerate(monomials):
        elem = SymbolElem(Poly.monomial(tab, exp), mod)
        for g_idx, lbl in enumerate(labels):
            image = lie_action_symbol(basis.field(lbl), elem)
            for out_exp, coeff in image.poly.terms.items():
                rows.setdefault((g_idx, out_exp), {})[col] = coeff
    row_list = [rows[key] for key in sorted(rows, key=lambda key: (key[0], grlex_key(key[1])))]
    kernel = sparse_nullspace(row_list, len(monomials))

    elems = []
    for vec in kernel:
        acc = {exp: c for exp, c in zip(monomials, vec) if c}
        elems.append(SymbolElem(Poly(tab, acc), mod))
    return len(elems), elems


def invariants_report(query: InvariantQuery) -> dict:
    """CLI-facing record: solver dimension against the counting system."""
    dim, basis_elems = invariant_space_dim(query)
    contact_only = query.algebra == "full_sp"
    count = count_S1(query.n, query.k, query.m, query.l, query.nu, contact_only)
    return {
        "query": query.describe(),
        "solver_dim": dim,
        "count_S1": count,
        "match": dim == count,
        "basis": [el.poly.to_json() for el in basis_elems],
    }
