"""The two basic invariant operators and everything they generate.

i_alpha is the vertical cotangent lift of the contact form, a contraction
lowering the xi-degree by one and the weight by 1/(n+1):

    (i_alpha S)(xi) = (1/2) (sum_j (p_j d_{xi_qj} - q_j d_{xi_pj}) - d_{xi_t}) S.

X is the generalized contact Hamiltonian raising both:

    X(S) = sum_j (xi_qj d_{pj} - xi_pj d_{qj}) S + xi_t E_s S
           - <E_s, xi_s> d_t S + a * xi_t S,      a = 2(n+1) w - k,

where w is the true bundle weight of the source (so a = 2(n+1) delta + k
on R^k_delta).  Compositions track the intermediate weights step by step:
the a-scalar changes at every application, which is why ModuleOp refuses
mismatched source/target descriptors.

decompose() peels an element of R^k_delta into the eigenspace summands
X^l (R^{k-l}_delta  intersect  ker i_alpha) using the commutation scalars;
classify_same_weight() computes the exact space of operators R^l -> R^k
intertwining the whole generator basis.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .contact import SpBasis, generating_labels, sp_basis
from .diffop import DiffOp, unit_index
from .enumeration import compositions_with_minimum, exponents_of_degree, exponents_up_to
from .errors import DomainError, StructuralError
from .linalg import Echelon, sparse_nullspace
from .poly import Poly, grlex_key
from .rationals import format_rational
from .spectra import commutation_r, eigenvalue, require_noncritical
from .symbols import (
    ModuleDesc,
    RModule,
    SModule,
    SymbolElem,
    lie_action_as_diffop,
    spatial_contraction_poly,
)
from .vartable import VarTable

__all__ = [
    "Decomposition",
    "ModuleOp",
    "classify_same_weight",
    "decompose",
    "fiber_restriction",
    "gen_hamiltonian",
    "gen_hamiltonian_module_op",
    "gen_hamiltonian_op",
    "i_alpha",
    "i_alpha_module_op",
    "i_alpha_op",
    "intertwines_all_generators",
    "predicted_same_weight_ops",
    "restriction_coordinates",
    "restriction_vector",
    "same_weight_predicted_count",
]


def _single_fiber(module: ModuleDesc) -> int:
    """xi-degree of a one-fiber module (R^k or S^k); rejects mixed symbols."""
    if isinstance(module, RModule):
        return module.k
    if isinstance(module, SModule):
        if module.m or module.l:
            raise StructuralError("operator defined on single-fiber symbols only")
        return module.k
    raise StructuralError(f"unsupported module descriptor {module!r}")


def i_alpha_op(tab: VarTable) -> DiffOp:
    """The contraction operator as a normal-ordered DiffOp on a xi-table."""
    n = tab.n
    half = Fraction(1, 2)
    terms: dict = {}

    for i in range(1, n + 1):
        terms[unit_index(tab, tab.fiber("xi", tab.q(i)))] = (
            Poly.variable(tab, tab.p(i)).scale(half)
        )
        terms[unit_index(tab, tab.fiber("xi", tab.p(i)))] = (
            Poly.variable(tab, tab.q(i)).scale(-half)
        )
    terms[unit_index(tab, tab.fiber("xi", tab.t))] = Poly.constant(tab, -half)
    return DiffOp(tab, terms)


def i_alpha(s: SymbolElem) -> SymbolElem:
    """Contract a symbol: fiber degree k -> k-1, weight drops by 1/(n+1)."""
    k = _single_fiber(s.module)
    target = s.module.contracted()
    if k == 0:
        return SymbolElem(Poly.zero(target.table), target)
    out = i_alpha_op(s.module.table).apply(s.poly)
    return SymbolElem(out.convert(target.table), target)


def gen_hamiltonian_op(module: ModuleDesc) -> DiffOp:
    """X on the given single-fiber module, built over the *raised* table."""
    k = _single_fiber(module)
    target = module.raised()
    tab = target.table
    n = tab.n
    a = 2 * (n + 1) * module.weight - k
    xi_t = Poly.variable(tab, tab.fiber("xi", tab.t))
    terms: dict = {}

    for i in range(1, n + 1):
        # xi_q d_p - xi_p d_q, plus the xi_t E_s part on the same slots
        terms[unit_index(tab, tab.p(i))] = (
            Poly.variable(tab, tab.fiber("xi", tab.q(i)))
            + xi_t * Poly.variable(tab, tab.p(i))
        )
        terms[unit_index(tab, tab.q(i))] = (
            -Poly.variable(tab, tab.fiber("xi", tab.p(i)))
            + xi_t * Poly.variable(tab, tab.q(i))
        )
    terms[unit_index(tab, tab.t)] = -spatial_contraction_poly(tab, "xi")
    if a:
        terms[(0,) * tab.size] = xi_t.scale(a)
    return DiffOp(tab, terms)


def gen_hamiltonian(s: SymbolElem) -> SymbolElem:
    """Raise a symbol: fiber degree k -> k+1, weight rises by 1/(n+1)."""
    target = s.module.raised()
    op = gen_hamiltonian_op(s.module)
    return SymbolElem(op.apply(s.poly.convert(target.table)), target)


@dataclass(frozen=True)
class ModuleOp:
    """A differential operator with declared source and target modules."""

    source: ModuleDesc
    target: ModuleDesc
    diffop: DiffOp
    label: str = "custom"

    def apply(self, s: SymbolElem) -> SymbolElem:
        if s.module != self.source:
            raise StructuralError(
                f"operator {self.label} expects {self.source}, got {s.module}"
            )
        out = self.diffop.apply(s.poly.convert(self.diffop.table))
        return SymbolElem(out.convert(self.target.table), self.target)

    def compose(self, other: "ModuleOp") -> "ModuleOp":
        """self o other; refuses mismatched intermediate descriptors."""
        if other.target != self.source:
            raise StructuralError(
                f"cannot compose: {other.label} targets {other.target} "
                f"but {self.label} expects {self.source}"
            )
        return ModuleOp(
            other.source,
            self.target,
            self.diffop.compose(other.diffop),
            label=f"{self.label}o{other.label}",
        )


def i_alpha_module_op(module: ModuleDesc) -> ModuleOp:
    return ModuleOp(module, module.contracted(), i_alpha_op(module.table), "i_alpha")


def gen_hamiltonian_module_op(module: ModuleDesc) -> ModuleOp:
    return ModuleOp(module, module.raised(), gen_hamiltonian_op(module), "X")


# -- eigenspace decomposition of R^k_delta -----------------------------------


@dataclass(frozen=True)
class Decomposition:
    """S = sum_l X^l T_l with T_l in R^{k-l}_delta and i_alpha T_l = 0."""

    module: RModule
    components: tuple  # T_l as SymbolElem in R^{k-l}_delta, l = 0..k
    lifted: tuple      # X^l T_l back in R^k_delta
    eigenvalues: tuple

    def reconstruction(self) -> SymbolElem:
        out = SymbolElem(Poly.zero(self.module.table), self.module)
        for piece in self.lifted:
            out = out + piece
        return out

    def to_json(self, reconstructed_ok: bool = True) -> dict:
        return {
            "k": self.module.k,
            "delta": format_rational(self.module.delta),
            "components": [
                {
                    "l": l,
                    "T": t.poly.to_json(),
                    "XlT": lift.poly.to_json(),
                    "eigenvalue": format_rational(eps),
                }
                for l, (t, lift, eps) in enumerate(
                    zip(self.components, self.lifted, self.eigenvalues)
                )
            ],
            "reconstructed_ok": reconstructed_ok,
        }


def decompose(s: SymbolElem) -> Decomposition:
    """Peel S into eigenspace components, highest l first.

    Requires delta outside the critical set C_k (otherwise some peeling
    denominator rho(l, l) = prod_i r(i, k-l) vanishes).
    """
    module = s.module
    if not isinstance(module, RModule):
        raise StructuralError("decompose is defined on R^k_delta elements")
    n, k, delta = module.n, module.k, module.delta
    require_noncritical(delta, k, n)

    components: list[Optional[SymbolElem]] = [None] * (k + 1)
    lifted: list[Optional[SymbolElem]] = [None] * (k + 1)
    residual = s
    for l in range(k, -1, -1):
        peeled = residual
        for _ in range(l):
            peeled = i_alpha(peeled)
        rho = Fraction(1)
        for i in range(1, l + 1):
            rho *= commutation_r(i, k - l, delta, n)
        t_l = peeled.scale(Fraction(1) / rho) if l else peeled
        if i_alpha(t_l).poly:
            raise StructuralError("peeling produced a component outside ker i_alpha")
        lift = t_l
        for _ in range(l):
            lift = gen_hamiltonian(lift)
        components[l] = t_l
        lifted[l] = lift
        residual = residual - lift
    if residual.poly:
        raise StructuralError("decomposition residual did not vanish")
    eps = tuple(eigenvalue(n, k, l, delta) for l in range(k + 1))
    return Decomposition(module, tuple(components), tuple(lifted), eps)


# -- classification of same-weight invariant operators ------------------------


def same_weight_predicted_count(l: int, k: int, order_bound: int) -> int:
    return max(min(k, order_bound) - max(0, k - l) + 1, 0)


def fiber_restriction(op: DiffOp, degree: int) -> dict:
    """Canonical form of an operator restricted to xi-degree == degree.

    An operator annihilates every polynomial of that fiber degree iff, for
    every base derivative gamma and every xi-monomial xi^b with |b| equal
    to the degree, the combined coefficient of d^gamma applied against
    xi^b vanishes.  The returned map {(b, gamma): {exp: coeff}} collects
    exactly those coefficients, so two operators restrict to the same map
    on the fiber-degree subspace iff their forms are equal, and the
    restriction vanishes iff the form is empty.
    """
    tab = op.table
    nb = tab.base_size
    if tab.blocks != ("xi",):
        raise StructuralError("fiber restriction expects a base+xi table")
    out: dict = {}
    for midx, coeff in op.terms.items():
        gamma, beta = midx[:nb], midx[nb:]
        for b in exponents_of_degree(nb, degree):
            factor = 1
            for bb, bv in zip(beta, b):
                if bb > bv:
                    factor = 0
                    break
                for x in range(bv, bv - bb, -1):
                    factor *= x
            if not factor:
                continue
            key = (b, gamma)
            bucket = out.setdefault(key, {})
            for exp, c in coeff.terms.items():
                shifted = list(exp)
                for pos, (bb, bv) in enumerate(zip(beta, b)):
                    shifted[nb + pos] += bv - bb
                skey = tuple(shifted)
                s = bucket.get(skey, Fraction(0)) + c * factor
                if s:
                    bucket[skey] = s
                else:
                    bucket.pop(skey, None)
    return {key: bucket for key, bucket in out.items() if bucket}


def restriction_vector(op: DiffOp, degree: int, slots: dict) -> dict:
    """Sparse vector of fiber_restriction over a shared slot index table."""
    vec = {}
    for key, bucket in fiber_restriction(op, degree).items():
        for exp, c in bucket.items():
            slot = (key[0], key[1], exp)
            idx = slots.setdefault(slot, len(slots))
            vec[idx] = c
    return vec


def predicted_same_weight_ops(n: int, l: int, k: int, delta, order_bound: int):
    """The operators X^m o i_alpha^(l+m-k) realizable within the order bound."""
    delta = Fraction(delta)
    out = []
    for m in range(max(0, k - l), min(k, order_bound) + 1):
        drops = l + m - k
        op = None
        module = RModule(n, l, delta)
        for _ in range(drops):
            step = i_alpha_module_op(module)
            op = step if op is None else step.compose(op)
            module = step.target
        for _ in range(m):
            step = gen_hamiltonian_module_op(module)
            op = step if op is None else step.compose(op)
            module = step.target
        if op is None:
            op = ModuleOp(module, module, DiffOp.identity(module.table), "id")
        out.append(
            ModuleOp(op.source, op.target, op.diffop, label=f"X^{m}oi_a^{drops}")
        )
    return out


def classify_same_weight(n: int, l: int, k: int, delta, order_bound: int):
    """Exact basis of intertwining operators R^l_delta -> R^k_delta.

    The ansatz is T = sum c(x) xi^mu d_x^gamma d_xi^beta with |beta| <= l,
    |mu| = k - l + |beta| and |gamma| <= order_bound.  An operator only
    matters through its action on xi-degree-l polynomials, so the ansatz
    terms are first reduced modulo the annihilator of that subspace
    (fiber_restriction).  Intertwining against the grading generators (X_1,
    X_t and the diagonal p_i q_i fields) is imposed exactly as per-term
    filters; the X_t grading fixes the degree of each coefficient, so the
    result is exhaustive up to the order bound.

    Every L_X keeps the fiber degree, so the condition L_X o T = T o L_X
    on the xi-degree-l subspace is closed under brackets of the fields (on
    R^l_delta and R^k_delta the action is a representation): intertwining
    a set of fields implies intertwining the Lie algebra they generate.
    Rows are therefore imposed only for contact.generating_labels, which
    together with the filtered fields generate sp(2n+2); that set is
    certified by bracket closure over the structure constants.  Each row
    set is the fiber restriction of L_X^tgt o T - T o L_X^src, taken from
    the first-order commutator kernel DiffOp.commutator, which skips the
    products that cancel.  The rows feed an exact sparse kernel computation
    on the restricted coefficients.

    Returns (dimension, list of ModuleOp kernel representatives).
    """
    if order_bound < 0:
        raise DomainError("order bound must be >= 0")
    delta = Fraction(delta)
    source = RModule(n, l, delta)
    target = RModule(n, k, delta)
    tab = source.table
    base_size = tab.base_size

    def spatial(exp):
        return sum(exp[: 2 * n])

    terms = []  # (sort_key, coeff_exp, midx)
    for beta_total in range(l + 1):
        mu_total = k - l + beta_total
        if mu_total < 0:
            continue
        for beta in exponents_of_degree(base_size, beta_total):
            for mu in exponents_of_degree(base_size, mu_total):
                for gamma in exponents_up_to(base_size, order_bound):
                    dpq = (
                        spatial(gamma) + 2 * gamma[2 * n]
                        + spatial(mu) - spatial(beta)
                        + 2 * (mu[2 * n] - beta[2 * n])
                        - 2 * (k - l)
                    )
                    if dpq < 0:
                        continue
                    # Per-index charge fixes alpha_qi - alpha_pi.
                    s = [
                        (gamma[n + i] - gamma[i]) - (mu[i] - beta[i]) + (mu[n + i] - beta[n + i])
                        for i in range(n)
                    ]
                    shift = dpq - sum(s)
                    if shift < 0 or shift % 2:
                        continue
                    minima = tuple(max(0, -si) for si in s)
                    for a_p in compositions_with_minimum(shift // 2, minima):
                        alpha = list(a_p) + [ap + si for ap, si in zip(a_p, s)] + [0]
                        coeff_exp = tuple(alpha) + mu
                        midx = gamma + beta
                        key = (sum(gamma), sum(beta), sum(mu), gamma, beta, mu, tuple(alpha))
                        terms.append((key, coeff_exp, midx))
    terms.sort(key=lambda c: c[0])

    # Reduce to terms with independent restricted actions (graded-lex first).
    slots: dict = {}
    restricted = Echelon()
    columns = []
    for key, coeff_exp, midx in terms:
        op = DiffOp(tab, {midx: Poly.monomial(tab, coeff_exp)})
        if restricted.add_row(restriction_vector(op, l, slots)) is not None:
            columns.append((key, coeff_exp, midx, op))

    basis = sp_basis(n)
    fields = [basis.field(lbl) for lbl in generating_labels(n)]
    actions = [
        (lie_action_as_diffop(x, source), lie_action_as_diffop(x, target)) for x in fields
    ]

    rows: dict = {}
    for col, (_, _, _, t_u) in enumerate(columns):
        for g_idx, (l_src, l_tgt) in enumerate(actions):
            bracket = l_tgt.commutator(t_u, l_src)
            for (b, gamma), bucket in fiber_restriction(bracket, l).items():
                for exp, c in bucket.items():
                    rows.setdefault((g_idx, b, gamma, exp), {})[col] = c

    row_list = [
        rows[key]
        for key in sorted(
            rows, key=lambda key: (key[0], grlex_key(key[1]), grlex_key(key[2]), grlex_key(key[3]))
        )
    ]
    kernel = sparse_nullspace(row_list, len(columns))

    ops = []
    for vec_idx, vec in enumerate(kernel):
        acc: dict = {}
        for col, c in enumerate(vec):
            if not c:
                continue
            _, coeff_exp, midx, _ = columns[col]
            prev = acc.get(midx, Poly.zero(tab))
            acc[midx] = prev + Poly.monomial(tab, coeff_exp, c)
        ops.append(ModuleOp(source, target, DiffOp(tab, acc), label=f"kernel{vec_idx}"))
    return len(ops), ops


def intertwines_all_generators(op: ModuleOp, basis: SpBasis) -> bool:
    """L_X o T == T o L_X on the source fiber-degree subspace, all generators."""
    l = _single_fiber(op.source)
    for gen in basis.generators:
        l_src = lie_action_as_diffop(gen.field, op.source)
        l_tgt = lie_action_as_diffop(gen.field, op.target)
        if fiber_restriction(l_tgt.commutator(op.diffop, l_src), l):
            return False
    return True


def restriction_coordinates(ops, degree: int):
    """Restriction fingerprints of a family of operators over shared slots."""
    slots: dict = {}
    vecs = [restriction_vector(op.diffop, degree, slots) for op in ops]
    return vecs, slots
