"""The Darboux model of the contact line: fields, brackets, and the sp basis.

Everything lives on R^(2n+1) with coordinates (p_1..p_n, q_1..q_n, t) and
the fixed contact form

    alpha = (1/2) * (sum_k (p_k dq^k - q^k dp_k) - dt).

Sign conventions (the dominant source of errors, so spelled out once):

  * The Reeb field is E = -2 d/dt, forced by i_E alpha = 1 for this alpha.
  * The contact Hamiltonian of a function h is

        X_h = sum_k (d_{p_k}h d_{q_k} - d_{q_k}h d_{p_k})
              + E_s(h) d_t - d_t(h) E_s - 2 h d_t,

    with E_s = sum_k (p_k d_{p_k} + q_k d_{q_k}) the spatial Euler field.
    In particular X_1 = -2 d_t = E and X_t = -E_s - 2 t d_t.
  * The Lagrange bracket is {h, g} = X_h(g) - g E(h); with these signs
    {p_i, q_i} = 1 and X_{{h,g}} = [X_h, X_g].

The basis of the projective contact algebra (isomorphic to sp(2n+2, R))
consists of the contact Hamiltonian fields of 1, p_i, q_i, t and of all
quadratics; it is ordered to match its Killing-dual partner list, built
with the constants

    k_ij = -1 / (4 (n+2) (1 + delta_ij)),     k = 1 / (4 (n+2)).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations_with_replacement
from typing import Mapping, Sequence

from .errors import DomainError, SpanError, StructuralError, TableMismatchError
from .linalg import Echelon
from .poly import Poly, grlex_key
from .rationals import format_rational
from .vartable import VarTable, table


def base_table(n: int) -> VarTable:
    return table(n, ())


class VField:
    """Polynomial vector field on the base chart.

    components[a] is the coefficient of d/d(x_a) in the base variable order
    p_1..p_n, q_1..q_n, t.  Components contain base variables only.
    """

    __slots__ = ("table", "components")

    def __init__(self, tab: VarTable, components: Sequence[Poly]):
        if len(components) != tab.base_size:
            raise StructuralError("need one component per base variable")
        comps = []
        for comp in components:
            comp = comp if comp.table == tab else comp.convert(tab)
            if not comp.uses_only(tab.base_range):
                raise DomainError("vector field components must be base-only")
            comps.append(comp)
        object.__setattr__(self, "table", tab)
        object.__setattr__(self, "components", tuple(comps))

    def __setattr__(self, *_):
        raise AttributeError("VField is immutable")

    def __eq__(self, other):
        if not isinstance(other, VField):
            return NotImplemented
        return self.table == other.table and self.components == other.components

    def __hash__(self):
        return hash((self.table, self.components))

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.components)

    def __add__(self, other: "VField") -> "VField":
        if self.table != other.table:
            raise TableMismatchError("vector fields over different tables")
        return VField(self.table, [a + b for a, b in zip(self.components, other.components)])

    def __sub__(self, other: "VField") -> "VField":
        return self + other.scale(-1)

    def scale(self, c) -> "VField":
        return VField(self.table, [comp.scale(c) for comp in self.components])

    def apply(self, f: Poly) -> Poly:
        """Directional derivative X(f); f may live over a larger table."""
        tab = f.table
        out = Poly.zero(tab)
        for a, comp in enumerate(self.components):
            df = f.diff(a)  # base variables occupy the same leading indices
            if df:
                out = out + comp.convert(tab) * df
        return out

    def __str__(self):
        names = self.table.names
        parts = [f"({comp})*d_{names[a]}" for a, comp in enumerate(self.components) if comp]
        return " + ".join(parts) if parts else "0"

    def __repr__(self):
        return f"VField({self})"


# -- basic constructions --------------------------------------------------


def _require_base_poly(h: Poly, n: int) -> Poly:
    tab = base_table(n)
    if h.table != tab:
        if not h.uses_only(h.table.base_range):
            raise DomainError("expected a polynomial in base variables only")
        h = h.convert(tab)
    return h


def reeb_field(n: int) -> VField:
    """E = -2 d/dt, the Reeb field of the fixed contact form."""
    tab = base_table(n)
    comps = [Poly.zero(tab)] * (2 * n) + [Poly.constant(tab, -2)]
    return VField(tab, comps)


def contact_hamiltonian(h: Poly, n: int) -> VField:
    """The contact field X_h of a base polynomial h (see module docstring)."""
    tab = base_table(n)
    h = _require_base_poly(h, n)
    dt = h.diff(tab.t)
    es_h = Poly.zero(tab)
    for a in range(2 * n):
        es_h = es_h + Poly.variable(tab, a) * h.diff(a)
    comps = []
    for i in range(1, n + 1):
        comps.append(-h.diff(tab.q(i)) - Poly.variable(tab, tab.p(i)) * dt)
    for i in range(1, n + 1):
        comps.append(h.diff(tab.p(i)) - Poly.variable(tab, tab.q(i)) * dt)
    comps.append(es_h - h.scale(2))
    return VField(tab, comps)


def lagrange_bracket(h: Poly, g: Poly, n: int) -> Poly:
    """{h, g} = X_h(g) - g E(h) with E = -2 d/dt."""
    tab = base_table(n)
    h = _require_base_poly(h, n)
    g = _require_base_poly(g, n)
    e_h = h.diff(tab.t).scale(-2)
    return contact_hamiltonian(h, n).apply(g) - g * e_h


def vfield_bracket(x: VField, y: VField) -> VField:
    """[X, Y] = X(Y components) - Y(X components), componentwise."""
    if x.table != y.table:
        raise TableMismatchError("vector fields over different tables")
    comps = [x.apply(yc) - y.apply(xc) for xc, yc in zip(x.components, y.components)]
    return VField(x.table, comps)


def divergence(x: VField) -> Poly:
    """Ordinary divergence; the chart volume is a constant multiple of Lebesgue."""
    out = Poly.zero(x.table)
    for a, comp in enumerate(x.components):
        out = out + comp.diff(a)
    return out


def alpha_of(x: VField) -> Poly:
    """alpha(X) = (1/2)(sum_k (p_k X^{q_k} - q_k X^{p_k}) - X^t)."""
    tab = x.table
    n = tab.n
    out = Poly.zero(tab)
    for i in range(1, n + 1):
        out = out + Poly.variable(tab, tab.p(i)) * x.components[tab.q(i)]
        out = out - Poly.variable(tab, tab.q(i)) * x.components[tab.p(i)]
    out = out - x.components[tab.t]
    return out.scale(Fraction(1, 2))


# -- the sp_{2n+2} basis ----------------------------------------------------


@dataclass(frozen=True)
class SpGenerator:
    """One basis element: its label, generating function, and contact field."""

    label: str
    hamiltonian: Poly
    field: VField


class SpBasis:
    """The (n+1)(2n+3) contact Hamiltonian generators with Killing duals.

    Generator order follows the dual-basis display: the sp_{2n} pairs first
    (pp with tp and t^2, then qq with q and 1), then the mixed pq row with
    tq, p and t.  duals[a] is a {label: coefficient} combination realizing
    the Killing-dual partner of generators[a].
    """

    def __init__(self, n: int):
        if n < 1:
            raise DomainError("n must be >= 1")
        self.n = n
        self.table = base_table(n)
        self.generators: list[SpGenerator] = []
        self.duals: list[dict[str, Fraction]] = []
        k = Fraction(1, 4 * (n + 2))

        def kij(i, j):
            return Fraction(-1, 4 * (n + 2) * (2 if i == j else 1))

        def ham(label: str) -> Poly:
            return _label_poly(self.table, label)

        def add(label: str, dual: dict):
            self.generators.append(
                SpGenerator(label, ham(label), contact_hamiltonian(ham(label), n))
            )
            self.duals.append({lbl: Fraction(c) for lbl, c in dual.items()})

        rng = range(1, n + 1)
        for i, j in combinations_with_replacement(rng, 2):
            add(f"p{i}p{j}", {f"q{i}q{j}": kij(i, j)})
        for i in rng:
            add(f"tp{i}", {f"q{i}": -k})
        add("t2", {"1": -k / 2})
        for i, j in combinations_with_replacement(rng, 2):
            add(f"q{i}q{j}", {f"p{i}p{j}": kij(i, j)})
        for i in rng:
            add(f"q{i}", {f"tp{i}": -k})
        add("1", {"t2": -k / 2})
        for i in rng:
            for j in rng:
                add(f"p{j}q{i}", {f"p{i}q{j}": k})
        for i in rng:
            add(f"tq{i}", {f"p{i}": k})
        for i in rng:
            add(f"p{i}", {f"tq{i}": k})
        add("t", {"t": k})

        self.index = {g.label: a for a, g in enumerate(self.generators)}
        self._span = None
        self._structure = None
        self._ad = None

    @property
    def dim(self) -> int:
        return len(self.generators)

    def field(self, label: str) -> VField:
        return self.generators[self.index[label]].field

    def hamiltonian(self, label: str) -> Poly:
        return self.generators[self.index[label]].hamiltonian

    def dual_combination(self, label: str) -> dict[str, Fraction]:
        return dict(self.duals[self.index[label]])

    # -- coordinates of fields in the generator span -----------------------

    def _field_vector(self, x: VField) -> dict[int, Fraction]:
        """Sparse coefficients of x: column a * M + i holds monomial i of component a.

        M is the number of base monomials of degree <= 2.
        """
        index = _component_index(self.n)
        vec = {}
        for a, comp in enumerate(x.components):
            for mono, c in comp.terms.items():
                if mono not in index:
                    raise SpanError("field has a component of degree above 2")
                vec[a * len(index) + index[mono]] = c
        return vec

    def _span_echelon(self) -> tuple[Echelon, int]:
        """Generator vectors, generator j tagged by a 1 in column m + j.

        Returns the echelon form and m, the number of field columns.
        """
        m = self.table.base_size * len(_component_index(self.n))
        if self._span is None:
            span = Echelon()
            for j, gen in enumerate(self.generators):
                row = self._field_vector(gen.field)
                row[m + j] = Fraction(1)
                if span.add_row(row) >= m:
                    raise SpanError("basis fields are linearly dependent")
            self._span = span
        return self._span, m

    def coordinates(self, x: VField) -> list[Fraction]:
        """Coefficients of x in the generator basis; SpanError if outside.

        The residual of x modulo the tagged generators is exactly
        -sum_j x_j e_{m+j} when x lies in the span, and has a field column
        (< m) otherwise.
        """
        span, m = self._span_echelon()
        residual = span.reduce(self._field_vector(x))
        if any(c < m for c in residual):
            raise SpanError("target vector lies outside the span")
        return [-residual.get(m + j, Fraction(0)) for j in range(self.dim)]

    def element_vector(self, elem) -> list[Fraction]:
        """Coerce a label, {label: coeff} mapping, or VField to coordinates."""
        if isinstance(elem, str):
            vec = [Fraction(0)] * self.dim
            vec[self.index[elem]] = Fraction(1)
            return vec
        if isinstance(elem, Mapping):
            vec = [Fraction(0)] * self.dim
            for lbl, c in elem.items():
                vec[self.index[lbl]] += Fraction(c)
            return vec
        if isinstance(elem, VField):
            return self.coordinates(elem)
        if isinstance(elem, (list, tuple)):
            if len(elem) != self.dim:
                raise SpanError("coordinate vector has wrong length")
            return [Fraction(c) for c in elem]
        raise SpanError(f"cannot interpret {elem!r} as an algebra element")

    # -- structure constants and the Killing form ---------------------------

    def structure_constants(self):
        """c[a][b] = coordinates of [e_a, e_b], computed once per basis."""
        if self._structure is None:
            dim = self.dim
            c = [[None] * dim for _ in range(dim)]
            for a in range(dim):
                for b in range(a, dim):
                    bracket = vfield_bracket(
                        self.generators[a].field, self.generators[b].field
                    )
                    coords = self.coordinates(bracket)
                    c[a][b] = coords
                    c[b][a] = [-x for x in coords]
            self._structure = c
        return self._structure

    def ad_matrices(self):
        """ad(e_a) as dim x dim matrices: ad(e_a)[d][b] = c^d_{a b}."""
        if self._ad is None:
            c = self.structure_constants()
            dim = self.dim
            self._ad = [
                [[c[a][b][d] for b in range(dim)] for d in range(dim)]
                for a in range(dim)
            ]
        return self._ad


@lru_cache(maxsize=None)
def sp_basis(n: int) -> SpBasis:
    basis = SpBasis(n)
    # Cross-check the explicit closed forms against the Hamiltonian map once.
    _verify_closed_forms(basis)
    return basis


# -- generating sets of the algebras the solvers impose -----------------------


def _algebra_labels(n: int, algebra: str) -> tuple:
    """Basis labels of sp(2n+2) ("full_sp") or of its affine subalgebra.

    The affine subalgebra ("affine_contact") keeps the generating functions
    of weighted degree <= 2 (t of weight 2): it drops tp_i, tq_i and t^2.
    """
    labels = tuple(g.label for g in sp_basis(n).generators)
    if algebra == "full_sp":
        return labels
    if algebra == "affine_contact":
        return tuple(lbl for lbl in labels if lbl == "t" or not lbl.startswith("t"))
    raise DomainError(f"unknown algebra {algebra!r}")


def _grading_labels(n: int) -> tuple:
    """1, t and the p_i q_i: diagonal on monomials, imposed as per-term filters."""
    return ("1", "t") + tuple(f"p{i}q{i}" for i in range(1, n + 1))


def _bracket(u: dict, v: dict, c) -> dict:
    """[u, v] for sparse coordinate vectors, from structure constants c."""
    out: dict = {}
    for a, ua in u.items():
        for b, vb in v.items():
            for d, x in enumerate(c[a][b]):
                if x:
                    out[d] = out.get(d, Fraction(0)) + ua * vb * x
    return {d: x for d, x in out.items() if x}


def _certified_generators(n: int, algebra: str, labels) -> tuple:
    """labels, once their bracket closure with _grading_labels(n) is the algebra.

    The closure is computed over structure_constants; StructuralError if it
    has the wrong dimension or leaves the algebra's labels.
    """
    basis = sp_basis(n)
    allowed = _algebra_labels(n, algebra)
    c = basis.structure_constants()
    span = Echelon()
    elems = []
    for lbl in _grading_labels(n) + tuple(labels):
        vec = {basis.index[lbl]: Fraction(1)}
        if span.add_row(vec) is not None:
            elems.append(vec)
    new = list(elems)
    while new:
        fresh = []
        for u in new:
            for v in elems:
                w = _bracket(u, v, c)
                if span.add_row(w) is not None:
                    fresh.append(w)
        elems.extend(fresh)
        new = fresh
    inside = {basis.index[lbl] for lbl in allowed}
    outside = any(a not in inside for row in span.rows.values() for a in row)
    if span.rank != len(allowed) or outside:
        raise StructuralError(
            f"labels {labels} with the grading generate a closure of dimension "
            f"{span.rank}, not the {algebra} algebra (dimension {len(allowed)})"
        )
    return tuple(labels)


@lru_cache(maxsize=None)
def generating_labels(n: int, algebra: str = "full_sp") -> tuple:
    """Root vectors that, with 1, t and the p_i q_i, generate the algebra.

    Invariance under a set of fields implies invariance under the Lie
    algebra they generate, so the solvers impose rows only for these
    labels.  With the path P(n) = p1p1, q1q2, p2p3, q3q4, ... (x_i x_{i+1}
    for i < n, the letter alternating) and y the letter that the last
    element of P(n) does not use, the set is P(n) + [t y_n] for sp(2n+2)
    and P(n) + [q_n, y_n y_n] for the affine subalgebra.  It is certified
    by bracket closure (_certified_generators) on first use.
    """
    path = ["p1p1"]
    for i in range(1, n):
        x = "q" if i % 2 else "p"
        path.append(f"{x}{i}{x}{i + 1}")
    y = "q" if path[-1][0] == "p" else "p"
    extra = [f"t{y}{n}"] if algebra == "full_sp" else [f"q{n}", f"{y}{n}{y}{n}"]
    return _certified_generators(n, algebra, tuple(path + extra))


def killing_form(a, b, basis: SpBasis) -> Fraction:
    """trace(ad_a o ad_b) from structure constants over the generator basis."""
    va = basis.element_vector(a)
    vb = basis.element_vector(b)
    ad = basis.ad_matrices()
    dim = basis.dim
    ada = _combine_ad(ad, va, dim)
    adb = _combine_ad(ad, vb, dim)
    total = Fraction(0)
    for i in range(dim):
        row = ada[i]
        total += sum((row[j] * adb[j][i] for j in range(dim) if row[j]), Fraction(0))
    return total


def _combine_ad(ad, coords, dim):
    out = [[Fraction(0)] * dim for _ in range(dim)]
    for a, c in enumerate(coords):
        if not c:
            continue
        mat = ad[a]
        for i in range(dim):
            row = mat[i]
            orow = out[i]
            for j in range(dim):
                if row[j]:
                    orow[j] += c * row[j]
    return out


def sp_basis_json(n: int) -> list[dict]:
    """Exportable table: label, hamiltonian, field components, dual combo."""
    basis = sp_basis(n)
    out = []
    for gen, dual in zip(basis.generators, basis.duals):
        out.append(
            {
                "label": gen.label,
                "hamiltonian": gen.hamiltonian.to_json(),
                "field": [c.to_json() for c in gen.field.components],
                "dual": {lbl: format_rational(c) for lbl, c in sorted(dual.items())},
            }
        )
    return out


# -- internals ---------------------------------------------------------------


def _label_poly(tab: VarTable, label: str) -> Poly:
    """Generating function named by a basis label: 1, t, t2, p3, q2q5, tp1, ..."""
    if label == "1":
        return Poly.one(tab)
    if label == "t":
        return Poly.variable(tab, tab.t)
    if label == "t2":
        return Poly.variable(tab, tab.t) ** 2
    factors = []
    rest = label
    while rest:
        kind = rest[0]
        if kind == "t":
            factors.append(tab.t)
            rest = rest[1:]
            continue
        if kind not in ("p", "q"):
            raise StructuralError(f"bad generator label {label!r}")
        num = ""
        rest = rest[1:]
        while rest and rest[0].isdigit():
            num += rest[0]
            rest = rest[1:]
        idx = int(num)
        factors.append(tab.p(idx) if kind == "p" else tab.q(idx))
    out = Poly.one(tab)
    for idx in factors:
        out = out * Poly.variable(tab, idx)
    return out


@lru_cache(maxsize=None)
def _component_index(n: int) -> dict:
    """Position of each base monomial of degree <= 2 in graded-lex order.

    Components of sp fields are combinations of exactly these monomials.
    """
    tab = base_table(n)
    monos = []
    size = tab.size

    def rec(pos, remaining, current):
        if pos == size:
            monos.append(tuple(current))
            return
        for k in range(remaining + 1):
            current.append(k)
            rec(pos + 1, remaining - k, current)
            current.pop()

    rec(0, 2, [])
    return {mono: i for i, mono in enumerate(sorted(monos, key=grlex_key))}


def _verify_closed_forms(basis: SpBasis):
    """Assert the generator fields equal their explicit closed forms."""
    n = basis.n
    tab = basis.table
    zero, one = Poly.zero(tab), Poly.one(tab)

    def var(idx):
        return Poly.variable(tab, idx)

    expected: dict[str, list[Poly]] = {}
    e_s = [var(a) for a in range(2 * n)] + [zero]
    e_full = [var(a) for a in range(2 * n + 1)]
    expected["1"] = [zero] * (2 * n) + [Poly.constant(tab, -2)]
    expected["t"] = [-c for c in e_s[:-1]] + [var(tab.t).scale(-2)]
    expected["t2"] = [var(tab.t).scale(-2) * c for c in e_full]
    for i in range(1, n + 1):
        comps = [zero] * (2 * n + 1)
        comps[tab.q(i)] = one
        comps[tab.t] = -var(tab.p(i))
        expected[f"p{i}"] = comps
        comps = [zero] * (2 * n + 1)
        comps[tab.p(i)] = -one
        comps[tab.t] = -var(tab.q(i))
        expected[f"q{i}"] = comps
        comps = [var(tab.p(i)).scale(-1) * c for c in e_full]
        comps[tab.q(i)] = comps[tab.q(i)] + var(tab.t)
        expected[f"tp{i}"] = comps
        comps = [var(tab.q(i)).scale(-1) * c for c in e_full]
        comps[tab.p(i)] = comps[tab.p(i)] - var(tab.t)
        expected[f"tq{i}"] = comps
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            comps = [zero] * (2 * n + 1)
            comps[tab.q(i)] = comps[tab.q(i)] + var(tab.p(j))
            comps[tab.q(j)] = comps[tab.q(j)] + var(tab.p(i))
            expected[f"p{i}p{j}"] = comps
            comps = [zero] * (2 * n + 1)
            comps[tab.p(i)] = comps[tab.p(i)] - var(tab.q(j))
            comps[tab.p(j)] = comps[tab.p(j)] - var(tab.q(i))
            expected[f"q{i}q{j}"] = comps
        # X_{p_j q^i} = q^i d_{q^j} - p_j d_{p_i}
        for j in range(1, n + 1):
            comps = [zero] * (2 * n + 1)
            comps[tab.q(j)] = var(tab.q(i))
            comps[tab.p(i)] = -var(tab.p(j))
            expected[f"p{j}q{i}"] = comps

    for gen in basis.generators:
        want = expected[gen.label]
        if list(gen.field.components) != want:
            raise StructuralError(
                f"generator {gen.label} disagrees with its explicit closed form"
            )
