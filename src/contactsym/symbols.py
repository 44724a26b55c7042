"""Density-weighted symbol modules and the exact Lie-derivative actions.

Two families of modules appear:

  * R^k_delta -- polynomials of homogeneous degree k in the xi block,
    carrying the true density weight  delta + k/(n+1).  Only the xi block
    is enabled on their tables.
  * S^{k m}_{l; nu} -- polynomials of homogeneous degrees (k, m, l) in the
    blocks (xi, eta, Y), of weight nu.  Blocks with degree zero are left
    off the table (a product of elements takes the union of blocks).

The action of a base vector field X on a symbol Q is

    L_X Q = X(Q) - dX^i/dx^j xi_i dQ/dxi_j - (same for eta)
            + dX^i/dx^j Y^j dQ/dY^i + weight * div(X) * Q,

with the *true bundle weight* in the divergence term: delta + k/(n+1) on
R^k_delta.  Dropping the k/(n+1) shift is the classic silent error; the
weight is always read off the module descriptor, never inferred from the
polynomial.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Union

from .contact import VField, divergence
from .diffop import DiffOp, unit_index
from .errors import DomainError, StructuralError, TableMismatchError
from .poly import Poly
from .rationals import format_rational
from .vartable import VarTable, table


def weight_unit(n: int) -> Fraction:
    """The basic weight increment I = 1/(n+1)."""
    return Fraction(1, n + 1)


@dataclass(frozen=True)
class RModule:
    """R^k_delta: xi-degree k with bundle weight delta + k/(n+1)."""

    n: int
    k: int
    delta: Fraction

    def __post_init__(self):
        if self.k < 0:
            raise DomainError("fiber degree must be >= 0")
        object.__setattr__(self, "delta", Fraction(self.delta))

    @property
    def blocks(self) -> tuple:
        return ("xi",)

    @property
    def table(self) -> VarTable:
        return table(self.n, ("xi",))

    @property
    def weight(self) -> Fraction:
        return self.delta + Fraction(self.k, self.n + 1)

    @property
    def fiber_degrees(self) -> dict:
        return {"xi": self.k}

    def contracted(self) -> "RModule":
        return RModule(self.n, max(self.k - 1, 0), self.delta)

    def raised(self) -> "RModule":
        return RModule(self.n, self.k + 1, self.delta)

    def describe(self) -> dict:
        return {"module": "R", "n": self.n, "k": self.k, "delta": format_rational(self.delta)}

    def __str__(self):
        return f"R^{self.k}_({format_rational(self.delta)})[n={self.n}]"


@dataclass(frozen=True)
class SModule:
    """S^{k m}_{l; nu}: degrees (k, m, l) in (xi, eta, Y), weight nu."""

    n: int
    k: int
    m: int = 0
    l: int = 0
    nu: Fraction = Fraction(0)

    def __post_init__(self):
        if min(self.k, self.m, self.l) < 0:
            raise DomainError("fiber degrees must be >= 0")
        object.__setattr__(self, "nu", Fraction(self.nu))

    @property
    def blocks(self) -> tuple:
        out = []
        if self.k:
            out.append("xi")
        if self.m:
            out.append("eta")
        if self.l:
            out.append("Y")
        return tuple(out)

    @property
    def table(self) -> VarTable:
        return table(self.n, self.blocks)

    @property
    def weight(self) -> Fraction:
        return self.nu

    @property
    def fiber_degrees(self) -> dict:
        return {b: {"xi": self.k, "eta": self.m, "Y": self.l}[b] for b in self.blocks}

    def contracted(self) -> "SModule":
        return SModule(self.n, max(self.k - 1, 0), self.m, self.l,
                       self.nu - weight_unit(self.n))

    def raised(self) -> "SModule":
        return SModule(self.n, self.k + 1, self.m, self.l, self.nu + weight_unit(self.n))

    def product(self, other: "SModule") -> "SModule":
        if self.n != other.n:
            raise TableMismatchError("modules over different n")
        return SModule(self.n, self.k + other.k, self.m + other.m,
                       self.l + other.l, self.nu + other.nu)

    def describe(self) -> dict:
        return {"module": "S", "n": self.n, "k": self.k, "m": self.m, "l": self.l,
                "nu": format_rational(self.nu)}

    def __str__(self):
        return f"S^{self.k},{self.m}_({self.l};{format_rational(self.nu)})[n={self.n}]"


ModuleDesc = Union[RModule, SModule]


class SymbolElem:
    """A polynomial member of a symbol module.

    The polynomial must be homogeneous of the declared degree in every
    enabled fiber block; weight bookkeeping lives on the module descriptor.
    """

    __slots__ = ("poly", "module")

    def __init__(self, poly: Poly, module: ModuleDesc):
        tab = module.table
        poly = poly if poly.table == tab else poly.convert(tab)
        for block, deg in module.fiber_degrees.items():
            if not poly.is_homogeneous_on(tab.block_range(block), deg):
                raise StructuralError(
                    f"polynomial is not homogeneous of degree {deg} in block {block}"
                )
        object.__setattr__(self, "poly", poly)
        object.__setattr__(self, "module", module)

    def __setattr__(self, *_):
        raise AttributeError("SymbolElem is immutable")

    @property
    def n(self) -> int:
        return self.module.n

    @property
    def weight(self) -> Fraction:
        return self.module.weight

    def is_zero(self) -> bool:
        return self.poly.is_zero()

    def __eq__(self, other):
        if not isinstance(other, SymbolElem):
            return NotImplemented
        return self.module == other.module and self.poly == other.poly

    def __add__(self, other: "SymbolElem") -> "SymbolElem":
        if self.module != other.module:
            raise TableMismatchError("cannot add symbols from different modules")
        return SymbolElem(self.poly + other.poly, self.module)

    def __sub__(self, other: "SymbolElem") -> "SymbolElem":
        if self.module != other.module:
            raise TableMismatchError("cannot subtract symbols from different modules")
        return SymbolElem(self.poly - other.poly, self.module)

    def scale(self, c) -> "SymbolElem":
        return SymbolElem(self.poly.scale(c), self.module)

    def __mul__(self, other: "SymbolElem") -> "SymbolElem":
        """Module product (S-type descriptors only): degrees and weights add."""
        if not isinstance(other, SymbolElem):
            return NotImplemented
        if not isinstance(self.module, SModule) or not isinstance(other.module, SModule):
            raise StructuralError("symbol products are defined on S-type modules")
        mod = self.module.product(other.module)
        tab = mod.table
        return SymbolElem(self.poly.convert(tab) * other.poly.convert(tab), mod)

    def __str__(self):
        return f"{self.poly} in {self.module}"

    def __repr__(self):
        return f"SymbolElem({self})"

    def to_json(self) -> dict:
        doc = self.module.describe()
        doc["poly"] = self.poly.to_json()
        return doc


# -- actions -----------------------------------------------------------------


@lru_cache(maxsize=None)
def _lie_parts(x: VField, tab: VarTable) -> tuple:
    """First-order terms of L_X on the blocks of `tab`, and div X.

    Returns ``(((slot, coeff), ...), div)`` with L_X = sum coeff * d_slot
    + weight * div.  The weight enters only through that last term, so one
    cache entry per (field, table) serves every weight.
    """
    terms: dict = {}

    def add(slot: int, coeff: Poly):
        prev = terms.get(slot)
        coeff = coeff if prev is None else prev + coeff
        if coeff:
            terms[slot] = coeff
        else:
            terms.pop(slot, None)

    for a, comp in enumerate(x.components):
        add(a, comp.convert(tab))
    for i, comp in enumerate(x.components):
        for j in range(tab.base_size):
            dji = comp.diff(j)  # dX^i/dx^j
            if not dji:
                continue
            dji = dji.convert(tab)
            for block in tab.blocks:
                if block == "Y":
                    # + dX^i/dx^j * Y^j * d/dY^i
                    add(tab.fiber("Y", i), dji * Poly.variable(tab, tab.fiber("Y", j)))
                else:
                    # - dX^i/dx^j * xi_i * d/dxi_j
                    add(tab.fiber(block, j), -(dji * Poly.variable(tab, tab.fiber(block, i))))
    return tuple(terms.items()), divergence(x).convert(tab)


def lie_action_symbol(x: VField, s: SymbolElem) -> SymbolElem:
    """L_X on a symbol: fiber degrees preserved, module unchanged."""
    q = s.poly
    terms, div = _lie_parts(x, s.module.table)
    out = Poly.zero(q.table)
    for slot, coeff in terms:
        dq = q.diff(slot)
        if dq:
            out = out + coeff * dq
    w = s.module.weight
    if w:
        out = out + (div * q).scale(w)
    return SymbolElem(out, s.module)


def lie_action_as_diffop(x: VField, module: ModuleDesc) -> DiffOp:
    """The same action packaged as a normal-ordered operator on the module table."""
    tab = module.table
    parts, div = _lie_parts(x, tab)
    terms = {unit_index(tab, slot): coeff for slot, coeff in parts}
    w = module.weight
    if w:
        terms[(0,) * tab.size] = div.scale(w)
    return DiffOp(tab, terms)


# -- polynomial helpers shared with the operator modules ----------------------


def spatial_contraction_poly(tab: VarTable, block: str = "xi") -> Poly:
    """<E_s, xi_s> = sum over spatial pairs x_s xi_s."""
    out = Poly.zero(tab)
    for a in tab.spatial_base():
        out = out + Poly.variable(tab, a) * Poly.variable(tab, tab.fiber(block, a))
    return out
