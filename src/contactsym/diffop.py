"""Normal-ordered differential operators with polynomial coefficients.

An operator is a map from derivative multi-indices (dense tuples over the
whole variable table, base and fiber alike) to polynomial coefficients:

    D = sum_alpha  f_alpha(x, xi, ...) * d^alpha

with all coefficients on the left and all derivatives on the right.  This
normal-ordered form is unique, so operator equality is dictionary equality.
Composition expands by the Leibniz rule

    (f d^a) o (g d^b) = f * sum_{c <= a} binom(a, c) d^c(g) d^{a-c+b},

which keeps the result normal-ordered and is exact over the rationals.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import Mapping

from .errors import StructuralError, TableMismatchError
from .poly import Poly, grlex_key
from .vartable import VarTable

_ZERO = Fraction(0)


@lru_cache(maxsize=None)
def _sub_indices(midx: tuple) -> tuple:
    """All multi-indices c with 0 <= c <= midx, with their binomial weights."""
    out = [((), 1)]
    for a in midx:
        out = [(prefix + (c,), w * comb(a, c)) for prefix, w in out for c in range(a + 1)]
    return tuple(out)


@lru_cache(maxsize=None)
def unit_index(tab: VarTable, idx: int) -> tuple:
    """The multi-index of the single derivative d/d(var idx) over `tab`."""
    midx = [0] * tab.size
    midx[idx] = 1
    return tuple(midx)


class DiffOp:
    """Immutable normal-ordered differential operator over a VarTable."""

    __slots__ = ("table", "terms")

    def __init__(self, tab: VarTable, terms: Mapping[tuple, Poly]):
        object.__setattr__(self, "table", tab)
        clean = {}
        for midx, coeff in terms.items():
            if coeff.table != tab:
                raise TableMismatchError("coefficient table differs from operator table")
            if len(midx) != tab.size:
                raise StructuralError("derivative multi-index does not match table size")
            if coeff:
                clean[tuple(midx)] = coeff
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, *_):
        raise AttributeError("DiffOp is immutable")

    # -- constructors ----------------------------------------------------

    @staticmethod
    def zero(tab: VarTable) -> "DiffOp":
        return DiffOp(tab, {})

    @staticmethod
    def identity(tab: VarTable) -> "DiffOp":
        return DiffOp(tab, {(0,) * tab.size: Poly.one(tab)})

    @staticmethod
    def partial(tab: VarTable, idx, coeff=None) -> "DiffOp":
        """coeff * d/d(var idx); coeff defaults to 1."""
        if isinstance(idx, str):
            idx = tab.index(idx)
        c = coeff if coeff is not None else Poly.one(tab)
        if not isinstance(c, Poly):
            c = Poly.constant(tab, c)
        return DiffOp(tab, {unit_index(tab, idx): c})

    @staticmethod
    def multiplication(coeff: Poly) -> "DiffOp":
        return DiffOp(coeff.table, {(0,) * coeff.table.size: coeff})

    # -- predicates ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, DiffOp):
            return NotImplemented
        return self.table == other.table and self.terms == other.terms

    def __hash__(self):
        return hash((self.table, frozenset((m, hash(p)) for m, p in self.terms.items())))

    # -- linear structure --------------------------------------------------

    def _check(self, other: "DiffOp"):
        if self.table != other.table:
            raise TableMismatchError(f"{self.table} vs {other.table}")

    def __add__(self, other: "DiffOp") -> "DiffOp":
        self._check(other)
        out = dict(self.terms)
        for m, p in other.terms.items():
            s = out.get(m)
            s = p if s is None else s + p
            if s:
                out[m] = s
            else:
                out.pop(m, None)
        return DiffOp(self.table, out)

    def __sub__(self, other: "DiffOp") -> "DiffOp":
        return self + (-other)

    def __neg__(self) -> "DiffOp":
        return DiffOp(self.table, {m: -p for m, p in self.terms.items()})

    def scale(self, c) -> "DiffOp":
        c = Fraction(c)
        if not c:
            return DiffOp.zero(self.table)
        return DiffOp(self.table, {m: p.scale(c) for m, p in self.terms.items()})

    def __mul__(self, c):
        return self.scale(c)

    def __rmul__(self, c):
        return self.scale(c)

    # -- action and composition --------------------------------------------

    def apply(self, a: Poly) -> Poly:
        """Apply to a polynomial: sum of coeff * (iterated partials of a)."""
        if a.table != self.table:
            raise TableMismatchError(f"{a.table} vs {self.table}")
        out = Poly.zero(self.table)
        for midx, coeff in self.terms.items():
            d = a.diff_multi(midx)
            if d:
                out = out + coeff * d
        return out

    def compose(self, other: "DiffOp") -> "DiffOp":
        """Normal-ordered product self o other (apply other first)."""
        self._check(other)
        acc: dict = {}
        for a_midx, f in self.terms.items():
            expansion = _sub_indices(a_midx)
            for b_midx, g in other.terms.items():
                for c_midx, w in expansion:
                    dg = g.diff_multi(c_midx)
                    if not dg:
                        continue
                    coeff = f * dg if w == 1 else f * dg.scale(w)
                    midx = tuple(a - c + b for a, c, b in zip(a_midx, c_midx, b_midx))
                    s = acc.get(midx)
                    s = coeff if s is None else s + coeff
                    if s:
                        acc[midx] = s
                    else:
                        acc.pop(midx, None)
        return DiffOp(self.table, acc)

    # -- shape -------------------------------------------------------------

    def order(self) -> int:
        return max((sum(m) for m in self.terms), default=0)

    def __str__(self):
        if not self.terms:
            return "0"
        names = self.table.names
        parts = []
        for midx, coeff in sorted(self.terms.items(), key=lambda kv: grlex_key(kv[0])):
            ds = []
            for i, k in enumerate(midx):
                if k == 1:
                    ds.append(f"d_{names[i]}")
                elif k > 1:
                    ds.append(f"d_{names[i]}^{k}")
            dstr = "*".join(ds)
            cstr = str(coeff)
            if "+" in cstr or "-" in cstr[1:]:
                cstr = f"({cstr})"
            parts.append(f"{cstr}*{dstr}" if dstr else cstr)
        return " + ".join(parts)

    def __repr__(self):
        return f"DiffOp({self})"
