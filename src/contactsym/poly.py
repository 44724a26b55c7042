"""Sparse multivariate polynomials with exact rational coefficients.

A polynomial is a map from dense exponent tuples (one slot per variable of
its VarTable) to nonzero Fractions.  The representation is canonical: two
polynomials over equal tables are equal iff their term maps are equal.
Printing and report ordering use graded lexicographic order on the table's
variable ordering.

The JSON interchange form is

    {"n": n, "blocks": ["xi", ...],
     "terms": [{"coeff": "num/den", "exp": {"p1": 2, "xi_t": 1}}, ...]}

with rationals as "num/den" or "num" strings and exponent maps listing only
nonzero entries.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping

from .errors import StructuralError, TableMismatchError, UnknownVariableError
from .rationals import format_rational, parse_rational
from .vartable import VarTable, table

Exponent = tuple  # dense tuple of ints, len == table.size

_ZERO = Fraction(0)
_ONE = Fraction(1)


def grlex_key(exp: Exponent):
    """Graded lexicographic sort key (degree first, then table order)."""
    return (sum(exp), exp)


class Poly:
    """Immutable sparse polynomial over a VarTable."""

    __slots__ = ("table", "terms")

    def __init__(self, tab: VarTable, terms: Mapping[Exponent, Fraction]):
        object.__setattr__(self, "table", tab)
        object.__setattr__(self, "terms", {e: c for e, c in terms.items() if c != 0})

    def __setattr__(self, *_):
        raise AttributeError("Poly is immutable")

    # -- constructors ----------------------------------------------------

    @staticmethod
    def zero(tab: VarTable) -> "Poly":
        return Poly(tab, {})

    @staticmethod
    def constant(tab: VarTable, c) -> "Poly":
        c = Fraction(c)
        return Poly(tab, {(0,) * tab.size: c} if c else {})

    @staticmethod
    def one(tab: VarTable) -> "Poly":
        return Poly.constant(tab, 1)

    @staticmethod
    def variable(tab: VarTable, idx) -> "Poly":
        if isinstance(idx, str):
            idx = tab.index(idx)
        if not 0 <= idx < tab.size:
            raise UnknownVariableError(f"variable index {idx} out of range")
        exp = [0] * tab.size
        exp[idx] = 1
        return Poly(tab, {tuple(exp): _ONE})

    @staticmethod
    def monomial(tab: VarTable, exp: Exponent, coeff=1) -> "Poly":
        if len(exp) != tab.size:
            raise StructuralError("exponent length does not match table size")
        coeff = Fraction(coeff)
        return Poly(tab, {tuple(exp): coeff} if coeff else {})

    # -- predicates ------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if not isinstance(other, Poly):
            return NotImplemented
        return self.table == other.table and self.terms == other.terms

    def __hash__(self):
        return hash((self.table, frozenset(self.terms.items())))

    # -- arithmetic ------------------------------------------------------

    def _check(self, other: "Poly"):
        if self.table != other.table:
            raise TableMismatchError(f"{self.table} vs {other.table}")

    def __add__(self, other: "Poly") -> "Poly":
        self._check(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, _ZERO) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return Poly(self.table, out)

    def __sub__(self, other: "Poly") -> "Poly":
        self._check(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, _ZERO) - c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        return Poly(self.table, out)

    def __neg__(self) -> "Poly":
        return Poly(self.table, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, Poly):
            self._check(other)
            out: dict = {}
            for e1, c1 in self.terms.items():
                for e2, c2 in other.terms.items():
                    e = tuple(a + b for a, b in zip(e1, e2))
                    s = out.get(e, _ZERO) + c1 * c2
                    if s:
                        out[e] = s
                    else:
                        out.pop(e, None)
            return Poly(self.table, out)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, c) -> "Poly":
        c = Fraction(c)
        if not c:
            return Poly.zero(self.table)
        return Poly(self.table, {e: c * v for e, v in self.terms.items()})

    def __truediv__(self, c):
        return self.scale(Fraction(1, 1) / Fraction(c))

    def __pow__(self, k: int) -> "Poly":
        if k < 0:
            raise StructuralError("negative polynomial power")
        out = Poly.one(self.table)
        for _ in range(k):
            out = out * self
        return out

    # -- calculus --------------------------------------------------------

    def diff(self, idx) -> "Poly":
        """Exact partial derivative with respect to one table variable."""
        if isinstance(idx, str):
            idx = self.table.index(idx)
        if not 0 <= idx < self.table.size:
            raise UnknownVariableError(f"variable index {idx} out of range")
        out: dict = {}
        for e, c in self.terms.items():
            k = e[idx]
            if k:
                e2 = list(e)
                e2[idx] = k - 1
                key = tuple(e2)
                s = out.get(key, _ZERO) + c * k
                if s:
                    out[key] = s
                else:
                    out.pop(key, None)
        return Poly(self.table, out)

    def diff_multi(self, midx: Exponent) -> "Poly":
        """Iterated partials: one entry per table variable."""
        out = self
        for idx, rep in enumerate(midx):
            for _ in range(rep):
                out = out.diff(idx)
                if not out.terms:
                    return out
        return out

    # -- degree bookkeeping ------------------------------------------------

    def total_degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def is_homogeneous_on(self, indices: Iterable[int], degree: int) -> bool:
        idx = tuple(indices)
        return all(sum(e[i] for i in idx) == degree for e in self.terms)

    def uses_only(self, indices: Iterable[int]) -> bool:
        allowed = set(indices)
        return all(
            all(k == 0 or i in allowed for i, k in enumerate(e)) for e in self.terms
        )

    # -- table embedding ---------------------------------------------------

    def convert(self, tab: VarTable) -> "Poly":
        """Rewrite over another table with the same n (by variable name).

        Every variable actually used must exist in the target table.
        """
        if tab == self.table:
            return self
        if tab.n != self.table.n:
            raise TableMismatchError("cannot convert between different n")
        src_names = self.table.names
        mapping = []
        for i, name in enumerate(src_names):
            try:
                mapping.append(tab.index(name))
            except UnknownVariableError:
                mapping.append(-1)
        out: dict = {}
        for e, c in self.terms.items():
            e2 = [0] * tab.size
            for i, k in enumerate(e):
                if not k:
                    continue
                j = mapping[i]
                if j < 0:
                    raise UnknownVariableError(
                        f"variable {src_names[i]!r} absent from target table {tab}"
                    )
                e2[j] = k
            out[tuple(e2)] = c
        return Poly(tab, out)

    # -- presentation ------------------------------------------------------

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda item: grlex_key(item[0]))

    def __str__(self):
        if not self.terms:
            return "0"
        names = self.table.names
        parts = []
        for e, c in self.sorted_terms():
            factors = []
            for i, k in enumerate(e):
                if k == 1:
                    factors.append(names[i])
                elif k > 1:
                    factors.append(f"{names[i]}^{k}")
            body = "*".join(factors)
            if not body:
                parts.append(format_rational(c))
            elif c == 1:
                parts.append(body)
            elif c == -1:
                parts.append(f"-{body}")
            else:
                parts.append(f"{format_rational(c)}*{body}")
        return " + ".join(parts).replace("+ -", "- ")

    def __repr__(self):
        return f"Poly({self})"

    def to_json(self) -> dict:
        names = self.table.names
        terms = []
        for e, c in self.sorted_terms():
            exp = {names[i]: k for i, k in enumerate(e) if k}
            terms.append({"coeff": format_rational(c), "exp": exp})
        return {"n": self.table.n, "blocks": list(self.table.blocks), "terms": terms}


def poly_from_json(doc: Mapping) -> Poly:
    """Inverse of Poly.to_json; validates names against the declared table."""
    tab = table(int(doc["n"]), tuple(doc.get("blocks", ())))
    out = Poly.zero(tab)
    acc: dict = {}
    for item in doc.get("terms", ()):
        coeff = parse_rational(str(item["coeff"]))
        exp = [0] * tab.size
        for name, k in item.get("exp", {}).items():
            if type(k) is not int or k < 0:
                raise StructuralError(
                    f"exponent of {name} must be a non-negative integer, got {k!r}"
                )
            exp[tab.index(name)] = k
        key = tuple(exp)
        acc[key] = acc.get(key, _ZERO) + coeff
    return Poly(tab, acc)
