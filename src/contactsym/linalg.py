"""Exact rational linear algebra: one sparse row-echelon engine.

Every kernel, rank, span solve and independence test in the package goes
through Echelon.  Rows are sparse dicts {column: Fraction}.  Each stored
row is normalized to 1 at its pivot, which is its smallest column, and
carries no other pivot column.  This reduced echelon form is unique, so
kernel bases (one vector per free column, normalized to 1 there) do not
depend on the order in which rows arrive.

exact_nullspace, sparse_nullspace and rank are thin entry points for dense
and sparse row lists.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from .errors import SpanError

_ZERO = Fraction(0)
_ONE = Fraction(1)


class Echelon:
    """Incrementally reduced row-echelon form over Q with sparse rows.

    Columns are mutually comparable hashable keys, such as ints or
    exponent tuples; nullspace needs int columns 0..ncols-1.
    """

    __slots__ = ("rows",)

    def __init__(self, rows: Iterable[Mapping] = ()):
        self.rows: dict = {}  # pivot column -> row, 1 at the pivot
        for row in rows:
            self.add_row(row)

    @property
    def rank(self) -> int:
        return len(self.rows)

    def reduce(self, row: Mapping) -> dict:
        """Residual of row modulo the stored rows; it has no pivot column.

        The residual is empty exactly when row lies in the span of the
        stored rows.  Cancelling one pivot column adds only non-pivot
        columns, since stored rows carry no pivot column besides their own,
        so the pivot columns present can all be found up front.
        """
        out = {c: Fraction(v) for c, v in row.items() if v}
        for hit in [c for c in out if c in self.rows]:
            f = out[hit]
            for c, v in self.rows[hit].items():
                s = out.get(c, _ZERO) - f * v
                if s:
                    out[c] = s
                else:
                    del out[c]
        return out

    def add_row(self, row: Mapping):
        """Insert row; return its new pivot column, or None if dependent."""
        out = self.reduce(row)
        if not out:
            return None
        lead = min(out)
        inv = _ONE / out[lead]
        out = {c: v * inv for c, v in out.items()}
        # Keep older rows clean of the new pivot column.
        for prow in self.rows.values():
            f = prow.get(lead)
            if f:
                for c, v in out.items():
                    s = prow.get(c, _ZERO) - f * v
                    if s:
                        prow[c] = s
                    else:
                        del prow[c]
        self.rows[lead] = out
        return lead

    def nullspace(self, ncols: int) -> list[list[Fraction]]:
        """Kernel basis over columns 0..ncols-1, one vector per free column."""
        basis = []
        for fc in range(ncols):
            if fc in self.rows:
                continue
            v = [_ZERO] * ncols
            v[fc] = _ONE
            for pc, prow in self.rows.items():
                coeff = prow.get(fc)
                if coeff:
                    v[pc] = -coeff
            basis.append(v)
        return basis


def _dense_rows(matrix: Iterable[Sequence[Fraction]], ncols: int | None):
    """Sparse rows of a dense matrix and its column count (first row's if None)."""
    given = [list(r) for r in matrix]
    if ncols is None and given:
        ncols = len(given[0])
    if any(len(r) != ncols for r in given):
        raise SpanError("ragged matrix")
    return [dict(enumerate(r)) for r in given], ncols


def exact_nullspace(matrix: Iterable[Sequence[Fraction]], ncols: int | None = None):
    """Exact basis of the right nullspace of a dense rational matrix.

    Returns a list of Fraction vectors v with M*v = 0, one per free column,
    normalized to 1 in the free coordinate.  An empty matrix (no rows) has
    the full space as kernel, so ncols must then be supplied.
    """
    rows, ncols = _dense_rows(matrix, ncols)
    if ncols is None:
        raise SpanError("cannot infer column count from an empty matrix")
    return Echelon(rows).nullspace(ncols)


def sparse_nullspace(rows: Iterable[Mapping], ncols: int):
    """Kernel basis for rows given as sparse {col: Fraction} dicts."""
    return Echelon(rows).nullspace(ncols)


def rank(matrix: Iterable[Sequence[Fraction]], ncols: int | None = None) -> int:
    """Rank of a dense rational matrix."""
    return Echelon(_dense_rows(matrix, ncols)[0]).rank
