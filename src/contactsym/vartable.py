"""Variable tables for the Darboux model.

A table fixes the ordered list of variables every polynomial and operator
is written over.  The base block is always present and holds the chart
coordinates ``p1..pn, q1..qn, t`` (2n+1 variables, in that order).  Up to
three fiber blocks may be enabled, each mirroring the base block:

    xi   ->  xi_p1..xi_pn,  xi_q1..xi_qn,  xi_t
    eta  ->  eta_p1..,      eta_q1..,      eta_t
    Y    ->  Y_p1..,        Y_q1..,        Y_t

Exponent vectors and derivative multi-indices are dense integer tuples
keyed by this ordering; sparsity lives at the term level.  Fiber blocks
always appear in the canonical order xi, eta, Y.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .errors import StructuralError, UnknownVariableError

FIBER_BLOCKS = ("xi", "eta", "Y")


@dataclass(frozen=True)
class VarTable:
    """Ordered variable universe: base block plus enabled fiber blocks."""

    n: int
    blocks: tuple[str, ...] = ()

    def __post_init__(self):
        if self.n < 1:
            raise StructuralError(f"n must be >= 1, got {self.n}")
        canon = tuple(b for b in FIBER_BLOCKS if b in self.blocks)
        if canon != self.blocks or len(set(self.blocks)) != len(self.blocks):
            raise StructuralError(
                f"blocks must be a subset of {FIBER_BLOCKS} in canonical order, "
                f"got {self.blocks}"
            )

    # -- layout ---------------------------------------------------------

    @property
    def base_size(self) -> int:
        return 2 * self.n + 1

    @property
    def size(self) -> int:
        return self.base_size * (1 + len(self.blocks))

    @property
    def names(self) -> tuple[str, ...]:
        return _names(self.n, self.blocks)

    def index(self, name: str) -> int:
        try:
            return _name_index(self.n, self.blocks)[name]
        except KeyError:
            raise UnknownVariableError(f"unknown variable {name!r} in {self}") from None

    # Base coordinate positions: p_i at i-1, q_i at n+i-1, t at 2n.
    def p(self, i: int) -> int:
        if not 1 <= i <= self.n:
            raise UnknownVariableError(f"p index {i} out of range for n={self.n}")
        return i - 1

    def q(self, i: int) -> int:
        if not 1 <= i <= self.n:
            raise UnknownVariableError(f"q index {i} out of range for n={self.n}")
        return self.n + i - 1

    @property
    def t(self) -> int:
        return 2 * self.n

    def block_offset(self, block: str) -> int:
        try:
            return self.base_size * (1 + self.blocks.index(block))
        except ValueError:
            raise UnknownVariableError(f"block {block!r} not enabled in {self}") from None

    def block_range(self, block: str) -> range:
        off = self.block_offset(block)
        return range(off, off + self.base_size)

    @property
    def base_range(self) -> range:
        return range(self.base_size)

    def fiber(self, block: str, base_idx: int) -> int:
        """Index of the fiber variable of `block` paired with base variable base_idx."""
        if not 0 <= base_idx < self.base_size:
            raise UnknownVariableError(f"base index {base_idx} out of range")
        return self.block_offset(block) + base_idx

    def spatial_base(self) -> range:
        """Indices of p_1..p_n, q_1..q_n (everything in the base block but t)."""
        return range(2 * self.n)

    def __str__(self):
        return f"VarTable(n={self.n}, blocks={list(self.blocks)})"


@lru_cache(maxsize=None)
def table(n: int, blocks: tuple[str, ...] = ()) -> VarTable:
    """Interned VarTable constructor; equal parameters share one instance."""
    return VarTable(n, tuple(blocks))


@lru_cache(maxsize=None)
def _names(n: int, blocks: tuple[str, ...]) -> tuple[str, ...]:
    base = [f"p{i}" for i in range(1, n + 1)] + [f"q{i}" for i in range(1, n + 1)] + ["t"]
    out = list(base)
    for b in blocks:
        out.extend(f"{b}_{name}" for name in base)
    return tuple(out)


@lru_cache(maxsize=None)
def _name_index(n: int, blocks: tuple[str, ...]) -> dict:
    return {name: i for i, name in enumerate(_names(n, blocks))}
