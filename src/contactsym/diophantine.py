"""Arithmetic of invariant operators between different density weights.

A nonzero block T_l : R^{k,l}_delta -> R^{k',l'}_delta' forces equality of
Casimir eigenvalues.  Cleared of denominators that condition is the degree-2
polynomial relation (here the "residual" whose vanishing is the condition)

    R(l, l') = 2(n+1)^2 (delta+delta'-1)(delta-delta') + (k+k'-1)(k-k')
               + 2(n+1)(k delta - k' delta') - 2(n+1)(l delta - l' delta')
               - 2(l k - l' k') + (l+l'+1)(l-l'),

identically equal to 2(n+2)(eps^{k,l}_delta - eps^{k',l'}_delta').  For
several blocks (l_j, l'_j) the differences R_1 - R_j are linear:

    2(n+1) D_j delta - 2(n+1) D'_j delta' + 2 D_j k - 2 D'_j k' = lambda_j,
    D_j = l_1 - l_j,  D'_j = l'_1 - l'_j,  S_j = l_1 + l_j,  S'_j = l'_1 + l'_j,
    lambda_j = D_j - D'_j + D_j S_j - D'_j S'_j,

and relation_Rprime returns lambda_j minus the left side, i.e. R_1 - R_j.
With three independent blocks the weight is pinned to the rational

    delta = -(2k-1)/(2(n+1)) + L,
    L = (D_2 D'_3 S_2 - D_3 D'_2 S_3 + D'_2 D'_3 (S'_3 - S'_2))
        / (2(n+1)(D_2 D'_3 - D_3 D'_2)).

Everything here states necessary conditions only; no attempt is made to
construct the operators themselves.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from .errors import DomainError, SingularSystemError
from .linalg import rank
from .rationals import format_rational
from .spectra import require_noncritical

__all__ = [
    "DioInstance",
    "admissible_pairs",
    "discriminant_analysis",
    "kappa3_delta",
    "kappa3_delta_prime",
    "kappa3_system_solution",
    "kappa4_consistency",
    "relation_R",
    "relation_Rprime",
]


def relation_R(n: int, k: int, kp: int, l: int, lp: int, delta, deltap) -> Fraction:
    """Residual of the eigenvalue-matching relation; zero iff they coincide."""
    d, dp = Fraction(delta), Fraction(deltap)
    n1 = n + 1
    return (
        2 * n1 * n1 * (d + dp - 1) * (d - dp)
        + (k + kp - 1) * (k - kp)
        + 2 * n1 * (k * d - kp * dp)
        - 2 * n1 * (l * d - lp * dp)
        - 2 * (l * k - lp * kp)
        + (l + lp + 1) * (l - lp)
    )


def require_blocks_in_range(k: int, kp: int, blocks):
    """Raise DomainError unless every block (l, l') has 0 <= l <= k, 0 <= l' <= k'."""
    for l, lp in blocks:
        if not (0 <= l <= k and 0 <= lp <= kp):
            raise DomainError(f"block ({l}, {lp}) outside 0..{k} x 0..{kp}")


@dataclass(frozen=True)
class DioInstance:
    """Block data for an invariant operator R^k_delta -> R^k'_delta'."""

    n: int
    k: int
    kp: int
    delta: Fraction
    deltap: Fraction
    blocks: tuple  # ((l_1, l'_1), (l_2, l'_2), ...)

    def __post_init__(self):
        object.__setattr__(self, "delta", Fraction(self.delta))
        object.__setattr__(self, "deltap", Fraction(self.deltap))
        object.__setattr__(self, "blocks", tuple((int(a), int(b)) for a, b in self.blocks))
        require_noncritical(self.delta, self.k, self.n)
        require_noncritical(self.deltap, self.kp, self.n)
        require_blocks_in_range(self.k, self.kp, self.blocks)

    def deltas(self, j: int):
        """(D_j, D'_j, S_j, S'_j) for the 1-based block index j >= 2 (blocks[0] is block 1)."""
        if not 2 <= j <= len(self.blocks):
            raise DomainError(f"block index {j} out of range")
        l1, lp1 = self.blocks[0]
        lj, lpj = self.blocks[j - 1]
        return l1 - lj, lp1 - lpj, l1 + lj, lp1 + lpj

    def lam(self, j: int) -> int:
        dj, dpj, sj, spj = self.deltas(j)
        return dj - dpj + dj * sj - dpj * spj

    def describe(self) -> dict:
        return {
            "n": self.n, "k": self.k, "kp": self.kp,
            "delta": format_rational(self.delta),
            "deltap": format_rational(self.deltap),
            "blocks": [list(b) for b in self.blocks],
        }


def relation_Rprime(instance: DioInstance, j: int) -> Fraction:
    """Residual of the linearized relation R'_j; equals R_1 - R_j."""
    dj, dpj, sj, spj = instance.deltas(j)
    n1 = instance.n + 1
    lhs = (
        2 * n1 * dj * instance.delta
        - 2 * n1 * dpj * instance.deltap
        + 2 * dj * instance.k
        - 2 * dpj * instance.kp
    )
    return instance.lam(j) - lhs


def admissible_pairs(n: int, k: int, kp: int, delta, deltap):
    """All (l, l') with matching eigenvalues, plus the injectivity report.

    Enumerates the full grid, asserts that each l maps to at most one l'
    (and symmetrically), which is forced by eigenvalue distinctness away
    from the critical sets.
    """
    delta, deltap = Fraction(delta), Fraction(deltap)
    require_noncritical(delta, k, n)
    require_noncritical(deltap, kp, n)
    pairs = [
        (l, lp)
        for l in range(k + 1)
        for lp in range(kp + 1)
        if relation_R(n, k, kp, l, lp, delta, deltap) == 0
    ]
    left = [l for l, _ in pairs]
    right = [lp for _, lp in pairs]
    injective = len(set(left)) == len(left) and len(set(right)) == len(right)
    return pairs, injective


def discriminant_analysis(n: int, k: int, kp: int, l: int, lp: int, delta) -> dict:
    """Study R = 0 as a quadratic in delta' at fixed delta.

    Returns the exact coefficients, the discriminant with its sign, exact
    roots when the discriminant is a rational square, and the flag for
    real admissibility (discriminant >= 0).
    """
    require_blocks_in_range(k, kp, [(l, lp)])
    delta = Fraction(delta)
    n1 = n + 1
    # R as a function of deltap:  a*dp^2 + b*dp + c
    a = Fraction(-2 * n1 * n1)
    b = Fraction(2 * n1 * n1) - 2 * n1 * kp + 2 * n1 * lp
    c = (
        2 * n1 * n1 * (delta * delta - delta)
        + (k + kp - 1) * (k - kp)
        + 2 * n1 * k * delta
        - 2 * n1 * l * delta
        - 2 * (l * k - lp * kp)
        + (l + lp + 1) * (l - lp)
    )
    out = {
        "leading": a,
        "linear": b,
        "constant": c,
        "kind": "quadratic" if a else "linear",
    }
    if not a:
        if b:
            out["roots"] = [-c / b]
        else:
            out["roots"] = [] if c else None  # None: identically zero
        out["admissible"] = bool(out["roots"]) or out["roots"] is None
        return out
    disc = b * b - 4 * a * c
    out["discriminant"] = disc
    out["sign"] = 0 if disc == 0 else (1 if disc > 0 else -1)
    root = _rational_sqrt(disc)
    out["is_rational_square"] = root is not None
    if root is not None:
        out["roots"] = sorted(((-b + root) / (2 * a), (-b - root) / (2 * a)))
    else:
        out["roots"] = None
    out["admissible"] = disc >= 0
    return out


def _rational_sqrt(x: Fraction):
    if x < 0:
        return None
    num, den = x.numerator, x.denominator
    rn, rd = isqrt(num), isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Fraction(rn, rd)
    return None


def _kappa3_parts(blocks):
    if len(blocks) != 3:
        raise DomainError("kappa3 analysis needs exactly three blocks")
    (l1, lp1), (l2, lp2), (l3, lp3) = ((int(a), int(b)) for a, b in blocks)
    d2, dp2, s2, sp2 = l1 - l2, lp1 - lp2, l1 + l2, lp1 + lp2
    d3, dp3, s3, sp3 = l1 - l3, lp1 - lp3, l1 + l3, lp1 + lp3
    det = d2 * dp3 - d3 * dp2
    return (d2, dp2, s2, sp2), (d3, dp3, s3, sp3), det


def kappa3_delta(n: int, k: int, blocks) -> Fraction:
    """The rational weight forced by three independent blocks."""
    (d2, dp2, s2, sp2), (d3, dp3, s3, sp3), det = _kappa3_parts(blocks)
    if det == 0:
        raise SingularSystemError("the (D_j, D'_j) pairs are dependent")
    big_l = Fraction(d2 * dp3 * s2 - d3 * dp2 * s3 + dp2 * dp3 * (sp3 - sp2),
                     2 * (n + 1) * det)
    return Fraction(-(2 * k - 1), 2 * (n + 1)) + big_l


def kappa3_delta_prime(n: int, kp: int, blocks) -> Fraction:
    """The transposed formula for the target weight (swap primed roles)."""
    transposed = [(lp, l) for l, lp in blocks]
    return kappa3_delta(n, kp, transposed)


def kappa3_system_solution(n: int, k: int, kp: int, blocks):
    """(delta, delta') solving {R'_2 = 0, R'_3 = 0}; the independent oracle."""
    require_blocks_in_range(k, kp, blocks)
    (d2, dp2, s2, sp2), (d3, dp3, s3, sp3), det = _kappa3_parts(blocks)
    if det == 0:
        raise SingularSystemError("the (D_j, D'_j) pairs are dependent")
    n1 = n + 1
    lam2 = d2 - dp2 + d2 * s2 - dp2 * sp2
    lam3 = d3 - dp3 + d3 * s3 - dp3 * sp3
    # 2(n+1) D_j delta - 2(n+1) D'_j delta' = lam_j - 2 D_j k + 2 D'_j k'
    r2 = Fraction(lam2 - 2 * d2 * k + 2 * dp2 * kp)
    r3 = Fraction(lam3 - 2 * d3 * k + 2 * dp3 * kp)
    delta = (r2 * dp3 - dp2 * r3) / (2 * n1 * det)
    deltap = (d3 * r2 - d2 * r3) / (2 * n1 * det)
    return delta, deltap


def kappa4_consistency(instance: DioInstance) -> dict:
    """Dependence structure of the linearized system for four or more blocks.

    For each extra block j >= 4, the coefficient row is expressed in terms
    of the rows for blocks 2 and 3 (they span everything when independent),
    and consistency requires the lambda side to follow the same combination.
    The overall affine system in (delta, delta') is also rank-checked.
    """
    if len(instance.blocks) < 4:
        raise DomainError("kappa4 analysis needs at least four blocks")
    n1 = instance.n + 1
    rows = {}
    rhs = {}
    for j in range(2, len(instance.blocks) + 1):
        dj, dpj, sj, spj = instance.deltas(j)
        rows[j] = (dj, dpj)
        rhs[j] = instance.lam(j) - 2 * dj * instance.k + 2 * dpj * instance.kp
    d2, dp2 = rows[2]
    d3, dp3 = rows[3]
    det = d2 * dp3 - d3 * dp2
    dependence = {}
    lambda_consistent = {}
    for j in range(4, len(instance.blocks) + 1):
        dj, dpj = rows[j]
        if det:
            c2 = Fraction(dj * dp3 - dpj * d3, det)
            c3 = Fraction(d2 * dpj - dp2 * dj, det)
            dependence[j] = (c2, c3)
            lamj = Fraction(instance.lam(j))
            lambda_consistent[j] = lamj == c2 * instance.lam(2) + c3 * instance.lam(3)
        else:
            dependence[j] = None
            lambda_consistent[j] = None
    # Affine consistency of the full system in (delta, delta').
    mat = [[Fraction(2 * n1 * rows[j][0]), Fraction(-2 * n1 * rows[j][1])]
           for j in sorted(rows)]
    vec = [Fraction(rhs[j]) for j in sorted(rows)]
    rank_m = rank(mat, 2)
    rank_aug = rank([row + [v] for row, v in zip(mat, vec)], 3)
    return {
        "kappa": len(instance.blocks),
        "dependence": dependence,
        "lambda_consistent": lambda_consistent,
        "system_rank": rank_m,
        "system_consistent": rank_aug == rank_m,
    }

