"""Seeded CLI inputs, frozen known answers and report digests.

Every verdict is judged against answers stored in this file, never against
the code under test.  A workload yields rounds: lists of verdicts that the
timed loop runs whole.  The seed picks the density weights and the sweep
order; the program only ever receives the generated CLI arguments.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterator

# Candidate density weights: every num/den with |num| <= 7 and 1 <= den <= 7.
WEIGHTS = tuple(sorted({Fraction(a, b) for a in range(-7, 8) for b in range(1, 8)}))

# The critical set C_k = {-p/(2(n+1)) : 0 <= p < 2k-1}, written out for n = 2.
CASIMIR_CRITICAL = frozenset(Fraction(-p, 6) for p in range(5))  # k = 3
CLASSIFY_CRITICAL = frozenset({Fraction(0)})  # l = k = 1

# -5/6 is not critical for k = 3, but there the Casimir keeps 534 monomials
# of the base-degree-2 span invariant instead of 46, and the dense spectrum
# product over them runs for many minutes: far past one run's time limit.
CASIMIR_SLOW = frozenset({Fraction(-5, 6)})

# solver_dim of `invariants --n 2 --k 2 --m 2 --l 1 --algebra affine` per nu.
INVARIANT_DIMS = {
    Fraction(-1, 3): 0,
    Fraction(0): 0,
    Fraction(1, 3): 1,
    Fraction(2, 3): 3,
    Fraction(1): 3,
    Fraction(4, 3): 0,
}

SELFTEST_CHECKS = 25


@dataclass(frozen=True)
class Verdict:
    """One CLI call (without --format) and the frozen answer its report must give."""

    argv: tuple
    expect: Callable[[dict], bool]


def casimir_verdict(delta) -> Verdict:
    delta = Fraction(delta)
    if delta in CASIMIR_CRITICAL:
        raise ValueError(f"delta={delta} is critical for k=3, n=2")
    if delta in CASIMIR_SLOW:
        raise ValueError(f"delta={delta} exceeds a run's time limit")

    def expect(report):
        res = report["results"]
        return (report["ok"] is True and res["spectrum_certified"] is True
                and report["parameters"]["delta"] == str(delta))

    return Verdict(("verify-casimir", "--n", "2", "--k", "3", f"--delta={delta}"), expect)


def classify_verdict(delta) -> Verdict:
    delta = Fraction(delta)
    if delta in CLASSIFY_CRITICAL:
        raise ValueError(f"delta={delta} is critical for l=k=1, n=2")

    def expect(report):
        res = report["results"]
        return (res["dimension"] == 2 and res["rechecked"] is True
                and report["parameters"]["delta"] == str(delta))

    return Verdict(
        ("classify-same-weight", "--n", "2", "--l", "1", "--k", "1",
         "--order-bound", "2", f"--delta={delta}"),
        expect,
    )


def invariants_verdict(nu) -> Verdict:
    nu = Fraction(nu)
    want = INVARIANT_DIMS[nu]

    def expect(report):
        return (report["ok"] is True and report["results"]["solver_dim"] == want
                and report["parameters"]["nu"] == str(nu))

    return Verdict(
        ("invariants", "--n", "2", "--k", "2", "--m", "2", "--l", "1",
         "--algebra", "affine", f"--nu={nu}"),
        expect,
    )


def selftest_verdict(seed: int) -> Verdict:
    def expect(report):
        results = report["results"]
        return (report["ok"] is True and len(results) == SELFTEST_CHECKS
                and all(r["ok"] is True for r in results)
                and report["parameters"]["seed"] == seed)

    return Verdict(("selftest", "--level", "fast", "--seed", str(seed)), expect)


@dataclass(frozen=True)
class Workload:
    name: str
    ns: tuple               # the n values whose sp_basis the workload uses
    fixed: Verdict          # unseeded instance whose report digest is frozen
    digest: str             # sha256 of that instance's JSON stdout
    round_s: float          # rough seconds per round; sizes the traced run
    rounds: Callable[[random.Random], Iterator[list]]


def _weight_rounds(make, excluded):
    pool = [w for w in WEIGHTS if w not in excluded]

    def rounds(rng):
        while True:
            yield [make(rng.choice(pool))]

    return rounds


def _sweep_rounds(rng):
    nus = sorted(INVARIANT_DIMS)
    while True:
        rng.shuffle(nus)
        yield [invariants_verdict(nu) for nu in nus]


def _selftest_rounds(rng):
    while True:
        yield [selftest_verdict(rng.randrange(10**6))]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "casimir", (2,), casimir_verdict(Fraction(1, 3)),
            "05ad960f3099de5c32c6ea9eac03b60d379e809373c558a4d0912c544d5e19fb",
            2.3, _weight_rounds(casimir_verdict, CASIMIR_CRITICAL | CASIMIR_SLOW),
        ),
        Workload(
            "classify", (2,), classify_verdict(Fraction(1, 3)),
            "bbde5f05b7996552a81e96f7769e6aa5ea5c1e8f15402442aadc2b2b67cdb4ef",
            2.4, _weight_rounds(classify_verdict, CLASSIFY_CRITICAL),
        ),
        Workload(
            "invariants", (2,), invariants_verdict(Fraction(2, 3)),
            "838cf2cce7845fe2ba56ab47ef8354f729d55e08b8765bf1f00ffc2952884f49",
            4.0, _sweep_rounds,
        ),
        Workload(
            "selftest", (1,), selftest_verdict(0),
            "0cb60a604872f19a023711dc7c1fe4868b197b18ca6a6b7684abd8a96ead6f89",
            2.0, _selftest_rounds,
        ),
    )
}
