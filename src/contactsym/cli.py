"""Command-line front end.

Subcommands: verify-casimir, invariants, decompose, classify-same-weight,
diophantine {pairs, discriminant, kappa3, kappa4}, selftest, export-basis.

Rationals on the command line are "num/den" strings; decimal input is
rejected so no inexactness can sneak in.  Exit codes: 0 success, 1 property
failure, 2 usage or parse error, 3 domain error (critical weight,
inadmissible parameters).  JSON reports are schema-stable: equal inputs
produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .casimir import casimir_matrix, verify_diagonal_form
from .contact import sp_basis, sp_basis_json
from .diophantine import (
    DioInstance,
    admissible_pairs,
    discriminant_analysis,
    kappa3_delta,
    kappa3_delta_prime,
    kappa3_system_solution,
    kappa4_consistency,
)
from .errors import DomainError, StructuralError
from .invariants import InvariantQuery, invariants_report
from .operators import (
    classify_same_weight,
    decompose,
    intertwines_all_generators,
    same_weight_predicted_count,
)
from .poly import poly_from_json
from .rationals import format_rational, parse_rational
from .selftest import run_selftest
from .spectra import critical_set
from .symbols import RModule, SymbolElem

EXIT_OK = 0
EXIT_PROPERTY = 1
EXIT_USAGE = 2
EXIT_DOMAIN = 3


def rational(text: str) -> Fraction:
    try:
        return parse_rational(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _integer_at_least(text: str, low: int) -> int:
    try:
        value = int(text)
    except ValueError:
        value = None
    if value is None or value < low:
        raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {text!r}")
    return value


def natural(text: str) -> int:
    """A non-negative integer."""
    return _integer_at_least(text, 0)


def positive(text: str) -> int:
    """An integer >= 1, such as the chart half-dimension n."""
    return _integer_at_least(text, 1)


def blocks_arg(text: str):
    try:
        out = []
        for chunk in text.split(","):
            l, lp = chunk.split(":")
            out.append((int(l), int(lp)))
        return tuple(out)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"blocks must look like 'l:lp,l:lp,...', got {text!r}"
        ) from None


def emit(report: dict, fmt: str):
    if fmt == "json":
        print(json.dumps(report, indent=2, sort_keys=True))
        return
    _emit_text(report)


def _emit_text(node, indent=0):
    pad = "  " * indent
    if isinstance(node, dict):
        for key, value in node.items():
            if isinstance(value, (dict, list)):
                print(f"{pad}{key}:")
                _emit_text(value, indent + 1)
            else:
                print(f"{pad}{key}: {value}")
    elif isinstance(node, list):
        for value in node:
            if isinstance(value, (dict, list)):
                _emit_text(value, indent + 1)
            else:
                print(f"{pad}- {value}")
    else:
        print(f"{pad}{node}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="contactsym",
        description="Exact contact-symbol calculus: verification campaigns and classifiers.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("verify-casimir", help="check the Casimir diagonal form")
    p.add_argument("--n", type=positive, default=1)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--delta", type=rational, required=True)
    p.add_argument(
        "--max-base-degree", type=natural, default=4,
        help="base degree D of the monomial span x^a xi^b, |a| <= min(D, 2), on which "
        "the spectrum is certified; values of 2 and above change only the echoed D",
    )
    common(p)

    p = sub.add_parser("invariants", help="invariant tensor fields in S^{km}_{l;nu}")
    p.add_argument("--n", type=positive, default=1)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--nu", type=rational, required=True)
    p.add_argument("--algebra", choices=("affine", "contact"), default="affine")
    p.add_argument("--xdeg", type=natural, default=None)
    common(p)

    p = sub.add_parser("decompose", help="eigenspace decomposition of an R^k_delta element")
    p.add_argument("--n", type=positive, default=1)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--delta", type=rational, required=True)
    p.add_argument("--input", required=True, help="polynomial JSON file ('-' for stdin)")
    common(p)

    p = sub.add_parser("classify-same-weight", help="invariant operators R^l -> R^k")
    p.add_argument("--n", type=positive, default=1)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--delta", type=rational, required=True)
    p.add_argument("--order-bound", type=int, default=2)
    common(p)

    dio = sub.add_parser("diophantine", help="weight constraints between modules")
    dsub = dio.add_subparsers(dest="dio_command", required=True)

    p = dsub.add_parser("pairs", help="admissible (l, l') pairs")
    p.add_argument("--n", type=positive, default=1)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--kp", type=int, required=True)
    p.add_argument("--delta", type=rational, required=True)
    p.add_argument("--deltap", type=rational, required=True)
    common(p)

    p = dsub.add_parser("discriminant", help="quadratic in delta' at fixed delta")
    p.add_argument("--n", type=positive, default=1)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--kp", type=int, required=True)
    p.add_argument("--l", type=int, required=True)
    p.add_argument("--lp", type=int, required=True)
    p.add_argument("--delta", type=rational, required=True)
    common(p)

    p = dsub.add_parser("kappa3", help="weight forced by three blocks")
    p.add_argument("--n", type=positive, default=1)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--kp", type=int, required=True)
    p.add_argument("--blocks", type=blocks_arg, required=True, help="'l:lp,l:lp,l:lp'")
    common(p)

    p = dsub.add_parser("kappa4", help="consistency for four or more blocks")
    p.add_argument("--n", type=positive, default=1)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--kp", type=int, required=True)
    p.add_argument("--delta", type=rational, required=True)
    p.add_argument("--deltap", type=rational, required=True)
    p.add_argument("--blocks", type=blocks_arg, required=True)
    common(p)

    p = sub.add_parser("selftest", help="run the property suites")
    p.add_argument("--level", choices=("fast", "full"), default="fast")
    p.add_argument("--seed", type=int, default=0)
    common(p)

    p = sub.add_parser("export-basis", help="emit the sp basis with its duals")
    p.add_argument("--n", type=positive, default=1)
    p.add_argument("--output", default=None, help="output file (default stdout)")
    common(p)

    return parser


def cmd_verify_casimir(args) -> int:
    warnings = []
    crit = critical_set(args.k, args.n)
    if args.delta in crit:
        warnings.append(
            f"delta={format_rational(args.delta)} lies in the critical set C_{args.k}; "
            "eigenspace-decomposition checks are skipped"
        )
    res = verify_diagonal_form(args.n, args.k, args.delta, args.max_base_degree)
    report = {
        "command": "verify-casimir",
        "parameters": {
            "n": args.n, "k": args.k, "delta": format_rational(args.delta),
            "max_base_degree": args.max_base_degree,
        },
        "results": res.to_json(),
        "warnings": warnings,
        "ok": res.verified,
    }
    if res.verified and args.delta not in crit:
        matrix = casimir_matrix(
            res.assembled, args.n, args.k, args.delta, min(args.max_base_degree, 2)
        )
        report["results"]["spectrum_certified"] = matrix.annihilated_by_spectrum()
    emit(report, args.format)
    return EXIT_OK if res.verified else EXIT_PROPERTY


def cmd_invariants(args) -> int:
    algebra = "affine_contact" if args.algebra == "affine" else "full_sp"
    query = InvariantQuery(args.n, args.k, args.m, args.l, args.nu, algebra, args.xdeg)
    body = invariants_report(query)
    report = {
        "command": "invariants",
        "parameters": body["query"],
        "results": {key: body[key] for key in ("solver_dim", "count_S1", "match", "basis")},
        "ok": body["match"],
    }
    emit(report, args.format)
    return EXIT_OK if body["match"] else EXIT_PROPERTY


def cmd_decompose(args) -> int:
    if args.input == "-":
        doc = json.load(sys.stdin)
    else:
        with open(args.input, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    poly = poly_from_json(doc)
    module = RModule(args.n, args.k, args.delta)
    elem = SymbolElem(poly.convert(module.table), module)
    dec = decompose(elem)
    ok = dec.reconstruction() == elem
    report = {
        "command": "decompose",
        "parameters": {"n": args.n, "k": args.k, "delta": format_rational(args.delta)},
        "results": dec.to_json(reconstructed_ok=ok),
        "ok": ok,
    }
    emit(report, args.format)
    return EXIT_OK if ok else EXIT_PROPERTY


def cmd_classify_same_weight(args) -> int:
    dim, ops = classify_same_weight(args.n, args.l, args.k, args.delta, args.order_bound)
    predicted = same_weight_predicted_count(args.l, args.k, args.order_bound)
    basis = sp_basis(args.n)
    rechecked = all(intertwines_all_generators(op, basis) for op in ops)
    report = {
        "command": "classify-same-weight",
        "parameters": {
            "n": args.n, "l": args.l, "k": args.k,
            "delta": format_rational(args.delta), "order_bound": args.order_bound,
        },
        "results": {
            "dimension": dim,
            "predicted": predicted,
            "match": dim == predicted,
            "rechecked": rechecked,
        },
        "ok": dim == predicted and rechecked,
    }
    emit(report, args.format)
    return EXIT_OK if report["ok"] else EXIT_PROPERTY


def cmd_diophantine(args) -> int:
    if args.dio_command == "pairs":
        pairs, injective = admissible_pairs(args.n, args.k, args.kp, args.delta, args.deltap)
        report = {
            "command": "diophantine pairs",
            "parameters": {
                "n": args.n, "k": args.k, "kp": args.kp,
                "delta": format_rational(args.delta), "deltap": format_rational(args.deltap),
            },
            "results": {"pairs": [list(p) for p in pairs], "injective": injective},
            "ok": injective,
        }
        emit(report, args.format)
        return EXIT_OK if injective else EXIT_PROPERTY
    if args.dio_command == "discriminant":
        res = discriminant_analysis(args.n, args.k, args.kp, args.l, args.lp, args.delta)
        rendered = {}
        for key, value in res.items():
            if isinstance(value, Fraction):
                rendered[key] = format_rational(value)
            elif isinstance(value, list):
                rendered[key] = [format_rational(v) for v in value]
            else:
                rendered[key] = value
        report = {
            "command": "diophantine discriminant",
            "parameters": {
                "n": args.n, "k": args.k, "kp": args.kp, "l": args.l, "lp": args.lp,
                "delta": format_rational(args.delta),
            },
            "results": rendered,
            "ok": True,
        }
        emit(report, args.format)
        return EXIT_OK
    if args.dio_command == "kappa3":
        delta = kappa3_delta(args.n, args.k, args.blocks)
        deltap = kappa3_delta_prime(args.n, args.kp, args.blocks)
        sys_delta, sys_deltap = kappa3_system_solution(args.n, args.k, args.kp, args.blocks)
        verified = delta == sys_delta and deltap == sys_deltap
        report = {
            "command": "diophantine kappa3",
            "parameters": {
                "n": args.n, "k": args.k, "kp": args.kp,
                "blocks": [list(b) for b in args.blocks],
            },
            "results": {
                "delta": format_rational(delta),
                "deltap": format_rational(deltap),
                "system_solution_matches": verified,
            },
            "ok": verified,
        }
        emit(report, args.format)
        return EXIT_OK if verified else EXIT_PROPERTY
    # kappa4
    instance = DioInstance(args.n, args.k, args.kp, args.delta, args.deltap, args.blocks)
    res = kappa4_consistency(instance)
    rendered = {
        "kappa": res["kappa"],
        "dependence": {
            str(j): None if combo is None else [format_rational(c) for c in combo]
            for j, combo in res["dependence"].items()
        },
        "lambda_consistent": {str(j): v for j, v in res["lambda_consistent"].items()},
        "system_rank": res["system_rank"],
        "system_consistent": res["system_consistent"],
    }
    report = {
        "command": "diophantine kappa4",
        "parameters": instance.describe(),
        "results": rendered,
        "ok": True,
    }
    emit(report, args.format)
    return EXIT_OK


def cmd_selftest(args) -> int:
    results = run_selftest(args.level, args.seed)
    ok = all(r.ok for r in results)
    first_failure = next((r for r in results if not r.ok), None)
    report = {
        "command": "selftest",
        "parameters": {"level": args.level, "seed": args.seed},
        "results": [r.to_json() for r in results],
        "summary": {
            "passed": sum(r.ok for r in results),
            "failed": sum(not r.ok for r in results),
            "first_counterexample": None if first_failure is None else first_failure.to_json(),
        },
        "ok": ok,
    }
    emit(report, args.format)
    return EXIT_OK if ok else EXIT_PROPERTY


def cmd_export_basis(args) -> int:
    doc = {"n": args.n, "generators": sp_basis_json(args.n)}
    text = json.dumps(doc, indent=2, sort_keys=True)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    else:
        print(text)
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "verify-casimir": cmd_verify_casimir,
        "invariants": cmd_invariants,
        "decompose": cmd_decompose,
        "classify-same-weight": cmd_classify_same_weight,
        "diophantine": cmd_diophantine,
        "selftest": cmd_selftest,
        "export-basis": cmd_export_basis,
    }
    try:
        return handlers[args.command](args)
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except (StructuralError, OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
