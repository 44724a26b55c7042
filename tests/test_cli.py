"""Command-line surface: exit codes, report schemas, determinism."""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

import pytest

from contactsym.cli import main


def _load_bench_workloads():
    """bench/workloads.py, imported read-only for its frozen fixed instances."""
    path = Path(__file__).resolve().parent.parent / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module.WORKLOADS


WORKLOADS = _load_bench_workloads()


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_casimir_pass(capsys):
    code, out, _ = run(
        capsys, "verify-casimir", "--n", "1", "--k", "2", "--delta", "1/3",
        "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True
    assert doc["results"]["c"] == "13/9"
    assert doc["results"]["spectrum_certified"] is True


def test_verify_casimir_certifies_534_monomial_family(capsys):
    # At -5/6 the base-degree-2 span keeps 534 monomials; the dense product
    # over them once ran for minutes.
    code, out, _ = run(
        capsys, "verify-casimir", "--n", "2", "--k", "3", "--delta=-5/6", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True
    assert doc["results"]["spectrum_certified"] is True


def test_verify_casimir_trivial_weight(capsys):
    code, out, _ = run(
        capsys, "verify-casimir", "--n", "1", "--k", "0", "--delta", "0",
        "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["c"] == "0"
    assert doc["results"]["eigenvalues"] == ["0"]
    assert doc["warnings"] == []  # C_0 is empty, so delta = 0 is regular here


def test_verify_casimir_critical_warns_but_runs(capsys):
    code, out, _ = run(
        capsys, "verify-casimir", "--n", "1", "--k", "1", "--delta", "0",
        "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True
    assert doc["warnings"]
    assert "spectrum_certified" not in doc["results"]


def test_rational_parse_error_exit_2(capsys):
    with pytest.raises(SystemExit) as err:
        main(["verify-casimir", "--n", "1", "--k", "1", "--delta", "1/0"])
    assert err.value.code == 2


def test_decimal_rejected(capsys):
    with pytest.raises(SystemExit) as err:
        main(["verify-casimir", "--n", "1", "--k", "1", "--delta", "0.5"])
    assert err.value.code == 2


@pytest.mark.parametrize("degree", ["-1", "-3", "2.5"])
def test_verify_casimir_rejects_bad_base_degree_exit_2(capsys, degree):
    # A negative degree would certify the spectrum on an empty monomial span.
    with pytest.raises(SystemExit) as err:
        main(["verify-casimir", "--n", "1", "--k", "1", "--delta", "1",
              f"--max-base-degree={degree}"])
    assert err.value.code == 2


SUBCOMMAND_ARGS = {
    "verify-casimir": ["--k", "1", "--delta", "1"],
    "invariants": ["--k", "1", "--m", "0", "--l", "1", "--nu", "0"],
    "decompose": ["--k", "1", "--delta", "1/3", "--input", "-"],
    "classify-same-weight": ["--l", "1", "--k", "1", "--delta", "1/3"],
    "diophantine pairs": ["--k", "1", "--kp", "1", "--delta", "1/3", "--deltap", "1/3"],
    "diophantine discriminant": ["--k", "1", "--kp", "1", "--l", "1", "--lp", "1",
                                 "--delta", "1/3"],
    "diophantine kappa3": ["--k", "2", "--kp", "1", "--blocks", "2:1,0:0,1:1"],
    "diophantine kappa4": ["--k", "2", "--kp", "1", "--delta", "1/3", "--deltap", "1/3",
                           "--blocks", "2:1,0:0,1:1,1:0"],
    "export-basis": [],
}


@pytest.mark.parametrize("n", ["0", "-1", "1.5"])
@pytest.mark.parametrize("command", sorted(SUBCOMMAND_ARGS))
def test_bad_n_exits_2(capsys, command, n):
    # n = -1 once divided by n + 1 = 0; n = 0 reached domain checks (exit 3).
    with pytest.raises(SystemExit) as err:
        main([*command.split(), f"--n={n}", *SUBCOMMAND_ARGS[command]])
    assert err.value.code == 2
    assert "expected an integer >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("xdeg", ["-1", "2.5"])
def test_invariants_rejects_bad_xdeg_exit_2(capsys, xdeg):
    # A negative degree enumerates no monomial and reported ok: false.
    with pytest.raises(SystemExit) as err:
        main(["invariants", "--n", "1", "--k", "0", "--m", "0", "--l", "0", "--nu", "0",
              f"--xdeg={xdeg}"])
    assert err.value.code == 2


def test_invariants_examples(capsys):
    code, out, _ = run(
        capsys, "invariants", "--n", "1", "--k", "1", "--m", "0", "--l", "1",
        "--nu", "0", "--algebra", "affine", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["solver_dim"] == 2 and doc["results"]["match"] is True

    code, out, _ = run(
        capsys, "invariants", "--n", "1", "--k", "1", "--m", "0", "--l", "1",
        "--nu", "1/3", "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["results"]["solver_dim"] == 0

    code, out, _ = run(
        capsys, "invariants", "--n", "1", "--k", "1", "--m", "0", "--l", "1",
        "--nu", "0", "--algebra", "contact", "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["results"]["solver_dim"] == 1


def test_decompose_roundtrip(tmp_path, capsys):
    poly = {"n": 1, "blocks": ["xi"], "terms": [{"coeff": "1", "exp": {"xi_t": 1}}]}
    path = tmp_path / "input.json"
    path.write_text(json.dumps(poly))
    code, out, _ = run(
        capsys, "decompose", "--n", "1", "--k", "1", "--delta", "1",
        "--input", str(path), "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    comps = doc["results"]["components"]
    assert doc["results"]["reconstructed_ok"] is True
    assert comps[0]["T"]["terms"] == []  # l = 0 part vanishes
    assert comps[1]["eigenvalue"] == "0"


def test_decompose_zero_polynomial(tmp_path, capsys):
    poly = {"n": 1, "blocks": ["xi"], "terms": []}
    path = tmp_path / "zero.json"
    path.write_text(json.dumps(poly))
    code, out, _ = run(
        capsys, "decompose", "--n", "1", "--k", "2", "--delta", "1/3",
        "--input", str(path), "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert all(c["T"]["terms"] == [] for c in doc["results"]["components"])


def test_decompose_critical_exit_3(tmp_path, capsys):
    poly = {"n": 1, "blocks": ["xi"], "terms": [{"coeff": "1", "exp": {"xi_t": 1}}]}
    path = tmp_path / "input.json"
    path.write_text(json.dumps(poly))
    code, _, err = run(
        capsys, "decompose", "--n", "1", "--k", "1", "--delta", "0",
        "--input", str(path),
    )
    assert code == 3
    assert "critical" in err


@pytest.mark.parametrize("power", [-2, 1.7])
def test_decompose_rejects_bad_exponent_exit_2(tmp_path, capsys, power):
    poly = {"n": 1, "blocks": ["xi"], "terms": [{"coeff": "1", "exp": {"p1": power}}]}
    path = tmp_path / "input.json"
    path.write_text(json.dumps(poly))
    code, out, err = run(
        capsys, "decompose", "--n", "1", "--k", "1", "--delta", "1",
        "--input", str(path), "--format", "json",
    )
    assert code == 2
    assert out == ""
    assert "exponent of p1" in err


def test_diophantine_pairs(capsys):
    code, out, _ = run(
        capsys, "diophantine", "pairs", "--n", "1", "--k", "1", "--kp", "1",
        "--delta", "1/3", "--deltap", "1/3", "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["results"]["pairs"] == [[0, 0], [1, 1]]


def test_diophantine_pairs_critical_exit_3(capsys):
    code, _, err = run(
        capsys, "diophantine", "pairs", "--n", "1", "--k", "1", "--kp", "1",
        "--delta", "0", "--deltap", "1/3",
    )
    assert code == 3


def test_diophantine_kappa3_verified(capsys):
    # A census configuration: every R_j vanishes at the forced pair, and
    # neither weight is critical.
    code, out, _ = run(
        capsys, "diophantine", "kappa3", "--n", "1", "--k", "4", "--kp", "6",
        "--blocks", "0:4,1:0,2:5", "--format", "json",
    )
    assert code == 0
    res = json.loads(out)["results"]
    assert (res["delta"], res["deltap"]) == ("-11/6", "-5/3")
    assert res["system_solution_matches"] is True
    assert res["relations_hold"] is True
    assert res["delta_critical"] is False and res["deltap_critical"] is False
    assert res["injective"] is True


def test_diophantine_kappa3_relations_fail_exit_1(capsys):
    # The linear system is solved at (0, 1/2), but there R = 2 for every
    # block; this once reported ok: true.
    code, out, _ = run(
        capsys, "diophantine", "kappa3", "--n", "1", "--k", "2", "--kp", "1",
        "--blocks", "2:1,0:0,1:1", "--format", "json",
    )
    assert code == 1
    doc = json.loads(out)
    assert doc["ok"] is False
    res = doc["results"]
    assert res["system_solution_matches"] is True and res["relations_hold"] is False
    assert res["delta_critical"] is True and res["deltap_critical"] is False
    # admissible_pairs raises at the critical delta = 0; nothing is reported.
    assert res["injective"] is None


@pytest.mark.parametrize("argv, block", [
    (["kappa3", "--k", "2", "--kp", "1", "--blocks", "5:1,0:0,1:1"], "(5, 1)"),
    (["kappa3", "--k", "2", "--kp", "1", "--blocks", "2:1,0:-1,1:1"], "(0, -1)"),
    (["discriminant", "--k", "1", "--kp", "1", "--l", "3", "--lp", "0", "--delta", "1/3"],
     "(3, 0)"),
    (["discriminant", "--k", "1", "--kp", "1", "--l", "0", "--lp=-1", "--delta", "1/3"],
     "(0, -1)"),
], ids=["kappa3-l", "kappa3-lp", "discriminant-l", "discriminant-lp"])
def test_diophantine_block_out_of_range_exit_3(capsys, argv, block):
    # Both once reported a result for blocks no module of degree k, k' has.
    code, out, err = run(capsys, "diophantine", argv[0], "--n", "1", *argv[1:])
    assert code == 3
    assert out == ""
    assert f"block {block} outside" in err


def test_classify_same_weight_cli(capsys):
    code, out, _ = run(
        capsys, "classify-same-weight", "--n", "1", "--l", "1", "--k", "1",
        "--delta", "1/3", "--order-bound", "1", "--format", "json",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["results"]["dimension"] == 2 and doc["results"]["rechecked"] is True


def test_selftest_deterministic(capsys):
    code1, out1, _ = run(capsys, "selftest", "--level", "fast", "--seed", "42",
                         "--format", "json")
    code2, out2, _ = run(capsys, "selftest", "--level", "fast", "--seed", "42",
                         "--format", "json")
    assert code1 == code2 == 0
    assert out1 == out2  # byte-identical reports from equal seeds


def test_report_parameters_round_trip(capsys):
    # Negative rationals need the --flag=value form (argparse otherwise
    # mistakes "-5/7" for an option).
    code, out, _ = run(
        capsys, "verify-casimir", "--n", "1", "--k", "1", "--delta=-5/7",
        "--format", "json",
    )
    assert code == 0
    params = json.loads(out)["parameters"]
    code2, out2, _ = run(
        capsys, "verify-casimir",
        "--n", str(params["n"]), "--k", str(params["k"]),
        f"--delta={params['delta']}",
        "--max-base-degree", str(params["max_base_degree"]),
        "--format", "json",
    )
    assert code2 == 0
    assert out2 == out  # echoed parameters reproduce the identical report


def test_export_basis(tmp_path, capsys):
    out_file = tmp_path / "basis.json"
    code, _, _ = run(capsys, "export-basis", "--n", "1", "--output", str(out_file))
    assert code == 0
    doc = json.loads(out_file.read_text())
    assert len(doc["generators"]) == 10
    labels = {g["label"] for g in doc["generators"]}
    assert {"1", "t", "t2", "p1", "q1", "tp1", "tq1", "p1p1", "q1q1", "p1q1"} == labels


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_fixed_bench_report_matches_frozen_digest(capsys, name):
    fixed = WORKLOADS[name].fixed
    code, out, _ = run(capsys, *fixed.argv, "--format", "json")
    assert code == 0
    assert fixed.expect(json.loads(out))
    assert hashlib.sha256(out.encode()).hexdigest() == WORKLOADS[name].digest
