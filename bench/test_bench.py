"""Self-checks of the benchmark itself.

    python -m pytest bench

These take about a minute.  The traced runs go through bench/run.py as a
user would start it, two at a time.
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import run
from workloads import (
    CASIMIR_CRITICAL, CASIMIR_SLOW, CLASSIFY_CRITICAL, WORKLOADS, casimir_verdict, classify_verdict,
)

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
COUNT_SUFFIXES = (".calls", ".rows", ".cols", ".rank", "zero_ratio", "useful_row_ratio")


def start(cwd, *args):
    return subprocess.Popen(
        [sys.executable, "bench/run.py", *args], cwd=cwd,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )


def finish(proc):
    out, err = proc.communicate(timeout=300)
    assert proc.returncode == 0, err
    return json.loads(out.splitlines()[-1])


def declared(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_runs_at_one_seed_repeat_their_counts(name):
    args = ("--workload", name, "--seed", "7", "--seconds", "1", "--trace", "1")
    first, second = [finish(p) for p in [start(ROOT, *args), start(ROOT, *args)]]
    for result in (first, second):
        assert result["correct"] and result["failed"] == 0
        assert {k: v["unit"] for k, v in result["metrics"].items()} == declared("per_layer")
    counts = {k: v for k, v in first["metrics"].items() if k.endswith(COUNT_SUFFIXES)}
    assert counts == {k: second["metrics"][k] for k in counts}

    m = {k: v["value"] for k, v in first["metrics"].items()}
    if name == "casimir":
        busy = sum(v for k, v in m.items() if k.endswith(".self_s"))
        assert m["diffop.compose.self_s"] < 0.01 * busy
    if name == "classify":
        assert m["diffop.apply.calls"] == 0
    if name == "invariants":
        assert m["diffop.compose.calls"] == m["diffop.apply.calls"] == 0


def test_untraced_run_reports_every_end_to_end_metric():
    result = run.measure("invariants", seed=3, seconds=1, trace=False)
    assert result["correct"] and result["attempted"] == 7
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_mutant_closed_form_fails_every_casimir_verdict(monkeypatch):
    run.load_cli()
    import contactsym.casimir as casimir

    exact = casimir.closed_form_casimir
    monkeypatch.setattr(
        casimir, "closed_form_casimir",
        lambda n, k, delta: exact(n, k, delta).scale(Fraction(1001, 1000)),
    )
    result = run.measure("casimir", seed=3, seconds=1, trace=False)
    assert result["attempted"] >= 2
    assert result["failed"] == result["attempted"]
    assert result["correct"] is False


def test_generator_rejects_critical_weights():
    for delta in CASIMIR_CRITICAL:
        with pytest.raises(ValueError):
            casimir_verdict(delta)
    for delta in CLASSIFY_CRITICAL:
        with pytest.raises(ValueError):
            classify_verdict(delta)
    rounds = WORKLOADS["casimir"].rounds(random.Random(0))
    drawn = {Fraction(next(rounds)[0].argv[-1].split("=")[1]) for _ in range(300)}
    assert not drawn & (CASIMIR_CRITICAL | CASIMIR_SLOW)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = start(tmp_path, "--workload", "casimir", "--seed", "1", "--seconds", "1")
    out, _ = proc.communicate(timeout=180)
    assert proc.returncode != 0
    assert out == ""
