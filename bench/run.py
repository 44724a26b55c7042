"""contactsym benchmark: CLI verdict workloads with an exact-answer gate.

    python3 bench/run.py --workload {casimir,classify,invariants,selftest} \
        --seed N --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
./src.  Each verdict calls contactsym.cli.main([..., "--format", "json"])
in this process, single-threaded, with stdout captured, and is judged
against the frozen answers in workloads.py.  The workload's fixed instance
must also reproduce its frozen report digest.  The last stdout line is one
JSON object: {"correct", "attempted", "failed", "metrics"}.

--trace 0 measures for --seconds seconds and reports the end-to-end
metrics; it patches nothing.  --trace 1 runs a fixed list of verdicts,
sized from --seconds and picked by --seed, once untraced and once under
the outside-in tracer, and reports the per-layer metrics; equal seeds and
seconds give identical counts.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import traceback
from itertools import islice
from pathlib import Path
from time import perf_counter

from tracer import Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5

# A fresh interpreter made ready: the package imported, then sp_basis(n)
# (with its closed-form cross-check) and its structure constants per n.
SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import contactsym; "
    "from contactsym.contact import sp_basis; "
    "[sp_basis(int(n)).structure_constants() for n in sys.argv[2:]]"
)


def load_cli():
    """Import contactsym.cli from the checkout's src/, and from nowhere else."""
    if not (SRC / "contactsym" / "__init__.py").is_file():
        raise SystemExit(f"contactsym sources not found under {SRC}")
    sys.path.insert(0, str(SRC))
    from contactsym import cli

    if Path(cli.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"imported {cli.__file__}, not the checkout's package")
    return cli


def fresh_setup_s(ns) -> float:
    # No timeout: with one, Popen.wait polls in steps of up to 50 ms, and
    # the measured time snaps to that grid.
    start = perf_counter()
    subprocess.run(
        [sys.executable, "-I", "-c", SETUP_CODE, str(SRC), *map(str, ns)],
        check=True, stdin=subprocess.DEVNULL,
    )
    return perf_counter() - start


class Tally:
    """Counts the verdicts attempted and failed."""

    def __init__(self, cli):
        self.cli = cli
        self.attempted = 0
        self.failed = 0

    def judge(self, verdict, digest=None) -> float:
        """Run one verdict; return its seconds.  A failure is counted, not raised."""
        self.attempted += 1
        out, err = io.StringIO(), io.StringIO()
        start = perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main([*verdict.argv, "--format", "json"])
            elapsed = perf_counter() - start
            text = out.getvalue()
            good = code == 0 and verdict.expect(json.loads(text))
            if digest is not None:
                good = good and hashlib.sha256(text.encode()).hexdigest() == digest
        except (Exception, SystemExit):  # argparse exits on a usage error
            elapsed = perf_counter() - start
            good = False
            traceback.print_exc()
        if not good:
            self.failed += 1
            print(f"failed verdict: {' '.join(verdict.argv)}\n{err.getvalue()}", file=sys.stderr)
        return elapsed


def ready(workload):
    cli = load_cli()
    from contactsym.contact import sp_basis

    timings = {"contact.sp_basis.s": 0.0, "contact.structure_constants.s": 0.0}
    for n in workload.ns:
        start = perf_counter()
        basis = sp_basis(n)
        mid = perf_counter()
        basis.structure_constants()
        timings["contact.sp_basis.s"] += mid - start
        timings["contact.structure_constants.s"] += perf_counter() - mid
    return cli, timings


def run_untraced(workload, rng, seconds):
    cli, _ = ready(workload)
    setup_s = statistics.median(fresh_setup_s(workload.ns) for _ in range(SETUP_REPEATS))
    tally = Tally(cli)
    tally.judge(workload.fixed, workload.digest)
    # Mean seconds per verdict of each round.  A median over single verdicts
    # of a nu sweep would fall between two weights' costs and jitter.
    per_verdict = []
    start = perf_counter()
    for verdicts in workload.rounds(rng):
        if perf_counter() - start >= seconds:
            break
        per_verdict.append(sum(tally.judge(v) for v in verdicts) / len(verdicts))
    wall = perf_counter() - start
    timed = tally.attempted - 1
    print(f"{workload.name}: {timed} timed verdicts in {len(per_verdict)} rounds, "
          f"{wall:.3f} s, plus the digest instance")
    metrics = {
        "setup_s": (setup_s, "s"),
        "verdict_s.p50": (statistics.median(per_verdict), "s"),
        "verdicts_per_s": (timed / wall, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return tally, metrics


def traced_rounds(workload, seconds) -> int:
    """Rounds per pass so that both passes together take about `seconds`."""
    return max(1, int((seconds / 2 - workload.round_s) / workload.round_s))


def run_traced(workload, rng, seconds):
    cli, metrics = ready(workload)
    metrics = {name: (value, "s") for name, value in metrics.items()}
    tally = Tally(cli)
    tally.judge(workload.fixed, workload.digest)  # warm-up, untraced
    work = [(workload.fixed, workload.digest)]
    for verdicts in islice(workload.rounds(rng), traced_rounds(workload, seconds)):
        work.extend((v, None) for v in verdicts)

    start = perf_counter()
    for verdict, digest in work:
        tally.judge(verdict, digest)
    untraced_wall = perf_counter() - start

    with Tracer() as tracer:
        start = perf_counter()
        for verdict, digest in work:
            tally.judge(verdict, digest)
        traced_wall = perf_counter() - start
    if tracer.missing:
        print(f"not traced (absent): {', '.join(tracer.missing)}", file=sys.stderr)
    print(f"{workload.name}: {len(work)} verdicts per pass, "
          f"{untraced_wall:.3f} s untraced, {traced_wall:.3f} s traced")
    metrics.update(tracer.metrics(traced_wall))
    metrics["trace.overhead_ratio"] = (traced_wall / untraced_wall, "ratio")
    return tally, metrics


def measure(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[name]
    rng = random.Random(f"{name}:{seed}")
    run = run_traced if trace else run_untraced
    tally, metrics = run(workload, rng, seconds)
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(f"python {platform.python_version()}, nproc {os.cpu_count()}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
