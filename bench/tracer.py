"""Outside-in tracer: times calls into each module's public functions.

Nothing in the program is changed on disk.  While a Tracer is active it
replaces each target with a timing wrapper: methods on their class, and
module-level functions in every contactsym module that holds them,
including by-name imports such as `from .linalg import sparse_nullspace`.
Self time is a call's inclusive time minus the time of wrapped calls made
inside it.  Leaving the `with` block restores every original.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter, defaultdict
from time import perf_counter

# (layer metric key, defining module, attribute path in that module)
TARGETS = (
    ("poly.mul", "contactsym.poly", "Poly.__mul__"),
    ("poly.diff_multi", "contactsym.poly", "Poly.diff_multi"),
    ("diffop.compose", "contactsym.diffop", "DiffOp.compose"),
    ("diffop.apply", "contactsym.diffop", "DiffOp.apply"),
    ("contact.structure_constants", "contactsym.contact", "SpBasis.structure_constants"),
    ("symbols.lie_action_symbol", "contactsym.symbols", "lie_action_symbol"),
    ("symbols.lie_action_as_diffop", "contactsym.symbols", "lie_action_as_diffop"),
    ("linalg.sparse_nullspace", "contactsym.linalg", "sparse_nullspace"),
    ("linalg.exact_nullspace", "contactsym.linalg", "exact_nullspace"),
    ("operators.fiber_restriction", "contactsym.operators", "fiber_restriction"),
    ("operators.classify_same_weight", "contactsym.operators", "classify_same_weight"),
    ("operators.intertwines_all_generators", "contactsym.operators", "intertwines_all_generators"),
    ("invariants.invariant_space_dim", "contactsym.invariants", "invariant_space_dim"),
    ("casimir.verify_diagonal_form", "contactsym.casimir", "verify_diagonal_form"),
    ("casimir.casimir_matrix", "contactsym.casimir", "casimir_matrix"),
    ("casimir.annihilated_by_spectrum", "contactsym.casimir", "CasimirMatrix.annihilated_by_spectrum"),
)

# Name prefixes of the selftest checks, as in "exact_algebra.ring_properties".
CHECK_PREFIXES = (
    "exact_algebra", "contact", "symbols", "operators", "casimir", "invariants", "diophantine",
)


def _count_zero_derivatives(counts, args, result):
    if not result:
        counts["poly.diff_multi.zeros"] += 1


def _count_nullspace_shape(counts, args, result):
    rows, ncols = args  # every caller passes (list of rows, column count)
    counts["linalg.sparse_nullspace.rows"] += len(rows)
    counts["linalg.sparse_nullspace.cols"] += ncols
    counts["linalg.sparse_nullspace.rank"] += ncols - len(result)


COUNTERS = {
    "poly.diff_multi": _count_zero_derivatives,
    "linalg.sparse_nullspace": _count_nullspace_shape,
}


class Tracer:
    """Per-key call counts, self seconds and extra counts while active."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.check_s: defaultdict = defaultdict(float)
        self.missing: list = []
        self._stack: list = []  # wrapped-children seconds of each open call
        self._restore: list = []

    def _wrap(self, key, fn):
        stack, calls, self_s = self._stack, self.calls, self.self_s
        counter = COUNTERS.get(key)
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                self_s[key] += elapsed - stack.pop()
                calls[key] += 1
                if stack:
                    stack[-1] += elapsed
            if counter is not None:
                counter(counts, args, result)
            return result

        return wrapper

    def _wrap_check(self, fn):
        check_s = self.check_s

        # run_selftest seeds each check's RNG from fn.__name__; wraps keeps it.
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = perf_counter()
            result = fn(*args, **kwargs)
            check_s[result.name.split(".")[0]] += perf_counter() - start
            return result

        return wrapper

    def _patch(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def __enter__(self):
        modules = [m for name, m in sys.modules.items()
                   if name == "contactsym" or name.startswith("contactsym.")]
        for key, module_name, path in TARGETS:
            owner = sys.modules.get(module_name)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None)
            if original is None:
                self.missing.append(f"{module_name}.{path}")
                continue
            wrapper = self._wrap(key, original)
            if parents:
                self._patch(owner, attr, wrapper)
                continue
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, name, wrapper)
        checks = sys.modules["contactsym.selftest"].CHECKS
        originals = list(checks)
        checks[:] = [self._wrap_check(fn) for fn in originals]
        self._restore.append((checks, slice(None), originals))
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._restore):
            if isinstance(attr, slice):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._restore.clear()
        return False

    def metrics(self, wall_s: float) -> dict:
        """Per-layer metrics as {name: (value, unit)}; wall_s is the traced wall time."""
        out = {}
        for key, _, _ in TARGETS:
            out[f"{key}.calls"] = (self.calls[key], "count")
            out[f"{key}.self_s"] = (self.self_s[key], "s")
        diff_calls = self.calls["poly.diff_multi"]
        out["poly.diff_multi.zero_ratio"] = (
            self.counts["poly.diff_multi.zeros"] / diff_calls if diff_calls else 0.0, "ratio")
        rows = self.counts["linalg.sparse_nullspace.rows"]
        for part in ("rows", "cols", "rank"):
            name = f"linalg.sparse_nullspace.{part}"
            out[name] = (self.counts[name], "count")
        out["linalg.useful_row_ratio"] = (
            self.counts["linalg.sparse_nullspace.rank"] / rows if rows else 0.0, "ratio")
        for prefix in CHECK_PREFIXES:
            out[f"selftest.check_s.{prefix}"] = (self.check_s[prefix], "s")
        attributed = sum(self.self_s.values())
        out["trace.unattributed_ratio"] = (max(wall_s - attributed, 0.0) / wall_s, "ratio")
        return out
