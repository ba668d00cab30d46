"""Per-layer spans recorded from outside derhamz, by rebinding its functions.

Every public function of the library modules, a few methods and the two
cached normal-form kernels are replaced by a timing wrapper.  Modules import
each other's functions by name (`from .intlinalg import lattice_solve`), so
one function has several bindings (`abgroups.lattice_solve`,
`bockstein.lattice_solve`, ...); every binding in every derhamz module is
rebound, or calls would escape the trace.  `lru_cache` objects are wrapped
from the outside, so their `cache_info()` stays readable.

Spans are aggregated in memory as they close: per span name the number of
entries and the self time, which is the span's duration minus the time of
the wrapped spans it contains.
"""

from __future__ import annotations

import inspect
import sys
import time

LIBRARY_MODULES = ("derham", "intlinalg", "modp", "abgroups", "cohomology",
                   "bockstein", "theorems")

# span names that differ from "<module>.<attribute>"
NAMES = {
    ("intlinalg", "_hnf_cached"): "intlinalg.hnf",
    ("intlinalg", "_snf_cached"): "intlinalg.snf",
    ("intlinalg", "IntMatrix.__init__"): "intlinalg.intmatrix_init",
    ("modp", "Solver.__init__"): "modp.solver_build",
    ("modp", "Solver.solve"): "modp.solver_solve",
    ("abgroups", "Homomorphism.__init__"): "abgroups.homomorphism_init",
    ("abgroups", "FgAbGroup.element_is_zero"): "abgroups.element_is_zero",
    ("bockstein", "ExactCouple.check_exactness"): "bockstein.check_exactness",
    ("bockstein", "ExactCouple.express_cochain"): "bockstein.express_cochain",
    ("derham", "frobenius_matrix"): "derham.frobenius_cartier",
    ("derham", "cartier_rep_matrix"): "derham.frobenius_cartier",
}

# wrapped although not public functions of a library module
EXTRA_TARGETS = [("cli", "main")] + [
    key for key in NAMES if key[1].startswith("_") or "." in key[1]]

# thin fronts of the cached kernels: wrapping them too would count each
# normal form twice under one name
SKIPPED = {("intlinalg", "hnf"), ("intlinalg", "snf")}

NORMAL_FORMS = ("intlinalg.hnf", "intlinalg.snf")


def _is_function(obj) -> bool:
    return inspect.isfunction(obj) or hasattr(obj, "cache_info")


class Tracer:
    """Aggregated spans, cache statistics and counts of one traced call."""

    def __init__(self):
        self.spans = {}          # name -> [calls, self seconds]
        self.caches = []         # (name, lru object, {id: result})
        self.rref_cells = 0
        self._stack = [0.0]      # time of closed child spans, per open span

    def _wrap(self, name, fn, post=None):
        stats = self.spans.setdefault(name, [0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stats[0] += 1
                stats[1] += elapsed - stack.pop()
                stack[-1] += elapsed
            if post is not None:
                post(args, out)
            return out

        return traced

    def _post_for(self, name, fn):
        if hasattr(fn, "cache_info"):
            seen = {}
            self.caches.append((name, fn, seen))

            def remember(args, out):
                seen[id(out)] = out
            return remember
        if name == "modp.rref":
            def count_cells(args, out):
                self.rref_cells += len(args[0]) * args[1]
            return count_cells
        return None

    def install(self) -> None:
        """Rebind the targets in every loaded derhamz module."""
        import derhamz.cli  # noqa: F401  (loads every module)

        modules = [m for key, m in list(sys.modules.items())
                   if key == "derhamz" or key.startswith("derhamz.")]
        targets = []
        for layer in LIBRARY_MODULES:
            mod = sys.modules[f"derhamz.{layer}"]
            for attr, obj in vars(mod).items():
                if (not attr.startswith("_") and _is_function(obj)
                        and obj.__module__ == mod.__name__
                        and (layer, attr) not in SKIPPED):
                    targets.append((layer, attr))
        targets += EXTRA_TARGETS

        for layer, attr in targets:
            name = NAMES.get((layer, attr), f"{layer}.{attr}")
            owner = sys.modules[f"derhamz.{layer}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(owner, cls_name)
                fn = cls.__dict__[meth]
                setattr(cls, meth, self._wrap(name, fn))
                continue
            fn = getattr(owner, attr)
            traced = self._wrap(name, fn, self._post_for(name, fn))
            for mod in modules:
                for binding, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, binding, traced)

    def report(self) -> dict:
        """Span totals, cache statistics and entry growth, as plain data."""
        from derhamz.intlinalg import IntMatrix

        caches = {}
        bits = 0
        for name, lru, seen in self.caches:
            info = lru.cache_info()
            totals = caches.setdefault(
                name, {"hits": 0, "misses": 0, "distinct_results": 0})
            totals["hits"] += info.hits
            totals["misses"] += info.misses
            totals["distinct_results"] += len(seen)
            if name not in NORMAL_FORMS:
                continue
            for out in seen.values():
                for M in out:
                    if isinstance(M, IntMatrix):
                        for i in range(M.nrows):
                            for x in M.row(i):
                                bits = max(bits, abs(x).bit_length())
        return {"spans": self.spans, "caches": caches,
                "rref_cells": self.rref_cells, "max_entry_bits": bits}
