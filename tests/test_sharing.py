"""Per-block results are shared by the block's ordered nonzero weights.

Every block computation is cached by the weights (and the prime), across
all (r, n) and all statements.  These tests run in child interpreters, so
the caches start cold: each block result is computed once, and the results
do not depend on which (r, n) computed them first.
"""

import json
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")

COUNT_CALLS = """
import json
from collections import Counter
from derhamz import bockstein, cohomology, theorems
from derhamz.derham import koszul_blocks

calls = {"homology_at": Counter(), "derive": Counter(),
         "modp_homology": Counter()}

def counting(name, key):
    fn = getattr(module[name], name)
    def wrapper(*args):
        calls[name][key(*args)] += 1
        return fn(*args)
    setattr(module[name], name, wrapper)

module = {"homology_at": cohomology, "derive": bockstein,
          "modp_homology": cohomology}
# the cohomology binding: homology_at on block differentials
counting("homology_at", lambda d_in, d_out: (d_in, d_out))
counting("derive", lambda c: (c.weights, c.p, c.level))
# the cohomology binding: modp_homology on block differentials (derive
# calls it through its own binding, on page differentials)
counting("modp_homology", lambda d_in, d_out, p: (d_in, d_out, p))
theorems.sweep(3, 8)
weights = {blk.weights for r in range(1, 4) for n in range(1, 9)
           for blk in koszul_blocks(r, n)}
print(json.dumps({
    "most_repeated": {name: max(c.values()) for name, c in calls.items()},
    "homology_calls": sum(calls["homology_at"].values()),
    "block_degrees": sum(len(w) + 1 for w in weights),
}))
"""

SWEEP = """
import json
from derhamz.bockstein import couples, pages
from derhamz.theorems import sweep
if {warm}:
    sweep(1, 8)
    couples(3, 8, 2, 4)
    pages(2, 8, 2)
print(json.dumps([rep.to_json_dict() for rep in sweep(3, 8)]))
"""


def _child(code: str) -> str:
    run = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         timeout=120,
                         env={"PYTHONPATH": SRC, "PATH": "/usr/bin:/bin"})
    assert run.returncode == 0, run.stderr.decode()[-800:]
    return run.stdout.decode()


def test_each_block_result_is_computed_once():
    # homology_at once per distinct weights and degree, derive once per
    # (weights, p, level), block mod-p homology once per (weights, p)
    counts = json.loads(_child(COUNT_CALLS))
    assert counts["most_repeated"] == {"homology_at": 1, "derive": 1,
                                       "modp_homology": 1}, counts
    assert counts["homology_calls"] == counts["block_degrees"], counts


def test_results_do_not_depend_on_call_order():
    # a sharing key that is too coarse would hand one (r, n) the cached
    # block results of another
    cold = _child(SWEEP.format(warm=False))
    warm = _child(SWEEP.format(warm=True))
    assert cold == warm
    assert json.loads(cold)
