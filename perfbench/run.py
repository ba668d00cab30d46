"""The derhamz benchmark: cold CLI processes, exact answers, per-layer trace.

    python3 perfbench/run.py --workload pages --seed 1 --seconds 33 --trace 0

Run from the root of a checkout.  The seed draws the workload's instances
(see pools.py).  Each instance runs in a fresh child interpreter, one child
at a time, exactly as a user's CLI call would.  Rounds over the drawn list
repeat until --seconds is used up; timings are medians over rounds.  Every
answer passes the exact gate in gate.py or counts as failed.

With --trace 0 the last line reports the end-to-end metrics; with
--trace 1 it reports the per-layer metrics, from rounds that alternate an
untraced and a traced pass, and the span totals of every traced pass are
written to .perfbench/ in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gate
import pools

ROOT = Path(__file__).resolve().parents[1]
CHILD = Path(__file__).with_name("child.py")
TRACE_DIR = ROOT / ".perfbench"
CHILD_TIMEOUT_S = 60

END_TO_END = {"setup_s": "s", "wall_s": "s", "max_instance_s": "s",
              "peak_rss_mib": "MiB"}

STATEMENTS = ("annihilation", "cartier", "couple_morphism", "frobenius_iso",
              "page_identification", "filtration", "example_deg4")

PER_LAYER = [
    "intlinalg.snf.computed", "intlinalg.snf.self_s",
    "intlinalg.hnf.computed", "intlinalg.hnf.hit_ratio",
    "intlinalg.hnf.self_s", "intlinalg.kernel_basis.self_s",
    "intlinalg.intmatrix_init.calls", "intlinalg.intmatrix_init.self_s",
    "intlinalg.lattice_solve.calls", "intlinalg.lattice_solve.self_s",
    "intlinalg.max_entry_bits",
    "modp.solver_solve.calls", "modp.solver_solve.self_s",
    "modp.solver_build.self_s",
    "modp.rref.calls", "modp.rref.cells", "modp.rref.self_s",
    "modp.complete_basis.self_s",
    "abgroups.homomorphism_init.calls", "abgroups.homomorphism_init.self_s",
    "abgroups.element_is_zero.calls", "abgroups.homology_at.self_s",
    "abgroups.is_exact_at.calls", "abgroups.is_exact_at.self_s",
    "bockstein.check_exactness.self_s", "bockstein.initial_couple.self_s",
    "bockstein.derive.self_s", "bockstein.express_cochain.calls",
    "bockstein.verify_page_identification.self_s",
    "bockstein.closed_form_page.self_s",
    "bockstein.compare_with_closed_form.self_s",
    "cohomology.integral_cohomology.self_s",
    "cohomology.integral_cohomology.hit_ratio",
    "cohomology.modp_cohomology.self_s",
    "cohomology.modp_cohomology.hit_ratio",
    "cohomology.cartier_iso.self_s",
    "derham.d_matrix.calls", "derham.complex_z.self_s",
    "derham.frobenius_cartier.self_s",
    "theorems.sweep.self_s",
    *(f"theorems.verify_{s}.self_s" for s in STATEMENTS),
    "cli.main.self_s", "cli.stdout_bytes",
    "trace.wall_s", "trace.overhead_s", "host.kernel_s",
]

UNITS = {"calls": "count", "computed": "count", "cells": "count",
         "self_s": "s", "hit_ratio": "ratio", "max_entry_bits": "bits",
         "stdout_bytes": "B", "wall_s": "s", "overhead_s": "s",
         "kernel_s": "s"}

# counts that must repeat exactly between traced passes of one draw
EXACT_KINDS = ("calls", "computed", "cells", "max_entry_bits",
               "stdout_bytes")


def unit_of(metric: str) -> str:
    return UNITS[metric.rpartition(".")[2]]


# -- host reference -----------------------------------------------------------


def host_info() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "cpu": cpu}


def host_kernel_s() -> float:
    """Time of a fixed exact-integer determinant (Bareiss, 64 x 64)."""
    n, x = 64, 12345
    a = []
    for _ in range(n):
        row = []
        for _ in range(n):
            x = (x * 1103515245 + 12345) % 2 ** 31
            row.append(x % 201 - 100)
        a.append(row)
    start = time.perf_counter()
    prev = 1
    for k in range(n - 1):
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return time.perf_counter() - start


# -- one child ----------------------------------------------------------------


def child_env() -> dict:
    """The environment of every child: src/ importable, and bytecode caches
    written as an installed CLI has them, so setup is not compile time."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = (src + os.pathsep + env["PYTHONPATH"]
                         if env.get("PYTHONPATH") else src)
    return env


def spawn_child(instance, trace: bool, env: dict) -> dict:
    """Run one instance in a fresh interpreter: its result, or an error."""
    spec = json.dumps({"workload": instance.workload,
                       "args": list(instance.args), "trace": trace})
    spawned = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(CHILD), spec], cwd=ROOT,
                              env=env, capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"error": "timeout"}
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or [""]
        return {"error": f"child exit {proc.returncode}: {tail[0]}"}
    try:
        res = json.loads(proc.stdout.splitlines()[-1])
    except (IndexError, ValueError):
        return {"error": "child printed no result line"}
    res["setup_s"] = res["ready"] - spawned
    return res


def run_child(instance, trace: bool, baseline: dict, env: dict) -> dict:
    """Run one instance and gate its answer."""
    res = spawn_child(instance, trace, env)
    if "error" in res:
        return {"instance": instance, "error": res["error"]}
    return {
        "instance": instance,
        "error": gate.check(instance, res["exit"], res["stdout"], baseline),
        "setup_s": res["setup_s"],
        "wall_s": res["wall_s"],
        "rss_mib": res["maxrss_kib"] / 1024,
        "stdout_bytes": len(res["stdout"].encode())
        if instance.workload != "oracle" else 0,
        "trace": res["trace"],
    }


# -- aggregation --------------------------------------------------------------


def end_to_end(passes: list) -> dict:
    """Medians over untraced passes; each pass is one outcome per instance."""
    ok = [o for p in passes for o in p if "wall_s" in o]
    if not ok:
        return {name: 0.0 for name in END_TO_END}
    per_instance = {}
    for o in ok:
        per_instance.setdefault(o["instance"], []).append(o["wall_s"])
    walls = [statistics.median(v) for v in per_instance.values()]
    return {
        "setup_s": statistics.median(o["setup_s"] for o in ok),
        "wall_s": sum(walls),
        "max_instance_s": max(walls),
        "peak_rss_mib": max(o["rss_mib"] for o in ok),
    }


def layer_values(outcomes: list) -> dict:
    """Per-layer values of one traced pass (summed over its instances)."""
    spans, caches = {}, {}
    cells = bits = out_bytes = 0
    for o in outcomes:
        t = o.get("trace")
        if t is None:
            continue
        for name, (calls, self_s) in t["spans"].items():
            acc = spans.setdefault(name, [0, 0.0])
            acc[0] += calls
            acc[1] += self_s
        for name, info in t["caches"].items():
            acc = caches.setdefault(name, [0, 0])
            acc[0] += info["hits"]
            acc[1] += info["misses"]
        cells += t["rref_cells"]
        bits = max(bits, t["max_entry_bits"])
        out_bytes += o["stdout_bytes"]
    values = {}
    for metric in PER_LAYER:
        base, _, kind = metric.rpartition(".")
        if kind == "calls":
            values[metric] = spans.get(base, [0, 0.0])[0]
        elif kind == "self_s":
            values[metric] = spans.get(base, [0, 0.0])[1]
        elif kind == "computed":
            values[metric] = caches.get(base, [0, 0])[1]
        elif kind == "hit_ratio":
            hits, misses = caches.get(base, [0, 0])
            values[metric] = hits / (hits + misses) if hits + misses else 0.0
    values["modp.rref.cells"] = cells
    values["intlinalg.max_entry_bits"] = bits
    values["cli.stdout_bytes"] = out_bytes
    return values


def per_layer(untraced: list, traced: list, kernels: list) -> tuple:
    """Medians over traced passes, and whether every count repeated."""
    samples = [layer_values(p) for p in traced]
    out = {m: statistics.median(s[m] for s in samples) for m in samples[0]}
    repeated = all(s[m] == samples[0][m] for s in samples for m in s
                   if m.rpartition(".")[2] in EXACT_KINDS)
    def wall(p):
        return sum(o.get("wall_s", 0.0) for o in p)

    # each traced pass runs right after its untraced pass, so the
    # difference within a round is least disturbed by a drifting host
    out["trace.wall_s"] = statistics.median(wall(p) for p in traced)
    out["trace.overhead_s"] = statistics.median(
        wall(t) - wall(u) for u, t in zip(untraced, traced))
    out["host.kernel_s"] = statistics.median(kernels)
    return {m: out[m] for m in PER_LAYER}, repeated


# -- rounds -------------------------------------------------------------------


def measure(instances, seconds: float, trace: bool, baseline: dict):
    """Rounds over the draw until the time is used; at least one round.

    A round is one untraced pass, plus one traced pass when tracing.  No
    round starts unless a round as long as the longest so far still fits.
    """
    env = child_env()
    untraced, traced, kernels = [], [], []
    start = time.monotonic()
    longest = 0.0
    while True:
        round_start = time.monotonic()
        kernels.append(host_kernel_s())
        untraced.append([run_child(i, False, baseline, env)
                         for i in instances])
        if trace:
            traced.append([run_child(i, True, baseline, env)
                           for i in instances])
        now = time.monotonic()
        longest = max(longest, now - round_start)
        if now - start + longest > seconds:
            return untraced, traced, kernels


def write_trace(workload: str, seed: int, instances, traced, host) -> Path:
    TRACE_DIR.mkdir(exist_ok=True)
    path = TRACE_DIR / f"trace-{workload}-seed{seed}.json"
    doc = {"workload": workload, "seed": seed, "host": host,
           "instances": [i.key for i in instances],
           "passes": [[{"instance": o["instance"].key,
                        "wall_s": o.get("wall_s"), "trace": o.get("trace")}
                       for o in p] for p in traced]}
    path.write_text(json.dumps(doc, indent=1) + "\n")
    return path


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=pools.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "derhamz" / "cli.py").is_file():
        print(f"error: no derhamz sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    baseline = gate.load_baseline()
    instances = pools.draw(args.workload, args.seed)
    host = host_info()
    untraced, traced, kernels = measure(instances, args.seconds,
                                        bool(args.trace), baseline)

    outcomes = [o for p in untraced + traced for o in p]
    failures = [o for o in outcomes if o["error"]]
    for o in failures:
        print(f"FAILED {o['instance'].key}: {o['error']}", file=sys.stderr)
    correct = not failures
    if args.trace:
        metrics, repeated = per_layer(untraced, traced, kernels)
        if not repeated:
            print("FAILED: traced counts differ between passes",
                  file=sys.stderr)
            correct = False
        path = write_trace(args.workload, args.seed, instances, traced, host)
        print(f"# spans written to {path.relative_to(ROOT)}")
    else:
        metrics = end_to_end(untraced)
    print(f"# workload={args.workload} seed={args.seed} "
          f"rounds={len(untraced)} instances={[i.key for i in instances]}")
    print(f"# host nproc={host['nproc']} python={host['python']} "
          f"cpu={host['cpu']!r} kernel_s={statistics.median(kernels):.4f} "
          f"failed_frac={len(failures) / len(outcomes):.4f}")
    print(json.dumps({
        "correct": correct,
        "attempted": len(outcomes),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit_of(name)
                           if args.trace else END_TO_END[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
