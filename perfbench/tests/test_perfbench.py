"""Tests of the benchmark itself: draw, gate, trace and metric names.

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import gate
import pools
import run

REPO = Path(__file__).resolve().parents[2]


def _answer(workload, args):
    instance = pools.Instance(workload, args)
    res = run.spawn_child(instance, False, run.child_env())
    assert "error" not in res, res
    return instance, res["exit"], res["stdout"]


# -- draw ---------------------------------------------------------------------


def test_same_seed_gives_same_draw():
    for workload in pools.WORKLOADS:
        assert pools.draw(workload, 7) == pools.draw(workload, 7)


def test_other_seeds_draw_differently_from_the_same_strata():
    for workload, strata in pools.POOLS.items():
        draws = [pools.draw(workload, seed) for seed in range(10)]
        assert len({tuple(d) for d in draws}) > 1
        for d in draws:
            picked = sorted(label for inst in d
                            for label, cands in strata.items()
                            if inst.args in cands)
            assert picked == sorted(strata)


def test_every_pool_instance_has_a_baseline():
    baseline = gate.load_baseline()
    keys = {i.key for w in pools.WORKLOADS for i in pools.pool_instances(w)}
    assert keys == set(baseline)


# -- gate ---------------------------------------------------------------------


def test_gate_rejects_one_changed_invariant_factor():
    baseline = gate.load_baseline()
    instance, code, out = _answer("cohomology", pools._cohomology(3, 14))
    assert gate.check(instance, code, out, baseline) is None
    doc = json.loads(out)
    row = next(r for r in doc["results"] if r["invariant_factors"])
    row["invariant_factors"][-1] *= 2
    bad = json.dumps(doc, indent=2) + "\n"
    assert gate.oracle_check(instance, code, bad) is not None
    assert gate.check(instance, code, bad, baseline) is not None


def test_gate_rejects_one_changed_page_dim():
    baseline = gate.load_baseline()
    instance, code, out = _answer("pages", pools._pages(3, 6, 3))
    assert gate.check(instance, code, out, baseline) is None
    doc = json.loads(out)
    doc["results"]["pages"][0]["dims"][1] += 1
    bad = json.dumps(doc, indent=2) + "\n"
    assert gate.oracle_check(instance, code, bad) is not None
    assert gate.check(instance, code, bad, baseline) is not None


def test_gate_rejects_one_changed_oracle_dim():
    baseline = gate.load_baseline()
    instance, code, out = _answer("oracle", (2, 12, 2))
    assert gate.check(instance, code, out, baseline) is None
    reports = json.loads(out)
    reports[0]["dims_closed_form"][1] -= 1
    bad = json.dumps(reports) + "\n"
    assert gate.oracle_check(instance, code, bad) is not None


def test_gate_rejects_wrong_exit_code():
    instance, code, out = _answer("pages", pools._pages(3, 6, 2))
    assert gate.oracle_check(instance, 1, out) is not None


def test_filtration_rule_gives_the_documented_failures():
    assert gate.filtration_failures(3, 10) == {(2, 8), (3, 8)}
    assert gate.filtration_failures(2, 12) == {(2, 8), (2, 12)}
    assert gate.filtration_failures(3, 12) == {(2, 8), (3, 8), (2, 12),
                                               (3, 12)}


# -- trace --------------------------------------------------------------------


def _traced(argv):
    instance = pools.Instance("cohomology", tuple(argv))
    res = run.spawn_child(instance, True, run.child_env())
    assert "error" not in res, res
    return res["trace"]


def test_traced_calls_repeat_and_computed_equals_misses():
    argv = ("cohomology", "-r", "2", "-n", "4")
    first, second = _traced(argv), _traced(argv)
    calls = {name: s[0] for name, s in first["spans"].items()}
    assert calls == {name: s[0] for name, s in second["spans"].items()}
    assert calls["cli.main"] == 1 and calls["intlinalg.hnf"] > 0
    for name, info in first["caches"].items():
        assert info["misses"] == info["distinct_results"], name
    assert first["caches"]["intlinalg.hnf"]["misses"] > 0


def test_every_binding_of_a_wrapped_function_is_rebound():
    script = (
        "import sys; sys.path.insert(0, 'perfbench')\n"
        "from tracer import Tracer\n"
        "Tracer().install()\n"
        "import derhamz\n"
        "from derhamz import abgroups, bockstein, cohomology, intlinalg\n"
        "fns = [intlinalg.lattice_solve, abgroups.lattice_solve,\n"
        "       bockstein.lattice_solve, derhamz.lattice_solve]\n"
        "assert all(f is fns[0] for f in fns)\n"
        "assert fns[0].__name__ == 'traced'\n"
        "assert cohomology.integral_cohomology.__name__ == 'traced'\n")
    subprocess.run([sys.executable, "-c", script], cwd=REPO,
                   env=run.child_env(), check=True, timeout=60)


# -- metric names -------------------------------------------------------------


def test_benchmark_json_names_the_reported_metrics():
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(pools.WORKLOADS)
    for m in spec["per_layer"]:
        assert m["unit"] == run.unit_of(m["name"])
    from derhamz.theorems import STATEMENTS
    assert run.STATEMENTS == STATEMENTS


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(REPO / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pages",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
