"""Record the sha256 of every pool instance's stdout into baseline.json.

    python3 perfbench/record_baseline.py

Run on the commit whose answers define "correct" (the seed commit of the
benchmark); run again only when a pool gains instances.  An answer is
recorded only if it passes the closed-form oracle in gate.py.
"""

import json
import sys

import gate
import pools
import run


def main() -> int:
    env = run.child_env()
    baseline = {}
    for workload in pools.WORKLOADS:
        for instance in pools.pool_instances(workload):
            res = run.spawn_child(instance, False, env)
            why = res.get("error") or gate.oracle_check(
                instance, res["exit"], res["stdout"])
            if why:
                print(f"{instance.key}: {why}", file=sys.stderr)
                return 1
            baseline[instance.key] = gate.sha256(res["stdout"])
            print(f"{instance.key}: {res['wall_s']:.3f} s", flush=True)
    gate.BASELINE_PATH.write_text(json.dumps(baseline, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
