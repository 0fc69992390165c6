#!/usr/bin/env python3
"""Self-test of the benchmark, at tiny size (two plugins per version).

    python3 perfbench/selftest.py

For every workload: an untraced run must emit every end-to-end metric of
BENCHMARK.json and a traced run every per-layer metric, each with its unit,
and both must pass their output checks; a run whose first checked output
has one byte flipped (--corrupt) must count it as failed, and so must a
run whose operations all outlive a 1 ms deadline (--op-timeout).  Exits 1
on the first broken expectation.
"""

import json
import os
import subprocess
import sys


def run(workload, trace, *extra):
    cmd = ["python3", "perfbench/run.py", "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--tiny", *extra]
    p = subprocess.run(cmd, capture_output=True, text=True, timeout=300)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.exit(f"selftest: {' '.join(cmd)} exited {p.returncode}\n{p.stderr[-3000:]}")
    return json.loads(lines[-1])


def main():
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    for name in [w["name"] for w in spec["workloads"]]:
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            result = run(name, trace)
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                sys.exit(f"selftest: {name}/trace {trace}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                sys.exit(f"selftest: {name}/trace {trace}: checks failed: {result}")
            got = result["metrics"]
            for m in declared:
                if m["name"] not in got or got[m["name"]]["unit"] != m["unit"]:
                    sys.exit(f"selftest: {name}/trace {trace}: metric {m['name']} "
                             f"missing or with another unit")
            extra = set(got) - {m["name"] for m in declared}
            if extra:
                sys.exit(f"selftest: {name}/trace {trace}: undeclared metrics {sorted(extra)}")
        corrupted = run(name, 0, "--corrupt")
        if corrupted["correct"] or corrupted["failed"] < 1:
            sys.exit(f"selftest: {name}: a flipped byte was accepted: {corrupted}")
        late = run(name, 0, "--op-timeout", "0.001")
        if late["correct"] or late["failed"] != late["attempted"]:
            sys.exit(f"selftest: {name}: an operation past its deadline was accepted: {late}")
        print(f"selftest: {name}: ok", flush=True)


if __name__ == "__main__":
    os.chdir(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
    main()
