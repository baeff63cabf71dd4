#!/usr/bin/env python3
"""Self-test of the benchmark, from the repository root:

    python3 perfbench/selftest.py [--seed N]

Runs every workload of BENCHMARK.json briefly, untraced and traced, at a
seed other than the default (7 unless given). Asserts that each run
exits 0, reports no failed operation, and prints as its last line a
result naming exactly the end-to-end (untraced) or per-layer (traced)
metrics of BENCHMARK.json, each with its unit.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HELD_OUT_SEED = 7


def run(workload, seed, trace):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace)]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=180)
    assert out.returncode == 0, (cmd, out.returncode, out.stderr[-2000:])
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    seed = HELD_OUT_SEED
    if sys.argv[1:2] == ["--seed"]:
        seed = int(sys.argv[2])
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    for w in bench["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            r = run(w["name"], seed, trace)
            assert set(r) == {"correct", "attempted", "failed", "metrics"}, r
            assert r["correct"] is True and r["failed"] == 0, r
            assert r["attempted"] >= 1, r
            want = {m["name"]: m["unit"] for m in bench[key]}
            got = {name: m["unit"] for name, m in r["metrics"].items()}
            assert got == want, (w["name"], trace, got, want)
            for name, m in r["metrics"].items():
                assert isinstance(m["value"], (int, float)), (name, m)
            print(f"{w['name']} trace={trace} seed={seed}: "
                  f"{r['attempted']} operations, 0 failed, {len(got)} metrics ok")
    print("selftest: ok")


if __name__ == "__main__":
    main()
