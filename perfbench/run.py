#!/usr/bin/env python3
"""Build the WiTAG benchmark from source and run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: fig5_rounds, mox_mimo, metro_inventory, fleet_hostile.
`--trace 0` prints the end-to-end metrics, `--trace 1` the per-layer
metrics; the last line of standard output is the JSON result. Build
output goes to standard error. The build lands in `$CARGO_TARGET_DIR`
(default `.bench_build` under the current directory).
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
# A run ends within 180 s; the binary gets what is left after the build.
RUN_TIMEOUT_S = 170


def trace_flag(argv):
    for flag, value in zip(argv, argv[1:]):
        if flag == "--trace":
            return value
    return "0"


def main():
    argv = sys.argv[1:]
    env = dict(os.environ)
    target = os.path.abspath(env.get("CARGO_TARGET_DIR", ".bench_build"))
    env["CARGO_TARGET_DIR"] = target
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env, stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    name = "perfbench-traced" if trace_flag(argv) == "1" else "perfbench"
    try:
        run = subprocess.run([os.path.join(target, "release", name)] + argv,
                             env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
