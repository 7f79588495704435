#!/usr/bin/env python3
"""Build and run the repository benchmark from the root of a checkout.

    python3 perfbench/run.py --workload map_zipf|jbb|places_audit \
        --seed N --seconds S --trace 0|1

Builds perfbench/bin/main.exe with dune (release profile, no shared
cache, so nothing is written outside the checkout), then runs it.  The
program's standard output passes through unchanged: one line per metric
with its unit and sample count, the audit results, and a final JSON line
with the keys correct, attempted, failed and metrics.  With --trace 1
the spans of the last traced episode are also written to
perfbench/_out/trace-<workload>.tsv.

Exits with a non-zero code, without printing a result, when the checkout
does not hold the sources the benchmark builds from or the build fails.
"""

import argparse
import os
import subprocess
import sys

WORKLOADS = ("map_zipf", "jbb", "places_audit")
BUILD_TIMEOUT_S = 850
# A run measures for --seconds, then finishes its last episode and
# audits; traced runs also time the single-domain floors first.
RUN_MARGIN_S = 140
EXE = os.path.join("_build", "default", "perfbench", "bin", "main.exe")
SOURCES = ("dune-project", "lib", os.path.join("perfbench", "bin", "dune"))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    missing = [p for p in SOURCES if not os.path.exists(p)]
    if missing:
        print("perfbench: not a source checkout (missing %s); run from the "
              "repository root" % ", ".join(missing), file=sys.stderr)
        return 2

    env = dict(os.environ, DUNE_CACHE="disabled")
    env.pop("DUNE_BUILD_DIR", None)
    try:
        build = subprocess.run(
            ["dune", "build", "--root", ".", "--profile", "release",
             "perfbench/bin/main.exe"],
            stdout=sys.stderr, stderr=sys.stderr, env=env,
            timeout=BUILD_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print("perfbench: build failed: %s" % e, file=sys.stderr)
        return 3
    if build.returncode != 0 or not os.path.exists(EXE):
        print("perfbench: build failed", file=sys.stderr)
        return 3

    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        out = os.path.join("perfbench", "_out")
        os.makedirs(out, exist_ok=True)
        cmd += ["--trace-out",
                os.path.join(out, "trace-%s.tsv" % args.workload)]
    proc = subprocess.Popen(cmd)
    try:
        return proc.wait(timeout=args.seconds + RUN_MARGIN_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: run exceeded its time limit", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
