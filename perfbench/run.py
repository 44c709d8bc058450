#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

    python3 perfbench/run.py --workload <hub_burst|tcp_live|pathrank_pipeline> \
        --seed N --seconds S --trace <0|1>

Run from the repository root. Builds `perfbench` (and the repository's
`serve` binary, compiled from its own source) into $CARGO_TARGET_DIR,
default `.bench_build`, then runs the workload. Build output and
progress go to standard error; the last line of standard output is the
result object. Exits non-zero, printing no result, if the build fails
or the run reports a wrong answer.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main() -> int:
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    target = os.path.join(ROOT, target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(ROOT, "perfbench", "Cargo.toml")],
        cwd=ROOT, env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    release = os.path.join(target, "release")
    run = subprocess.run(
        [os.path.join(release, "perfbench"), *sys.argv[1:]],
        cwd=ROOT, stdout=subprocess.PIPE, text=True,
    )
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        sys.stderr.write(run.stdout)
        print(f"perfbench: run failed with status {run.returncode}", file=sys.stderr)
        return run.returncode or 1
    result = json.loads(lines[-1])
    if not result.get("correct"):
        sys.stderr.write(run.stdout)
        return 1
    print(lines[-1])
    return 0


if __name__ == "__main__":
    sys.exit(main())
