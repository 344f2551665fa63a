#!/usr/bin/env python3
"""Build the benchmark from source, then run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload serve_mix --seed 1 --seconds 20 --trace 0

The build goes to $CARGO_TARGET_DIR (default: .bench_build) and its
messages to standard error, so the last line of standard output is the
benchmark's JSON result. Exits non-zero, printing no result, when the build
or the run fails.
"""

import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def main():
    env = dict(os.environ)
    target = env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    build = [
        "cargo", "build", "--release", "--offline", "--locked", "--quiet",
        "--manifest-path", os.path.join("perfbench", "Cargo.toml"),
    ]
    exe = os.path.join(target, "release", "diva-perfbench")
    try:
        # Build messages go to stderr: stdout carries only the result.
        built = subprocess.run(build, cwd=ROOT, env=env, stdout=sys.stderr,
                               timeout=BUILD_TIMEOUT_S)
        if built.returncode != 0:
            print("perfbench: build failed", file=sys.stderr)
            return 1
        ran = subprocess.run([exe] + sys.argv[1:], cwd=ROOT, env=env,
                             timeout=RUN_TIMEOUT_S)
    except (OSError, subprocess.TimeoutExpired) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    return ran.returncode


if __name__ == "__main__":
    sys.exit(main())
