#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload paper-grid|measured-thrash|checker \
        --seed N --seconds S --trace 0|1

Run from the repository root.  Builds both benchmark binaries in release
mode (the simulator binary on the plain build, the checker binary with the
`check` fault hooks), each in its own cargo invocation so their features
never unify, into $CARGO_TARGET_DIR (default `.bench_build`).  Then runs
the workload's binary, whose last output line is the result JSON.  A
traced run also writes its spans to `<target>/perfbench-spans/`.

Exits non-zero, without a result line, when the build fails (for example
outside a full checkout) or when an output check fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
MANIFEST = os.path.join(HERE, "Cargo.toml")
BINARIES = {
    "paper-grid": "perfbench-sim",
    "measured-thrash": "perfbench-sim",
    "checker": "perfbench-check",
}
# A run must end within 180 s; stop a stuck one before that.
RUN_TIMEOUT_S = 170


def arg(argv, flag, default=None):
    if flag in argv:
        i = argv.index(flag)
        if i + 1 < len(argv):
            return argv[i + 1]
    return default


def main():
    argv = sys.argv[1:]
    workload = arg(argv, "--workload")
    if workload not in BINARIES:
        print(f"error: --workload must be one of {sorted(BINARIES)}", file=sys.stderr)
        return 2
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    for package in sorted(set(BINARIES.values())):
        build = subprocess.run(
            ["cargo", "build", "--release", "--offline", "--quiet",
             "--manifest-path", MANIFEST, "-p", package],
            env=env, stdout=sys.stderr,
        )
        if build.returncode != 0:
            print(f"error: building {package} failed", file=sys.stderr)
            return 1
    cmd = [os.path.join(target, "release", BINARIES[workload])] + argv
    if arg(argv, "--trace") == "1":
        seed = arg(argv, "--seed", "0")
        spans = os.path.join(target, "perfbench-spans", f"{workload}-seed{seed}.jsonl")
        cmd += ["--spans", spans]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, env=env, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"error: {workload} ran past {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
