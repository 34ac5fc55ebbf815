#!/usr/bin/env python3
"""Build and run the stacksim benchmark.

    python3 stackbench/run.py --workload paper_cold|explore_grid|serve_mixed \
        --seed N --seconds S --trace 0|1

Run from the repository root. Builds the `stacksim` binary (the serve
workload spawns it) and the benchmark binary in `stackbench/`, then runs
it. Build output goes to stderr; the benchmark's last stdout line is
the JSON result. The build directory is `$CARGO_TARGET_DIR`, or
`.bench_build` at the repository root when that is unset.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(message):
    print(f"stackbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(target_dir):
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    steps = [
        ["cargo", "build", "--release", "--offline", "--bin", "stacksim"],
        ["cargo", "build", "--release", "--offline",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
    ]
    for cmd in steps:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail(f"build failed: {' '.join(cmd)}")


def main():
    for needed in ("Cargo.toml", os.path.join("crates", "core", "Cargo.toml")):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            fail(f"{needed} not found: run from a full checkout of the repository")
    target_dir = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    target_dir = os.path.join(ROOT, target_dir)  # no-op when already absolute
    build(target_dir)
    release = os.path.join(target_dir, "release")
    run_root = os.path.join(ROOT, ".bench_run")
    workdir = os.path.join(run_root, str(os.getpid()))
    cmd = [
        os.path.join(release, "stackbench"),
        *sys.argv[1:],
        "--stacksim", os.path.join(release, "stacksim"),
        "--workdir", workdir,
    ]
    sys.stdout.flush()
    try:
        done = subprocess.run(cmd, cwd=ROOT)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(run_root)
        except OSError:
            pass  # another run still uses it
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
