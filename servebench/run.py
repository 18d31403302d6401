#!/usr/bin/env python3
"""Builds `lddp-cli` and the benchmark offline from this checkout, then
runs one benchmark workload.

    python3 servebench/run.py --workload grid-4k --seed 1 --seconds 20 --trace 0

Run it from the root of the repository. Builds go to $CARGO_TARGET_DIR
(default `.bench_build`). Cargo's output goes to standard error, so the
last line of standard output is the benchmark's JSON result. Exits
non-zero, printing no result, when a build fails.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(workload, args):
    proc = subprocess.run(["cargo", "build", "--release", "--offline"] + args,
                          cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        sys.exit(f"servebench: workload {workload}: build failed: "
                 f"cargo build {' '.join(args)} (exit {proc.returncode})")


def main():
    argv = sys.argv[1:]
    workload = argv[argv.index("--workload") + 1] if "--workload" in argv[:-1] else "?"
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    os.environ["CARGO_TARGET_DIR"] = target
    if not os.path.exists(os.path.join(ROOT, "Cargo.toml")):
        sys.exit(f"servebench: workload {workload}: no Cargo.toml at the repository root; "
                 "nothing to build")
    build(workload, ["--bin", "lddp-cli"])
    build(workload, ["--manifest-path", os.path.join(HERE, "Cargo.toml")])
    release = os.path.join(target, "release")
    cmd = [os.path.join(release, "servebench"),
           "--server-bin", os.path.join(release, "lddp-cli"),
           "--out-dir", os.path.join(ROOT, ".bench_out")] + argv
    sys.stdout.flush()
    proc = subprocess.run(cmd, cwd=ROOT)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
