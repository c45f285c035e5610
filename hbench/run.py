#!/usr/bin/env python3
"""Build and run the benchmark of record.

    python3 hbench/run.py --workload paper_tensor|paper_memory|hsimd_open \\
        --seed N --seconds S --trace 0|1

Run from the repository root.  Builds `hbench` (its own workspace, this
directory) and the `hsimd` daemon (the root workspace, `--locked`) into
`$CARGO_TARGET_DIR` (default `.bench_build`), then runs one measurement.
The last stdout line is the result JSON; build output goes to stderr.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(target_dir):
    """Build both binaries; return their paths (exits on failure)."""
    common = ["cargo", "build", "--release", "--offline", "--quiet"]
    steps = [
        common + ["--manifest-path", os.path.join(HERE, "Cargo.toml")],
        # The root lockfile must already be current: never rewrite it.
        common + ["--locked", "-p", "hopper-serve", "--bin", "hsimd"],
    ]
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    for cmd in steps:
        done = subprocess.run(cmd, env=env, stdout=sys.stderr)
        if done.returncode != 0:
            sys.exit(f"hbench: build failed: {' '.join(cmd)}")
    release = os.path.join(target_dir, "release")
    return os.path.join(release, "hbench"), os.path.join(release, "hsimd")


def main():
    if not os.path.isfile(os.path.join("crates", "serve", "Cargo.toml")):
        sys.exit("hbench: run from the repository root (crates/serve not found)")
    target_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    hbench, hsimd = build(target_dir)
    done = subprocess.run([hbench, *sys.argv[1:], "--hsimd", hsimd])
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
