#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload <serve_zipf|batch_mixed|multihost_lossy> \
        --seed <n> --seconds <s> --trace <0|1>

The benchmark is a Cargo package of its own (perfbench/Cargo.toml) that
builds against the repository's crates by path. It is built offline in
release mode into $CARGO_TARGET_DIR (default: .bench_build in the current
directory); host-clock span traces of --trace 1 runs land under
<target>/perfbench-traces. Build output goes to standard error; the
benchmark's last line on standard output is its JSON result.
"""

import os
import subprocess
import sys


def main() -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(here, "Cargo.toml"),
        ],
        env=env,
        stdout=sys.stderr,
        check=False,
    )
    if build.returncode != 0:
        print(f"perfbench: build failed ({build.returncode})", file=sys.stderr)
        return build.returncode or 1
    exe = os.path.join(target, "release", "perfbench")
    args = sys.argv[1:] + ["--trace-dir", os.path.join(target, "perfbench-traces")]
    return subprocess.run([exe, *args], check=False).returncode


if __name__ == "__main__":
    sys.exit(main())
