#!/usr/bin/env python3
"""Build and run the ripki end-to-end benchmark.

Usage, from the root of a checkout:

    python3 e2ebench/run.py --workload fabric-60k --seed 1 --seconds 30 --trace 0

Builds the benchmark package (release, offline) into $CARGO_TARGET_DIR,
or `.bench_build` when unset, then runs it with the same arguments. The
last line of standard output is the run's JSON result. Build output goes
to standard error; a failed build exits non-zero without a result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env, stdout=sys.stderr)
    if build.returncode != 0:
        sys.exit(build.returncode or 1)
    binary = os.path.join(target, "release", "ripki-e2ebench")
    sys.stdout.flush()
    os.execv(binary, [binary] + sys.argv[1:])


if __name__ == "__main__":
    main()
