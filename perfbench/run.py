#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Builds phpsafe_cli, phpsafe_serve
and perfbench/bench.exe with dune (build output goes to stderr), then hands
over to bench.exe, whose last line of stdout is the result object.  Extra
flags (--tiny, --corrupt) are passed through.  Exits non-zero, without a
result, when the checkout does not hold the program's sources.
"""

import os
import subprocess
import sys

TARGETS = ["bin/phpsafe_cli.exe", "bin/phpsafe_serve.exe", "perfbench/bench.exe"]


def commit():
    """The checked-out commit, or "unknown" outside a git work tree."""
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel"],
                             capture_output=True, text=True, timeout=10)
        if top.returncode != 0 or os.path.realpath(top.stdout.strip()) != os.path.realpath("."):
            return "unknown"
        rev = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10)
        return rev.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def main():
    for needed in ("dune-project", "lib", "bin"):
        if not os.path.exists(needed):
            print(f"perfbench: {needed} not found; run from the root of a source checkout",
                  file=sys.stderr)
            return 2
    build = subprocess.run(["dune", "build", "--root", ".", *TARGETS], stdout=sys.stderr)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode
    exe = os.path.join("_build", "default", "perfbench", "bench.exe")
    sys.stdout.flush()
    os.execv(exe, [exe, *sys.argv[1:], "--commit", commit()])


if __name__ == "__main__":
    sys.exit(main())
