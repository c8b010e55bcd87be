#!/usr/bin/env python3
"""Build the dynnet benchmark from source and run one workload.

Usage, from the root of the repository:

    python3 dynbench/run.py --workload mis-concat --seed 1 --seconds 15 --trace 0

`--trace 0` runs the untraced `dynbench` binary and ends with the end-to-end
metrics. `--trace 1` runs `dynbench` on half the time as the untraced
reference, then `dynbench-traced` on the same rounds, and ends with the
per-layer metrics (including the tracing overhead against the reference).
The last line of standard output is the JSON result.

The build goes to `$CARGO_TARGET_DIR` (default `.bench_build`), relative to
the working directory; the sweep checkpoints into a scratch directory under
it, which the run removes again.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(target):
    manifest = os.path.join(HERE, "Cargo.toml")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", "--bins",
           "--manifest-path", manifest]
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    return subprocess.run(cmd, env=env, stdout=sys.stderr).returncode == 0


def run_binary(path, args):
    """Runs one benchmark binary; returns (exit code, stdout lines)."""
    proc = subprocess.run([path, *args], stdout=subprocess.PIPE, text=True)
    return proc.returncode, proc.stdout.splitlines()


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not build(target):
        print("dynbench: build failed", file=sys.stderr)
        return 1
    bindir = os.path.join(target, "release")
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--scratch", os.path.join(target, "dynbench-scratch")]

    if args.trace == 0:
        code, lines = run_binary(os.path.join(bindir, "dynbench"),
                                 [*common, "--seconds", str(args.seconds), "--trace", "0"])
        print("\n".join(lines))
        return code

    # Both halves get the same time, hence measure the same rounds.
    half = str(args.seconds / 2)
    code, lines = run_binary(os.path.join(bindir, "dynbench"),
                             [*common, "--seconds", half, "--trace", "0"])
    print("\n".join("untraced reference: " + l for l in lines[:-1]))
    if code != 0 or not lines:
        return code or 1
    reference = json.loads(lines[-1])
    round_ms = reference["metrics"]["round_ms_p50"]["value"]

    code, lines = run_binary(os.path.join(bindir, "dynbench-traced"),
                             [*common, "--seconds", half, "--trace", "1",
                              "--untraced-round-ms", repr(round_ms)])
    if code != 0 or not lines:
        print("\n".join(lines))
        return code or 1
    result = json.loads(lines[-1])
    # The reference run's rounds and checks count too.
    result["correct"] = bool(result["correct"] and reference["correct"])
    result["attempted"] += reference["attempted"]
    result["failed"] += reference["failed"]
    print("\n".join(lines[:-1]))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
