#!/usr/bin/env python3
"""Builds and runs the shift-peel benchmark.

    python3 perfbench/run.py --workload stencil_2048 --seed 1 --seconds 30 --trace 0

Run from the repository root. Builds perfbench/ in release mode (into
$CARGO_TARGET_DIR, default .bench_build), records the host fingerprint in
a separate process, then runs one workload. The last line of standard
output is the result object: correct, attempted, failed, metrics.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=["stencil_2048", "serve_warm"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    os.chdir(ROOT)
    env = dict(os.environ)
    env.setdefault("CARGO_TARGET_DIR", ".bench_build")
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
        env=env)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    binary = os.path.join(env["CARGO_TARGET_DIR"], "release", "perfbench")

    host = subprocess.run([binary, "host"], capture_output=True, text=True,
                          timeout=60, check=True)
    fingerprint = json.loads(host.stdout.strip().splitlines()[-1])
    print("host " + json.dumps(fingerprint), flush=True)

    cmd = [binary, "run",
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--stream-gbs", repr(fingerprint["stream_triad_gbs_2t"])]
    child = subprocess.Popen(cmd)

    def stop(signum, _frame):
        child.kill()
        child.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    signal.signal(signal.SIGINT, stop)
    try:
        return child.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        child.kill()
        child.wait()
        print("perfbench: run timed out", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
