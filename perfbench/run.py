#!/usr/bin/env python3
"""Build and run the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Builds perfbench/shs_perf.exe from source
with dune into .bench_build/, runs one workload, checks that the count
metrics repeat exactly for a seed that this build has run before (ledger
in .bench_state/, keyed by a digest of the built executable), and prints
one JSON object as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Exit status is 0 only when every output check passed.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

BUILD_DIR = ".bench_build"
STATE_DIR = ".bench_state"
EXE = os.path.join(BUILD_DIR, "default", "perfbench", "shs_perf.exe")
WORKLOADS = ("handshake-acjt", "gateway-lossy", "membership-churn")
BUILD_LIMIT_S = 700.0  # a first build from a clean checkout
RUN_LIMIT_S = 170.0


def fail(msg, code=1):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    for needed in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(needed):
            fail("not a repository checkout (missing %s)" % needed, 2)
    cmd = ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
           "--profile", "release", "./perfbench/shs_perf.exe"]
    # the shared dune cache lives outside the checkout
    env = dict(os.environ, DUNE_CACHE="disabled")
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                           timeout=BUILD_LIMIT_S, env=env)
    except FileNotFoundError:
        fail("dune is not on PATH", 2)
    except subprocess.TimeoutExpired:
        fail("build timed out")
    if r.returncode != 0:
        sys.stderr.write(r.stdout.decode(errors="replace"))
        fail("build failed")


def exe_digest():
    h = hashlib.sha256()
    with open(EXE, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()[:16]


def check_ledger(workload, seed, fingerprint):
    """Compare this run's deterministic counts with earlier runs of the
    same workload and seed by the same build of the program; record them
    for later runs.  A change to the program may change its counts, so
    runs of different builds are never compared."""
    path = os.path.join(STATE_DIR, "determinism.json")
    try:
        with open(path) as f:
            ledger = json.load(f)
    except (OSError, ValueError):
        ledger = {}
    key = "%s/%s/%d" % (exe_digest(), workload, seed)
    seen = ledger.get(key, {})
    problems = ["count %s: %r here, %r in an earlier run of this seed"
                % (name, value, seen[name])
                for name, value in sorted(fingerprint.items())
                if name in seen and seen[name] != value]
    if not problems:
        seen.update(fingerprint)
        ledger[key] = seen
        tmp = path + ".tmp"
        with open(tmp, "w") as f:
            json.dump(ledger, f, sort_keys=True)
        os.replace(tmp, path)
    return problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build()
    os.makedirs(STATE_DIR, exist_ok=True)
    cmd = [EXE, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark run timed out")
    lines = r.stdout.decode(errors="replace").splitlines()
    if r.returncode != 0 or not lines:
        sys.stdout.write("\n".join(lines) + "\n")
        fail("benchmark exited with status %d" % r.returncode)
    try:
        doc = json.loads(lines[-1])
    except ValueError:
        fail("benchmark printed no result")
    for line in lines[:-1]:
        print(line)

    checks = list(doc["checks"])
    checks += check_ledger(args.workload, args.seed, doc["fingerprint"])
    for c in checks[len(doc["checks"]):]:
        print("  CHECK FAILED: " + c)
    correct = doc["correct"] and not checks
    print(json.dumps({"correct": correct, "attempted": doc["attempted"],
                      "failed": doc["failed"], "metrics": doc["metrics"]}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
