#!/usr/bin/env python3
"""The repository's end-to-end benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. It builds the benchmark
executable (perfbench/bench.ml and friends) together with the `mopcd`
daemon and the `mopc` CLI it drives, then runs one workload and prints,
as the last line of standard output, one JSON object
{"correct", "attempted", "failed", "metrics"}. The line before it is a
fingerprint: core count, OCaml version and source commit.

Workloads (see BENCHMARK.json for why each was chosen):
  svc-warm      mopcd classify traffic, every request a cache hit
  svc-cold      mopcd traffic with a first-seen digest on every request
  vast-walk     the symmetry-quotiented vast-tier model check, in-process
  monitor-keys  keyed event streams through one predicate monitor per key

--trace 0 reports the end-to-end metrics; --trace 1 runs the traced
variant and reports the per-layer metrics instead.

Steadiness mode runs one workload N times with seeds seed..seed+N-1 and
prints, per metric, the median and the inter-quartile spread as a share
of the median (the figure each metric's bound is set against):

    python3 perfbench/run.py --workload NAME --steady N [--seed N]
                             [--seconds S] [--trace 0|1]
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TARGETS = ["perfbench/bench.exe", "bin/mopcd.exe", "bin/mopc.exe"]


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build():
    # the dune cache lives outside the checkout; keep every write inside it
    env = dict(os.environ, DUNE_CACHE="disabled")
    cmd = ["dune", "build", "--root", ".", "--display", "quiet"]
    cmd += ["./" + t for t in TARGETS]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=840)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e)
    if done.returncode != 0:
        fail("build failed (dune exit %d)" % done.returncode)
    return [os.path.join(ROOT, "_build", "default", t) for t in TARGETS]


def commit():
    # git rev-parse HEAD when this is a repository (never looking above
    # the checkout); otherwise a digest of the sources the binaries are
    # built from
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
        if done.returncode == 0 and done.stdout.strip():
            return done.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    h = hashlib.sha1()
    for top in ["dune-project", "lib", "bin", "perfbench"]:
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs)
        for f in files:
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return "src-" + h.hexdigest()


def run_once(args):
    bench, mopcd, mopc = build()
    cmd = [bench, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--mopcd", mopcd, "--mopc", mopc, "--commit", commit()]
    try:
        done = subprocess.run(cmd, cwd=ROOT, timeout=900)
    except subprocess.TimeoutExpired:
        fail("%s timed out" % args.workload)
    sys.exit(done.returncode)


def steady(args):
    values = {}
    for i in range(args.steady):
        cmd = [sys.executable, os.path.abspath(__file__),
               "--workload", args.workload, "--seed", str(args.seed + i),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        if done.returncode != 0:
            sys.stderr.write(done.stderr)
            fail("run %d exited %d" % (i, done.returncode))
        lines = done.stdout.strip().splitlines()
        if i == 0:
            print(lines[-2])
        result = json.loads(lines[-1])
        if not result["correct"]:
            fail("run %d was not correct: %s" % (i, lines[-1]))
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print("seed %d: %s" % (args.seed + i, " ".join(
            "%s=%.6g" % (n, m["value"])
            for n, m in result["metrics"].items())), flush=True)
    print("%-26s %14s %14s %14s %8s" % ("metric", "median", "q1", "q3",
                                        "spread"))
    for name, vs in values.items():
        med = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4)
        spread = (q3 - q1) / med if med else float("nan")
        print("%-26s %14.6g %14.6g %14.6g %8.4f" % (name, med, q1, q3,
                                                    spread))


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--steady", type=int, default=0,
                   help="run N times over consecutive seeds; print spreads")
    args = p.parse_args()
    if args.steady:
        steady(args)
    else:
        run_once(args)


if __name__ == "__main__":
    main()
