#!/usr/bin/env python3
"""Build the simulator's benchmark from source and run it.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from anywhere; the benchmark always works in the checkout that holds
this file.  The first run builds perfbench/perfbench.exe with dune, which
also builds the repository's libraries it links.  The last line of
standard output is the benchmark's JSON result.  Exit codes: 0 all
operations correct, 1 a correctness failure, 2 usage or build error,
3 the run overran its time limit.

--self-test runs every workload at a tiny size, traced and untraced,
checks that each prints exactly the metrics BENCHMARK.json names, with
their units, and checks that a deliberately wrong reference trips the
correctness gate and a zero residual bound trips the traced run's
residual check.
"""
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "perfbench.exe")
RUN_LIMIT_S = 175


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    for need in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(os.path.join(ROOT, need)):
            fail("%s is not a checkout of the repository (no %s)" % (ROOT, need))
    r = subprocess.run(
        ["dune", "build", "--root", ".", "./perfbench/perfbench.exe"],
        cwd=ROOT,
        stdout=sys.stderr,
        stderr=sys.stderr,
    )
    if r.returncode != 0 or not os.path.isfile(EXE):
        fail("build failed")


def run(args, capture=False, quiet=False):
    try:
        return subprocess.run(
            [EXE] + args,
            cwd=ROOT,
            stdout=subprocess.PIPE if capture else None,
            stderr=subprocess.DEVNULL if quiet else None,
            text=True,
            timeout=RUN_LIMIT_S,
        )
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_LIMIT_S, code=3)


def last_json(out):
    lines = [l for l in out.splitlines() if l.strip()]
    return json.loads(lines[-1]) if lines else None


def self_test():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    want = {
        "0": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for w in (x["name"] for x in spec["workloads"]):
        for trace in ("0", "1"):
            args = ["--workload", w, "--seed", "1", "--seconds", "1", "--trace", trace, "--tiny"]
            r = run(args, capture=True)
            res = last_json(r.stdout)
            tag = "%s --trace %s" % (w, trace)
            if r.returncode != 0 or not res or not res["correct"] or res["failed"] != 0:
                problems.append("%s: run failed (exit %d)" % (tag, r.returncode))
                continue
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != want[trace]:
                problems.append("%s: metrics/units differ from BENCHMARK.json" % tag)
            for k, v in res["metrics"].items():
                x = v["value"]
                if not isinstance(x, (int, float)) or not math.isfinite(x):
                    problems.append("%s: %s is not a finite number" % (tag, k))
                elif trace == "0" and x <= 0:
                    problems.append("%s: end-to-end metric %s is %r" % (tag, k, x))
        for trace, flag, gate in (("0", "--wrong-reference", "correctness gate"),
                                  ("1", "--zero-residual-bound", "residual bound")):
            args = ["--workload", w, "--seed", "1", "--seconds", "1", "--trace", trace, "--tiny",
                    flag]
            r = run(args, capture=True, quiet=True)
            res = last_json(r.stdout)
            if r.returncode == 0 or not res or res["correct"] or res["failed"] == 0:
                problems.append("%s: %s did not trip the %s" % (w, flag, gate))
    for p in problems:
        print("FAIL " + p)
    print("perfbench self-test: %s" % ("ok" if not problems else "%d problem(s)" % len(problems)))
    return 0 if not problems else 1


def main():
    args = sys.argv[1:]
    build()
    if args == ["--self-test"]:
        sys.exit(self_test())
    sys.exit(run(args).returncode)


if __name__ == "__main__":
    main()
