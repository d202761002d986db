#!/usr/bin/env python3
"""Build and run the ALCOP benchmark. See README.md in this directory.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
        One run. The last line of standard output is the JSON result.

    python3 perfbench/run.py --compare --workload NAME [--runs N] [--seconds S]
        Two sets of N runs each, alternating between the sets, then each
        end-to-end metric's median and quartiles per set and whether the
        sets agree within the metric's bound in BENCHMARK.json.

    python3 perfbench/run.py --selftest
        Plant one wrong answer per output check and expect every run to
        count a failed operation.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "bench.exe")

WORKLOADS = [
    "fig10-sweep",
    "tune-analytical-xgb",
    "verify-space",
]

# (workload, planted wrong answer) pairs of the self-test: each output
# check of each workload gets one.
PLANTS = [
    ("fig10-sweep", "bests"),
    ("fig10-sweep", "cost"),
    ("tune-analytical-xgb", "dup"),
    ("tune-analytical-xgb", "cost"),
    ("verify-space", "element"),
]


def build():
    """Build the benchmark executable from the checkout's sources."""
    env = dict(os.environ, DUNE_CACHE="disabled")
    r = subprocess.run(
        ["dune", "build", "--root", ROOT, "perfbench/bench.exe"],
        cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    return r.returncode == 0 and os.path.isfile(EXE)


def command(workload, seed, seconds, trace, extra=()):
    return [EXE, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace), *extra]


def run_captured(workload, seed, seconds, trace=0, extra=()):
    """One run; returns (parsed JSON result or None, full stdout)."""
    r = subprocess.run(command(workload, seed, seconds, trace, extra),
                       cwd=ROOT, stdout=subprocess.PIPE, text=True)
    lines = r.stdout.strip().splitlines()
    if r.returncode != 0 or not lines:
        return None, r.stdout
    return json.loads(lines[-1]), r.stdout


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def compare(workload, runs, seconds, first_seed):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    metrics = spec["end_to_end"]
    sets = {"A": [], "B": []}
    seed = first_seed
    for i in range(runs):
        for name in ("A", "B") if i % 2 == 0 else ("B", "A"):
            result, out = run_captured(workload, seed, seconds)
            if result is None:
                sys.stderr.write(out)
                sys.exit("run failed: %s seed %d" % (workload, seed))
            sets[name].append(result)
            print("set %s seed %d: %s" % (
                name, seed, " ".join(
                    "%s=%.6g" % (m["name"], result["metrics"][m["name"]]["value"])
                    for m in metrics)), flush=True)
            seed += 1
    ok = True
    print("%-14s %-5s %14s %14s %14s %8s %8s  %s" % (
        "metric", "set", "q1", "median", "q3", "spread", "bound", "verdict"))
    for m in metrics:
        name, bound = m["name"], m["bound"]
        stats = {}
        for s in ("A", "B"):
            vals = [r["metrics"][name]["value"] for r in sets[s]]
            stats[s] = quartiles(vals)
        verdicts = []
        for s in ("A", "B"):
            q1, med, q3 = stats[s]
            spread = (q3 - q1) / med if med else float("inf")
            if spread > bound:
                verdicts.append("set %s spread over bound" % s)
                ok = False
            elif spread > bound / 3:
                verdicts.append("set %s spread over a third of bound" % s)
            print("%-14s %-5s %14.6g %14.6g %14.6g %8.4f %8.4f" % (
                name, s, q1, med, q3, spread, bound))
        a, b = stats["A"][1], stats["B"][1]
        worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
        better_other = (a - b) / b if m["better"] == "lower" else (b - a) / b
        if worse > bound or better_other > bound:
            verdicts.append("medians differ by more than the bound")
            ok = False
        print("%-14s %-5s medians differ by %+.4f%s" % (
            name, "A/B", (b - a) / a,
            "" if not verdicts else "  <- " + "; ".join(verdicts)))
    shares = {s: sum(r["failed"] for r in sets[s]) / sum(r["attempted"] for r in sets[s])
              for s in sets}
    correct = all(r["correct"] for s in sets for r in sets[s])
    print("failed share: A %.9g, B %.9g%s; all correct: %s" % (
        shares["A"], shares["B"],
        "" if shares["A"] == shares["B"] else " (differ)", correct))
    ok = ok and shares["A"] == shares["B"] and correct
    print("verdict: %s" % ("sets agree" if ok else "sets DISAGREE"))
    return 0 if ok else 1


def selftest():
    ok = True
    for workload, plant in PLANTS:
        result, out = run_captured(workload, 1, 1, extra=("--plant", plant))
        fired = (result is not None and not result["correct"]
                 and result["failed"] > 0)
        ok = ok and fired
        print("%-20s plant %-8s %s" % (
            workload, plant,
            "caught: %d failed of %d" % (result["failed"], result["attempted"])
            if fired else "NOT CAUGHT"), flush=True)
        if not fired:
            sys.stderr.write(out)
    print("self-test %s" % ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--compare", action="store_true")
    p.add_argument("--runs", type=int, default=5)
    p.add_argument("--selftest", action="store_true")
    a = p.parse_args()
    if not (a.selftest or a.workload):
        p.error("--workload is required")
    if not build():
        sys.exit("perfbench: build failed")
    if a.selftest:
        return selftest()
    if a.compare:
        return compare(a.workload, a.runs, a.seconds, a.seed)
    sys.stdout.flush()
    r = subprocess.run(command(a.workload, a.seed, a.seconds, a.trace), cwd=ROOT)
    return r.returncode


if __name__ == "__main__":
    sys.exit(main())
