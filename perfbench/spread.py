#!/usr/bin/env python3
"""Runs the benchmark over several seeds and summarises each metric.

    python3 perfbench/spread.py --seeds 1            # every workload, once
    python3 perfbench/spread.py --workload explore_cold --seeds 1-10
    python3 perfbench/spread.py --workload fleet_campaign --seeds 1-10 \\
        --checkout ../parent --checkout .

Each --checkout (default: this one) is a source tree holding perfbench/;
with two, each seed runs on both, and which one runs first alternates.
For every end-to-end metric the table shows the median, the quartiles,
and the interquartile range as a share of the median
(statistics.quantiles(values, n=4)), next to the bound BENCHMARK.json
allows.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def parse_seeds(text):
    out = []
    for part in text.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            out.extend(range(int(lo), int(hi) + 1))
        else:
            out.append(int(part))
    return out


def run_once(checkout, workload, seed, seconds, trace, expect_lines=None):
    cmd = [sys.executable, os.path.join(checkout, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if expect_lines is not None:
        expect_lines.extend(l[len("# expect "):] for l in lines
                            if l.startswith("# expect "))
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-2000:])
        raise SystemExit("run failed: %s (exit %d)" % (" ".join(cmd),
                                                       proc.returncode))
    return json.loads(lines[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", action="append",
                    help="workload to run (repeatable; default: all)")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--checkout", action="append",
                    help="source tree to run (repeatable; default: this one)")
    ap.add_argument("--expect-out",
                    help="also write every '# expect' line the first "
                         "checkout printed here (the lines of expected.txt)")
    args = ap.parse_args()
    expect_lines = []
    checkouts = [os.path.abspath(c) for c in (args.checkout or [os.path.dirname(HERE)])]
    with open(os.path.join(checkouts[0], "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    workloads = args.workload or [w["name"] for w in bench["workloads"]]

    for workload in workloads:
        values = {c: {} for c in checkouts}
        units = {}
        for k, seed in enumerate(parse_seeds(args.seeds)):
            for c in (checkouts if k % 2 == 0 else checkouts[::-1]):
                res = run_once(c, workload, seed, bench["run_seconds"], args.trace,
                               expect_lines if c == checkouts[0] else None)
                if not res["correct"]:
                    raise SystemExit("%s seed %d in %s: outputs incorrect" %
                                     (workload, seed, c))
                for name, m in res["metrics"].items():
                    values[c].setdefault(name, []).append(m["value"])
                    units[name] = m["unit"]
                print("%s seed %d %s: %s" % (workload, seed, c, ", ".join(
                    "%s=%.6g" % (name, m["value"]) for name, m in res["metrics"].items())),
                    flush=True)
        for c in checkouts:
            print("\n%s  (%s)" % (c, workload))
            print("%-28s %-6s %12s %12s %12s %9s %7s" % (
                "metric", "unit", "median", "q1", "q3", "iqr/med", "bound"))
            for name, vals in values[c].items():
                med = statistics.median(vals)
                q1, _, q3 = (statistics.quantiles(vals, n=4) if len(vals) > 1
                             else (med, med, med))
                spread = (q3 - q1) / med if med else float("nan")
                bound = bounds.get(name)
                print("%-28s %-6s %12.6g %12.6g %12.6g %9.4f %7s" % (
                    name, units[name], med, q1, q3, spread,
                    "" if bound is None else bound))
            print(flush=True)
        if len(checkouts) == 2:
            # How much worse the second checkout's median is than the
            # first's, as the regression gate measures it.
            better = {m["name"]: m["better"] for m in bench["end_to_end"]}
            print("second vs first checkout (%s)" % workload)
            for name in values[checkouts[0]]:
                a = statistics.median(values[checkouts[0]][name])
                b = statistics.median(values[checkouts[1]][name])
                worse = (b - a) / a if better.get(name) == "lower" else (a - b) / a
                bound = bounds.get(name)
                print("%-28s worse by %+8.4f  bound %s  %s" % (
                    name, worse, bound,
                    "" if bound is None else ("ok" if worse <= bound else "OVER")))
            print(flush=True)
    if args.expect_out:
        with open(args.expect_out, "w") as f:
            f.write("".join(l + "\n" for l in sorted(set(expect_lines))))


if __name__ == "__main__":
    main()
