#!/usr/bin/env python3
"""Measure the benchmark's run-to-run spread.

Runs every workload of BENCHMARK.json `--runs` times, each with another
seed, and prints per end-to-end metric the median, min, max, quartiles
and the quartile spread (q3 - q1) / median next to the metric's bound.
Run from the repository root:

    python3 aabench/spread.py --runs 10 --first-seed 1 --out aabench/spread-1.json

With `--compare FILE` (an earlier `--out`), it also prints how far each
median moved from that file's median, in the metric's worse direction,
and flags moves beyond the bound:

    python3 aabench/spread.py --runs 10 --first-seed 11 \
        --compare aabench/spread-1.json --out aabench/spread-2.json
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(cmd, workload, seed, seconds, trace):
    args = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", str(trace)]
    p = subprocess.run(args, capture_output=True, text=True, timeout=900)
    if p.returncode != 0:
        sys.exit(f"{' '.join(args)} exited {p.returncode}:\n{p.stderr}")
    result = json.loads(p.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{' '.join(args)}: checks failed\n{p.stderr}")
    return result


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workload", action="append", help="limit to these workloads")
    ap.add_argument("--out", help="write the table as JSON here")
    ap.add_argument("--compare", help="an earlier --out to compare medians with")
    a = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    cmd, seconds = bench["command"], bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]
                 if not a.workload or w["name"] in a.workload]
    table = {}
    worst = 0.0
    for w in workloads:
        values = {m["name"]: [] for m in bench["end_to_end"]}
        for i in range(a.runs):
            result = run_once(cmd, w, a.first_seed + i, seconds, 0)
            for name in values:
                values[name].append(result["metrics"][name]["value"])
            print(f"{w} seed {a.first_seed + i}: " + ", ".join(
                f"{n}={v[-1]:.6g}" for n, v in values.items()), file=sys.stderr)
        table[w] = {}
        for m in bench["end_to_end"]:
            v = values[m["name"]]
            q1, q2, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / q2
            table[w][m["name"]] = {
                "median": q2, "min": min(v), "max": max(v), "q1": q1, "q3": q3,
                "spread": spread, "bound": m["bound"], "values": v,
            }
            flag = "" if spread <= m["bound"] / 3 else "  > bound/3"
            if m["name"] != "setup_s":
                worst = max(worst, spread / m["bound"])
            print(f"{w:14} {m['name']:13} median {q2:<14.6g} spread {spread:7.2%}"
                  f"  bound {m['bound']:.0%}{flag}")
    print(f"largest spread / bound (setup_s excluded): {worst:.2f}")
    if a.compare:
        with open(a.compare) as f:
            before = json.load(f)["workloads"]
        for w in table:
            for m in bench["end_to_end"]:
                old = before[w][m["name"]]["median"]
                new = table[w][m["name"]]["median"]
                worse = (new - old) / old if m["better"] == "lower" else (old - new) / old
                flag = "  WORSE THAN BOUND" if worse > m["bound"] else ""
                print(f"{w:14} {m['name']:13} median {old:<14.6g} -> {new:<14.6g}"
                      f" worse by {worse:7.2%}  bound {m['bound']:.0%}{flag}")
    if a.out:
        with open(a.out, "w") as f:
            json.dump({"runs": a.runs, "first_seed": a.first_seed,
                       "run_seconds": seconds, "workloads": table}, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
