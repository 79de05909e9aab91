#!/usr/bin/env python3
"""Steadiness check for the sharc benchmark.

Runs each workload several times, each with another seed, and reports for
every end-to-end metric the median, the quartiles (statistics.quantiles,
n=4) and the spread (q3 - q1) / median against the bound in
BENCHMARK.json. Run from the repository root:

    python3 perfbench/steady.py --runs 10 [--workloads a,b] [--out file.json]

With --compare first.json second.json it runs nothing and checks that no
end-to-end median of the second set is worse than the first's by more
than the metric's bound.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(cmd, workload, seed, seconds, trace):
    args = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", str(trace)]
    start = time.monotonic()
    proc = subprocess.run(args, capture_output=True, text=True, timeout=900)
    wall = time.monotonic() - start
    if proc.returncode != 0:
        sys.exit(f"{' '.join(args)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    prov = next((json.loads(l[len("provenance: "):]) for l in lines
                 if l.startswith("provenance: ")), {})
    return json.loads(lines[-1]), prov, wall


def compare(spec, first, second):
    ok = True
    for w, res in second["workloads"].items():
        for m in spec["end_to_end"]:
            m1 = first["workloads"][w]["metrics"][m["name"]]["median"]
            m2 = res["metrics"][m["name"]]["median"]
            worse = (m2 - m1) / m1 if m["better"] == "lower" else (m1 - m2) / m1
            ok = ok and worse <= m["bound"]
            print(f"{w:12s} {m['name']:24s} median {m1:12.4f} then {m2:12.4f}"
                  f" worse by {worse:7.4f} bound {m['bound']}")
    return ok


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed-base", type=int, default=1000)
    ap.add_argument("--workloads", default="")
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out", default="")
    ap.add_argument("--compare", nargs=2, metavar="FILE")
    opts = ap.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    if opts.compare:
        sets = []
        for path in opts.compare:
            with open(path) as f:
                sets.append(json.load(f))
        sys.exit(0 if compare(spec, *sets) else 1)
    names = [w["name"] for w in spec["workloads"]]
    if opts.workloads:
        names = opts.workloads.split(",")
    metrics = spec["per_layer"] if opts.trace else spec["end_to_end"]
    report = {"runs": opts.runs, "seconds": spec["run_seconds"], "workloads": {}}
    ok = True
    for w in names:
        values = {m["name"]: [] for m in metrics}
        failed = attempted = 0
        prov = {}
        walls = []
        for i in range(opts.runs):
            res, prov, wall = run_once(spec["command"], w, opts.seed_base + i,
                                 spec["run_seconds"], opts.trace)
            walls.append(wall)
            failed += res["failed"]
            attempted += res["attempted"]
            for m in metrics:
                values[m["name"]].append(res["metrics"][m["name"]]["value"])
        rows = {}
        for m in metrics:
            xs = values[m["name"]]
            q1, med, q3 = statistics.quantiles(xs, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            row = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                   "unit": m["unit"], "values": xs}
            if "bound" in m:
                row["bound"] = m["bound"]
                row["steady"] = spread < m["bound"] / 3
                ok = ok and spread <= m["bound"]
            rows[m["name"]] = row
            print(f"{w:12s} {m['name']:24s} median {med:12.4f} {m['unit']:6s}"
                  f" q1 {q1:12.4f} q3 {q3:12.4f} spread {spread:7.4f}"
                  + (f" bound {m['bound']}" if "bound" in m else ""))
        report["workloads"][w] = {"failed": failed, "attempted": attempted,
                                  "provenance": prov, "metrics": rows,
                                  "wall_s": walls}
        print(f"{w:12s} failed {failed} of {attempted} ops,"
              f" longest run {max(walls):.1f} s")
    if opts.out:
        with open(opts.out, "w") as f:
            json.dump(report, f, indent=1, sort_keys=True)
            f.write("\n")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
