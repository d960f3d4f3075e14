#!/usr/bin/env python3
"""Run the host-clock benchmark several times per workload, one seed per
run, and summarise each metric's run-to-run spread.

For every (workload, metric) this prints the median and quartiles of the
runs' values, as `statistics.quantiles(values, n=4)` gives them, and the
spread: the distance between the quartiles as a share of the median.
End-to-end metrics are compared with their bound from BENCHMARK.json.

Run from the repository root:

    python3 hostbench/spread.py --runs 10 --first-seed 1 --out set-a.json
    python3 hostbench/spread.py --runs 10 --first-seed 11 --compare set-a.json

`--compare` also reports how far each median moved from an earlier set,
as a share of that set's median ("worse" is positive).
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(command, workload, seed, seconds, trace):
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(args, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.exit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    context, result = json.loads(lines[-2]), json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: checks failed: {context.get('failures')}")
    return context, result


def summarise(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / q2 if q2 else 0.0, "values": values}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workloads", help="comma-separated subset")
    ap.add_argument("--out", help="write the summary as JSON")
    ap.add_argument("--compare", help="an earlier --out file to compare medians with")
    opts = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    if opts.workloads:
        workloads = opts.workloads.split(",")
    section = "per_layer" if opts.trace else "end_to_end"
    metrics = {m["name"]: m for m in bench[section]}

    values = {w: {m: [] for m in metrics} for w in workloads}
    provenance = None
    for i in range(opts.runs):
        seed = opts.first_seed + i
        for w in workloads:
            context, result = run_once(bench["command"], w, seed,
                                       bench["run_seconds"], opts.trace)
            provenance = provenance or {"git": context["git"], "nproc": context["nproc"]}
            for m in metrics:
                values[w][m].append(result["metrics"][m]["value"])
            print(f"  {w} seed {seed}: " + ", ".join(
                f"{m}={result['metrics'][m]['value']:.4g}" for m in list(metrics)[:5]),
                file=sys.stderr)

    earlier = None
    if opts.compare:
        with open(opts.compare) as f:
            earlier = json.load(f)["summary"]
    summary = {w: {m: summarise(v) for m, v in values[w].items()} for w in workloads}
    ok = True
    print(f"{'workload':12} {'metric':30} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>7} {'bound':>6}" + ("  moved" if earlier else ""))
    for w in workloads:
        for m, s in summary[w].items():
            bound = metrics[m].get("bound")
            line = (f"{w:12} {m:30} {s['median']:12.5g} {s['q1']:12.5g} {s['q3']:12.5g} "
                    f"{s['spread']:7.3f} {bound if bound is not None else '':>6}")
            if earlier and m in earlier.get(w, {}):
                base = earlier[w][m]["median"]
                sign = -1 if metrics[m]["better"] == "higher" else 1
                moved = sign * (s["median"] - base) / base if base else 0.0
                line += f"  {moved:+.3f}"
                if bound is not None and moved > bound:
                    ok = False
                    line += "  WORSE THAN BOUND"
            if bound is not None and m != "setup_s" and s["spread"] > bound:
                ok = False
                line += "  SPREAD OVER BOUND"
            print(line)
    if opts.out:
        with open(opts.out, "w") as f:
            json.dump({"provenance": provenance, "runs": opts.runs,
                       "first_seed": opts.first_seed, "trace": opts.trace,
                       "summary": summary}, f, indent=1)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
