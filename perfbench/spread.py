"""Run the benchmark on several seeds and report each metric's spread.

    python3 perfbench/spread.py --seeds 1-10 [--trace-seed 0] [--out perfbench/baseline.json]

For every workload and end-to-end metric this prints the median and the
spread: the distance between the first and third quartiles of the per-seed
values (statistics.quantiles(values, n=4)) as a share of their median,
against the metric's bound in BENCHMARK.json.  It prints the same for the
raw seconds behind the calibrated metrics (the median over rounds of
``rounds_raw`` in each run's provenance), against the bound of the
calibrated metric.  With --trace-seed it adds one --trace 1 run per workload
for the per-layer figures.  --out writes every value and the provenance of
the first run as JSON.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds_arg(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {out.returncode}:\n{out.stderr}")
    lines = out.stdout.strip().splitlines()
    return json.loads(lines[-2])["provenance"], json.loads(lines[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        bench = json.load(f)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--trace-seed", type=int, default=None)
    ap.add_argument("--out", default=None)
    args = ap.parse_args()

    report = {"seeds": args.seeds, "workloads": {}}
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    worst = (0.0, None)
    for w in bench["workloads"]:
        workload = w["name"]
        results, raw = [], {"wall_s": [], "iters_per_s": []}
        for seed in args.seeds:
            prov, res = run(workload, seed, bench["run_seconds"], 0)
            results.append(res)
            for k in raw:
                raw[k].append(statistics.median(r[k] for r in prov["rounds_raw"]))
            report.setdefault("provenance", prov)
            print(f"{workload} seed {seed}: correct={res['correct']} failed={res['failed']}/"
                  f"{res['attempted']} " + " ".join(f"{k}={v['value']:.6g}" for k, v in res["metrics"].items()),
                  flush=True)
        entry = {"runs": results, "end_to_end": {}, "raw": {}}
        series = [(m["name"], m["unit"], m["bound"], [r["metrics"][m["name"]]["value"] for r in results],
                   entry["end_to_end"]) for m in bench["end_to_end"]]
        series += [("wall_s", "s", bounds["wall_cal"], raw["wall_s"], entry["raw"]),
                   ("iters_per_s", "1/s", bounds["iters_per_cal"], raw["iters_per_s"], entry["raw"])]
        for name, unit, bound, vals, into in series:
            med = statistics.median(vals)
            q = statistics.quantiles(vals, n=4)
            spread = (q[2] - q[0]) / med
            if into is entry["end_to_end"] and spread / bound > worst[0]:
                worst = (spread / bound, f"{name} on {workload}")
            into[name] = {"median": med, "q1": q[0], "q3": q[2], "spread": spread, "bound": bound, "unit": unit}
            raw_tag = " (raw)" if into is entry["raw"] else ""
            print(f"  {workload:12s} {name + raw_tag:17s} median {med:12.6g} {unit:5s} spread {spread:6.3f} "
                  f"(bound {bound}, {'ok' if spread < bound / 3 else 'WIDE'})", flush=True)
        if args.trace_seed is not None:
            _, res = run(workload, args.trace_seed, bench["run_seconds"], 1)
            entry["per_layer"] = {"seed": args.trace_seed, **res}
        report["workloads"][workload] = entry
    print(f"widest spread of an end-to-end metric as a share of its bound: {worst[0]:.2f} ({worst[1]})")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            json.dump(report, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
