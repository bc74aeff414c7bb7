#!/usr/bin/env python3
"""Run every gated workload once per seed and print each end-to-end metric's
spread: the distance between the first and third quartile of its values
(statistics.quantiles, n=4) as a share of their median -- the figure the PR
driver judges steadiness by.  A spread should stay under a third of the
metric's bound in BENCHMARK.json.

    python3 benchmark/tools/steadiness.py [--seeds 10] [--first-seed 1] [--keep DIR]

Run from the repository root on an otherwise idle box; takes about
seeds x workloads x (run_seconds + 3) seconds.
"""
import argparse
import json
import pathlib
import statistics
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parents[2]


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--keep", help="directory to keep each run's full result line in")
    args = parser.parse_args()

    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in manifest["end_to_end"]}
    values = {}  # (workload, metric) -> [value per seed]
    for seed in range(args.first_seed, args.first_seed + args.seeds):
        for workload in (w["name"] for w in manifest["workloads"]):
            command = manifest["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(manifest["run_seconds"]), "--trace", "0",
            ]
            began = time.monotonic()
            done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            took = time.monotonic() - began
            line = done.stdout.strip().splitlines()[-1] if done.stdout.strip() else ""
            if done.returncode != 0 or not line.startswith("{"):
                sys.exit(f"{workload} seed {seed}: exit {done.returncode}, no result")
            result = json.loads(line)
            if not result["correct"] or result["failed"]:
                sys.exit(f"{workload} seed {seed}: not correct ({result['failed']} failed)")
            for metric, entry in result["metrics"].items():
                values.setdefault((workload, metric), []).append(entry["value"])
            # What host_kops_per_s had divided out, from the full result line.
            full = next(l[7:] for l in done.stdout.splitlines() if l.startswith("# full "))
            if args.keep:
                keep = pathlib.Path(args.keep)
                keep.mkdir(parents=True, exist_ok=True)
                (keep / f"{workload}.{seed}.json").write_text(full + "\n")
            for extra in ("box_speed", "wall_kops_per_s"):
                values.setdefault((workload, extra), []).append(json.loads(full)[extra])
            print(f"ran {workload} seed {seed} in {took:.1f} s", file=sys.stderr)

    worst = 0.0
    print(f"{'workload':24} {'metric':22} {'median':>12} {'spread':>8} {'bound':>6}  verdict")
    for (workload, metric), vs in values.items():
        quartiles = statistics.quantiles(vs, n=4)
        median = statistics.median(vs)
        spread = (quartiles[2] - quartiles[0]) / abs(median) if median else 0.0
        bound = bounds.get(metric)
        if bound is None:
            print(f"{workload:24} {metric:22} {median:12.6g} {spread * 100:7.3f}%         not a metric")
            continue
        if metric == "setup_s":
            verdict = "not judged by spread"
        elif spread * 3 <= bound:
            verdict = "steady"
        elif spread <= bound:
            verdict = "over a third of its bound"
        else:
            verdict = "OVER ITS BOUND"
        if metric != "setup_s":
            worst = max(worst, spread / bound)
        same = "  (same on every run)" if len(set(vs)) == 1 else ""
        print(f"{workload:24} {metric:22} {median:12.6g} {spread * 100:7.3f}% {bound * 100:5.0f}%  {verdict}{same}")
    print(f"worst spread is {worst * 100:.0f}% of its bound")


if __name__ == "__main__":
    main()
