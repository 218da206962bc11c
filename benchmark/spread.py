#!/usr/bin/env python3
"""Run-to-run spread of every end-to-end metric, the way the driver
takes it: the benchmark's command from BENCHMARK.json, ten runs per
workload, each with another seed; for each metric the distance between
the first and third quartile of its ten values as a share of their
median, against the metric's bound.

    python3 benchmark/spread.py [--runs 10] [--seed 1] [--workload NAME]...

Exit code 1 when a spread (other than set-up's) exceeds its bound."""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed", type=int, default=1, help="seed of the first run")
    ap.add_argument("--workload", action="append", help="default: all")
    ap.add_argument("--dump", help="also write every run's values to this JSON file")
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    ok = True
    raw = {}
    for workload in workloads:
        values = {m["name"]: [] for m in spec["end_to_end"]}
        for i in range(args.runs):
            cmd = spec["command"] + [
                "--workload", workload, "--seed", str(args.seed + i),
                "--seconds", str(spec["run_seconds"]), "--trace", "0",
            ]
            run = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
            result = json.loads(run.stdout.strip().splitlines()[-1])
            if run.returncode != 0 or not result["correct"] or result["failed"]:
                print(f"{workload} seed {args.seed + i}: run failed", file=sys.stderr)
                ok = False
            for name, m in result["metrics"].items():
                values[name].append(m["value"])
        raw[workload] = values
        print(f"== {workload}: {args.runs} runs, seeds {args.seed}..{args.seed + args.runs - 1} ==")
        for m in spec["end_to_end"]:
            v = values[m["name"]]
            q1, med, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / med
            verdict = "ok" if spread <= m["bound"] / 3 else (
                "above a third of the bound" if spread <= m["bound"] else "ABOVE THE BOUND")
            if spread > m["bound"] and m["name"] != "setup_s":
                ok = False
            print(f"   {m['name']:<24} median {med:>16.4f} {m['unit']:<6} "
                  f"spread {spread * 100:6.2f}%  bound {m['bound'] * 100:5.1f}%  {verdict}")
    if args.dump:
        Path(args.dump).write_text(json.dumps(raw, indent=1))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
