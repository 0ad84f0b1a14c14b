#!/usr/bin/env python3
"""Ten-run steadiness record of the end-to-end metrics.

    python3 perfbench/steadiness.py [--workloads sweep_h4,...] [--seeds 1-10]
                                    [--seconds S] [--out FILE]

Runs `perfbench/run.py --trace 0` once per (workload, seed) from the
checkout root, then reports for every end-to-end metric the distance
between the first and third quartile of its values
(statistics.quantiles(values, n=4)) as a share of their median, beside the
metric's bound from BENCHMARK.json. The table is written to --out
(default .bench_build/steadiness.md); the raw values go to the same path
with a .json suffix. perfbench/STEADINESS.md keeps the recorded results.
"""
import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds_arg(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workloads",
                    default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--out", default=str(ROOT / ".bench_build" / "steadiness.md"))
    args = ap.parse_args()

    raw = {}
    for workload in args.workloads.split(","):
        for seed in args.seeds:
            r = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds),
                 "--trace", "0"], cwd=ROOT, stdout=subprocess.PIPE, text=True)
            result = json.loads(r.stdout.strip().splitlines()[-1])
            if r.returncode != 0 or not result["correct"]:
                sys.exit(f"{workload} seed {seed}: run failed")
            for name, m in result["metrics"].items():
                raw.setdefault(workload, {}).setdefault(name, []).append(
                    m["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                flush=True)

    lines = [f"Seeds {args.seeds[0]}-{args.seeds[-1]}, one run each, "
             f"--seconds {args.seconds}. Spread = (Q3 - Q1) / median.", "",
             "| workload | metric | median | spread | bound |",
             "| --- | --- | --- | --- | --- |"]
    for workload, metrics in raw.items():
        for m in spec["end_to_end"]:
            values = metrics[m["name"]]
            lines.append(f"| {workload} | {m['name']} | "
                         f"{statistics.median(values):.4g} {m['unit']} | "
                         f"{spread(values):.4f} | {m['bound']} |")
    out = Path(args.out)
    out.write_text("\n".join(lines) + "\n")
    out.with_suffix(".json").write_text(json.dumps(raw, indent=1) + "\n")
    print("\n".join(lines))


if __name__ == "__main__":
    main()
