#!/usr/bin/env python3
"""The dfsim benchmark: one command, three workloads, checked outputs.

    python3 perfbench/run.py --workload sweep_h4|scale_h8|wormhole_h6 \
        --seed N --seconds S --trace 0|1

Run from the root of a dfsim checkout. The first call configures and builds
perfbench/ (the dfsim library plus the benchmark runner) into .bench_build
(or $CARGO_TARGET_DIR, relative to the checkout root). Each repetition runs
in its own process; repetitions continue until about S seconds are spent
(at least three untraced ones). A host-time metric is the best repetition's,
peak memory the highest, and a per-layer metric the median (see AGGREGATE).

--trace 0 prints the end-to-end metrics of BENCHMARK.json; --trace 1 runs the
traced rebuild and prints the per-layer metrics (perfbench/layer_map.json
says what each one is and what it should move). Every point is checked:
against perfbench/reference.json when it holds the seed, against the other
repetitions of the run always, and (traced) against the untraced pass. A
failed point is named on stderr with its field, counted in "failed", and
makes the command exit nonzero.

Developer modes:
    --selftest                 decorator bit-identity test (selftest.cpp)
    --record-reference SEEDS   add full-precision results for the given
                               comma-separated seeds to reference.json
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = {"sweep_h4": 24, "scale_h8": 1, "wormhole_h6": 1}  # points
MIN_PLAIN_REPS = 3
# How a run folds its repetitions into one value. Host time takes the best
# repetition: on a shared host other tenants can only slow a repetition
# down, and over 40 s windows of one single-threaded workload the fastest
# repetition moved 6% while the median moved 29% (perfbench/STEADINESS.md).
# Peak memory takes the highest: which sweep points overlap on the 4
# workers, and so the peak, varies between repetitions. Per-layer metrics
# take the median.
AGGREGATE = {"wall_s": "min", "setup_s": "min", "cycles_per_s": "max",
             "peak_rss_mb": "max"}
CHILD_TIMEOUT_S = 100


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    d = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return d if d.is_absolute() else ROOT / d


def build(bdir):
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"{ROOT} is not a dfsim checkout (no CMakeLists.txt / src)")
    steps = []
    if not (bdir / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(bdir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(bdir), "-j4", "--target",
                  "perfbench_runner", "perfbench_selftest"])
    for cmd in steps:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                           text=True)
        if r.returncode != 0:
            sys.stderr.write(r.stdout[-4000:])
            fail("build failed: " + " ".join(cmd), 1)


def run_child(bdir, tmp, workload, seed, mode, spans=None):
    """One repetition in a fresh process; returns its JSON (or None)."""
    cmd = [str(bdir / "perfbench_runner"), "--workload", workload,
           "--seed", str(seed), "--mode", mode, "--tmp", str(tmp)]
    if spans:
        cmd += ["--spans", str(spans)]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                           text=True, timeout=CHILD_TIMEOUT_S, cwd=tmp)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {workload} {mode} repetition timed out",
              file=sys.stderr)
        return None
    if r.returncode != 0 or not r.stdout.strip():
        sys.stderr.write(r.stderr[-2000:])
        print(f"perfbench: {workload} {mode} repetition exited "
              f"{r.returncode}", file=sys.stderr)
        return None
    return json.loads(r.stdout.strip().splitlines()[-1])


def point_values(p):
    return {k: p.get(k) for k in
            ("seed", "precision", "delivered", "deadlock", "accepted_load",
             "avg_latency")}


def check_point(p, ref):
    """Fields of point `p` that disagree with its reference entry."""
    if ref is None:
        return []
    bad = []
    for field in ("accepted_load", "avg_latency"):
        want = ref[field]
        if p["precision"] == "6g":
            want = "%.6g" % float(want)
        if p[field] != want:
            bad.append((field, f"{p[field]} != reference {want}"))
    if p["precision"] == "full":
        if p["delivered"] != ref["delivered"]:
            bad.append(("delivered",
                        f"{p['delivered']} != reference {ref['delivered']}"))
        if p["deadlock"]:
            bad.append(("deadlock", "true"))
    if p["seed"] != ref["seed"]:
        bad.append(("seed", f"{p['seed']} != reference {ref['seed']}"))
    return bad


def check_reps(reps, workload, refs):
    """Count attempted/failed points over all repetitions, naming each
    failure on stderr."""
    expected = WORKLOADS[workload]
    attempted = failed = 0
    first = None
    for i, rep in enumerate(reps):
        attempted += expected
        if rep is None:
            failed += expected
            print(f"FAIL {workload} rep {i}: every point (no result)",
                  file=sys.stderr)
            continue
        bad = {}
        for f in rep["failures"]:
            bad.setdefault(f["point"], []).append((f["field"], f["detail"]))
        points = {p["label"]: p for p in rep["points"]}
        if len(points) != expected:
            bad.setdefault("(points)", []).append(
                ("count", f"{len(points)} != {expected}"))
        for label, p in points.items():
            for item in check_point(p, refs.get(label)):
                bad.setdefault(label, []).append(item)
        if first is None:
            first = points
        else:
            for label, p in points.items():
                if label in first and point_values(p) != point_values(first[label]):
                    bad.setdefault(label, []).append(
                        ("repeat", "differs from repetition 0"))
        for label, items in bad.items():
            for field, detail in items:
                print(f"FAIL {workload} rep {i} point {label}: {field}: "
                      f"{detail}", file=sys.stderr)
        failed += min(len(bad), expected)
    return attempted, failed


def repeat(bdir, tmp, args, mode, min_reps, spans=None):
    reps = []
    start = time.monotonic()
    while True:
        reps.append(run_child(bdir, tmp, args.workload, args.seed, mode, spans))
        elapsed = time.monotonic() - start
        if len(reps) >= min_reps and elapsed * (len(reps) + 1) / len(reps) > args.seconds:
            return reps


def record_reference(bdir, tmp, seeds):
    path = HERE / "reference.json"
    ref = json.loads(path.read_text()) if path.exists() else {}
    for workload in WORKLOADS:
        for seed in seeds:
            rep = run_child(bdir, tmp, workload, seed, "reference")
            if rep is None or rep["failures"]:
                fail(f"reference run {workload} seed {seed} failed", 1)
            ref.setdefault(workload, {})[str(seed)] = {
                p["label"]: {k: p[k] for k in
                             ("seed", "delivered", "accepted_load",
                              "avg_latency")}
                for p in rep["points"]}
            print(f"recorded {workload} seed {seed}")
    path.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    ap.add_argument("--record-reference", metavar="SEEDS")
    args = ap.parse_args()
    if not (args.workload or args.selftest or args.record_reference):
        ap.error("--workload is required")
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bdir = build_dir()
    build(bdir)
    (bdir / "tmp").mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=bdir / "tmp"))
    try:
        if args.selftest:
            return subprocess.run([str(bdir / "perfbench_selftest"),
                                   str(tmp)]).returncode
        if args.record_reference:
            record_reference(bdir, tmp, [int(s) for s in
                                         args.record_reference.split(",")])
            return 0

        refs_all = json.loads((HERE / "reference.json").read_text())
        refs = refs_all.get(args.workload, {}).get(str(args.seed), {})
        if args.trace:
            (bdir / "trace").mkdir(exist_ok=True)
            spans = bdir / "trace" / f"{args.workload}_seed{args.seed}.spans.json"
            reps = repeat(bdir, tmp, args, "trace", 1, spans)
            wanted = spec["per_layer"]
            key = "layers"
        else:
            reps = repeat(bdir, tmp, args, "plain", MIN_PLAIN_REPS)
            wanted = spec["end_to_end"]
            key = "metrics"
        attempted, failed = check_reps(reps, args.workload, refs)

        metrics = {}
        good = [r for r in reps if r is not None]
        for m in wanted:
            values = [r[key][m["name"]] for r in good if m["name"] in r[key]]
            if values:
                how = AGGREGATE.get(m["name"], "median")
                value = {"min": min, "max": max,
                         "median": statistics.median}[how](values)
                metrics[m["name"]] = {"value": value, "unit": m["unit"]}
                print(f"{m['name']:28s} {value:.6g} {m['unit']} "
                      f"({how} of {len(values)})")
        if args.trace:
            # The sharded engine's phase profiler: scale_h8 only, so printed
            # here rather than in the per-layer JSON (see layer_map.json).
            layer_map = json.loads((HERE / "layer_map.json").read_text())
            for name in (good[0].get("profiler", {}) if good else {}):
                values = [r["profiler"][name] for r in good]
                unit = layer_map["metrics"][name]["unit"]
                print(f"{name:28s} {statistics.median(values):.6g} {unit} "
                      f"(profiler, median of {len(values)})")
        if len(metrics) != len(wanted):
            failed = max(failed, 1)
            print("FAIL missing metrics: " + ", ".join(
                m["name"] for m in wanted if m["name"] not in metrics),
                file=sys.stderr)
        print(f"{'error_rate':28s} {failed / attempted:.6g} "
              f"({failed} of {attempted} points failed; "
              f"{'reference' if refs else 'no reference'} for seed {args.seed})")
        print(json.dumps({"correct": failed == 0, "attempted": attempted,
                          "failed": failed, "metrics": metrics}))
        return 0 if failed == 0 else 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
