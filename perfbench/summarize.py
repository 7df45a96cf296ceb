#!/usr/bin/env python3
"""Summarize a set of SENECA-Bench runs.

    python3 perfbench/summarize.py RUN... [--against RUN...]

Each RUN is a file holding one run's standard output, or a directory of such
files (*.out). The workload is read from seneca_perfbench's "workload NAME
seed N:" line, and the run is traced when its metrics are the per-layer ones. For each
workload and metric the tool prints the median, the quartiles
(statistics.quantiles(values, n=4)) and the quartile spread divided by the
median, and flags:

  SPREAD  an end-to-end metric whose spread exceeds its bound (BENCHMARK.json);
          not blocking for setup_s, whose runs are held only to the median
          comparison of --against
  STEADY  an end-to-end metric other than setup_s whose spread exceeds a
          third of its bound (advisory: the steadiness target)
  EXACT   a metric perfbench/metrics.json lists as exact that varied
  FAILED  a run that was not correct or had failed requests

With --against, every metric's median is also compared with the other set's
median and flagged WORSE when it is worse by more than its bound. When a
workload has traced and untraced runs, the tracing overhead (traced figure
against untraced median) is printed. Exit status is 1 when any flag but
STEADY is raised.
"""

import argparse
import json
import re
import statistics
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOAD_LINE = re.compile(r"^workload (\S+) seed (\d+):")


def load_runs(paths):
    """{workload: [result dict + '_seed']} from run outputs."""
    files = []
    for p in map(Path, paths):
        files += sorted(p.glob("*.out")) if p.is_dir() else [p]
    runs = defaultdict(list)
    for f in files:
        lines = f.read_text().splitlines()
        result = next((json.loads(l) for l in reversed(lines)
                       if l.startswith("{")), None)
        head = next((WORKLOAD_LINE.match(l) for l in lines
                     if WORKLOAD_LINE.match(l)), None)
        if result is None or head is None:
            print(f"skipping {f}: no result or workload line", file=sys.stderr)
            continue
        result["_seed"] = int(head.group(2))
        runs[head.group(1)].append(result)
    return runs


def spread(values):
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / abs(med) if med else 0.0


def worse_by(base, new, better):
    """Relative worsening of `new` against `base` (negative = better)."""
    if base == 0:
        return 0.0
    return (new - base) / abs(base) if better == "lower" else (base - new) / abs(base)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("runs", nargs="+")
    ap.add_argument("--against", nargs="+", default=[])
    args = ap.parse_args()

    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    registry = json.loads((HERE / "metrics.json").read_text())
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    better = {m["name"]: m["better"] for m in bench["end_to_end"] + bench["per_layer"]}
    exact = {name: set(info.get("exact_on", []))
             for section in ("end_to_end", "per_layer")
             for name, info in registry[section].items() if info.get("exact_on")}

    runs = load_runs(args.runs)
    other = load_runs(args.against) if args.against else {}
    flagged = 0
    for workload in sorted(runs):
        sets = {"untraced": [r for r in runs[workload] if "setup_s" in r["metrics"]],
                "traced": [r for r in runs[workload] if "setup_s" not in r["metrics"]]}
        for kind, rs in sets.items():
            if not rs:
                continue
            seeds = sorted(r["_seed"] for r in rs)
            print(f"\n== {workload} ({kind}, {len(rs)} runs, seeds {seeds})")
            bad = [r["_seed"] for r in rs if not r["correct"] or r["failed"]]
            if bad:
                print(f"   FAILED  seeds {bad} not correct or had failed requests")
                flagged += 1
            base = [r for r in other.get(workload, [])
                    if ("setup_s" in r["metrics"]) == (kind == "untraced")]
            print(f"   {'metric':34s} {'median':>12s} {'q1':>12s} {'q3':>12s} "
                  f"{'spread':>8s} {'bound':>6s}  flags")
            for name in rs[0]["metrics"]:
                values = [r["metrics"][name]["value"] for r in rs]
                med, q1, q3, sp = spread(values)
                flags = []
                bound = bounds.get(name, {}).get("bound")
                if bound is not None and sp > bound:
                    flags.append("SPREAD")
                elif bound is not None and name != "setup_s" and sp > bound / 3:
                    flags.append("STEADY")
                if workload in exact.get(name, ()) and len(set(values)) > 1:
                    flags.append("EXACT")
                if base and bound is not None:
                    ref = statistics.median(r["metrics"][name]["value"] for r in base)
                    w = worse_by(ref, med, better[name])
                    flags.append(f"vs {ref:.6g} ({w:+.1%})")
                    if w > bound:
                        flags.append("WORSE")
                blocking = ("EXACT", "WORSE") if name == "setup_s" else (
                    "SPREAD", "EXACT", "WORSE")
                flagged += sum(f in blocking for f in flags)
                unit = rs[0]["metrics"][name]["unit"]
                print(f"   {name:34s} {med:12.6g} {q1:12.6g} {q3:12.6g} "
                      f"{sp:8.4f} {bound if bound is not None else '':>6}  "
                      f"{unit} {' '.join(flags)}")
        if sets["untraced"] and sets["traced"]:
            print(f"   tracing overhead on {workload}:")
            for traced, plain in (("trace.frames_per_s", "frames_per_s"),
                                  ("trace.latency_p50_ms", "latency_p50_ms")):
                t = statistics.median(r["metrics"][traced]["value"] for r in sets["traced"])
                u = statistics.median(r["metrics"][plain]["value"] for r in sets["untraced"])
                print(f"     {plain:18s} untraced {u:10.4g} traced {t:10.4g} "
                      f"({worse_by(u, t, better[plain]):+.1%} worse)")
    print(f"\n{flagged} blocking flag(s)")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main())
