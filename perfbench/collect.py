"""Repeat run.py over seeds and summarize the spread of every metric.

    python3 perfbench/collect.py [--workloads a,b] [--seeds 1-10] [--seconds S]
                                 [--traced-seed N] [--out FILE]

For each workload: one untraced run per seed, then (with --traced-seed) two
traced runs on that seed, whose counts must repeat exactly.  For every
end-to-end metric it prints the median, the quartiles from
statistics.quantiles(values, n=4) and their distance as a share of the
median, next to the metric's bound from BENCHMARK.json.  --out writes
everything as JSON (the form of baseline.json).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = map(int, text.split("-"))
        return list(range(lo, hi + 1))
    return [int(s) for s in text.split(",")]


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["wall_s"] = time.monotonic() - t0
    result["seed"] = seed
    result["report"] = lines[:-1]
    return result


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}


def git_commit() -> str:
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True,
                              text=True, cwd=ROOT, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seconds", type=int, default=bench["run_seconds"])
    p.add_argument("--traced-seed", type=int, default=None)
    p.add_argument("--out", default=None)
    args = p.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    doc = {"commit": git_commit(), "python": platform.python_version(),
           "nproc": os.cpu_count(), "machine": platform.machine(),
           "seconds": args.seconds, "seeds": parse_seeds(args.seeds), "workloads": {}}
    for workload in args.workloads.split(","):
        runs = [run(workload, seed, args.seconds, 0) for seed in doc["seeds"]]
        entry = {"runs": runs, "summary": {}}
        print(f"== {workload}: {len(runs)} runs, wall {sum(r['wall_s'] for r in runs):.0f} s")
        for metric in runs[0]["metrics"]:
            s = summarize([r["metrics"][metric]["value"] for r in runs])
            entry["summary"][metric] = s
            bound = bounds.get(metric)
            flag = "" if bound is None or s["spread"] < bound / 3 else "  <-- over bound/3"
            print(f"  {metric:16s} median {s['median']:12.6f}  q1 {s['q1']:12.6f}  "
                  f"q3 {s['q3']:12.6f}  spread {s['spread']:6.3f}  bound {bound}{flag}")
        print(f"  failed {sum(r['failed'] for r in runs)} of {sum(r['attempted'] for r in runs)}")
        if args.traced_seed is not None:
            traced = [run(workload, args.traced_seed, args.seconds, 1) for _ in range(2)]
            entry["traced"] = traced[0]
            counts = [{k: v["value"] for k, v in t["metrics"].items()
                       if v["unit"] == "count/session"} for t in traced]
            entry["counts_repeat"] = counts[0] == counts[1]
            print(f"  traced seed {args.traced_seed}: counts repeat exactly: {entry['counts_repeat']}")
            for line in traced[0]["report"][1:]:
                print("   " + line)
        doc["workloads"][workload] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
