"""stackdual benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the program is imported from
./src).  Set-up time is measured in fresh interpreters; the sessions run in
one worker process (worker.py).  With --trace 0 it reports the end-to-end
metrics, session times in units of the machine-speed reference
(speedref.py); with --trace 1 the per-layer ones.  Human-readable lines come
first; the last line of standard output is one JSON object
{"correct", "attempted", "failed", "metrics"}.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import layertrace  # noqa: E402
import speedref  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

CAP_VARIABLES = ("STACKDUAL_MAX_TERMS", "STACKDUAL_TIME_LIMIT_S")
SETUP_PROBES = 11          # fresh interpreters per untraced run, after one warm-up
TRACE_PROBES = 3
PROBE_TIMEOUT_S = 60
RUN_LIMIT_S = 170          # the whole run, probes included

UNITS = {"session_ref": "ref", "pass_ref": "ref",
         "setup_s": "s", "peak_rss_mb": "MB"}


def layer_unit(metric: str) -> str:
    if metric == "trace.overhead_ratio":
        return "ratio"
    return "s/session" if metric.endswith("_s") else "count/session"


def percentile(values: list[float], pct: float) -> float:
    """Linear interpolation between closest ranks."""
    xs = sorted(values)
    pos = (len(xs) - 1) * pct / 100
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def fail(message: str, code: int = 1) -> int:
    sys.stderr.write(f"perfbench: {message}\n")
    return code


def probe(spec: dict, deadline: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "probe.py"), str(SRC), json.dumps(spec)],
        capture_output=True, text=True,
        timeout=max(1.0, min(PROBE_TIMEOUT_S, deadline - time.monotonic())))
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def setup_times(spec: dict, count: int, deadline: float) -> list[dict]:
    probe(spec, deadline)  # warm-up: the first import may compile bytecode
    return [probe(spec, deadline) for _ in range(count)]


def run_worker(args, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--src", str(SRC),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        spans = HERE / "out" / f"spans-{args.workload}-seed{args.seed}.jsonl"
        cmd += ["--spans", str(spans)]
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"worker failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def by_session(names: list[str], samples: list[list], costs: list[float]) -> dict[str, list[float]]:
    """Per session name: [median seconds, median cost in reference units]."""
    seconds: dict[str, list[float]] = {}
    refs: dict[str, list[float]] = {}
    for (idx, _, dt), cost in zip(samples, costs):
        seconds.setdefault(names[idx], []).append(dt)
        refs.setdefault(names[idx], []).append(cost)
    return {name: [statistics.median(seconds[name]), statistics.median(refs[name])]
            for name in seconds}


def end_to_end(workload, result: dict, setups: list[dict]) -> tuple[dict, list[str], dict]:
    costs = speedref.normalized(result["untraced"], result["reference"])
    per_session = by_session(result["names"], result["untraced"], costs)
    times = [dt for _, _, dt in result["untraced"]]
    ref_times = [dt for _, dt in result["reference"]]
    n = len(costs)
    tail = percentile(costs, workload.tail_pct)
    slowest = max(per_session, key=lambda name: per_session[name][1])
    setup_wall = [s["import_s"] + s["parse_s"] for s in setups]
    values = {
        "session_ref": statistics.median(costs),
        "pass_ref": sum(ref for _, ref in per_session.values()),
        "setup_s": statistics.median(t * speedref.NOMINAL_S / s["ref_s"]
                                     for t, s in zip(setup_wall, setups)),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    notes = {
        "session_ref": f"median of {n} sessions",
        "pass_ref": f"one pass over the {len(per_session)} sessions of the set",
        "setup_s": f"median of {len(setups)} fresh interpreters, at a "
                   f"{speedref.NOMINAL_S * 1e3:g} ms reference",
        "peak_rss_mb": "worker process",
    }
    lines = [f"{k:19s} {v:12.6f} {UNITS[k]:5s} ({notes[k]})" for k, v in values.items()]
    lines += [
        f"{'session tail':19s} {tail:12.6f} ref   (p{workload.tail_pct} of {n} sessions, "
        f"{sum(c > tail for c in costs)} beyond it)",
        f"{'slowest session':19s} {per_session[slowest][1]:12.6f} ref   (median of {slowest})",
        f"{'setup wall':19s} {statistics.median(setup_wall):12.6f} s     "
        f"(reference {statistics.median(s['ref_s'] for s in setups) * 1e3:.6f} ms)",
        f"{'reference':19s} {statistics.median(ref_times) * 1e3:12.6f} ms    "
        f"(median of {len(ref_times)} runs, {sum(ref_times) / sum(times):.1%} of session time)",
        f"{'session wall':19s} {statistics.median(times):12.6f} s     (median of {n} sessions)",
        f"{'sessions wall':19s} {n / sum(times):12.6f} 1/s   ({n} sessions in {sum(times):.2f} s of session time)",
    ]
    return values, lines, per_session


def per_layer(result: dict, setups: list[dict]) -> dict:
    values = dict(result["layers"])
    values["cli.import_s"] = statistics.median(s["import_s"] for s in setups)
    values["trace.overhead_ratio"] = layertrace.overhead_ratio(
        [dt for _, _, dt in result["traced"]], [dt for _, _, dt in result["untraced"]])
    return {k: values[k] for k in layertrace.PER_LAYER}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S

    loosened = [v for v in CAP_VARIABLES if v in os.environ]
    if loosened:
        return fail(f"refusing to run with {', '.join(loosened)} set: "
                    "the benchmark times the default caps", 2)
    if not (SRC / "stackdual" / "__init__.py").is_file():
        return fail(f"no stackdual sources under {SRC}", 2)
    if args.seconds < 1:
        return fail("--seconds must be at least 1", 2)

    workload = WORKLOADS[args.workload]
    first = workload.generate(args.seed)[0]
    try:
        setups = setup_times(first.spec, TRACE_PROBES if args.trace else SETUP_PROBES,
                             deadline)
        result = run_worker(args, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        return fail(str(exc))

    print(f"workload {args.workload}  seed {args.seed}  passes {result['passes']}  "
          f"sessions {result['attempted']}  trace {args.trace}")
    if args.trace:
        metrics = per_layer(result, setups)
        units = {k: layer_unit(k) for k in metrics}
        lines = [f"{k:30s} {v:16.6f} {units[k]}" for k, v in metrics.items()]
        silent = [m for m in workload.nonzero if metrics[m] == 0]
        if silent:
            print("\n".join(lines))
            return fail(f"layer metrics read 0 on {args.workload}: {', '.join(silent)}; "
                        "a traced function was probably renamed or bypassed")
    else:
        metrics, lines, per_session = end_to_end(workload, result, setups)
        units = UNITS
    print("\n".join(lines))
    print(f"{'fail_ratio':19s} {result['failed'] / result['attempted']:12.6f}       "
          f"({result['failed']} of {result['attempted']} sessions failed)")
    if not args.trace:
        for name, (t, ref) in per_session.items():
            print(f"  {name:22s} {t:9.4f} s {ref:10.3f} ref median")
    for f in result["failures"]:
        print(f"  FAILED {f['session']}: {'; '.join(f['problems'])}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
