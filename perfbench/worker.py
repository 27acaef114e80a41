"""One workload's timed closed loop, in its own process.

    python3 perfbench/worker.py --src SRC --workload NAME --seed N
                                --seconds S --trace 0|1 [--spans PATH]

One session at a time, no threads.  The session set is drawn once from
the seed; the timed phase then cycles through it in whole passes until
`--seconds` have elapsed, parsing every session afresh each time because
the per-ring and per-map caches would make a reused AST nearly free.  Each
session goes the CLI's way, dsl.parse_session -> session.run_session ->
RunReport.to_json, with the default caps.

With --trace 0 a block of the machine-speed reference (speedref.py) runs
after every session, and the result lists its runs beside the sessions.
With --trace 1 every session runs twice in a row, untraced and then traced,
so the two timings cover the same sessions and their ratio is the tracing
overhead.  Prints one JSON object on its last line.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path


def _run_once(dsl, session, text: str, depth):
    """(seconds, json text or None, exit code or None, error or None)."""
    t0 = time.perf_counter()
    try:
        report = session.run_session(dsl.parse_session(text), default_depth=depth)
        doc = report.to_json()
    except Exception as exc:  # a crash is a failed session, not a failed run
        return time.perf_counter() - t0, None, None, f"{type(exc).__name__}: {exc}"
    return time.perf_counter() - t0, doc, report.exit_code(), None


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--src", required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--spans", default=None)
    args = p.parse_args(argv)

    sys.path.insert(0, args.src)
    import oracle
    import layertrace
    import speedref
    from workloads import WORKLOADS, expand
    from stackdual import dsl, session

    workload = WORKLOADS[args.workload]
    sessions = workload.generate(args.seed)
    texts = [expand(s.spec) for s in sessions]
    tracer = layertrace.Tracer() if args.trace else None
    if tracer is None:
        layertrace.resolve_targets()

    first_json: dict[int, str] = {}
    memo: dict[int, dict] = {}
    failures: list[dict] = []
    untraced: list[list] = []       # [session index, start, seconds]
    traced: list[list] = []
    attempted = 0

    def check(idx: int, doc, code, error) -> None:
        nonlocal attempted
        attempted += 1
        found = []
        if error is not None:
            found.append(error)
        elif code != 0:
            found.append(f"exit code {code}")
        if doc is not None:
            if idx not in first_json:
                first_json[idx] = doc
                found += oracle.problems(sessions[idx].expect, json.loads(doc),
                                         memo.setdefault(idx, {}))
            elif doc != first_json[idx]:
                found.append("JSON differs from an earlier run of the same session")
        if found:
            failures.append({"session": sessions[idx].name, "problems": found})

    t_start = time.perf_counter()
    reference = speedref.SpeedReference(t_start) if tracer is None else None
    passes = 0
    while True:
        for idx, s in enumerate(sessions):
            depth = s.spec.get("depth")
            start = time.perf_counter() - t_start
            dt, doc, code, error = _run_once(dsl, session, texts[idx], depth)
            untraced.append([idx, start, dt])
            if reference is not None:
                reference.block(dt)     # before check(): the oracle may take a while
            check(idx, doc, code, error)
            if tracer is not None:
                start = time.perf_counter() - t_start
                with tracer.installed(len(traced)):
                    dt, doc, code, error = _run_once(dsl, session, texts[idx], depth)
                traced.append([idx, start, dt])
                check(idx, doc, code, error)
        passes += 1
        if time.perf_counter() - t_start >= args.seconds:
            break

    out = {
        "names": [s.name for s in sessions],
        "passes": passes,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:20],
        "untraced": untraced,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if reference is not None:
        out["reference"] = reference.runs
    if tracer is not None:
        out["traced"] = traced
        out["layers"] = tracer.layer_metrics(len(traced))
        if args.spans:
            Path(args.spans).parent.mkdir(parents=True, exist_ok=True)
            tracer.write(args.spans, t_start)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
