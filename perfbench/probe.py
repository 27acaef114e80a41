"""Set-up probe, run in a fresh interpreter:

    python3 perfbench/probe.py SRC SPEC_JSON

Times `import stackdual.cli` (the package and every module the CLI loads)
and then expanding and parsing one session, which for a finite map already
builds its finiteness Groebner basis.  Then it times the machine-speed
reference for REFERENCE_S (speedref.py, imported only after the timed part
so that its standard-library imports do not shorten the import).  Prints
{"import_s", "parse_s", "ref_s"}, ref_s being the median reference time.
"""

import json
import sys
import time

from workloads import expand

REFERENCE_S = 0.1


def main() -> int:
    src, spec = sys.argv[1], json.loads(sys.argv[2])
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import stackdual.cli  # noqa: F401
    t1 = time.perf_counter()
    from stackdual.dsl import parse_session
    parse_session(expand(spec))
    t2 = time.perf_counter()
    import statistics
    import speedref
    reference = speedref.SpeedReference(time.perf_counter())
    reference.block(REFERENCE_S / speedref.SHARE)
    ref_s = statistics.median(dt for _, dt in reference.runs)
    print(json.dumps({"import_s": t1 - t0, "parse_s": t2 - t1, "ref_s": ref_s}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
