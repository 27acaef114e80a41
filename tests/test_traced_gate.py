"""The benchmark's traced gate, checked in tier-1.

`perfbench/run.py --trace 1` fails a workload when a per-layer metric it
predicts nonzero (`Workload.nonzero`) reads 0, the sign of a traced
function that was renamed or bypassed.  This test runs one seed-1 pass of
every workload under `layertrace.Tracer` the way `perfbench/worker.py`
does, calling `parse_session` and `run_session` through their modules so
that the patched bindings are used, and holds the same prediction.  The
metrics measured around the trace (`layertrace.OUTSIDE`) are left to the
benchmark.
"""

import sys
from pathlib import Path

import pytest

sys.path.append(str(Path(__file__).resolve().parent.parent / "perfbench"))

import layertrace  # noqa: E402
from workloads import WORKLOADS, expand  # noqa: E402
from stackdual import dsl, session  # noqa: E402


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_a_traced_pass_reads_every_predicted_layer(name):
    workload = WORKLOADS[name]
    sessions = workload.generate(1)
    tracer = layertrace.Tracer()
    for idx, s in enumerate(sessions):
        with tracer.installed(idx):
            report = session.run_session(dsl.parse_session(expand(s.spec)),
                                         default_depth=s.spec.get("depth"))
            report.to_json()
        assert report.exit_code() == 0, s.name
    metrics = tracer.layer_metrics(len(sessions))
    silent = [m for m in workload.nonzero
              if m not in layertrace.OUTSIDE and metrics[m] == 0]
    assert not silent, f"layer metrics read 0 on {name}: {', '.join(silent)}"
