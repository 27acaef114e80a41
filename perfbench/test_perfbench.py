"""Tests of the benchmark itself: the closed-form oracle on small cases, the
seeded generators, the layer tracer, the speed reference and the caps guard.

    python3 -m pytest perfbench -q
"""

import gc
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path[:0] = [str(HERE), str(SRC)]

import layertrace  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import speedref  # noqa: E402
import workloads  # noqa: E402
from stackdual import duality  # noqa: E402
from stackdual.dsl import parse_session  # noqa: E402
from stackdual.session import run_session  # noqa: E402


def report_of(spec: dict) -> dict:
    report = run_session(parse_session(workloads.expand(spec)), default_depth=spec.get("depth"))
    assert report.exit_code() == 0
    return json.loads(report.to_json())


# -- the oracle on small cases ---------------------------------------------


def test_hilbert_table_by_hand():
    # Q[x,y,z]/(y*z) weights (1,2,0) mod 3, one generator at (0,0) with x*e = 0:
    # the standard monomials are the powers of y and of z
    ring = {"a": 3, "weights": [1, 2, 0], "ideal": [[0, 1, 1]]}
    module = {"gens": [[0, 0]], "rels": [[[1, 0, 0]]]}
    table = oracle.hilbert_table(ring, module, 2)
    assert table == {(0, 0): 1, (1, 2): 1, (1, 0): 1, (2, 1): 1, (2, 0): 1}
    assert oracle.invariant_dims(table) == {0: 1, 1: 1, 2: 1}


SMALL = [
    ({"preset": "node", "params": {"a": 3, "i": 1, "j": 2}}, {"kind": "node", "depth": 4}),
    ({"preset": "node", "params": {"a": 3, "i": 2, "j": 1}, "depth": 2}, {"kind": "node", "depth": 2}),
    ({"preset": "root-cover", "params": {"a": 3}}, {"kind": "free-rank-one", "weight": 1}),
    ({"preset": "tacnode-cusp"}, {"kind": "free-rank-one", "weight": 0}),
    ({"preset": "p146-curve"}, {"kind": "ci", "twist": "O(-3)", "weight": 0}),
]


@pytest.mark.parametrize("spec, expect", SMALL)
def test_oracle_accepts_known_answers(spec, expect):
    assert oracle.problems(expect, report_of(spec)) == []


def test_oracle_on_generated_lci_sessions():
    for s in workloads.lci_ext(7):
        if s.name.startswith("rnc4"):
            continue  # the small rational normal curve covers the same checks
        assert oracle.problems(s.expect, report_of(s.spec)) == [], s.name


def test_oracle_on_small_staircase_sessions():
    for s in workloads.staircase(3):
        spec = {"text": s.spec["text"].replace(f"max {workloads.STAIR_MAX}", "max 9")
                .replace(f"bound {workloads.STAIR_MAX}", "bound 9")
                .replace(f"bound {workloads.COMPARE_BOUND}", "bound 6")
                .replace(f"bound {workloads.PUSHFORWARD_BOUND}", "bound 9")}
        expect = {**s.expect, "max": 9} if "max" in s.expect else s.expect
        assert oracle.problems(expect, report_of(spec)) == [], s.name


def test_oracle_rejects_wrong_answers():
    node = report_of(SMALL[0][0])
    result = node["commands"][0]["result"]
    result["fiber_representation"][0]["residue"] = 1
    result["ext_profile"]["2"]["zero"] = False
    found = oracle.problems({"kind": "node", "depth": 4}, node)
    assert any("fiber weights" in p for p in found)
    assert any("Ext^2" in p for p in found)

    s = workloads.staircase(1)[0]
    spec = {"text": s.spec["text"].replace(f"max {workloads.STAIR_MAX}", "max 5")}
    rep = report_of(spec)
    rep["commands"][0]["result"]["table"][0]["dim"] += 1
    assert oracle.problems({**s.expect, "max": 5}, rep)

    assert oracle.problems({"kind": "compare"}, {"partial": True, "error": "resource-cap",
                                                 "commands": []})


# -- generators --------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generators_are_seeded_and_keep_their_shape(name):
    gen = workloads.WORKLOADS[name].generate
    assert gen(5) == gen(5)
    shapes = {tuple((s.name, s.expect["kind"]) for s in gen(seed)) for seed in range(12)}
    assert len(shapes) == 1
    assert len({tuple(map(str, gen(seed))) for seed in range(12)}) > 1


def test_complete_intersections_are_regular_for_every_seed():
    for seed in range(15):
        rng = random.Random(seed)
        ring, seq, expect = workloads.complete_intersection(rng, (2, 3), rng.choice((5, 7, 11)))
        rep = report_of({"text": ring + f"dualize-lci C seq {seq} omega canonical depth 2\n"})
        assert oracle.problems(expect, rep) == [], (ring, seq)


# -- tracing -------------------------------------------------------------------


def test_tracer_covers_from_imports_and_restores_them():
    originals = {(id(o), a): getattr(o, a) for o, a, _ in layertrace.Tracer().bindings}
    tracer = layertrace.Tracer()
    bound = {(getattr(o, "__name__", ""), a) for o, a, _ in tracer.bindings}
    for mod, attrs in layertrace.REQUIRED_BINDINGS.items():
        for attr in attrs:
            assert (f"stackdual.{mod}", attr) in bound
    assert ("Polynomial", "__rmul__") in bound
    with tracer.installed(0):
        assert duality.restrict_along is not tracer.targets["gmodule.restrict_along"]
        report_of(SMALL[1][0])
    for owner, attr, _ in tracer.bindings:
        assert getattr(owner, attr) is originals[(id(owner), attr)]

    metrics = tracer.layer_metrics(1)
    assert metrics["duality.finite_shriek_calls"] == 1
    assert metrics["gmodule.restrict_along_s"] > 0
    assert metrics["groebner.gb_builds"] > 0
    assert metrics["complexes.resolution_ranks"] > 0
    spans = tracer.spans
    assert all(s[2] < s[1] for s in spans)
    self_times = tracer.self_times()
    assert all(t >= -1e-9 for t in self_times.values())
    total = sum(e - s for _, _, p, _, s, e in spans if p < 0)
    assert sum(self_times.values()) == pytest.approx(total)


def test_tracer_fails_loudly_on_a_missing_name(monkeypatch):
    monkeypatch.delattr(duality, "restrict_along")
    with pytest.raises(layertrace.CoverageError, match="restrict_along"):
        layertrace.resolve_targets()


def test_tracer_fails_loudly_on_an_untraced_binding(monkeypatch):
    monkeypatch.setattr(duality, "resolve", lambda *a: None)
    with pytest.raises(layertrace.CoverageError, match="resolve"):
        layertrace.resolve_targets()


# -- the speed reference ---------------------------------------------------------


def test_costs_cancel_a_slow_spell():
    # the same session twice, the second time on a machine half as fast
    samples = [[0, 0.0, 1.0], [0, 10.0, 2.0]]
    runs = [[1.0, 0.01], [1.05, 0.01], [12.0, 0.02], [12.1, 0.02]]
    assert speedref.normalized(samples, runs) == [pytest.approx(100), pytest.approx(100)]


def test_a_session_sees_only_the_reference_runs_near_it():
    samples = [[0, 0.0, 0.1], [0, 5.0, 0.1]]
    runs = [[0.1, 0.01], [0.3, 0.01], [5.1, 0.04]]
    assert speedref.normalized(samples, runs) == [pytest.approx(10), pytest.approx(2.5)]
    with pytest.raises(ValueError):
        speedref.normalized([[0, 3.0, 0.1]], runs)


def test_reference_block_follows_the_session_and_restores_gc():
    ref = speedref.SpeedReference(speedref.time.perf_counter())
    assert gc.isenabled()
    ref.block(0.0)
    ref.block(0.2)
    assert gc.isenabled()
    assert len(ref.runs) > 2
    assert sum(dt for _, dt in ref.runs[1:]) >= 0.9 * speedref.SHARE * 0.2
    assert [start for start, _ in ref.runs] == sorted(start for start, _ in ref.runs)
    assert speedref.reference() == speedref.reference() > 0


# -- the run command -----------------------------------------------------------


def test_percentile():
    assert run.percentile([3, 1, 2], 50) == 2
    assert run.percentile([1, 2, 3, 4, 5], 90) == pytest.approx(4.6)


def test_refuses_loosened_caps():
    env = {**os.environ, "STACKDUAL_TIME_LIMIT_S": "600"}
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", "lci-ext",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "STACKDUAL_TIME_LIMIT_S" in proc.stderr
