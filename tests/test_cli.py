"""CLI behavior: exit codes, reports, JSON round trips, determinism."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from stackdual import caps
from stackdual.cli import main
from stackdual.dsl import parse_session
from stackdual.presets import list_presets, preset_session
from stackdual.session import run_session


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_list_presets_sorted_and_nonempty(capsys):
    code, out, _ = run_cli(["list-presets"], capsys)
    assert code == 0
    names = [line.split()[0] for line in out.splitlines()
             if line and not line.lstrip().startswith("expected:")]
    assert names == sorted(names) and len(names) == 10
    assert "p146-curve" in names and "pija-node" in names
    assert "O(-3)" in out and "O(-a)" in out


def test_preset_node_reports_and_exit_zero(capsys, tmp_path):
    json_path = tmp_path / "node.json"
    code, out, _ = run_cli(
        ["preset", "node", "--a", "3", "--i", "1", "--j", "2",
         "--json", str(json_path)], capsys)
    assert code == 0
    assert "free of rank one" in out and "weight 0" in out
    doc = json.loads(json_path.read_text())
    assert doc["schema_version"] == "1"
    verdicts = doc["commands"][0]["verdicts"]
    assert verdicts["is_free_rank_one"] and verdicts["is_sheaf"]
    assert verdicts["fiber_weights"] == [0]


def test_preset_triple_point(capsys):
    code, out, _ = run_cli(["preset", "triple-point"], capsys)
    assert code == 0
    assert "Gorenstein: False" in out
    assert "Cohen-Macaulay: True" in out


def test_malformed_session_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.sdl"
    bad.write_text("ring A = Q[x,y]/(x*w)\n")
    code, _, err = run_cli(["run", str(bad)], capsys)
    assert code == 2
    assert "1:" in err and "unknown symbol" in err


@pytest.mark.parametrize("command, diagnostic", [
    ("hilbert R max \u00b2", "2:15: expected an integer (expected integer)"),
    ("koszul R seq (x^\u00b2)", "2:16: exponent must be a nonnegative integer"),
    ("koszul R seq (" + "7" * 5000 + "*x)", "2:15: integer literal too long"),
    ("koszul R seq (x, 2^20000*x)", "2:18: coefficient too long to print"),
    ("check gorenstein R ideal (x^2, (1/3)^10000*x^3)",
     "2:32: coefficient too long to print"),
], ids=["superscript-bound", "superscript-exponent", "5000-digit-literal",
        "long-integer-coefficient", "long-rational-coefficient"])
def test_an_integer_python_cannot_read_exits_2(command, diagnostic, capsys,
                                               tmp_path):
    """A superscript digit is no INT token, and a literal past Python's
    int-string limit is refused at its column, as is a polynomial whose
    coefficient is past that limit (the command text prints it) at its
    first token: all are input errors."""
    session = tmp_path / "int.sdl"
    session.write_text(f"ring R = Q[x]\n{command}\n", encoding="utf-8")
    code, out, err = run_cli(["run", str(session)], capsys)
    assert (code, out, err) == (2, "", f"error: {diagnostic}\n")


@pytest.mark.parametrize("command", ["hom M M", "compare M M"])
def test_a_relation_python_cannot_print_exits_2(command, capsys, tmp_path):
    """A declared relation is stored monic, here x + 2^-20000*y, and a
    report prints its entries, so the declaration refuses one whose
    coefficient is past Python's int-string limit at the module's name;
    the command then finds no module M."""
    session = tmp_path / "rel.sdl"
    session.write_text("ring R = Q[x,y]\n"
                       "module M over R gens e1:(0,0) rels 2^20000*x*e1 + y*e1\n"
                       f"{command}\n", encoding="utf-8")
    code, out, err = run_cli(["run", str(session)], capsys)
    assert (code, out) == (2, "")
    assert err.startswith("error: 2:8: coefficient too long to print\n")


def test_pushforward_over_the_wrong_ring_exits_2(capsys, tmp_path):
    node = preset_session("node", a=3)
    for extra, ring in (
            ("ring B2 = Q[x,y]/(x^2) group 3 weights {x:1, y:2}\n"
             "module W over B2 gens w:(0,0)\n"
             "check pushforward p W A bound 8\n", "omega_B"),
            ("check pushforward p B B bound 8\n", "omega_A")):
        session = tmp_path / "pushforward.sdl"
        session.write_text(node + extra)
        code, out, _ = run_cli(["run", str(session)], capsys)
        assert code == 2
        assert f"error: {ring} must live over" in out


def test_negative_ext_index_exits_2(capsys, tmp_path):
    session = tmp_path / "lci.sdl"
    session.write_text("ring C = Q[x,y,z] degrees {x:1, y:4, z:6}\n"
                       "dualize-lci C seq (z*x^2 - y^2) omega canonical\n")
    code, out, _ = run_cli(["run", str(session), "--depth", "-1"], capsys)
    assert code == 2
    assert "error: the largest Ext index must be >= 0" in out


def test_nonregular_lci_sequence_exits_2(capsys, tmp_path):
    session = tmp_path / "lci.sdl"
    session.write_text("ring C = Q[x,y]\n"
                       "dualize-lci C seq (x*y, x^2) omega canonical\n")
    code, out, _ = run_cli(["run", str(session)], capsys)
    assert code == 2
    assert "error: sequence is not regular: Koszul H_1 is nonzero" in out


@pytest.mark.parametrize("seq", ["(0, -1)", "(1)"])
def test_an_lci_sequence_generating_the_unit_ideal_exits_2(seq, capsys, tmp_path):
    # a unit entry makes the Koszul complex exact, so the regularity test
    # passes; (0, -1) used to exit 4 on the zero entry's degree, and (1) to
    # exit 1 with a failed cross-check over the zero ring
    session = tmp_path / "lci.sdl"
    session.write_text(f"ring R = Q[x]\ndualize-lci R seq {seq} omega canonical\n")
    code, out, err = run_cli(["run", str(session)], capsys)
    assert code == 2 and "Traceback" not in out + err
    errors = [line for line in out.splitlines() if line.startswith("error:")]
    assert errors == ["error: sequence generates the unit ideal"]


def test_zero_koszul_entry_is_homogeneous(capsys, tmp_path):
    # a zero entry has bidegree zero, so (x, 0) is a sequence that is not
    # regular: its Koszul H_1 holds the zero entry's generator
    session = tmp_path / "koszul.sdl"
    session.write_text("ring R = Q[x,y]\nkoszul R seq (x, 0)\n")
    code, out, _ = run_cli(["run", str(session), "--json", str(tmp_path / "k.json")],
                           capsys)
    assert code == 1
    doc = json.loads((tmp_path / "k.json").read_text())
    assert doc["commands"][0]["verdicts"] == {"regular_sequence": False}
    session.write_text("ring R = Q[x,y]\ndualize-lci R seq (x, 0) omega canonical\n")
    code, out, _ = run_cli(["run", str(session)], capsys)
    assert code == 2
    assert "error: sequence is not regular: Koszul H_1 is nonzero" in out


def test_compare_checks_its_bound_and_needs_positive_degrees_to_separate(
        capsys, tmp_path):
    session = tmp_path / "cmp.sdl"
    session.write_text("ring R = Q[x,y]\n"
                       "module M over R gens e:(0,0) rels x*e\n"
                       "compare M M bound -1\n")
    code, out, _ = run_cli(["run", str(session)], capsys)
    assert code == 2
    assert "error: zmax must be >= 0" in out
    # Nakayama's lemma fails over degree-0 variables, yet M = 0 loses its
    # generator because the span of its relations holds the unit vector, so
    # two zero modules compare equal
    session.write_text("ring R = Q[t,u] degrees {t:0, u:0}\n"
                       "module M over R gens e:(0,0) rels (t^3+1)*e, (t^3-1)*e\n"
                       "module Z over R gens f:(0,0) rels f\n"
                       "hom R M\n"
                       "compare M Z bound 3\n")
    code, out, _ = run_cli(["run", str(session)], capsys)
    assert code == 0
    assert "Hom module: <0>" in out
    assert "comparison verdict: isomorphic-up-to-bound" in out
    # nonzero modules there: equal generator degrees and unequal relations
    # prove nothing either way
    session.write_text("ring R = Q[t,u] degrees {t:0, u:0}\n"
                       "module M over R gens e:(0,0) rels t*e\n"
                       "module N over R gens f:(0,0) rels u*f\n"
                       "compare M N bound 3\n")
    code, out, _ = run_cli(["run", str(session)], capsys)
    assert code == 1
    assert "comparison verdict: inconclusive" in out


def test_dualize_lci_cross_checks_below_the_codimension(capsys, tmp_path):
    # the printed profile stops at the depth, the cross-check against
    # Ext^r does not
    session = tmp_path / "lci.sdl"
    for depth in (1, 3):
        session.write_text("ring C = Q[x,y,z]\n"
                           "dualize-lci C seq (x^2, y^3) omega canonical "
                           f"depth {depth}\n")
        code, out, _ = run_cli(["run", str(session)], capsys)
        assert code == 0
        assert "cross-check against Ext^2: isomorphic-up-to-bound" in out
        profile = " ".join(f"Ext^{i}={'1 gens' if i == 2 else '0'}"
                           for i in range(depth + 1))
        assert profile + "\n" in out


def test_hilbert_and_invariants_reject_a_negative_bound(capsys, tmp_path):
    session = tmp_path / "tables.sdl"
    for command in ("hilbert M max -1", "invariants M bound -1"):
        session.write_text("ring R = Q[x,y]\n"
                           "module M over R gens e:(0,0) rels x*e\n"
                           f"{command}\n")
        code, out, _ = run_cli(["run", str(session)], capsys)
        assert code == 2, command
        assert "error: zmax must be >= 0" in out


def test_pushforward_along_a_zero_image_compares(capsys, tmp_path):
    # u = 0 is homogeneous of every bidegree, so it passes the weight-0 test
    session = tmp_path / "zero.sdl"
    session.write_text("ring A = Q[u]\nring B = Q[x]/(x^2)\n"
                       "map f : A -> B { u = 0 }\n"
                       "check pushforward f B A bound 3\n")
    code, out, err = run_cli(["run", str(session)], capsys)
    assert code == 1
    assert "Traceback" not in out + err
    assert "unequal" in out
    assert "zdeg 2: invariants of omega_B have dim 0, omega_A has dim 1" in out


def test_missing_file_exits_2(capsys):
    code, _, err = run_cli(["run", "/nonexistent/session"], capsys)
    assert code == 2


def test_session_file_that_is_not_utf8_exits_2(capsys, tmp_path):
    bad = tmp_path / "latin1.sdl"
    bad.write_bytes("ring A = Q[x] # caf\u00e9\n".encode("latin-1"))
    code, out, err = run_cli(["run", str(bad)], capsys)
    assert code == 2 and out == ""
    assert err == f"error: {bad} is not UTF-8 text\n"


def test_unwritable_json_path_exits_2_after_the_report(capsys, tmp_path):
    target = tmp_path / "missing" / "x.json"
    code, out, err = run_cli(["preset", "cusp-line", "--json", str(target)],
                             capsys)
    assert code == 2 and out
    assert err.splitlines()[-1] == (f"error: cannot write {target}: "
                                    "No such file or directory")


@pytest.mark.parametrize("name, value", [
    ("STACKDUAL_MAX_TERMS", "abc"),
    ("STACKDUAL_MAX_TERMS", "1e5"),
    ("STACKDUAL_TIME_LIMIT_S", "soon"),
    ("STACKDUAL_TIME_LIMIT_S", "nan"),
    ("STACKDUAL_TIME_LIMIT_S", "inf"),
])
def test_cap_variable_with_no_valid_value_exits_2(capsys, monkeypatch, name, value):
    # NaN would parse and silently switch the deadline off
    monkeypatch.setenv(name, value)
    code, out, err = run_cli(["preset", "cusp-line"], capsys)
    assert code == 2 and out == ""
    assert err.startswith(f"error: {name} must be ") and err.count("\n") == 1
    assert repr(value) in err


def test_unknown_preset_exits_2(capsys):
    code, _, err = run_cli(["preset", "no-such"], capsys)
    assert code == 2
    assert "unknown preset" in err


def test_failed_compare_exits_1(capsys, tmp_path):
    session = tmp_path / "cmp.sdl"
    session.write_text("""
ring B = Q[x,y]/(x*y) group 2 weights {x:1, y:1}
module M over B gens m:(0,0)
module N over B gens n:(0,1)
compare M N bound 6
""")
    code, out, _ = run_cli(["run", str(session)], capsys)
    assert code == 1
    assert "distinct" in out


def test_run_session_file(capsys, tmp_path):
    session = tmp_path / "ok.sdl"
    session.write_text(preset_session("root-cover", a=5))
    code, out, _ = run_cli(["run", str(session)], capsys)
    assert code == 0
    assert "weight 1 mod 5" in out


def test_json_round_trip_byte_identical(tmp_path):
    # the report writer emits the standard library's indented encoding
    from stackdual.session import json_text
    doc = {"b": [], "a": {}, "\u2603": "snow",
           "c": [1, -2, True, False, None, "\u00e9\n\"x\"", 1.5, (3, "t")],
           "d": {"z": {"y": [{}, [[]]]}, "k": {2: "int key", 1: [0.25, {}]}}}
    assert json_text(doc) == json.dumps(doc, indent=2, sort_keys=True)
    for name, _, _ in list_presets():
        report = run_session(parse_session(preset_session(name)))
        for blob in (report.to_json(), report.to_json(include_timings=True)):
            assert json.dumps(json.loads(blob), indent=2, sort_keys=True) + "\n" == blob


def test_json_never_contains_floats():
    ast = parse_session(preset_session("pija-node"))
    report = run_session(ast)

    def walk(value):
        assert not isinstance(value, float)
        if isinstance(value, dict):
            for v in value.values():
                walk(v)
        elif isinstance(value, list):
            for v in value:
                walk(v)

    walk(json.loads(report.to_json()))


def test_resource_cap_exits_3(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("STACKDUAL_TIME_LIMIT_S", "0.000001")
    session = tmp_path / "slow.sdl"
    session.write_text(preset_session("node", a=5, i=2, j=3))
    code, out, _ = run_cli(["run", str(session)], capsys)
    assert code == 3
    assert "aborted" in out


@pytest.mark.parametrize("argv,depth", [(["node", "--a", "5", "--depth", "1"], 2),
                                        (["tacnode-cusp", "--depth", "1"], 2),
                                        (["tacnode-cusp", "--depth", "2"], 3)])
def test_short_resolutions_carry_no_period(capsys, argv, depth):
    code, out, _ = run_cli(["preset", *argv], capsys)
    assert code == 0
    assert f"A-resolution truncated at depth {depth}\n" in out
    assert "period" not in out


# runs the CLI and prints the peak resident set size of its own process, in
# kilobytes, as the last line of stderr
_MEASURED_CLI = """\
import resource, sys
from stackdual.cli import main
code = main(sys.argv[1:])
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss, file=sys.stderr)
sys.exit(code)
"""


def _measured_cli(argv, time_limit, cwd=None):
    """Run the CLI in a child under the default term cap; returns the
    process and the child's peak RSS in KB."""
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, STACKDUAL_TIME_LIMIT_S=time_limit, PYTHONPATH=str(src))
    env.pop("STACKDUAL_MAX_TERMS", None)
    proc = subprocess.run([sys.executable, "-c", _MEASURED_CLI, *argv], env=env,
                          cwd=cwd, capture_output=True, text=True, timeout=120)
    return proc, int(proc.stderr.split()[-1])


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KB on Linux")
def test_a_huge_depth_finishes_in_bounded_memory(tmp_path):
    # the resolution ends at its repeat, so a depth at the term cap costs
    # only the report's entries (exit 3 on the deadline: test_resource_cap_exits_3)
    proc, peak_kb = _measured_cli(
        ["preset", "node", "--a", "5", "--depth", str(caps.DEFAULT_MAX_TERMS),
         "--json", "out.json"],
        time_limit=str(caps.DEFAULT_TIME_LIMIT_S), cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads((tmp_path / "out.json").read_text())
    profiles = [c["result"]["ext_profile"] for c in doc["commands"]
                if "ext_profile" in c["result"]]
    assert [len(p) for p in profiles] == [caps.DEFAULT_MAX_TERMS]
    assert peak_kb < 256 * 1024


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KB on Linux")
@pytest.mark.parametrize("argv, option", [
    (["run", "huge.sdl"], "bound 100000000"),
    (["preset", "cusp-line", "--depth", "100000000"], "depth 100000000"),
])
def test_a_depth_or_bound_above_the_term_cap_exits_3_before_any_work(
        tmp_path, argv, option):
    (tmp_path / "huge.sdl").write_text("ring R = Q[x,y]\n"
                                       "module M over R gens e:(0,0) rels x*e\n"
                                       "invariants M bound 100000000\n")
    started = time.monotonic()
    proc, peak_kb = _measured_cli(argv, time_limit="60", cwd=tmp_path)
    assert time.monotonic() - started < 3
    assert proc.returncode == 3, proc.stderr
    assert f"aborted: {option} exceeds {caps.DEFAULT_MAX_TERMS} terms" in proc.stdout
    assert peak_kb < 100 * 1024


def test_deadline_poll_does_not_depend_on_earlier_ticks(monkeypatch):
    # ticks left behind by earlier work must not make a fresh command poll
    monkeypatch.setenv("STACKDUAL_TIME_LIMIT_S", "0.000001")
    monkeypatch.setattr(caps, "_tick", 63)
    with caps.command_caps():
        time.sleep(0.001)
        caps.check_deadline()


def test_internal_error_exits_4_with_a_flagged_report(capsys, tmp_path, monkeypatch):
    from stackdual import duality, gmodule
    session = tmp_path / "node.sdl"
    session.write_text(preset_session("node", a=5, i=2, j=3))
    json_path = tmp_path / "node.json"

    def assert_internal(error):
        code, out, err = run_cli(["run", str(session), "--json", str(json_path)], capsys)
        assert code == 4
        assert "Traceback" not in out + err
        doc = json.loads(json_path.read_text())
        assert doc["partial"] is True
        assert doc["error"] == f"internal: {error}"
        assert doc["commands"][-1]["verdicts"] == {"aborted": True}

    for exc in (RuntimeError("B-action left the Hom module"), AssertionError("lost"),
                KeyError("lost"), AttributeError("lost")):
        def broken(f, exc=exc):
            raise exc
        monkeypatch.setattr(duality, "restrict_along", broken)
        assert_internal(f"{type(exc).__name__}: {exc}")
    monkeypatch.undo()
    # a ValueError raised on a value the engine built is internal too
    monkeypatch.setattr(gmodule.ModuleMap, "sends_into_relations",
                        lambda self, vectors: not vectors)
    assert_internal("ValueError: differentials at 2 do not compose to zero")


def test_engine_fault_while_parsing_exits_4(capsys, monkeypatch):
    from stackdual import gmodule

    def broken(*args, **kwargs):
        raise RuntimeError("graph basis lost")
    monkeypatch.setattr(gmodule, "buchberger", broken)
    code, out, err = run_cli(["preset", "node"], capsys)
    assert code == 4 and out == ""
    assert err == "internal error: RuntimeError: graph basis lost\n"


_R = "ring R = Q[x,y]\nmodule M over R gens e:(0,0)\n"
_S = "ring S = Q[z]\nmodule N over S gens f:(0,0)\n"
_MAP = "ring A = Q[u] degrees {u:2}\nring B = Q[x]\nmap f : A -> B { u = x^2 }\n"


@pytest.mark.parametrize("text, message", [
    pytest.param("ring C = Q[x,y]/(x*y)\next C ideal (x) omega canonical\n",
                 "canonical_module needs a regular ambient ring (empty ideal)",
                 id="canonical-module-over-a-quotient"),
    pytest.param(_MAP + "dualize-finite f depth 0\n", "depth must be >= 1",
                 id="finite-shriek-depth"),
    pytest.param("ring C = Q[x,y]/(x*y)\nmodule W over C gens w:(0,0)\n"
                 "ext C ideal (x) omega W\n",
                 "Ext needs a regular ambient ring (empty ideal)", id="ext-over-a-quotient"),
    pytest.param(_R + "ext R ideal (x) omega canonical max -1\n",
                 "the largest Ext index must be >= 0", id="ext-negative-index"),
    pytest.param(_R + "module W over R gens a:(0,0), b:(0,0)\n"
                 "dualize-lci R seq (x) omega W\n",
                 "omega must be free of rank one", id="lci-omega-rank"),
    pytest.param(_R + "dualize-lci R seq (x*y, x^2) omega canonical\n",
                 "sequence is not regular: Koszul H_1 is nonzero", id="lci-not-regular"),
    pytest.param("ring A = Q[u] group 2 weights {u:1}\n"
                 "ring B = Q[x] group 2 weights {x:1}\n"
                 "map g : A -> B { u = x }\ncheck pushforward g B A bound 3\n",
                 "image of u has nonzero weight", id="pushforward-weight"),
    pytest.param(_R + "compare M M bound -1\n", "zmax must be >= 0",
                 id="compare-negative-bound"),
    pytest.param(_R + "koszul R seq (x + y^2)\n",
                 "Koszul entry y^2 + x is not bihomogeneous", id="koszul-inhomogeneous"),
    pytest.param("ring T = Q[t] degrees {t:0}\nmodule M over T gens e:(0,0)\n"
                 "hilbert M max 3\n",
                 "Hilbert enumeration needs all variable degrees >= 1",
                 id="hilbert-degree-zero"),
    pytest.param(_R + "hilbert M max -1\n", "zmax must be >= 0",
                 id="hilbert-negative-bound"),
    pytest.param(_R + "ext R ideal (x + y^2) omega canonical\n",
                 "ideal generator y^2 + x is not bihomogeneous", id="ext-inhomogeneous-ideal"),
    pytest.param(_R + "check gorenstein R ideal (x + y^2)\n",
                 "ideal generator y^2 + x is not bihomogeneous",
                 id="gorenstein-inhomogeneous-ideal"),
    pytest.param(_R + _S + "hom M N\n", "hom across different rings", id="hom-rings"),
    pytest.param(_R + _S + "compare M N bound 3\n",
                 "cannot compare modules over different rings", id="compare-rings"),
    pytest.param(_R + _S + "ext R ideal (x) omega N\n",
                 "omega must live over the ambient ring", id="ext-omega-ring"),
    pytest.param(_MAP + _S + "dualize-finite f omega N depth 2\n",
                 "module is not over the morphism source", id="finite-omega-ring"),
    pytest.param(_MAP + "check pushforward f A A bound 3\n",
                 "omega_B must live over the map's target ring", id="pushforward-omega-b"),
    pytest.param(_MAP + "check pushforward f B B bound 3\n",
                 "omega_A must live over the map's source ring", id="pushforward-omega-a"),
])
def test_input_error_exits_2_with_its_message(capsys, tmp_path, text, message):
    session = tmp_path / "input.sdl"
    session.write_text(text)
    json_path = tmp_path / "input.json"
    code, out, err = run_cli(["run", str(session), "--json", str(json_path)], capsys)
    assert code == 2
    assert f"\nerror: {message}\n" in out and "Traceback" not in out + err
    doc = json.loads(json_path.read_text())
    assert doc["partial"] is True and doc["error"] == message


def test_bound_flag_overrides_bounds_and_leaves_ext_max_alone(capsys, tmp_path):
    session = tmp_path / "bounds.sdl"
    session.write_text("ring P = Q[x,y]\nhilbert P max 6\n"
                       "ext P ideal (x) omega canonical max 1\n")
    json_path = tmp_path / "bounds.json"
    for flags, zmax in (([], 6), (["--bound", "3"], 3)):
        code, _, _ = run_cli(["run", str(session), "--json", str(json_path), *flags],
                             capsys)
        assert code == 0
        hilbert, ext = json.loads(json_path.read_text())["commands"]
        assert hilbert["inputs"] == "hilbert P max 6"
        assert max(row["zdeg"] for row in hilbert["result"]["table"]) == zmax
        assert ext["inputs"] == "ext P ideal (x) omega canonical max 1"
        assert [e["i"] for e in ext["result"]["ext"]] == [0, 1]


def test_unit_image_of_a_degree_zero_variable_is_not_module_finite(capsys, tmp_path):
    # u acts as 1, and Q[x] is not finitely generated over Q[u]
    session = tmp_path / "unit.sdl"
    session.write_text("ring A = Q[u] degrees {u:0}\nring B = Q[x]\n"
                       "map f : A -> B { u = 1 }\ndualize-finite f depth 2\n")
    code, out, err = run_cli(["run", str(session)], capsys)
    assert code == 2 and out == ""
    assert err.startswith(
        "error: 3:5: f: target is not module-finite over the source images\n")


def test_every_preset_parses_and_lists_expectations():
    for name, _desc, expect in list_presets():
        text = preset_session(name)
        ast = parse_session(text)
        assert ast.commands(), name
        assert expect


def test_repeated_ring_variable_exits_2(capsys, tmp_path):
    session = tmp_path / "repeat.sdl"
    session.write_text("ring R = Q[x,x]\n")
    code, out, err = run_cli(["run", str(session)], capsys)
    assert code == 2
    assert err == "error: 1:14: duplicate variable 'x'\n" and out == ""


def test_depth_flag_overrides_every_duality_command(capsys, tmp_path):
    lci = ("ring C = Q[x,y,z] degrees {x:1, y:4, z:6}\n"
           "dualize-lci C seq (z*x^2 - y^2) omega canonical depth 2\n")
    finite = preset_session("node", a=3).replace("depth 4", "depth 2")
    for text in (lci, finite):
        session = tmp_path / "duality.sdl"
        session.write_text(text)
        json_path = tmp_path / "duality.json"
        code, out, _ = run_cli(["run", str(session), "--depth", "5",
                                "--json", str(json_path)], capsys)
        assert code == 0
        [command] = json.loads(json_path.read_text())["commands"]
        assert command["result"]["depth"] == 5
        assert "checked to depth 5" in out


def test_parse_time_arithmetic_obeys_the_term_cap(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("STACKDUAL_MAX_TERMS", "50")
    session = tmp_path / "big.sdl"
    session.write_text("ring S = Q[x]\nring R = Q[x,y]/((x+y)^300)\n")
    code, out, err = run_cli(["run", str(session)], capsys)
    assert code == 2
    assert err == "error: 2:1: polynomial exceeds 50 terms\n" and out == ""
    monkeypatch.setenv("STACKDUAL_MAX_TERMS", "301")
    code, _, _ = run_cli(["run", str(session)], capsys)
    assert code == 0


def test_term_cap_bounds_the_module_vectors(capsys, monkeypatch):
    # no polynomial product of this preset has more than 2 terms, but the
    # module vectors of its Groebner bases have 6; a cap below its Ext max
    # of 3 would stop the command before any work
    for cap in ("3", "5"):
        monkeypatch.setenv("STACKDUAL_MAX_TERMS", cap)
        code, out, _ = run_cli(["preset", "triple-point"], capsys)
        assert code == 3
        assert f"module vector exceeds {cap} terms" in out


def run_finite_map(capsys, tmp_path, rings, images):
    session = tmp_path / "finite.sdl"
    session.write_text(f"{rings}\nmap f : A -> B {{ {images} }}\n"
                       "dualize-finite f depth 2\n")
    return run_cli(["run", str(session)], capsys)


def test_weighted_target_map_is_read_over_the_graded_staircase(capsys, tmp_path):
    # B = Q[x,y] is free over A on 1 and x; the staircase of the graph
    # basis must agree with its coordinates although deg x != deg y
    code, out, _ = run_finite_map(
        capsys, tmp_path,
        "ring A = Q[u,v] degrees {u:2, v:3}\nring B = Q[x,y] degrees {x:1, y:3}",
        "u = x^2, v = y - x^3")
    assert code == 0
    assert "free of rank one: O(1)" in out


@pytest.mark.parametrize("rings, image, expected", [
    ("ring A = Q[u]/(u) degrees {u:2}\nring B = Q[x]/(x^2)", "u = x^2",
     ("free of rank one: O(1)",)),
    ("ring A = Q[u] degrees {u:2}\nring B = Q[x]/(x^2)", "u = x^2",
     ("module: <0>", "Ext^1=2 gens", "NOT a sheaf")),
    ("ring A = Q[u] degrees {u:2}\nring B = Q[x]/(1)", "u = 0", ("module: <0>",)),
])
def test_zero_image_is_an_image(capsys, tmp_path, rings, image, expected):
    # an image that reduces to zero is homogeneous of every bidegree
    code, out, _ = run_finite_map(capsys, tmp_path, rings, image)
    assert code == 0
    assert all(text in out for text in expected)


def test_degree_first_pairs_finish_a_basis_that_grows_before_it_reduces(
        capsys, tmp_path, monkeypatch):
    # the graph basis of this map took 47 s when S-pairs were popped by the
    # elimination order alone; by Z-degree first it takes well under a second
    monkeypatch.setenv("STACKDUAL_TIME_LIMIT_S", "10")
    code, out, _ = run_finite_map(
        capsys, tmp_path,
        "ring A = Q[u0,u1] degrees {u0:4, u1:5}\n"
        "ring B = Q[x0,x1]/(3*x0^2*x1^2 + 2*x0*x1^3)",
        "u0 = -3*x0^4, u1 = x0^5 - 4/9*x0*x1^4 - 3*x1^5")
    assert code == 0
    assert "Ext^1=14 gens Ext^2=0" in out


def test_hilbert_table_to_a_large_bound_fits_a_short_cap(capsys, tmp_path, monkeypatch):
    # the table comes from the Hilbert series of the lead ideals, not from
    # enumerating the C(403, 2) monomials of each degree
    monkeypatch.setenv("STACKDUAL_TIME_LIMIT_S", "3")
    session = tmp_path / "hilbert.sdl"
    session.write_text(
        "ring R = Q[x,y,z] group 5 weights {x:1, y:2, z:3}\n"
        "module M over R gens e1:(0,0), e2:(1,1) rels x^3*e1, y*z*e2\n"
        "hilbert M max 400\n")
    json_path = tmp_path / "hilbert.json"
    code, _, _ = run_cli(["run", str(session), "--json", str(json_path)], capsys)
    assert code == 0
    table = json.loads(json_path.read_text())["commands"][0]["result"]["table"]
    # degree 400: 401 + 400 + 399 monomials of R/(x^3), 2 * 400 - 1 of R/(yz)
    assert sum(row["dim"] for row in table if row["zdeg"] == 400) == 1999


def test_the_term_cap_message_names_the_word_the_session_wrote(capsys, tmp_path):
    # hilbert stores its `max` under the option `bound`, so that --bound
    # overrides it; the message still says `max`
    session = tmp_path / "huge.sdl"
    session.write_text("ring R = Q[x,y]\nmodule M over R gens e:(0,0) rels x*e\n"
                       "hilbert M max 100000000\n")
    json_path = tmp_path / "huge.json"
    code, out, _ = run_cli(["run", str(session), "--json", str(json_path)], capsys)
    assert code == 3
    assert f"aborted: max 100000000 exceeds {caps.DEFAULT_MAX_TERMS} terms" in out
    assert json.loads(json_path.read_text())["error"] == "resource-cap"


@pytest.mark.parametrize("command", ["hilbert M max 5", "invariants M bound 5",
                                     "compare M M bound 5"])
def test_a_hilbert_table_past_the_term_cap_exits_3(command, capsys, tmp_path):
    # `max 5` passes the option check, but a generator of zdeg -200000
    # puts 200,006 degrees into the table
    session = tmp_path / "low.sdl"
    session.write_text("ring R = Q[x,y]\n"
                       "module M over R gens e1:(-200000,0) rels x*e1\n"
                       f"{command}\n")
    started = time.monotonic()
    code, out, err = run_cli(["run", str(session)], capsys)
    assert time.monotonic() - started < 3
    assert code == 3 and "Traceback" not in out + err
    aborted = [line for line in out.splitlines() if line.startswith("aborted:")]
    assert aborted == ["aborted: Hilbert table from zdeg -200000 to 5 exceeds "
                       f"{caps.DEFAULT_MAX_TERMS} terms"]


def test_a_hilbert_table_of_exactly_the_term_cap_runs(monkeypatch):
    from stackdual.gmodule import hilbert_function, invariant_part
    ast = parse_session("ring R = Q[x,y]\n"
                        "module M over R gens e1:(-5,0), e2:(9,0) rels x*e1\n")
    M = ast.modules["M"]
    monkeypatch.setenv("STACKDUAL_MAX_TERMS", "10")   # zdeg -5..4
    with caps.command_caps():
        assert hilbert_function(M, 4)[(4, 0)] == 1
        assert invariant_part(M, 4)[0][4] == 1
    monkeypatch.setenv("STACKDUAL_MAX_TERMS", "9")
    for table in (hilbert_function, invariant_part):
        with caps.command_caps(), pytest.raises(caps.ResourceCapError):
            table(M, 4)


_HUGE = 3_000_000_000


def test_exponents_past_32_bits_fit_the_packed_keys(capsys, tmp_path):
    f = f"x^{_HUGE} - y^{_HUGE}"
    session = tmp_path / "huge-exponent.sdl"
    session.write_text(f"ring C = Q[x,y]\nring R = Q[x,y]/({f})\n"
                       f"ext C ideal ({f}) omega canonical max 2\n"
                       f"check gorenstein C ideal ({f})\nhilbert R max 6\n")
    code, out, _ = run_cli(["run", str(session)], capsys)
    assert code == 0
    assert f"Ext^1: <e1:({2 - _HUGE})>" in out and "Gorenstein: True" in out
    assert "(6, 0) -> 7" in out


def test_an_exponent_past_the_packed_range_exits_3(capsys, tmp_path):
    # y = x^(2^62) in R, so reducing the Koszul syzygies multiplies two
    # powers x^(2^62) into x^(2^63), one past the largest packed exponent
    e = 2 ** 62
    session = tmp_path / "overflow.sdl"
    session.write_text(f"ring R = Q[y,x]/(y - x^{e}) degrees {{y:{e}}} order lex\n"
                       "koszul R seq (y, x)\n")
    json_path = tmp_path / "overflow.json"
    code, out, _ = run_cli(["run", str(session), "--json", str(json_path)], capsys)
    assert code == 3
    aborted = [line for line in out.splitlines() if line.startswith("aborted:")]
    assert aborted == ["aborted: a product leaves the 63-bit range of the packed "
                       "monomial key"]
    assert json.loads(json_path.read_text())["error"] == "resource-cap"


def test_a_monomial_past_the_packed_range_is_refused_while_parsing(capsys, tmp_path):
    # x^(2^63) is one past the largest packed exponent: the session text
    # cannot be read, so it is an input error before any command runs
    for order in ("", " order lex"):
        session = tmp_path / "out-of-range.sdl"
        session.write_text(f"ring A = Q[x,y]/(x^{2 ** 63}){order}\nhilbert A max 3\n")
        code, out, err = run_cli(["run", str(session)], capsys)
        assert code == 2 and out == ""
        assert err.splitlines()[0] == ("error: 1:1: a product leaves the 63-bit "
                                       "range of the packed monomial key")
    session.write_text(f"ring A = Q[x,y]/(x^{2 ** 63 - 1})\nhilbert A max 3\n")
    code, out, _ = run_cli(["run", str(session)], capsys)
    assert code == 0 and "(3, 0) -> 4" in out
