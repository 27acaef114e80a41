"""Exit codes under generated sessions: a session that does not parse is
refused as an input error, and no session that parses ends in an internal
error (exit 4).  Every session is small, over at most three variables."""

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, example, given, settings, strategies as st  # noqa: E402

from stackdual.caps import EXIT_INTERNAL_ERROR, InputError  # noqa: E402
from stackdual.dsl import parse_session  # noqa: E402
from stackdual.session import run_session  # noqa: E402

NAMES = ("x", "y", "z")


@st.composite
def monomials(draw, variables):
    exps = [draw(st.integers(0, 2)) for _ in variables]
    factors = [v if e == 1 else f"{v}^{e}" for v, e in zip(variables, exps) if e]
    return "*".join(factors) or "1"


@st.composite
def forms(draw, variables):
    """A small form: one or two terms, zero, or a nonzero constant."""
    kind = draw(st.sampled_from(("term", "binomial", "zero", "constant")))
    if kind == "zero":
        return "0"
    if kind == "constant":
        return str(draw(st.sampled_from((-1, 1, 2))))
    text = draw(monomials(variables))
    if kind == "binomial":
        sign = draw(st.sampled_from(("+", "-")))
        text += f" {sign} {draw(monomials(variables))}"
    return text


def form_list(variables):
    return st.lists(forms(variables), min_size=1, max_size=3).map(", ".join)


@st.composite
def sessions(draw):
    variables = NAMES[:draw(st.integers(1, 3))]
    ring = f"ring R = Q[{','.join(variables)}]"
    if draw(st.booleans()):
        ring += f"/({draw(form_list(variables))})"
    group = draw(st.sampled_from((1, 1, 2, 3)))
    if group > 1:
        ring += f" group {group}"
        weights = ", ".join(f"{v}:{draw(st.integers(0, group - 1))}" for v in variables)
        ring += f" weights {{{weights}}}"
    if draw(st.booleans()):
        degrees = ", ".join(f"{v}:{draw(st.integers(0, 2))}" for v in variables)
        ring += f" degrees {{{degrees}}}"
    if draw(st.booleans()):
        ring += " order lex"
    z, w = draw(st.integers(-1, 2)), draw(st.integers(0, group - 1))
    module = f"module M over R gens e:({z},{w})"
    if draw(st.booleans()):
        module += f" rels ({draw(forms(variables))})*e"
    bound = draw(st.integers(0, 5))
    seq, ideal = draw(form_list(variables)), draw(form_list(variables))
    commands = {
        "hom": "hom M R",
        "hilbert": f"hilbert M max {bound}",
        "invariants": f"invariants M bound {bound}",
        "compare": f"compare M R bound {bound}",
        "koszul": f"koszul R seq ({seq})",
        "ext": f"ext R ideal ({ideal}) omega canonical max {min(bound, 3)}",
        "gorenstein": f"check gorenstein R ideal ({ideal}) max {min(bound, 3)}",
        "dualize-lci": f"dualize-lci R seq ({seq}) omega canonical",
    }
    chosen = draw(st.lists(st.sampled_from(sorted(commands)), min_size=1, max_size=3))
    return "\n".join([ring, module, *(commands[c] for c in chosen)]) + "\n"


@settings(derandomize=True, max_examples=200, deadline=None, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(sessions())
@example("ring R = Q[x]\nmodule M over R gens e:(0,0)\n"
         "dualize-lci R seq (0, -1) omega canonical\n")
def test_no_session_exits_4(monkeypatch, text):
    monkeypatch.setenv("STACKDUAL_TIME_LIMIT_S", "0.5")
    try:
        ast = parse_session(text)
    except InputError:  # ParseError included
        return
    report = run_session(ast)
    assert report.exit_code() != EXIT_INTERNAL_ERROR, (text, report.error)
