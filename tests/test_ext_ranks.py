"""Ext ranks read off generator counts against full presentations.

`homology_rank` counts the generators `subquotient` keeps, without
presenting the module, whenever every variable has positive Z-degree;
`cm_gorenstein_check` and the Ext^{i>=1} profile of `finite_shriek` read
their ranks from it.  These tests hold the count to the rank of the full
presentation, on rings with and without a variable of Z-degree 0 (which
takes the presenting fallback), and check that `check gorenstein` no
longer presents any Ext module.
"""

import traceback
from fractions import Fraction
from itertools import product

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from stackdual import duality, gmodule
from stackdual.complexes import hom_complex, homology, homology_rank, koszul, resolve
from stackdual.dsl import parse_session
from stackdual.duality import canonical_module, cm_gorenstein_check, ext_dualizing
from stackdual.gmodule import ModulePresentation, subquotient_generators
from stackdual.session import run_session

RINGS = {
    name: parse_session(decl).rings[name] for name, decl in (
        ("P", "ring P = Q[x,y,z]"),
        ("W", "ring W = Q[x,y,z] group 3 weights {x:1, y:1, z:1}"),
        ("Q", "ring Q = Q[x,y,z]/(x*y*z)"),
        # z has degree 0: the ranks come from full presentations
        ("D", "ring D = Q[x,y,z] degrees {z:0}"),
    )
}
AMBIENT = ("P", "W", "D")
COEFFS = st.sampled_from([1, -1, 2, -3, Fraction(1, 2)])


def _monomials(ring, zdeg):
    """Monomials of total exponent at most 3 and Z-degree `zdeg`."""
    return [m for m in product(range(4), repeat=ring.nvars)
            if sum(m) <= 3 and ring.monomial_bidegree(m).zdeg == zdeg]


@st.composite
def forms(draw, ring):
    """A nonzero bihomogeneous form of Z-degree 1, 2 or 3, reduced into the ring."""
    while True:
        zdeg = draw(st.integers(1, 3))
        chosen = draw(st.lists(st.sampled_from(_monomials(ring, zdeg)),
                               min_size=1, max_size=3, unique=True))
        weights = {ring.monomial_bidegree(m).weight for m in chosen}
        p = ring.reduce(sum((ring.monomial(m, draw(COEFFS)) for m in chosen),
                            ring.zero()))
        if len(weights) == 1 and not p.is_zero():
            return p


@st.composite
def ideals(draw):
    ring = RINGS[draw(st.sampled_from(AMBIENT))]
    return ring, draw(st.lists(forms(ring), min_size=1, max_size=3))


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(ideals())
def test_cm_profile_is_the_rank_profile_of_ext(problem):
    C, gens = problem
    want = {i: m.rank for i, m in ext_dualizing(C, gens, canonical_module(C), 3)}
    assert cm_gorenstein_check(C, gens, 3).ext_profile == want


@st.composite
def complexes(draw):
    """A Koszul complex on 1-3 forms, or the Hom complex of a resolution of
    their quotient into the ring or into the quotient by another form."""
    ring = RINGS[draw(st.sampled_from(sorted(RINGS)))]
    seq = draw(st.lists(forms(ring), min_size=1, max_size=3))
    if draw(st.booleans()):
        return koszul(ring, seq)
    quotient = ModulePresentation(ring, (ring.degree_zero(),), [{0: g} for g in seq])
    target = ModulePresentation.structure(ring)
    if draw(st.booleans()):
        target = ModulePresentation(ring, (ring.degree_zero(),), [{0: draw(forms(ring))}])
    return hom_complex(resolve(quotient, 3), target)


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(complexes())
def test_homology_rank_is_the_rank_of_the_presented_homology(C):
    for i in range(C.length + 1):
        assert homology_rank(C, i) == homology(C, i).rank


def test_a_degree_zero_variable_takes_the_presenting_fallback(monkeypatch):
    """Over Q[x,y,z] with z of Z-degree 0 the greedy count is only an upper
    bound: for I = (z^2 - z, x^2 - y^2*z, x^2*z - x^2) it keeps two
    generators of Ext^2, which one generator spans.  `homology_rank`
    presents H^2, and `cm_gorenstein_check` presents every Ext over B."""
    C = RINGS["D"]
    x, y, z = C.var("x"), C.var("y"), C.var("z")
    gens = [z * z - z, x * x - y * y * z, x * x * z - x * x]
    quotient = ModulePresentation(C, (C.degree_zero(),), [{0: g} for g in gens])
    hc = hom_complex(resolve(quotient, 4), canonical_module(C))
    assert hc.length == 2
    units = [{j: C.one()} for j in range(hc.terms[2].rank)]
    kept, _ = subquotient_generators(units, hc.map_into(2).columns, hc.terms[2])
    assert len(kept) == 2
    assert homology_rank(hc, 2) == homology(hc, 2).rank == 1
    presented = []
    monkeypatch.setattr(duality, "ext_dualizing",
                        lambda *args: presented.append(args) or ext_dualizing(*args))
    rep = cm_gorenstein_check(C, gens, 3)
    profile = {0: 0, 1: 0, 2: 1, 3: 0}
    assert rep.ext_profile == profile and rep.gorenstein and len(presented) == 1


TRIPLE_POINT = ("ring C = Q[u,v,t] group 5 weights {u:2, v:2, t:2}\n",
                " C ideal (u*v - t^2, u*t - v^2, v*t - u^2)")


def _minimalize_callers(monkeypatch, command, omega=""):
    """The call stacks of every `minimalize_with_tracking` call in one
    session on the triple point, as lists of function names."""
    calls = []
    original = gmodule.minimalize_with_tracking

    def counted(M):
        calls.append([frame.name for frame in traceback.extract_stack()])
        return original(M)

    monkeypatch.setattr(gmodule, "minimalize_with_tracking", counted)
    ring, ideal = TRIPLE_POINT
    text = f"{ring}{command}{ideal}{omega} max 3\n"
    assert run_session(parse_session(text)).exit_code() == 0
    return calls


def test_check_gorenstein_presents_no_ext_module(monkeypatch):
    """Only `resolve`'s opening `minimalize` of C/I is left; `ext`, which
    prints the modules, still presents them."""
    calls = _minimalize_callers(monkeypatch, "check gorenstein")
    assert len(calls) == 1 and "resolve" in calls[0]
    calls = _minimalize_callers(monkeypatch, "ext", omega=" omega canonical")
    assert len(calls) > 1
