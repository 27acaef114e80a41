"""The minimality kernels against their rescanning references.

`minimalize_with_tracking` eliminates unit entries in one pass and
renumbers once; `reference_minimalize_with_tracking` rescans and
renumbers after every pivot.  `column_order_key` must sort exactly as
`printed_column`, and `SubmoduleOracle.syzygies`, which skips the inputs
that reduce by themselves, must equal `reference_syzygies`, which
expresses every input.
"""

from fractions import Fraction
from itertools import product

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from oracles import (parse_polynomial, reference_minimalize_with_tracking,
                     reference_syzygies)
from stackdual.dsl import parse_session
from stackdual.gmodule import ModulePresentation, minimalize_with_tracking
from stackdual.groebner import SubmoduleOracle, column_order_key, printed_column
from stackdual.poly import Bidegree

RINGS = {
    name: parse_session(decl).rings[name] for name, decl in (
        ("R", "ring R = Q[x,y]"),
        ("N", "ring N = Q[x,y]/(x*y)"),
        # t has degree 0, so minimalize also runs its non-positive branch
        ("C", "ring C = Q[t,u] degrees {t:0, u:1}"),
    )
}
COEFFS = st.sampled_from([1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3)])


def _monomials(ring, zdeg):
    """Monomials of total exponent at most 3 and Z-degree `zdeg`."""
    return [m for m in product(range(4), repeat=ring.nvars)
            if sum(m) <= 3 and ring.monomial_bidegree(m).zdeg == zdeg]


@st.composite
def forms(draw, ring, zdeg):
    """A nonzero form of Z-degree `zdeg`, or zero when there is none."""
    monos = _monomials(ring, zdeg)
    if not monos:
        return ring.zero()
    chosen = draw(st.lists(st.sampled_from(monos), min_size=1, max_size=2,
                           unique=True))
    return sum((ring.monomial(m, draw(COEFFS)) for m in chosen), ring.zero())


@st.composite
def presentations(draw):
    """Homogeneous presentations whose columns often hold several unit
    entries: generators sit in Z-degrees 0 and 1, relations in 1 and 2."""
    ring = RINGS[draw(st.sampled_from(sorted(RINGS)))]
    zdegs = draw(st.lists(st.integers(0, 1), min_size=2, max_size=5))
    gens = [Bidegree(z, 0) for z in zdegs]
    cols = []
    for _ in range(draw(st.integers(0, 6))):
        target = draw(st.integers(1, 2))
        cols.append({k: draw(forms(ring, target - z)) for k, z in enumerate(zdegs)
                     if draw(st.booleans())})
    return ModulePresentation(ring, gens, cols)


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(presentations())
def test_one_pass_elimination_matches_the_rescanning_loop(M):
    got, origin = minimalize_with_tracking(M)
    want, want_origin = reference_minimalize_with_tracking(M)
    assert str(got) == str(want)
    assert origin == want_origin


def test_the_non_positive_branch_drops_a_generator_the_relations_span():
    # t*e1 and (1 - t)*e1 hold no unit entry, but they span e1
    C = RINGS["C"]
    t = C.var("t")
    M = ModulePresentation(C, [Bidegree(0, 0), Bidegree(1, 0)],
                           [{0: t}, {0: 1 - t}, {1: C.var("u")}])
    for minimal in (minimalize_with_tracking, reference_minimalize_with_tracking):
        got, origin = minimal(M)
        assert str(got) == "<e1:(1)> / ((u)*e1)" and origin == (1,)


# entries that print before "0" (a sign), after it (a digit or a letter),
# and that share a first character
ENTRIES = [parse_polynomial(p, RINGS["R"]) for p in (
    "x", "-x", "y", "-2/3*x*y", "x*y + 1", "x - y", "1", "-1", "2/3", "-5",
    "y^2", "-y^2 + x")]


@st.composite
def columns(draw, rank):
    positions = draw(st.sets(st.sampled_from(range(rank))))
    return {k: draw(st.sampled_from(ENTRIES)) for k in sorted(positions)}


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(st.lists(columns(4), min_size=2, max_size=8))
def test_the_sparse_key_orders_columns_as_their_printed_forms(cols):
    rank = 4
    for a, b in product(cols, repeat=2):
        pa, pb = printed_column(a, rank), printed_column(b, rank)
        ka, kb = column_order_key(a), column_order_key(b)
        assert (ka < kb, ka == kb) == (pa < pb, pa == pb)
    assert (sorted(cols, key=column_order_key)
            == sorted(cols, key=lambda c: printed_column(c, rank)))


@st.composite
def syzygy_problems(draw):
    """(ring, generators, heads, rank): Z-homogeneous columns with repeats,
    multiples and zeros among them, so some inputs reduce by themselves and
    some do not."""
    ring = RINGS[draw(st.sampled_from(["R", "N"]))]
    rank = draw(st.integers(1, 2))
    vectors = []
    for _ in range(draw(st.integers(1, 5))):
        z = draw(st.integers(1, 2))
        vectors.append({k: draw(forms(ring, z)) for k in range(rank)})
    for _ in range(draw(st.integers(0, 2))):
        v = draw(st.sampled_from(vectors))
        g = ring.var(draw(st.integers(0, ring.nvars - 1)))
        vectors.append({k: p * g for k, p in v.items()})
    vectors.append(draw(st.sampled_from(vectors + [{}])))
    cols = [{k: p for k, p in v.items() if not p.is_zero()} for v in vectors]
    heads = draw(st.integers(1, len(cols)))
    return ring, cols, heads, rank


@settings(derandomize=True, max_examples=120, deadline=None, database=None)
@given(syzygy_problems())
def test_syzygies_equal_the_extraction_that_expresses_every_input(problem):
    ring, cols, heads, rank = problem
    oracle = SubmoduleOracle(ring, cols, rank, liftable=True)
    assert oracle.syzygies(heads) == reference_syzygies(oracle, heads)
