"""Ext past the first exact repeat of a resolution.

`finite_shriek` computes Ext^i only up to the end of the first period of
the A-resolution of B and copies the later entries from one period
earlier.  A property test over seeded orbifold nodes checks the copies
against a run three periods longer, and the module against the hand-derived
Hom oracle of `tests/oracles.py`.
"""

from math import gcd

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from oracles import node_hom_oracle
from stackdual.complexes import resolve
from stackdual.dsl import parse_session
from stackdual.duality import finite_shriek
from stackdual.gmodule import hilbert_function, restrict_along
from stackdual.presets import preset_session


@st.composite
def node_weights(draw):
    a = draw(st.sampled_from([5, 7, 11]))
    return a, draw(st.integers(1, a - 1)), draw(st.integers(1, a - 1))


@settings(derandomize=True, max_examples=8, deadline=None, database=None)
@given(node_weights(), st.integers(0, 2))
def test_ext_past_the_repeat_matches_a_longer_run_and_the_hom_oracle(weights, past):
    a, i, j = weights
    f = parse_session(preset_session("node", a=a, i=i, j=j)).maps["p"]
    k, p = resolve(restrict_along(f), 12).repeat
    depth = k + p + past
    short, longer = finite_shriek(f, depth=depth), finite_shriek(f, depth=depth + 3 * p)
    assert all(short.ext_profile[n] == longer.ext_profile[n]
               for n in range(1, depth + 1))
    assert str(short.module) == str(longer.module)
    alpha, beta = a // gcd(i, a), a // gcd(j, a)
    oracle = {key: n for key, n in node_hom_oracle(a, i, j, alpha, beta, 7).items()
              if key[0] >= 0}
    assert hilbert_function(longer.module, 7) == oracle
