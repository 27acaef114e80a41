"""Property suites over the preset library plus seeded random instances.

Fifty seeded random small cases exercise the kernel invariants: ring
axioms, leading-term multiplicativity, bidegree additivity, normal-form
idempotence and linearity, reduced-basis uniqueness under permutation,
Koszul exactness for regular sequences, d o d = 0 with bihomogeneous
matrices on every constructed complex, and the incremental span oracle
against a fresh oracle per candidate.
"""

import random
from fractions import Fraction

import pytest

from stackdual.complexes import hom_complex, homology, koszul, resolve
from stackdual.dsl import parse_session
from stackdual.gmodule import (FreeModule, ModulePresentation, hilbert_function,
                               hom_module, minimalize, restrict_along,
                               vector_bidegree)
from stackdual.groebner import (SubmoduleOracle, buchberger,
                                minimal_generating_vectors, normal_form,
                                syzygies)
from stackdual.poly import GradedRing

SEED = 20260810
N_INSTANCES = 50


def random_poly(rng, ring, max_terms=3, max_deg=2, homogeneous=False):
    n = ring.nvars
    if homogeneous:
        target = rng.randint(1, max_deg)
    out = ring.zero()
    for _ in range(rng.randint(1, max_terms)):
        while True:
            mono = tuple(rng.randint(0, max_deg) for _ in range(n))
            if not homogeneous or sum(m * d for m, d in zip(mono, ring.zdegs)) == target:
                break
        coeff = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]),
                         rng.choice([1, 1, 2]))
        out = out + ring.monomial(mono, coeff)
    return out


def random_ring(rng):
    nvars = rng.choice([2, 3])
    names = ["x", "y", "z"][:nvars]
    a = rng.choice([1, 2, 3])
    weights = [rng.randrange(a) for _ in range(nvars)]
    return GradedRing(names, weights=weights, group_order=a)


@pytest.fixture(scope="module")
def instances():
    rng = random.Random(SEED)
    out = []
    for _ in range(N_INSTANCES):
        ring = random_ring(rng)
        polys = [random_poly(rng, ring) for _ in range(3)]
        out.append((ring, polys))
    return out


def test_ring_axioms_on_random_instances(instances):
    for ring, (p, q, r) in instances:
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r
        assert p * q == q * p


def test_leading_term_multiplicative(instances):
    for ring, (p, q, _) in instances:
        if p.is_zero() or q.is_zero():
            continue
        mp, cp = p.leading_term()
        mq, cq = q.leading_term()
        mpq, cpq = (p * q).leading_term()
        assert mpq == tuple(a + b for a, b in zip(mp, mq))
        assert cpq == cp * cq


def test_bidegree_additive_on_products(instances):
    rng = random.Random(SEED + 1)
    for ring, _ in instances[:25]:
        p = random_poly(rng, ring, homogeneous=True)
        q = random_poly(rng, ring, homogeneous=True)
        dp, dq = p.bidegree(), q.bidegree()
        if dp is None or dq is None or p.is_zero() or q.is_zero():
            continue
        assert (p * q).bidegree() == dp + dq


def test_normal_form_idempotent_and_linear(instances):
    for ring, polys in instances[:25]:
        gens = [g for g in polys[:2] if not g.is_zero()]
        if not gens:
            continue
        gb = buchberger(gens, ring=ring)
        p, q = polys[1], polys[2]
        nf = lambda r: normal_form(r, gb)
        assert nf(nf(p)) == nf(p)
        assert nf(p + q) == nf(nf(p) + nf(q))


def test_reduced_basis_permutation_invariance(instances):
    rng = random.Random(SEED + 2)
    for ring, polys in instances[:25]:
        gens = [g for g in polys if not g.is_zero()]
        if len(gens) < 2:
            continue
        base = [str(g) for g in buchberger(gens, ring=ring).generators]
        shuffled = gens[:]
        rng.shuffle(shuffled)
        assert [str(g) for g in buchberger(shuffled, ring=ring).generators] == base


def test_syzygies_annihilate_rows(instances):
    for ring, polys in instances[:20]:
        rows = [p for p in polys[:2] if not p.is_zero() and p.bidegree()]
        if not rows:
            continue
        syz = syzygies(rows, ring)
        assert syz.annihilates([(r,) for r in rows])


# -- Koszul exactness over a library of regular sequences -----------------------


def regular_sequence_library():
    lib = []
    qxy = GradedRing(["x", "y"], weights=[1, 1], group_order=2, name="Q2")
    x, y = qxy.var("x"), qxy.var("y")
    lib.append((qxy, [x * y]))
    lib.append((qxy, [x, y]))
    lib.append((qxy, [x ** 2, y ** 2]))
    p146 = GradedRing(["x", "y", "z"], zdegs=[1, 4, 6], name="P146")
    x, y, z = p146.var("x"), p146.var("y"), p146.var("z")
    lib.append((p146, [z * x ** 2 - y ** 2]))
    bal = GradedRing(["t", "u"], zdegs=[0, 0], weights=[1, 1], group_order=3,
                     name="BAL")
    t, u = bal.var("t"), bal.var("u")
    lib.append((bal, [t ** 5 - u ** 2 + t ** 2]))
    c3 = GradedRing(["x", "y", "z"], name="C3")
    x, y, z = c3.var("x"), c3.var("y"), c3.var("z")
    rng = random.Random(SEED + 3)
    found = 0
    while found < 2:
        f = random_poly(rng, c3, max_terms=3, max_deg=2, homogeneous=True)
        g = random_poly(rng, c3, max_terms=3, max_deg=2, homogeneous=True)
        if f.is_zero() or g.is_zero():
            continue
        kc = koszul(c3, [f, g])
        if all(minimalize(homology(kc, i)).rank == 0 for i in (1, 2)):
            lib.append((c3, [f, g]))
            found += 1
    return lib


@pytest.fixture(scope="module")
def sequence_library():
    return regular_sequence_library()


def test_koszul_exactness_for_regular_sequences(sequence_library):
    for ring, seq in sequence_library:
        kc = koszul(ring, seq)
        kc.check_composition()
        for i in range(1, len(seq) + 1):
            assert minimalize(homology(kc, i)).rank == 0
        quotient = ModulePresentation(
            FreeModule(ring, (ring.degree_zero(),)), [(f,) for f in seq])
        h0 = homology(kc, 0)
        if all(d > 0 for d in ring.zdegs):
            assert hilbert_function(h0, 6) == hilbert_function(quotient, 6)


def test_composition_and_homogeneity_of_constructed_complexes(sequence_library):
    for ring, seq in sequence_library[:4]:
        kc = koszul(ring, seq)
        kc.check_composition()
        quotient = ModulePresentation(
            FreeModule(ring, (ring.degree_zero(),)), [(f,) for f in seq])
        res = resolve(quotient, 3)
        res.check_composition()
        hc = hom_complex(res, ModulePresentation.structure(ring))
        hc.check_composition()
        for cc in (kc, res, hc):
            for f in cc.maps.values():
                for j, col in enumerate(f.columns):
                    if any(not p.is_zero() for p in col):
                        assert vector_bidegree(
                            col, f.target.free.bidegrees, ring) is not None


def test_preset_complex_invariants():
    # the node resolution and its Hom complex stay homogeneous and compose
    ast = parse_session("""
ring A = Q[u,v]/(u*v) degrees {u:3, v:3}
ring B = Q[x,y]/(x*y) group 3 weights {x:1, y:2}
map p : A -> B { u = x^3, v = y^3 }
""")
    f = ast.maps["p"]
    ba = restrict_along(f, ModulePresentation.structure(f.target))
    res = resolve(ba, 4)
    res.check_composition()
    hc = hom_complex(res, ModulePresentation.structure(f.weighted_source()))
    hc.check_composition()
    for col in ba.relations:
        assert vector_bidegree(col, ba.free.bidegrees, ba.ring) is not None


def test_hom_from_ring_has_module_table(instances):
    for ring, polys in instances[:6]:
        p = polys[0]
        if p.is_zero() or p.bidegree() is None or any(d <= 0 for d in ring.zdegs):
            continue
        N = ModulePresentation(FreeModule(ring, (ring.degree_zero(),)), [(p,)])
        h = hom_module(ModulePresentation.structure(ring), N)
        assert hilbert_function(h, 6) == hilbert_function(N, 6)


def test_minimalize_preserves_tables(instances):
    rng = random.Random(SEED + 4)
    for ring, polys in instances[:6]:
        p = polys[0]
        if p.is_zero() or p.is_constant() or p.bidegree() is None:
            continue
        d0 = ring.degree_zero()
        M = ModulePresentation(
            FreeModule(ring, (d0, d0)),
            [(ring.one(), ring.constant(-1)), (p, ring.zero())])
        m = minimalize(M)
        assert m.rank == 1
        assert hilbert_function(M, 6) == hilbert_function(m, 6)


# ---------------------------------------------------------------------------
# the incremental span oracle


def random_quotient(rng, ring):
    """The ring modulo a random monomial of degree two (always bihomogeneous)."""
    i, j = rng.randrange(ring.nvars), rng.randrange(ring.nvars)
    mono = tuple((k == i) + (k == j) for k in range(ring.nvars))
    return ring.quotient([ring.monomial(mono)])


def random_form(rng, ring, d):
    """Zero or a sum of one or two terms of Z-degree d (all degrees one)."""
    out = ring.zero()
    for _ in range(rng.choice([0, 1, 1, 2])):
        mono = [0] * ring.nvars
        for _ in range(d):
            mono[rng.randrange(ring.nvars)] += 1
        out = out + ring.monomial(tuple(mono), rng.choice([-2, -1, 1, 3]))
    return out


def span_instances(count, seed):
    """(ring, candidates, context, rank) with Z-homogeneous vectors;
    candidates include multiples and sums of earlier ones, so the greedy
    loop has something to drop."""
    rng = random.Random(seed)
    out = []
    for n in range(count):
        ring = random_ring(rng)
        if n % 2:
            ring = random_quotient(rng, ring)
        rank = rng.choice([1, 2])

        def vec():
            d = rng.choice([1, 2])
            return tuple(random_form(rng, ring, d) for _ in range(rank))

        cands = [vec() for _ in range(4)]
        for _ in range(3):
            u, v = rng.sample(cands, 2)
            g = ring.var(rng.randrange(ring.nvars))
            cands.append(tuple(a * g + b for a, b in zip(u, v)))
        cands.append(tuple(ring.zero() for _ in range(rank)))
        cands.append(cands[0])
        rng.shuffle(cands)
        context = [vec() for _ in range(rng.choice([0, 1, 2]))]
        out.append((ring, cands, context, rank))
    return out


def fresh_oracle_greedy(ring, vectors, rank, context):
    """Reference: one new oracle over kept + context per candidate."""
    def zdeg_of(v):
        return min((min(ring.monomial_bidegree(m).zdeg for m in p.terms)
                    for p in v if not p.is_zero()), default=0)

    order = sorted(range(len(vectors)),
                   key=lambda i: (zdeg_of(vectors[i]), tuple(str(p) for p in vectors[i])))
    kept = []
    for i in order:
        if all(p.is_zero() for p in vectors[i]):
            continue
        oracle = SubmoduleOracle(ring, [vectors[k] for k in kept] + list(context), rank)
        if not oracle.contains(vectors[i]):
            kept.append(i)
    return kept


def test_minimal_generating_vectors_matches_fresh_oracle_greedy():
    instances = span_instances(40, SEED + 7)
    assert any(ring.ideal for ring, *_ in instances)
    dropped = 0
    for ring, cands, context, rank in instances:
        kept = minimal_generating_vectors(ring, cands, rank, context=context)
        assert kept == fresh_oracle_greedy(ring, cands, rank, context)
        dropped += len(cands) - len(kept)
    assert dropped > 0


def test_oracle_lift_after_extends():
    rng = random.Random(SEED + 8)
    for ring, cands, context, rank in span_instances(20, SEED + 9):
        oracle = SubmoduleOracle(ring, context, rank)
        for v in cands:           # some of these are already in the span
            oracle.extend(v)
        gens = list(context) + cands
        assert oracle.ngens == len(gens)
        for _ in range(3):
            coeffs = [random_poly(rng, ring, max_terms=1, max_deg=1)
                      if rng.random() < 0.5 else ring.zero() for _ in gens]
            target = tuple(sum((c * g[t] for c, g in zip(coeffs, gens)), ring.zero())
                           for t in range(rank))
            coords = oracle.lift(target)
            assert coords is not None and len(coords) == len(gens)
            for t in range(rank):
                back = sum((c * g[t] for c, g in zip(coords, gens)), ring.zero())
                assert ring.reduce(back - target[t]).is_zero()
