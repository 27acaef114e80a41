"""Duality recipes: twisted inverse images along finite maps, Ext dualizing
modules, the complete-intersection formula, canonical modules, CM and
Gorenstein verdicts, pushforward checks, and desk-scale module comparison.

Weight bookkeeping follows one convention throughout: a map sending a
generator of bidegree d to an element of bidegree e has bidegree e - d, so
dual generators carry negated weights.  Reports print weights both as
residues and as signed powers of the group character.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from .caps import InputError, check_deadline
from .complexes import (ChainComplex, hom_complex, homology, homology_rank,
                        homology_with_inclusion, koszul, resolve)
from .gmodule import (ModulePresentation, RingMorphism, apply_columns,
                      hilbert_function, minimalize, precompose_columns,
                      restrict_along)
from .groebner import Column, liftable_oracle
from .poly import Bidegree, GradedRing, Polynomial, RingMismatchError

COMPARE_BOUND = 8


# ---------------------------------------------------------------------------
# report types


def _ext_profile_line(profile: dict[int, int]) -> str:
    return " ".join(f"Ext^{i}={f'{n} gens' if n else '0'}"
                    for i, n in sorted(profile.items()))


@dataclass
class DualityReport:
    description: str
    module: ModulePresentation
    depth: int
    is_sheaf: Optional[bool]
    ext_profile: dict[int, int] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

    @property
    def generator_bidegrees(self) -> tuple[Bidegree, ...]:
        return self.module.bidegrees

    @property
    def is_free_rank_one(self) -> bool:
        return self.module.rank == 1 and not self.module.relations

    @property
    def fiber_representation(self) -> tuple[int, ...]:
        """Weight residues of the minimal generators."""
        return tuple(d.weight for d in self.generator_bidegrees)

    def twist_label(self) -> Optional[str]:
        """O(-n) when the module is free of rank one at Z-degree n."""
        if not self.is_free_rank_one:
            return None
        d = self.generator_bidegrees[0]
        return f"O({-d.zdeg})"

    def summary_lines(self) -> list[str]:
        lines = [f"module: {self.module}"]
        if self.is_free_rank_one:
            d = self.generator_bidegrees[0]
            lines.append(f"free of rank one: {self.twist_label()}, "
                         f"generator at {d}")
        else:
            lines.append(f"minimal generators: {len(self.generator_bidegrees)}")
        fib = ", ".join(
            f"weight {d.weight} mod {d.modulus} ({d.lambda_exponent()})"
            for d in self.generator_bidegrees)
        lines.append(f"fiber representation at the origin: {fib}")
        if self.ext_profile:
            lines.append(_ext_profile_line(self.ext_profile))
        if self.is_sheaf is not None:
            verdict = "a sheaf" if self.is_sheaf else "NOT a sheaf"
            lines.append(f"dualizing complex is {verdict} (checked to depth {self.depth})")
        lines.extend(self.notes)
        return lines


@dataclass
class CMReport:
    codimension: Optional[int]
    ext_profile: dict[int, int]
    cohen_macaulay: bool
    gorenstein: bool
    inconclusive: bool = False
    notes: list[str] = field(default_factory=list)

    def summary_lines(self) -> list[str]:
        lines = [f"codimension: {self.codimension}",
                 _ext_profile_line(self.ext_profile),
                 f"Cohen-Macaulay: {self.cohen_macaulay}",
                 f"Gorenstein: {self.gorenstein}"]
        if self.inconclusive:
            lines.append("verdict INCONCLUSIVE")
        lines.extend(self.notes)
        return lines


# ---------------------------------------------------------------------------
# helpers


def canonical_module(C: GradedRing) -> ModulePresentation:
    """Canonical module of a regular ambient ring: the top wedge of the
    differentials, free of rank one at the sum of the variable bidegrees."""
    if C.ideal:
        raise InputError("canonical_module needs a regular ambient ring (empty ideal)")
    total = C.degree_zero()
    for i in range(C.nvars):
        total = total + C.variable_bidegree(i)
    return ModulePresentation(C, (total,))


def _ext_ranks(hc: ChainComplex, indices: Iterable[int],
               repeat: tuple[int, int] | None = None) -> dict[int, int]:
    """{i: rank of H^i} of a Hom complex for ascending indices, read by
    `homology_rank`.  Past a repeat (k, p) of the resolution under it, where
    the stored complex ends at k + p, H^i is H^{i-p} shifted for i >= k + p,
    so its rank is copied from p steps earlier; otherwise H^i vanishes past
    `hc.length`."""
    k, p = repeat or (0, 0)
    ranks: dict[int, int] = {}
    for i in indices:
        check_deadline()
        if repeat and i >= k + p:
            ranks[i] = ranks[i - p]
        elif i > hc.length:
            ranks[i] = 0
        else:
            ranks[i] = homology_rank(hc, i)
    return ranks


# ---------------------------------------------------------------------------
# finite duality


def finite_shriek(f: RingMorphism, M: ModulePresentation | None = None, *,
                  depth: int) -> DualityReport:
    """Twisted inverse image along a finite map: Hom_A(B, M) with its
    B-module structure, plus Ext^i_A(B, M) for i = 1..depth.

    B is presented over A by `restrict_along`: the staircase monomials b_k
    and the relations both come from the graph basis G.  The Hom is
    computed from the start of a minimal A-resolution of B, which `resolve`
    ends at its first repeat: Ext is computed up to there, and its later
    ranks are copied from one period earlier.  Only the ranks of the
    Ext^i with i >= 1 are reported, so they come from `homology_rank`: the
    generator count, with no presentation, when every variable of A has
    positive Z-degree.  For Hom = Ext^0 the B-action is
    reconstructed from the coordinates of x * b_k, normal forms modulo G,
    and the result is presented and minimalized over B.
    """
    if depth < 1:
        raise InputError("depth must be >= 1")
    if M is None:
        M = ModulePresentation.structure(f.source)
    m_g = f.transport_module(M)
    ba = restrict_along(f)
    res = resolve(ba, depth + 1)
    if res.terms[0].rank != ba.rank:
        raise RuntimeError("staircase generators failed to stay minimal")
    hc = hom_complex(res, m_g)
    ext_profile = _ext_ranks(hc, range(1, depth + 1), res.repeat)

    h0, incl = homology_with_inclusion(hc, 0)
    module = _hom_as_target_module(f, hc.terms[0], h0, incl, m_g)
    module = minimalize(module)

    is_sheaf = not any(ext_profile.values())
    notes = []
    if res.finite:
        notes.append(f"A-resolution of B is finite (length {res.length})")
    else:
        # a period is named once the truncation reaches length 3
        notes.append(f"A-resolution truncated at depth {depth + 1}"
                     + (f", periodic with period {res.repeat[1]}"
                        if res.repeat and depth >= 2 else ""))
    return DualityReport(
        description=f"finite twisted inverse image along {f.name}",
        module=module, depth=depth, is_sheaf=is_sheaf,
        ext_profile=ext_profile, notes=notes)


def _hom_as_target_module(f: RingMorphism, c0: ModulePresentation,
                          h0: ModulePresentation, incl: Sequence[Column],
                          m_g: ModulePresentation) -> ModulePresentation:
    """Give Hom_A(B, M) its B-module structure ((b.phi)(b') = phi(b b')).

    incl lists the Hom generators as columns over the generators of
    c0 = Hom(F_0, M), laid out as in `hom_free_into`.  x_t acts by
    precomposition with its multiplication map on the staircase F_0.
    """
    ring_a = h0.ring
    ring_b = f.target
    monos, _ = f.module_generators
    ngens = len(incl)
    if ngens == 0:
        return ModulePresentation(ring_b, ())

    # the oracle `subquotient` built for H^0's relations, when it kept every
    # generator it was given
    oracle = liftable_oracle(ring_a, [*incl, *c0.relations], c0.rank)

    # relations of the A-presentation, pushed through the images
    relations: list[Column] = [{pos: f.apply(p) for pos, p in col.items()}
                               for col in h0.relations]

    # linearization: x_t * kappa_i = sum_j a_j kappa_j
    for t in range(ring_b.nvars):
        # x_t * b_k = sum_s c_ks * b_s, read over the weighted source
        mult: list[Column] = []
        for b in monos:
            xb = tuple(e + (i == t) for i, e in enumerate(b))
            mult.append(f.coordinates(xb))
        acting = precompose_columns(mult, len(monos), m_g)
        xt = ring_b.var(t)
        for i, gen in enumerate(incl):
            coords = oracle.lift(apply_columns(ring_a, acting, gen, c0.rank))
            if coords is None:
                raise RuntimeError("B-action left the Hom module")
            col = {j: -f.apply(a) for j, a in coords.items() if j < ngens}
            col[i] = col[i] + xt if i in col else xt
            relations.append(col)

    return ModulePresentation(ring_b, h0.bidegrees, relations)


# ---------------------------------------------------------------------------
# Ext dualizing modules over a regular ambient


def _check_ext_inputs(C: GradedRing, omega: ModulePresentation, imax: int) -> None:
    if C.ideal:
        raise InputError("Ext needs a regular ambient ring (empty ideal)")
    if imax < 0:
        raise InputError("the largest Ext index must be >= 0")
    if omega.ring != C:
        raise RingMismatchError("omega must live over the ambient ring")


def _over(ring_b: GradedRing, h: ModulePresentation) -> ModulePresentation:
    """H^i of a Hom complex over the ambient ring as Ext^i over B: moved to
    B and minimalized there (relations that vanish modulo I drop out)."""
    return minimalize(ModulePresentation(ring_b, h.bidegrees, h.relations))


def _ext_resolution(C: GradedRing, ideal_gens: Sequence[Polynomial],
                    omega: ModulePresentation, imax: int
                    ) -> tuple[GradedRing, ChainComplex]:
    """B = C/I and a minimal resolution of B to length imax + 1.  Ext^i is
    read off its Hom complex into omega for i <= imax, so a resolution that
    stops at a repeat is a fault: over a positively graded polynomial ring
    C it is finite (Hilbert's syzygy theorem)."""
    _check_ext_inputs(C, omega, imax)
    gens = [C.reduce(g) for g in ideal_gens]
    gens = [g for g in gens if not g.is_zero()]
    ring_b = C.quotient(gens, name=f"{C.name}/I") if gens else C
    pres = ModulePresentation(C, (C.degree_zero(),), [{0: g} for g in gens])
    res = resolve(pres, imax + 1)
    if res.repeat:
        raise RuntimeError("a resolution over a regular ambient repeated")
    return ring_b, res


def ext_dualizing(C: GradedRing, ideal_gens: Sequence[Polynomial],
                  omega: ModulePresentation, imax: int
                  ) -> list[tuple[int, ModulePresentation]]:
    """Ext^i_C(C/I, omega) as modules over B = C/I, for i = 0..imax, from
    the Hom complex of a minimal resolution of C/I."""
    ring_b, res = _ext_resolution(C, ideal_gens, omega, imax)
    hc = hom_complex(res, omega)
    return [(i, _over(ring_b, homology(hc, i)) if i <= hc.length
             else ModulePresentation(ring_b, ())) for i in range(imax + 1)]


def lci_dualizing(C: GradedRing, seq: Sequence[Polynomial],
                  omega: ModulePresentation,
                  imax: int | None = None) -> DualityReport:
    """Dualizing module of B = C/(f_1..f_r) by the complete-intersection
    formula omega tensor top-wedge of (I/I^2) dual.

    A sequence that generates the unit ideal is rejected first.  Otherwise,
    over a positively graded C, homogeneous f_1..f_r in the maximal ideal
    are a regular sequence exactly when height (f) = r (C is Cohen-Macaulay;
    Bruns & Herzog, Cor. 2.1.4), that is when dim B = n - r, read off the
    leads of B's basis.  A ring with a variable of Z-degree <= 0, or a
    sequence that fails the height test, takes the Koszul test, which also
    names the failure: K is self-dual, so H^j of Hom(K, omega) is
    H_{r-j}(K) up to a twist, and a nonzero H^j below r, read off its rank,
    means the sequence is not regular.  A regular K resolves B, H^i is
    Ext^i, and the formula is cross-checked against Ext^r whatever `imax`,
    the last index of the printed profile; the other Ext vanish because K
    has length r.
    """
    if omega.rank != 1 or omega.relations:
        raise InputError("omega must be free of rank one")
    seq = [C.reduce(g) for g in seq]
    r = len(seq)
    imax = imax if imax is not None else max(r + 1, 2)
    _check_ext_inputs(C, omega, imax)
    hc = hom_complex(koszul(C, seq), omega)
    ring_b = C.quotient(seq, name=f"{C.name}/I")
    if any(g.is_constant() for g in ring_b.ideal_groebner().generators):
        raise InputError("sequence generates the unit ideal")
    if not (C.positive and _combinatorial_dimension(ring_b) == C.nvars - r):
        below = [j for j, n in _ext_ranks(hc, range(r)).items() if n]
        if below:
            raise InputError(f"sequence is not regular: Koszul H_{r - below[-1]} is nonzero")

    total = C.degree_zero()
    for g in seq:
        total = total + g.bidegree()
    gen_deg = omega.bidegrees[0] - total
    module = ModulePresentation(ring_b, (gen_deg,))

    ext_r = _over(ring_b, homology(hc, r))
    profile = {i: ext_r.rank if i == r else 0 for i in range(imax + 1)}
    verdict = compare_modules(module, ext_r, COMPARE_BOUND)
    notes = [f"cross-check against Ext^{r}: {verdict}"]
    if verdict != "isomorphic-up-to-bound":
        notes.append("CROSS-CHECK FAILED")
    return DualityReport(
        description=f"l.c.i. dualizing module over {ring_b!r}",
        module=module, depth=imax, is_sheaf=True,
        ext_profile=profile, notes=notes)


# ---------------------------------------------------------------------------
# Cohen-Macaulay / Gorenstein verdicts


def _combinatorial_dimension(B: GradedRing) -> int:
    """Krull dimension of B = C/I, read off the cached basis of B: the size
    of a largest set of variables holding the support of no lead of I; -1
    for the unit ideal, whose lead 1 has empty support.

    Such a set misses a variable of every support, so the search drops
    each variable of a smallest support still inside the set in turn, and
    polls the deadline at every step.  It takes one step per variable when
    each support is one variable, as for an m-primary I, where a walk over
    the subsets from the largest down visits 2^n of them."""
    supports = [frozenset(i for i, e in enumerate(lm) if e)
                for lm in B.ideal_groebner().leads]

    def largest(free: frozenset, live: list[frozenset]) -> int:
        check_deadline()
        live = [s for s in live if s <= free]
        if not live:
            return len(free)
        return max(largest(free - {v}, live) for v in min(live, key=len))

    if frozenset() in supports:
        return -1
    return largest(frozenset(range(B.nvars)), supports)


def cm_gorenstein_check(C: GradedRing, ideal_gens: Sequence[Polynomial],
                        imax: int) -> CMReport:
    """Ext profile against the canonical module for i = 0..imax, with the
    codimension taken as the first nonvanishing index and cross-checked
    combinatorially.

    When every variable of C has positive Z-degree, the minimal resolution
    of B = C/I ends within imax, at pd B, and c = n - dim B <= imax, the
    verdict comes from that resolution.  Ext^i_C(B, C) vanishes for
    i < grade I = c (Bruns & Herzog, Thm 1.2.5; grade = height over C) and
    for i > pd, and Ext^pd has beta_pd minimal generators: the dual of the
    last minimal map has its entries in the maximal ideal.  So B is CM
    exactly when pd = c (Auslander-Buchsbaum, Thm 1.3.3), and then the
    profile is Ext^c = beta_c, with no Hom complex built; when pd > c only
    Ext^c..Ext^pd are read.  Otherwise every Ext^i up to imax is read, and
    the verdict says only what those Ext show: a ring that is not CM but
    has one nonvanishing Ext up to imax is still called CM.

    A rank is `homology_rank` of the Hom complex over C.  I annihilates
    Ext^i, so the relations of H^i over C already span I times its
    generators, and the greedy count over C is the count over B.  When
    every variable of C has positive Z-degree that count is minimal and no
    Ext module is presented; otherwise `homology_rank` presents H^i over C
    and reads its rank."""
    omega = canonical_module(C)
    ring_b, res = _ext_resolution(C, ideal_gens, omega, imax)
    dim = _combinatorial_dimension(ring_b) if C.positive and res.finite else None
    if dim is not None and 0 <= dim and C.nvars - dim <= imax:
        c = C.nvars - dim
        profile = dict.fromkeys(range(imax + 1), 0)
        if res.length == c:
            profile[c] = res.terms[c].rank
        else:
            profile.update(_ext_ranks(hom_complex(res, omega), range(c, res.length + 1)))
    else:
        profile = _ext_ranks(hom_complex(res, omega), range(imax + 1))
    nonzero = [i for i, n in profile.items() if n]
    notes: list[str] = []
    if not nonzero:
        return CMReport(None, profile, False, False, inconclusive=True,
                        notes=["every computed Ext vanishes"])
    r = nonzero[0]
    if dim is None:
        dim = _combinatorial_dimension(ring_b)
    codim_by_dim = C.nvars - dim
    inconclusive = False
    if codim_by_dim != r:
        inconclusive = True
        notes.append(f"first nonvanishing Ext index {r} disagrees with "
                     f"combinatorial codimension {codim_by_dim}")
    cm = nonzero == [r] and not inconclusive
    gorenstein = cm and profile[r] == 1
    return CMReport(r, profile, cm, gorenstein, inconclusive, notes)


# ---------------------------------------------------------------------------
# pushforward and comparison


def pushforward_check(f: RingMorphism, omega_b: ModulePresentation,
                      omega_a: ModulePresentation, bound: int
                      ) -> tuple[str, Optional[str]]:
    """Compare the weight-0 Hilbert table of omega_B, its invariant part,
    with the Hilbert table of omega_A degree by degree.  That table sums
    over weights, so it is read over A itself: regrading A by the target
    group changes no Z-dimension.

    Returns ("equal", None) or ("unequal", first-discrepancy description).
    """
    for idx, img in enumerate(f.images):
        # zero is homogeneous of every bidegree, weight 0 included
        if not img.is_zero() and img.bidegree().weight != 0:
            raise InputError(
                f"image of {f.source.variables[idx]} has nonzero weight")
    if omega_b.ring != f.target:
        raise RingMismatchError("omega_B must live over the map's target ring")
    if omega_a.ring != f.source:
        raise RingMismatchError("omega_A must live over the map's source ring")
    dims_b = {z: d for (z, w), d in hilbert_function(omega_b, bound).items()
              if w == 0}
    dims_a: dict[int, int] = {}
    for (z, _w), d in hilbert_function(omega_a, bound).items():
        dims_a[z] = dims_a.get(z, 0) + d
    zmin = min(list(dims_a) + list(dims_b) + [0])
    for z in range(zmin, bound + 1):
        da, db = dims_a.get(z, 0), dims_b.get(z, 0)
        if da != db:
            return ("unequal",
                    f"zdeg {z}: invariants of omega_B have dim {db}, "
                    f"omega_A has dim {da}")
    return ("equal", None)


def compare_modules(M: ModulePresentation, N: ModulePresentation,
                    bound: int) -> str:
    """Desk-scale isomorphism certificate.

    (a) equal minimal-generator bidegree multisets, (b) equal bigraded
    Hilbert tables up to the bound; two relation-free presentations with
    equal generators are isomorphic outright.  Returns one of
    "isomorphic-up-to-bound", "distinct", "inconclusive".  When a variable
    has Z-degree <= 0, Nakayama's lemma fails and the pieces are infinite,
    so neither generator degrees nor Hilbert tables decide: the verdict is
    then "inconclusive" unless both are free on equal generator degrees.
    """
    if bound < 0:
        raise InputError("zmax must be >= 0")
    if M.ring != N.ring:
        raise RingMismatchError("cannot compare modules over different rings")
    m = minimalize(M)
    n = minimalize(N)
    degs_m = sorted((d.zdeg, d.weight) for d in m.bidegrees)
    degs_n = sorted((d.zdeg, d.weight) for d in n.bidegrees)
    if degs_m != degs_n:
        return "distinct" if M.ring.positive else "inconclusive"
    if not m.relations and not n.relations:
        return "isomorphic-up-to-bound"
    if not M.ring.positive:
        return "inconclusive"
    if hilbert_function(m, bound) != hilbert_function(n, bound):
        return "distinct"
    return "isomorphic-up-to-bound"
