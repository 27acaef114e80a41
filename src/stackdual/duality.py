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
from typing import Optional, Sequence

from .complexes import hom_complex, homology, homology_with_inclusion, koszul, resolve
from .gmodule import (FreeModule, ModulePresentation, RingMorphism,
                      hilbert_function, invariant_part, minimalize,
                      minimalize_with_tracking, restrict_along)
from .groebner import SubmoduleOracle, Vector
from .poly import Bidegree, GradedRing, Polynomial, RingMismatchError

DEFAULT_DEPTH = 4
DEFAULT_BOUND = 12
COMPARE_BOUND = 8


# ---------------------------------------------------------------------------
# report types


@dataclass
class DualityReport:
    description: str
    module: ModulePresentation
    depth: int
    is_sheaf: Optional[bool]
    is_free_rank_one: bool
    generator_bidegrees: tuple[Bidegree, ...]
    fiber_representation: tuple[int, ...]   # weight residues of minimal generators
    ext_profile: dict[int, tuple[bool, int]] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)

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
            ext = " ".join(f"Ext^{i}={'0' if z else f'{n} gens'}"
                           for i, (z, n) in sorted(self.ext_profile.items()))
            lines.append(ext)
        if self.is_sheaf is not None:
            verdict = "a sheaf" if self.is_sheaf else "NOT a sheaf"
            lines.append(f"dualizing complex is {verdict} (checked to depth {self.depth})")
        lines.extend(self.notes)
        return lines


@dataclass
class CMReport:
    codimension: Optional[int]
    ext_profile: dict[int, tuple[bool, int]]
    cohen_macaulay: bool
    gorenstein: bool
    inconclusive: bool = False
    notes: list[str] = field(default_factory=list)

    def summary_lines(self) -> list[str]:
        ext = " ".join(f"Ext^{i}={'0' if z else f'{n} gens'}"
                       for i, (z, n) in sorted(self.ext_profile.items()))
        lines = [f"codimension: {self.codimension}", ext,
                 f"Cohen-Macaulay: {self.cohen_macaulay}",
                 f"Gorenstein: {self.gorenstein}"]
        if self.inconclusive:
            lines.append("verdict INCONCLUSIVE")
        lines.extend(self.notes)
        return lines


# ---------------------------------------------------------------------------
# helpers


def _is_zero_module(M: ModulePresentation) -> bool:
    return minimalize(M).rank == 0


def canonical_module(C: GradedRing) -> ModulePresentation:
    """Canonical module of a regular ambient ring: the top wedge of the
    differentials, free of rank one at the sum of the variable bidegrees."""
    if C.ideal:
        raise ValueError("canonical_module needs a regular ambient ring (empty ideal)")
    total = C.degree_zero()
    for i in range(C.nvars):
        total = total + C.variable_bidegree(i)
    return ModulePresentation.free_of(C, (total,))


# ---------------------------------------------------------------------------
# finite duality


def finite_shriek(f: RingMorphism, M: ModulePresentation | None = None,
                  depth: int = DEFAULT_DEPTH) -> DualityReport:
    """Twisted inverse image along a finite map: Hom_A(B, M) with its
    B-module structure, plus Ext^i_A(B, M) for i = 1..depth.

    The Hom is computed from the start of a minimal A-resolution of B; the
    B-action is reconstructed from staircase coordinates of x * b_k and the
    result is presented and minimalized over B.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if M is None:
        M = ModulePresentation.structure(f.source)
    ring_b = f.target
    m_g = f.transport_module(M)
    ba = restrict_along(f, ModulePresentation.structure(ring_b))
    ba_min, kept = minimalize_with_tracking(ba)
    monos, _ = f.module_generators()
    if list(kept) != list(range(len(monos))):
        raise RuntimeError("staircase generators failed to stay minimal")

    res = resolve(ba_min, depth + 1)
    hc = hom_complex(res, m_g)
    ext_profile: dict[int, tuple[bool, int]] = {}
    for i in range(1, depth + 1):
        if i > hc.length:
            ext_profile[i] = (True, 0)
            continue
        h = homology(hc, i)
        ext_profile[i] = (h.rank == 0, h.rank)

    h0, incl = homology_with_inclusion(hc, 0)
    module = _hom_as_target_module(f, hc.terms[0], h0, incl, m_g)
    module = minimalize(module)

    gen_degs = module.free.bidegrees
    is_free = module.rank == 1 and not module.relations
    is_sheaf = all(z for z, _ in ext_profile.values())
    notes = []
    if res.finite:
        notes.append(f"A-resolution of B is finite (length {res.length})")
    else:
        notes.append(f"A-resolution truncated at depth {res.truncated_at}"
                     + (f", periodic with period {res.periodic}" if res.periodic else ""))
    return DualityReport(
        description=f"finite twisted inverse image along {f.name}",
        module=module, depth=depth, is_sheaf=is_sheaf,
        is_free_rank_one=is_free, generator_bidegrees=gen_degs,
        fiber_representation=tuple(d.weight for d in gen_degs),
        ext_profile=ext_profile, notes=notes)


def _hom_as_target_module(f: RingMorphism, c0: ModulePresentation,
                          h0: ModulePresentation, incl: Sequence[Vector],
                          m_g: ModulePresentation) -> ModulePresentation:
    """Give Hom_A(B, M) its B-module structure ((b.phi)(b') = phi(b b')).

    incl lists the Hom generators as vectors over the free part of
    Hom(F_0, M); component (k, l) is the coefficient of the map e_k -> gen_l.
    """
    ring_a = h0.ring
    ring_b = f.target
    monos, _ = f.module_generators()
    r0 = len(monos)
    nm = m_g.rank
    ngens = len(incl)
    if ngens == 0:
        return ModulePresentation.zero(ring_b)

    # coordinates of x_t * b_k over the staircase, as weighted-source polys
    var_action: list[list[tuple[Polynomial, ...]]] = []
    for t in range(ring_b.nvars):
        rows = []
        for k in range(r0):
            mono = tuple(e + (1 if i == t else 0)
                         for i, e in enumerate(monos[k]))
            rows.append(f.coordinates(ring_b.monomial(mono)))
        var_action.append(rows)

    oracle = SubmoduleOracle(ring_a, list(incl) + list(c0.relations), c0.rank)
    zero_b = ring_b.zero()
    relations: list[Vector] = []

    # relations of the A-presentation, pushed through the images
    for col in h0.relations:
        relations.append(tuple(f.apply(p) for p in col))

    # linearization: x_t * kappa_i = sum_j a_j kappa_j
    for t in range(ring_b.nvars):
        xt = ring_b.var(t)
        for i in range(ngens):
            moved = [ring_a.zero()] * (r0 * nm)
            for k in range(r0):
                for l in range(nm):
                    acc = ring_a.zero()
                    for s in range(r0):
                        c = var_action[t][k][s]
                        if c.is_zero():
                            continue
                        entry = incl[i][s * nm + l]
                        if not entry.is_zero():
                            acc = acc + ring_a.reinterpret(c) * entry
                    moved[k * nm + l] = ring_a.reduce(acc)
            coords = oracle.lift(tuple(moved))
            if coords is None:
                raise RuntimeError("B-action left the Hom module")
            col = [zero_b] * ngens
            for j in range(ngens):
                col[j] = -f.apply(coords[j])
            col[i] = col[i] + xt
            relations.append(tuple(col))

    free = FreeModule(ring_b, tuple(h0.free.bidegrees))
    return ModulePresentation(free, relations)


# ---------------------------------------------------------------------------
# Ext dualizing modules over a regular ambient


def ext_dualizing(C: GradedRing, ideal_gens: Sequence[Polynomial],
                  omega: ModulePresentation, imax: int
                  ) -> list[tuple[int, ModulePresentation]]:
    """Ext^i_C(C/I, omega) as modules over B = C/I, for i = 0..imax."""
    if C.ideal:
        raise ValueError("ext_dualizing needs a regular ambient ring")
    if omega.ring != C:
        raise RingMismatchError("omega must live over the ambient ring")
    gens = [C.reduce(C.retag(g)) for g in ideal_gens]
    gens = [g for g in gens if not g.is_zero()]
    ring_b = C.quotient(gens, name=f"{C.name}/I") if gens else C
    pres = ModulePresentation(FreeModule(C, (C.degree_zero(),)),
                              [(g,) for g in gens])
    res = resolve(pres, max(imax + 1, C.nvars + 1))
    hc = hom_complex(res, omega)
    out = []
    for i in range(imax + 1):
        if i > hc.length:
            out.append((i, ModulePresentation.zero(ring_b)))
            continue
        h = homology(hc, i)
        over_b = ModulePresentation(
            FreeModule(ring_b, h.free.bidegrees),
            [tuple(ring_b.retag(p) for p in col) for col in h.relations])
        out.append((i, minimalize(over_b)))
    return out


def lci_dualizing(C: GradedRing, seq: Sequence[Polynomial],
                  omega: ModulePresentation,
                  imax: int | None = None,
                  compare_bound: int = COMPARE_BOUND) -> DualityReport:
    """Dualizing module of B = C/(f_1..f_r) by the complete-intersection
    formula omega tensor top-wedge of (I/I^2) dual.

    Regularity of the sequence is checked through Koszul homology; the
    formula is cross-checked against Ext^r and the full Ext profile.
    """
    if omega.rank != 1 or omega.relations:
        raise ValueError("omega must be free of rank one")
    seq = [C.reduce(C.retag(g)) for g in seq]
    r = len(seq)
    kc = koszul(C, seq)
    for i in range(1, r + 1):
        if not _is_zero_module(homology(kc, i)):
            raise ValueError(f"sequence is not regular: Koszul H_{i} is nonzero")

    ring_b = C.quotient(seq, name=f"{C.name}/I")
    total = C.degree_zero()
    for g in seq:
        total = total + g.bidegree()
    gen_deg = omega.free.bidegrees[0] - total
    module = ModulePresentation.free_of(ring_b, (gen_deg,))

    imax = imax if imax is not None else max(r + 1, 2)
    exts = ext_dualizing(C, seq, omega, imax)
    profile: dict[int, tuple[bool, int]] = {}
    notes = []
    ok = True
    for i, ext in exts:
        profile[i] = (ext.rank == 0, ext.rank)
        if i == r:
            verdict = compare_modules(module, ext, compare_bound)
            notes.append(f"cross-check against Ext^{r}: {verdict}")
            ok = ok and verdict == "isomorphic-up-to-bound"
        elif ext.rank != 0:
            ok = False
            notes.append(f"unexpected nonzero Ext^{i}")
    return DualityReport(
        description=f"l.c.i. dualizing module over {ring_b!r}",
        module=module, depth=imax,
        is_sheaf=all(z for i, (z, _) in profile.items() if i != r),
        is_free_rank_one=True, generator_bidegrees=(gen_deg,),
        fiber_representation=(gen_deg.weight,),
        ext_profile=profile, notes=notes if ok else notes + ["CROSS-CHECK FAILED"])


# ---------------------------------------------------------------------------
# Cohen-Macaulay / Gorenstein verdicts


def _combinatorial_dimension(C: GradedRing, ideal_gens: Sequence[Polynomial]) -> int:
    """Krull dimension of C/I from independent sets of the lead ideal."""
    from .groebner import buchberger
    gens = [C.ambient().retag(g) for g in ideal_gens if not g.is_zero()]
    if not gens:
        return C.nvars
    gb = buchberger(gens, ring=C.ambient())
    leads = [g.leading_term()[0] for g in gb.generators]
    if any(all(e == 0 for e in lm) for lm in leads):
        return -1  # unit ideal
    import itertools as it
    best = 0
    for size in range(C.nvars, 0, -1):
        for S in it.combinations(range(C.nvars), size):
            sset = set(S)
            if not any(all(i in sset for i, e in enumerate(lm) if e) for lm in leads):
                return size
    return best


def cm_gorenstein_check(C: GradedRing, ideal_gens: Sequence[Polynomial],
                        imax: int) -> CMReport:
    """Ext profile against the canonical module, with the codimension taken
    as the first nonvanishing index and cross-checked combinatorially."""
    omega = canonical_module(C)
    exts = ext_dualizing(C, ideal_gens, omega, imax)
    profile = {i: (e.rank == 0, e.rank) for i, e in exts}
    nonzero = [i for i, (z, _) in sorted(profile.items()) if not z]
    notes: list[str] = []
    if not nonzero:
        return CMReport(None, profile, False, False, inconclusive=True,
                        notes=["every computed Ext vanishes"])
    r = nonzero[0]
    dim = _combinatorial_dimension(C, ideal_gens)
    codim_by_dim = C.nvars - dim
    inconclusive = False
    if codim_by_dim != r:
        inconclusive = True
        notes.append(f"first nonvanishing Ext index {r} disagrees with "
                     f"combinatorial codimension {codim_by_dim}")
    cm = nonzero == [r] and not inconclusive
    gorenstein = cm and profile[r][1] == 1
    return CMReport(r, profile, cm, gorenstein, inconclusive, notes)


# ---------------------------------------------------------------------------
# pushforward and comparison


def pushforward_check(f: RingMorphism, omega_b: ModulePresentation,
                      omega_a: ModulePresentation, bound: int
                      ) -> tuple[str, Optional[str]]:
    """Compare the invariant part of omega_B with omega_A degree by degree.

    Returns ("equal", None) or ("unequal", first-discrepancy description).
    """
    for idx, img in enumerate(f.images):
        if img.bidegree().weight != 0:
            raise ValueError(
                f"image of {f.source.variables[idx]} has nonzero weight")
    if omega_b.ring != f.target:
        omega_b = ModulePresentation(
            FreeModule(f.target, omega_b.free.bidegrees),
            [tuple(f.target.retag(p) for p in col) for col in omega_b.relations])
    dims_b, _ = invariant_part(omega_b, bound)
    if omega_a.ring.ambient().signature == f.source.ambient().signature:
        omega_a = f.transport_module(omega_a)
    table_a = hilbert_function(omega_a, bound)
    dims_a: dict[int, int] = {}
    for (z, _w), d in table_a.items():
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
                    bound: int = COMPARE_BOUND) -> str:
    """Desk-scale isomorphism certificate.

    (a) equal minimal-generator bidegree multisets, (b) equal bigraded
    Hilbert tables up to the bound; two relation-free presentations with
    equal generators are isomorphic outright.  Returns one of
    "isomorphic-up-to-bound", "distinct", "inconclusive".
    """
    if M.ring != N.ring:
        raise RingMismatchError("cannot compare modules over different rings")
    m = minimalize(M)
    n = minimalize(N)
    degs_m = sorted((d.zdeg, d.weight) for d in m.free.bidegrees)
    degs_n = sorted((d.zdeg, d.weight) for d in n.free.bidegrees)
    if degs_m != degs_n:
        return "distinct"
    if not m.relations and not n.relations:
        return "isomorphic-up-to-bound"
    try:
        hm = hilbert_function(m, bound)
        hn = hilbert_function(n, bound)
    except ValueError:
        return "inconclusive"
    if hm != hn:
        return "distinct"
    return "isomorphic-up-to-bound"
