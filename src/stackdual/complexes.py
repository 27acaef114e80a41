"""Chain complexes of bigraded modules: Koszul complexes, free resolutions,
Hom-dualized complexes, and homology.

Complexes are stored with their terms indexed 0..length; a chain complex
has maps[i]: terms[i] -> terms[i-1], a cochain complex maps[i]: terms[i] ->
terms[i+1].  Differentials compose to zero (checked on construction) and
are homogeneous of shift zero.  Cochain duals use the plain transpose with
no alternating signs: only homology is consumed downstream, which does not
see the sign convention.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .gmodule import (ModuleMap, ModulePresentation, hom_free_into,
                      minimalize, subquotient, vector_bidegree)
from .groebner import Vector, syzygies_over
from .poly import GradedRing, Polynomial

DEFAULT_DEPTH = 6


@dataclass
class ChainComplex:
    ring: GradedRing
    terms: list[ModulePresentation]
    maps: dict[int, ModuleMap]          # keyed by the source index
    direction: str = "chain"            # "chain" or "cochain"
    truncated_at: Optional[int] = None  # homological degree, if truncated
    finite: bool = False                # a zero syzygy module was reached
    periodic: Optional[int] = None      # detected period of a resolution
    notes: list[str] = field(default_factory=list)

    def __post_init__(self):
        if self.direction not in ("chain", "cochain"):
            raise ValueError("direction must be chain or cochain")
        self.check_composition()

    @property
    def length(self) -> int:
        return len(self.terms) - 1

    def ranks(self) -> list[int]:
        return [t.rank for t in self.terms]

    def map_out_of(self, i: int) -> Optional[ModuleMap]:
        return self.maps.get(i)

    def map_into(self, i: int) -> Optional[ModuleMap]:
        src = i + 1 if self.direction == "chain" else i - 1
        return self.maps.get(src)

    def check_composition(self) -> None:
        for i, f in self.maps.items():
            nxt = self.maps.get(i - 1 if self.direction == "chain" else i + 1)
            if nxt is not None and not nxt.compose(f).is_zero_map():
                raise ValueError(f"differentials at {i} do not compose to zero")


# ---------------------------------------------------------------------------
# Koszul complexes


def koszul(ring: GradedRing, seq: Sequence[Polynomial]) -> ChainComplex:
    """The Koszul complex on a bihomogeneous sequence.

    Term i is free of rank C(r, i); the generator for a subset S carries the
    sum of the bidegrees of the chosen elements, and the differential is the
    standard contraction with alternating signs.
    """
    seq = [ring.reduce(ring.retag(f)) for f in seq]
    degs = []
    for f in seq:
        d = f.bidegree()
        if d is None:
            raise ValueError(f"Koszul entry {f} is not bihomogeneous")
        degs.append(d)
    r = len(seq)
    subsets: list[list[tuple[int, ...]]] = []
    terms: list[ModulePresentation] = []
    for i in range(r + 1):
        subs = sorted(itertools.combinations(range(r), i))
        subsets.append(subs)
        gd = []
        for S in subs:
            d = ring.degree_zero()
            for k in S:
                d = d + degs[k]
            gd.append(d)
        terms.append(ModulePresentation.free_of(ring, gd))
    maps: dict[int, ModuleMap] = {}
    for i in range(1, r + 1):
        index = {S: pos for pos, S in enumerate(subsets[i - 1])}
        cols: list[Vector] = []
        for S in subsets[i]:
            col = [ring.zero()] * len(subsets[i - 1])
            for pos, k in enumerate(S):
                rest = tuple(x for x in S if x != k)
                sign = -1 if pos % 2 else 1
                col[index[rest]] = col[index[rest]] + sign * seq[k]
            cols.append(tuple(col))
        maps[i] = ModuleMap(terms[i], terms[i - 1], cols, check=False)
    return ChainComplex(ring, terms, maps, direction="chain", finite=True)


# ---------------------------------------------------------------------------
# free resolutions


def resolve(M: ModulePresentation, depth: int = DEFAULT_DEPTH) -> ChainComplex:
    """Minimal free resolution of M to homological degree `depth`.

    Iterated minimal syzygies: F_0 covers the minimal generators, each next
    term covers a minimal generating set of the syzygies of the previous
    differential's columns.  Stops early (finite=True) when a zero syzygy
    module appears; otherwise the complex is flagged truncated.  A period
    (1 or 2) of the tail is reported when the differentials repeat up to a
    bidegree shift.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    ring = M.ring
    M0 = minimalize(M)
    terms = [ModulePresentation.free_of(ring, M0.free.bidegrees)]
    maps: dict[int, ModuleMap] = {}
    columns: list[tuple[Vector, ...]] = []
    current_cols = M0.relations
    current_degs = M0.relation_bidegrees
    finite = False
    i = 1
    while i <= depth:
        if not current_cols:
            finite = True
            break
        term = ModulePresentation.free_of(ring, current_degs)
        terms.append(term)
        maps[i] = ModuleMap(term, terms[i - 1], current_cols, check=False)
        columns.append(current_cols)
        if i == depth:
            break
        syz = syzygies_over(ring, list(current_cols),
                            rank=terms[i - 1].rank)
        from .groebner import minimal_generating_vectors
        degs = [vector_bidegree(v, current_degs, ring) for v in syz]
        keep = sorted(minimal_generating_vectors(ring, syz, len(current_cols), degs))
        current_cols = tuple(syz[k] for k in keep)
        current_degs = tuple(degs[k] for k in keep)
        i += 1

    cc = ChainComplex(ring, terms, maps, direction="chain",
                      truncated_at=None if finite else depth, finite=finite)
    cc.periodic = _detect_period(cc)
    return cc


def _matrix_shape(m: ModuleMap) -> tuple:
    return tuple(tuple(str(p) for p in col) for col in m.columns)


def _detect_period(cc: ChainComplex) -> Optional[int]:
    if cc.finite or cc.length < 3:
        return None
    for period in (1, 2):
        i = cc.length
        if i - period < 1:
            continue
        if _matrix_shape(cc.maps[i]) == _matrix_shape(cc.maps[i - period]):
            return period
    return None


# ---------------------------------------------------------------------------
# Hom complexes and homology


def hom_complex(C: ChainComplex, N: ModulePresentation) -> ChainComplex:
    """Hom(C_i, N) with transposed differentials, as a cochain complex.

    Every term of C must be free; generator bidegrees dualize (a generator
    of bidegree d contributes N's grading minus d).
    """
    for t in C.terms:
        if t.relations:
            raise ValueError("hom_complex needs a complex of free modules")
    if C.direction != "chain":
        raise ValueError("hom_complex expects a chain complex")
    ring = C.ring
    terms = [hom_free_into(t.free, N) for t in C.terms]
    maps: dict[int, ModuleMap] = {}
    nr = N.rank
    for i in range(1, C.length + 1):
        d = C.maps[i]                      # C_i -> C_{i-1}
        src_rank = C.terms[i - 1].rank     # Hom(C_{i-1}, N) -> Hom(C_i, N)
        tgt_rank = C.terms[i].rank
        cols: list[Vector] = []
        for k in range(src_rank):
            for l in range(nr):
                vec = [ring.zero()] * (tgt_rank * nr)
                for j in range(tgt_rank):
                    entry = d.columns[j][k]
                    if not entry.is_zero():
                        vec[j * nr + l] = entry
                cols.append(tuple(vec))
        maps[i - 1] = ModuleMap(terms[i - 1], terms[i], cols, check=False)
    return ChainComplex(ring, terms, maps, direction="cochain",
                        truncated_at=C.truncated_at, finite=C.finite)


def homology(C: ChainComplex, i: int) -> ModulePresentation:
    """H_i = ker/im as a minimal presentation."""
    return homology_with_inclusion(C, i)[0]


def homology_with_inclusion(C: ChainComplex, i: int
                            ) -> tuple[ModulePresentation, tuple[Vector, ...]]:
    """Homology plus its generators as vectors in the free part of term i."""
    if i < 0 or i > C.length:
        raise IndexError(f"homology index {i} out of range 0..{C.length}")
    term = C.terms[i]
    out_map = C.map_out_of(i)
    in_map = C.map_into(i)

    if out_map is None:
        cycle_gens = [term.free.unit_vector(j) for j in range(term.rank)]
    else:
        from .gmodule import kernel_with_inclusion
        _, cycle_gens = kernel_with_inclusion(out_map)
        cycle_gens = list(cycle_gens)

    boundary_cols = list(in_map.columns) if in_map is not None else []
    return subquotient(cycle_gens, boundary_cols, term)
