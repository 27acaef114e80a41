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
from dataclasses import dataclass
from typing import Optional, Sequence

from .caps import InputError, check_deadline
from .gmodule import (ModuleMap, ModulePresentation, hom_free_into,
                      kernel_generators, kernel_with_inclusion, minimalize,
                      precompose_columns, subquotient, subquotient_generators)
from .groebner import (Column, minimal_generating_vectors, syzygies_over,
                       vector_bidegree)
from .poly import GradedRing, Polynomial


@dataclass
class ChainComplex:
    ring: GradedRing
    terms: list[ModulePresentation]
    maps: dict[int, ModuleMap]          # keyed by the source index
    direction: str = "chain"            # "chain" or "cochain"
    finite: bool = False                # else truncated at `length`
    # (k, p) for a resolution that repeats: the stored maps end at
    # d_{k+p} = d_k shifted, and the complex continues with period p
    repeat: Optional[tuple[int, int]] = None

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
        """Raise ValueError unless each differential followed by the next is
        zero: the next map sends every stored column of the earlier one into
        the span of its target's relations."""
        for i, f in self.maps.items():
            check_deadline()
            nxt = self.maps.get(i - 1 if self.direction == "chain" else i + 1)
            if nxt is not None and not nxt.sends_into_relations(f.columns):
                raise ValueError(f"differentials at {i} do not compose to zero")


# ---------------------------------------------------------------------------
# Koszul complexes


def koszul(ring: GradedRing, seq: Sequence[Polynomial]) -> ChainComplex:
    """The Koszul complex on a bihomogeneous sequence.

    Term i is free of rank C(r, i); the generator for a subset S carries the
    sum of the bidegrees of the chosen elements, and the differential is the
    standard contraction with alternating signs.  A zero entry has
    bidegree zero.
    """
    seq = [ring.reduce(f) for f in seq]
    degs = []
    for f in seq:
        d = ring.degree_zero() if f.is_zero() else f.bidegree()
        if d is None:
            raise InputError(f"Koszul entry {f} is not bihomogeneous")
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
        terms.append(ModulePresentation(ring, gd))
    maps: dict[int, ModuleMap] = {}
    for i in range(1, r + 1):
        index = {S: pos for pos, S in enumerate(subsets[i - 1])}
        cols: list[Column] = []
        for S in subsets[i]:
            col = {}
            for pos, k in enumerate(S):
                rest = tuple(x for x in S if x != k)
                col[index[rest]] = (-1 if pos % 2 else 1) * seq[k]
            cols.append(col)
        maps[i] = ModuleMap(terms[i], terms[i - 1], cols)
    return ChainComplex(ring, terms, maps, direction="chain", finite=True)


# ---------------------------------------------------------------------------
# free resolutions


def resolve(M: ModulePresentation, depth: int) -> ChainComplex:
    """Minimal free resolution of M to homological degree `depth`.

    Iterated minimal syzygies: F_0 covers the minimal generators, each next
    term covers a minimal generating set of the syzygies of the previous
    differential's columns.  Stops early (finite=True) when a zero syzygy
    module appears; otherwise the complex is truncated at length `depth`.

    Each step reads only the columns of the previous differential, the rank
    of its target and the bidegrees of its source, and its greedy order
    (Z-degree, then printed column) does not change under one uniform
    bidegree shift.  So the resolution stops at its first exact repeat,
    d_i = d_{i-p} shifted (`_detect_period`): every later map repeats with
    that same shift, so none is built.  `repeat` records (k, p) with
    k = i - p, and the stored complex ends at d_i.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    ring = M.ring
    M0 = minimalize(M)
    terms = [ModulePresentation(ring, M0.bidegrees)]
    maps: dict[int, ModuleMap] = {}
    current_cols = M0.relations
    current_degs = M0.relation_bidegrees
    for i in range(1, depth + 1):
        if not current_cols:
            return ChainComplex(ring, terms, maps, finite=True)
        term = ModulePresentation(ring, current_degs)
        terms.append(term)
        maps[i] = ModuleMap(term, terms[i - 1], current_cols)
        period = _detect_period(maps, i)
        if period is not None:
            return ChainComplex(ring, terms, maps, repeat=(i - period, period))
        if i == depth:
            break
        syz = syzygies_over(ring, current_cols, terms[i - 1].rank)
        degs = [vector_bidegree(v, current_degs) for v in syz]
        keep = sorted(minimal_generating_vectors(ring, syz, current_degs, degs))
        current_cols = tuple(syz[k] for k in keep)
        current_degs = tuple(degs[k] for k in keep)
    return ChainComplex(ring, terms, maps)


def _detect_period(maps: dict[int, ModuleMap], i: int) -> Optional[int]:
    """The least period p in (1, 2) with which d_i repeats d_{i-p} exactly:
    equal columns, equal source and target ranks, and one bidegree shift
    (its weight taken mod a) from every generator of both terms of d_{i-p}
    to its counterpart.  The repeat starts at step i - p >= 1."""
    last = maps[i]
    for period in (1, 2):
        if i - period < 1:
            break
        earlier = maps[i - period]
        pairs = ((last.source, earlier.source), (last.target, earlier.target))
        if (last.columns != earlier.columns
                or any(a.rank != b.rank for a, b in pairs)):
            continue
        shifts = {d - e for a, b in pairs for d, e in zip(a.bidegrees, b.bidegrees)}
        if len(shifts) == 1:
            return period
    return None


# ---------------------------------------------------------------------------
# Hom complexes and homology


def hom_complex(C: ChainComplex, N: ModulePresentation) -> ChainComplex:
    """Hom(C_i, N) with transposed differentials, as a cochain complex.

    Every term of C must be free; generator bidegrees dualize (a generator
    of bidegree d contributes N's grading minus d).  The result has C's
    length, so it ends where a repeating resolution ends.
    """
    for t in C.terms:
        if t.relations:
            raise ValueError("hom_complex needs a complex of free modules")
    if C.direction != "chain":
        raise ValueError("hom_complex expects a chain complex")
    terms = [hom_free_into(C.terms[0].bidegrees, N)]
    maps: dict[int, ModuleMap] = {}
    for i in range(1, C.length + 1):
        check_deadline()
        terms.append(hom_free_into(C.terms[i].bidegrees, N))
        # C_i -> C_{i-1} dualizes to Hom(C_{i-1}, N) -> Hom(C_i, N)
        cols = precompose_columns(C.maps[i].columns, C.terms[i - 1].rank, N)
        maps[i - 1] = ModuleMap(terms[i - 1], terms[i], cols)
    return ChainComplex(C.ring, terms, maps, direction="cochain",
                        finite=C.finite)


def homology(C: ChainComplex, i: int) -> ModulePresentation:
    """H_i = ker/im as a minimal presentation."""
    return homology_with_inclusion(C, i)[0]


def homology_with_inclusion(C: ChainComplex, i: int
                            ) -> tuple[ModulePresentation, tuple[Column, ...]]:
    """Homology plus its generators as columns of the free part of term i.

    The cycles are presented once, modulo the boundaries: H_i is
    `kernel_with_inclusion(out, boundaries)`, or the subquotient of the
    whole term when no map leaves it.  The presentation is minimal
    (`minimalize` returns it unchanged)."""
    out_map, boundaries, units = _homology_setup(C, i)
    if out_map is None:
        return subquotient(units, boundaries, C.terms[i])
    return kernel_with_inclusion(out_map, boundaries)


def homology_rank(C: ChainComplex, i: int) -> int:
    """The rank of `homology(C, i)`.  When every variable has positive
    Z-degree it is the number of generators `subquotient` keeps, which
    graded Nakayama makes minimal, so H_i is not presented at all."""
    if not C.ring.positive:
        return homology(C, i).rank
    out_map, boundaries, units = _homology_setup(C, i)
    cycles = units if out_map is None else kernel_generators(out_map)
    return len(subquotient_generators(cycles, boundaries, C.terms[i])[0])


def _homology_setup(C: ChainComplex, i: int
                    ) -> tuple[Optional[ModuleMap], list[Column], list[Column]]:
    """The map out of term i, the boundaries in term i, and the unit
    columns of term i when no map leaves it (its cycles)."""
    if i < 0 or i > C.length:
        raise IndexError(f"homology index {i} out of range 0..{C.length}")
    out_map = C.map_out_of(i)
    in_map = C.map_into(i)
    boundaries = list(in_map.columns) if in_map is not None else []
    units = ([{j: C.ring.one()} for j in range(C.terms[i].rank)]
             if out_map is None else [])
    return out_map, boundaries, units
