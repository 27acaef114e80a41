"""Finitely presented bigraded modules and their algebra.

A module is presented by a free module with a bidegree per generator and a
list of homogeneous relation columns; entries are kept reduced modulo the
ring ideal.  On top of that sit the operations the duality recipes need:
kernels, Hom, tensor and exterior powers, twists, minimal presentations,
Hilbert tables, invariant (weight-zero) parts, and restriction of scalars
along a module-finite ring map.

All values are immutable after construction and every operation is a pure
function, so concurrent evaluation is safe.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Sequence

from . import groebner
from .groebner import (SubmoduleOracle, Vector, buchberger,
                       minimal_generating_vectors, normal_form, syzygies_over)
from .poly import (Bidegree, GradedRing, Monomial, Polynomial,
                   RingMismatchError, _EliminationOrder, monomial_divides,
                   substitute)


def vector_bidegree(vec: Sequence[Polynomial], gen_bidegrees: Sequence[Bidegree],
                    ring: GradedRing) -> Optional[Bidegree]:
    """Common bidegree of a homogeneous vector (entry degree + generator
    degree must agree across components); None if inhomogeneous or zero."""
    found: Optional[Bidegree] = None
    for p, gdeg in zip(vec, gen_bidegrees):
        if p.is_zero():
            continue
        d = p.bidegree()
        if d is None:
            return None
        total = d + gdeg
        if found is None:
            found = total
        elif found != total:
            return None
    return found


# ---------------------------------------------------------------------------
# free modules and presentations


@dataclass(frozen=True)
class FreeModule:
    ring: GradedRing
    bidegrees: tuple[Bidegree, ...]

    def __post_init__(self):
        for d in self.bidegrees:
            if d.modulus != self.ring.group_order:
                raise ValueError("generator bidegree modulus differs from the ring")

    @property
    def rank(self) -> int:
        return len(self.bidegrees)

    def dual(self) -> "FreeModule":
        return FreeModule(self.ring, tuple(-d for d in self.bidegrees))

    def twist(self, d: Bidegree) -> "FreeModule":
        return FreeModule(self.ring, tuple(g - d for g in self.bidegrees))

    def unit_vector(self, i: int) -> Vector:
        return tuple(self.ring.one() if j == i else self.ring.zero()
                     for j in range(self.rank))


class ModulePresentation:
    """generators (a FreeModule) together with homogeneous relation columns."""

    def __init__(self, free: FreeModule, relations: Sequence[Vector] = ()):
        self.free = free
        self.ring = free.ring
        cols: list[Vector] = []
        degs: list[Bidegree] = []
        for col in relations:
            if len(col) != free.rank:
                raise ValueError("relation length differs from the rank")
            reduced = tuple(self.ring.reduce(self.ring.retag(p)) for p in col)
            if all(p.is_zero() for p in reduced):
                continue
            d = vector_bidegree(reduced, free.bidegrees, self.ring)
            if d is None:
                raise ValueError("inhomogeneous relation column")
            # normalize the column monic in the term-over-position order
            _, lc = groebner._vec_lead(groebner.vec_from_polys(reduced),
                                       self.ring.order)
            if lc != 1:
                reduced = tuple(p / lc for p in reduced)
            cols.append(reduced)
            degs.append(d)
        self.relations: tuple[Vector, ...] = tuple(cols)
        self.relation_bidegrees: tuple[Bidegree, ...] = tuple(degs)

    # -- constructors --------------------------------------------------------

    @classmethod
    def free_of(cls, ring: GradedRing, bidegrees: Sequence[Bidegree]) -> "ModulePresentation":
        return cls(FreeModule(ring, tuple(bidegrees)))

    @classmethod
    def structure(cls, ring: GradedRing) -> "ModulePresentation":
        """The ring itself as a module over itself."""
        return cls(FreeModule(ring, (ring.degree_zero(),)))

    @classmethod
    def zero(cls, ring: GradedRing) -> "ModulePresentation":
        return cls(FreeModule(ring, ()))

    # -- basic queries ---------------------------------------------------------

    @property
    def rank(self) -> int:
        return self.free.rank

    def __str__(self) -> str:
        gens = ", ".join(f"e{i + 1}:{d}" for i, d in enumerate(self.free.bidegrees))
        if not self.relations:
            return f"<{gens or '0'}>"
        rels = ", ".join(
            " + ".join(f"({p})*e{i + 1}" for i, p in enumerate(col) if not p.is_zero())
            for col in self.relations)
        return f"<{gens}> / ({rels})"

    __repr__ = __str__


class ModuleMap:
    """A homogeneous map between presented modules, given on generators.

    columns[j] is the image of the j-th source generator, a vector over the
    target's free module; the map is homogeneous of degree `shift`.
    """

    def __init__(self, source: ModulePresentation, target: ModulePresentation,
                 columns: Sequence[Vector], shift: Bidegree | None = None,
                 check: bool = True):
        if source.ring != target.ring:
            raise RingMismatchError("module map across different rings")
        self.source = source
        self.target = target
        self.ring = source.ring
        self.columns = tuple(
            tuple(self.ring.reduce(self.ring.retag(p)) for p in col)
            for col in columns)
        if len(self.columns) != source.rank:
            raise ValueError("need one column per source generator")
        self.shift = shift if shift is not None else self.ring.degree_zero()
        for j, col in enumerate(self.columns):
            if all(p.is_zero() for p in col):
                continue
            d = vector_bidegree(col, target.free.bidegrees, self.ring)
            if d is None or d != source.free.bidegrees[j] + self.shift:
                raise ValueError(f"column {j} is not homogeneous of the declared shift")
        if check and not self.is_well_defined():
            raise ValueError("map does not send relations into relations")

    def is_well_defined(self) -> bool:
        if not self.source.relations:
            return True
        oracle = SubmoduleOracle(self.ring, list(self.target.relations),
                                 self.target.rank)
        for rel in self.source.relations:
            if not oracle.contains(self.apply_to_vector(rel)):
                return False
        return True

    def apply_to_vector(self, vec: Vector) -> Vector:
        out = [self.ring.zero() for _ in range(self.target.rank)]
        for j, coeff in enumerate(vec):
            if coeff.is_zero():
                continue
            for i, entry in enumerate(self.columns[j]):
                out[i] = out[i] + coeff * entry
        return tuple(self.ring.reduce(p) for p in out)

    def compose(self, earlier: "ModuleMap") -> "ModuleMap":
        """self after earlier (earlier's target is self's source)."""
        cols = [self.apply_to_vector(col) for col in earlier.columns]
        return ModuleMap(earlier.source, self.target, cols,
                         shift=self.shift + earlier.shift, check=False)

    def is_zero_map(self) -> bool:
        oracle = SubmoduleOracle(self.ring, list(self.target.relations),
                                 self.target.rank)
        return all(oracle.contains(col) for col in self.columns)


# ---------------------------------------------------------------------------
# kernels and subquotients


def kernel_with_inclusion(f: ModuleMap) -> tuple[ModulePresentation, tuple[Vector, ...]]:
    """Presentation of ker f plus the generators as vectors in the source."""
    ring = f.ring
    mapped = [f.apply_to_vector(f.source.free.unit_vector(j))
              for j in range(f.source.rank)]
    combined = list(mapped) + list(f.target.relations)
    raw = syzygies_over(ring, combined, rank=f.target.rank) if combined else []
    gens: list[Vector] = []
    seen = set()
    for syz in raw:
        head = tuple(syz[:f.source.rank])
        head = tuple(ring.reduce(p) for p in head)
        if all(p.is_zero() for p in head):
            continue
        key = tuple(str(p) for p in head)
        if key not in seen:
            seen.add(key)
            gens.append(head)
    if f.target.rank == 0:
        gens = [f.source.free.unit_vector(j) for j in range(f.source.rank)]
    return subquotient(gens, [], f.source)


def kernel(f: ModuleMap) -> ModulePresentation:
    """Presentation of the kernel of f (minimal)."""
    return kernel_with_inclusion(f)[0]


def subquotient(gens: Sequence[Vector], subs: Sequence[Vector],
                within: ModulePresentation) -> tuple[ModulePresentation, tuple[Vector, ...]]:
    """The module (<gens> + rel)/(<subs> + rel) inside the presented `within`.

    Returns a minimal presentation together with the surviving generators as
    vectors of the ambient free module.
    """
    ring = within.ring
    free = within.free
    gens = [tuple(ring.reduce(ring.retag(p)) for p in g) for g in gens]
    degs = [vector_bidegree(g, free.bidegrees, ring) for g in gens]
    if any(d is None and any(not p.is_zero() for p in g) for g, d in zip(gens, degs)):
        raise ValueError("inhomogeneous subquotient generator")

    # drop generators already in the subs + relations span, minimally
    context = list(subs) + list(within.relations)
    keep = sorted(minimal_generating_vectors(ring, gens, free.rank, degs, context))
    kept_gens = [gens[i] for i in keep]
    kept_degs = [degs[i] for i in keep]

    out_free = FreeModule(ring, tuple(kept_degs))
    if not kept_gens:
        return ModulePresentation(out_free), ()

    # relations on the kept generators: any combination landing in the span
    # of subs + ambient relations shows up as the head of a syzygy of the
    # combined list, and every such combination arises this way
    combined = kept_gens + context
    raw = syzygies_over(ring, combined, rank=free.rank)
    rel_cols: list[Vector] = []
    for syz in raw:
        head = tuple(ring.reduce(p) for p in syz[:len(kept_gens)])
        if any(not p.is_zero() for p in head):
            rel_cols.append(head)
    pres = ModulePresentation(out_free, rel_cols)
    pres, kept2 = minimalize_with_tracking(pres)
    return pres, tuple(kept_gens[i] for i in kept2)


# ---------------------------------------------------------------------------
# hom, tensor, exterior, twist


def hom_module(M: ModulePresentation, N: ModulePresentation) -> ModulePresentation:
    """Hom_R(M, N) as a presented module.

    Computed as the kernel of Hom(F0, N) -> Hom(F1, N) for the presentation
    F1 -> F0 -> M.  A map sending a generator of bidegree d to an element of
    bidegree e contributes bidegree e - d.
    """
    pres, _ = hom_with_inclusion(M, N)
    return pres


def hom_with_inclusion(M: ModulePresentation, N: ModulePresentation
                       ) -> tuple[ModulePresentation, tuple[Vector, ...]]:
    if M.ring != N.ring:
        raise RingMismatchError("hom across different rings")
    hom0 = hom_free_into(M.free, N)
    if not M.relations:
        incl = tuple(hom0.free.unit_vector(i) for i in range(hom0.rank))
        pres, kept = minimalize_with_tracking(hom0)
        return pres, tuple(incl[i] for i in kept)
    f1 = FreeModule(M.ring, M.relation_bidegrees)
    hom1 = hom_free_into(f1, N)
    d = precompose_matrix(M, f1, N, hom0, hom1)
    return kernel_with_inclusion(d)


def hom_free_into(F: FreeModule, N: ModulePresentation) -> ModulePresentation:
    """Hom(F, N) = a direct sum of shifted copies of N.

    Generators are ordered (F-generator major, N-generator minor)."""
    ring = N.ring
    degs = []
    for df in F.bidegrees:
        for dn in N.free.bidegrees:
            degs.append(dn - df)
    rels: list[Vector] = []
    zero = ring.zero()
    for k in range(F.rank):
        for col in N.relations:
            vec = [zero] * (F.rank * N.rank)
            for i, p in enumerate(col):
                vec[k * N.rank + i] = p
            rels.append(tuple(vec))
    return ModulePresentation(FreeModule(ring, tuple(degs)), rels)


def precompose_matrix(M: ModulePresentation, F1: FreeModule, N: ModulePresentation,
                      hom0: ModulePresentation, hom1: ModulePresentation) -> ModuleMap:
    """Hom(F0, N) -> Hom(F1, N), phi -> phi o d, for d the relation matrix."""
    ring = M.ring
    zero = ring.zero()
    cols: list[Vector] = []
    for k in range(M.free.rank):          # source index pair (k, l)
        for l in range(N.rank):
            vec = [zero] * (F1.rank * N.rank)
            for t, col in enumerate(M.relations):
                entry = col[k]
                if not entry.is_zero():
                    vec[t * N.rank + l] = entry
            cols.append(tuple(vec))
    return ModuleMap(hom0, hom1, cols, check=False)


def tensor(M: ModulePresentation, N: ModulePresentation) -> ModulePresentation:
    """M tensor N with the standard presentation."""
    if M.ring != N.ring:
        raise RingMismatchError("tensor across different rings")
    ring = M.ring
    degs = [dm + dn for dm in M.free.bidegrees for dn in N.free.bidegrees]
    zero = ring.zero()
    rels: list[Vector] = []
    for col in M.relations:
        for j in range(N.rank):
            vec = [zero] * len(degs)
            for i, p in enumerate(col):
                vec[i * N.rank + j] = p
            rels.append(tuple(vec))
    for i in range(M.rank):
        for col in N.relations:
            vec = [zero] * len(degs)
            for j, p in enumerate(col):
                vec[i * N.rank + j] = p
            rels.append(tuple(vec))
    return ModulePresentation(FreeModule(ring, tuple(degs)), rels)


def exterior_power(F: FreeModule | ModulePresentation, r: int) -> ModulePresentation:
    """The r-th exterior power of a free module.

    Presented-but-free input is accepted (I/I^2 of a regular sequence is
    free); the top power has rank one with the sum of the bidegrees.
    """
    if isinstance(F, ModulePresentation):
        if F.relations:
            raise ValueError("exterior_power needs a free module")
        F = F.free
    if r < 0 or r > F.rank:
        raise ValueError(f"exterior power {r} out of range for rank {F.rank}")
    degs = []
    for subset in itertools.combinations(range(F.rank), r):
        d = F.ring.degree_zero()
        for i in subset:
            d = d + F.bidegrees[i]
        degs.append(d)
    return ModulePresentation(FreeModule(F.ring, tuple(degs)))


def twist(M: ModulePresentation, d: Bidegree) -> ModulePresentation:
    """Shift the grading: twist(M, d) in degree e is M in degree d + e."""
    free = M.free.twist(d)
    return ModulePresentation(free, M.relations)


# ---------------------------------------------------------------------------
# minimal presentations


def minimalize(M: ModulePresentation) -> ModulePresentation:
    return minimalize_with_tracking(M)[0]


def minimalize_with_tracking(M: ModulePresentation
                             ) -> tuple[ModulePresentation, tuple[int, ...]]:
    """Minimal presentation plus the surviving original generator indices.

    Unit (nonzero scalar) entries are eliminated by graded Nakayama, then
    redundant relation columns are pruned in ascending degree so that both
    the generator and the relation counts are minimal.
    """
    ring = M.ring
    gens = list(M.free.bidegrees)
    origin = list(range(len(gens)))
    cols = [list(col) for col in M.relations]

    while True:
        pivot = None
        for c, col in enumerate(cols):
            for i, entry in enumerate(col):
                if entry.is_unit_scalar():
                    pivot = (c, i, entry.constant_value())
                    break
            if pivot:
                break
        if pivot is None:
            break
        c, i, unit = pivot
        pivot_col = cols.pop(c)
        # gen_i = -1/unit * sum of the other entries; substitute everywhere
        for col in cols:
            factor = col[i]
            if factor.is_zero():
                continue
            for k in range(len(gens)):
                if k != i:
                    col[k] = ring.reduce(col[k] - factor * pivot_col[k] / unit)
            col[i] = ring.zero()
        for col in cols:
            del col[i]
        del gens[i]
        del origin[i]

    free = FreeModule(ring, tuple(gens))
    live = [tuple(col) for col in cols
            if any(not p.is_zero() for p in col)]
    # dedupe then prune columns expressible through the others
    seen = set()
    unique: list[Vector] = []
    for col in live:
        key = tuple(str(p) for p in col)
        if key not in seen:
            seen.add(key)
            unique.append(col)
    degs = [vector_bidegree(col, free.bidegrees, ring) for col in unique]
    keep = minimal_generating_vectors(ring, unique, free.rank, degs)
    return ModulePresentation(free, [unique[ix] for ix in keep]), tuple(origin)


# ---------------------------------------------------------------------------
# Hilbert tables and invariants


def _monomials_of_zdeg(ring: GradedRing, z: int):
    """All monomials of exact Z-degree z; needs every variable of positive degree."""
    if any(d <= 0 for d in ring.zdegs):
        raise ValueError("Hilbert enumeration needs all variable degrees >= 1")
    n = ring.nvars

    def rec(idx: int, remaining: int, current: list[int]):
        if idx == n - 1:
            d = ring.zdegs[idx]
            if remaining % d == 0:
                yield tuple(current + [remaining // d])
            return
        d = ring.zdegs[idx]
        for e in range(remaining // d + 1):
            yield from rec(idx + 1, remaining - e * d, current + [e])

    if z < 0:
        return
    yield from rec(0, z, [])


class _LeadStaircase:
    """Leading module-monomials of relations + ideal, for dimension counting."""

    def __init__(self, M: ModulePresentation):
        ring = M.ring
        ambient = ring.ambient()
        vecs = [groebner.vec_from_polys([ambient.retag(p) for p in col])
                for col in M.relations]
        vecs += groebner._ideal_rows(ring, M.rank)
        gb = groebner._TrackedGB(vecs, ambient)
        self.leads: list[tuple[int, Monomial]] = [lead for lead, _ in gb.leads]

    def is_standard(self, pos: int, mono: Monomial) -> bool:
        return not any(p == pos and monomial_divides(m, mono)
                       for p, m in self.leads)


def _standard_basis(M: ModulePresentation, zmax: int):
    """Yield (generator index, standard monomial, bidegree) for every basis
    element of M up to zdeg `zmax`, generator-major, then by zdeg."""
    ring = M.ring
    staircase = _LeadStaircase(M)
    zmin = min((d.zdeg for d in M.free.bidegrees), default=0)
    for k, gdeg in enumerate(M.free.bidegrees):
        for z in range(min(zmin, 0), zmax + 1):
            mono_z = z - gdeg.zdeg
            if mono_z < 0:
                continue
            for mono in _monomials_of_zdeg(ring, mono_z):
                if staircase.is_standard(k, mono):
                    yield k, mono, ring.monomial_bidegree(mono) + gdeg


def hilbert_function(M: ModulePresentation, zmax: int) -> dict[tuple[int, int], int]:
    """Exact dimensions of the bigraded pieces for zdeg <= zmax.

    Keys are (zdeg, weight residue); zero entries are omitted.  Raises on
    rings with non-positive variable degrees, where pieces are infinite.
    """
    if zmax < 0:
        raise ValueError("zmax must be >= 0")
    table: dict[tuple[int, int], int] = {}
    for _, _, d in _standard_basis(M, zmax):
        key = (d.zdeg, d.weight)
        table[key] = table.get(key, 0) + 1
    return table


def invariant_part(M: ModulePresentation, bound: int
                   ) -> tuple[dict[int, int], list[str]]:
    """The weight-zero part up to zdeg `bound`.

    Returns the dimension table {zdeg: dim} and printable representatives
    (standard monomials times generators) of the low-degree pieces.
    """
    ring = M.ring
    dims: dict[int, int] = {}
    elements: list[str] = []
    for k, mono, d in _standard_basis(M, bound):
        if d.weight != 0:
            continue
        dims[d.zdeg] = dims.get(d.zdeg, 0) + 1
        if len(elements) < 24:
            mono_str = str(ring.monomial(mono)) if any(mono) else "1"
            elements.append(f"{mono_str}*e{k + 1} (zdeg {d.zdeg})")
    return dims, elements


# ---------------------------------------------------------------------------
# ring morphisms and restriction of scalars


class NotModuleFiniteError(ValueError):
    """The target is not finite over the image of the source."""


class RingMorphism:
    """A bidegree-compatible finite ring map A -> B, one image per variable.

    Weights are compared through the canonical index map Z/a_A -> Z/a_B
    (multiplication by a_B/a_A, requiring a_A | a_B); Z-degrees must match
    exactly.  The source ideal must map into the target ideal.
    """

    def __init__(self, source: GradedRing, target: GradedRing,
                 images: Sequence[Polynomial], name: str = "f",
                 check_finite: bool = True):
        self.source = source
        self.target = target
        self.name = name
        if len(images) != source.nvars:
            raise ValueError("need one image per source variable")
        if target.group_order % source.group_order != 0:
            raise ValueError("source group order must divide the target's")
        self.multiplier = target.group_order // source.group_order
        self.images = tuple(target.reduce(target.retag(p)) for p in images)
        for idx, img in enumerate(self.images):
            d = img.bidegree()
            if d is None:
                raise ValueError(f"image of {source.variables[idx]} is not bihomogeneous")
            if d.zdeg != source.zdegs[idx]:
                raise ValueError(
                    f"image of {source.variables[idx]} has Z-degree {d.zdeg}, "
                    f"declared {source.zdegs[idx]}")
            want = (source.weights[idx] * self.multiplier) % target.group_order
            if d.weight != want:
                raise ValueError(
                    f"image of {source.variables[idx]} has weight {d.weight}, "
                    f"expected {want} (mod {target.group_order})")
        for g in source.ideal:
            if not target.reduce(self.apply(g)).is_zero():
                raise ValueError(f"source ideal generator {g} does not map into the target ideal")
        self._gens_cache = None
        self._mixed_cache = None
        self._wsrc_cache = None
        if check_finite and not self.is_module_finite():
            raise NotModuleFiniteError(
                f"{name}: target is not module-finite over the source images")

    def __repr__(self):
        imgs = ", ".join(f"{v} -> {p}" for v, p in zip(self.source.variables, self.images))
        return f"{self.name}: {self.source!r} -> {self.target!r} {{{imgs}}}"

    # -- elementwise ---------------------------------------------------------

    def apply(self, p: Polynomial) -> Polynomial:
        """Push a source polynomial through the variable images (reduced)."""
        return self.target.reduce(substitute(p, self.target.ambient(), self.images))

    def transport_bidegree(self, d: Bidegree) -> Bidegree:
        return Bidegree(d.zdeg, d.weight * self.multiplier, self.target.group_order)

    # -- the weighted source ring ---------------------------------------------

    def weighted_source(self) -> GradedRing:
        """The source ring regraded by the target group: each variable picks
        up the weight of its image, so modules restricted along the map keep
        the full equivariant bookkeeping."""
        if self._wsrc_cache is None:
            weights = tuple(img.bidegree().weight for img in self.images)
            base = GradedRing(self.source.variables, self.source.zdegs, weights,
                              self.target.group_order, (), self.source.order,
                              self.source.name)
            ideal = tuple(base.reinterpret(g) for g in self.source.ideal)
            self._wsrc_cache = base.quotient(ideal) if ideal else base
        return self._wsrc_cache

    def transport_module(self, M: ModulePresentation) -> ModulePresentation:
        """Reinterpret a source module over the weighted source ring."""
        if M.ring.ambient().signature != self.source.ambient().signature:
            raise RingMismatchError("module is not over the morphism source")
        ring = self.weighted_source()
        degs = tuple(self.transport_bidegree(d) for d in M.free.bidegrees)
        rels = [tuple(ring.reinterpret(p) for p in col) for col in M.relations]
        return ModulePresentation(FreeModule(ring, degs), rels)

    # -- finiteness and the staircase basis -------------------------------------

    def _staircase_guard(self) -> int:
        zmax = max([d for d in self.target.zdegs] +
                   [img.bidegree().zdeg for img in self.images] +
                   [g.bidegree().zdeg for g in self.target.ideal if g.bidegree()] + [1])
        return 4 * zmax

    def _contraction_gb(self):
        """GB of (target ideal + variable images) in the target ambient."""
        ambient = self.target.ambient()
        gens = [ambient.retag(g) for g in self.target.ideal]
        gens += [ambient.retag(img) for img in self.images]
        return buchberger(gens, ring=ambient)

    def _pure_power_exponents(self) -> Optional[list[int]]:
        """Least pure power of each variable in the contraction lead ideal;
        None if some variable has none (the staircase is then infinite)."""
        gb = self._contraction_gb()
        if any(g.is_unit_scalar() for g in gb.generators):
            return [0] * self.target.nvars
        leads = [g.leading_term()[0] for g in gb.generators]
        out: list[int] = []
        for idx in range(self.target.nvars):
            powers = [lm[idx] for lm in leads
                      if lm[idx] > 0 and all(e == 0 for i, e in enumerate(lm) if i != idx)]
            if not powers:
                return None
            out.append(min(powers))
        return out

    def is_module_finite(self) -> bool:
        """The staircase is finite iff every variable has a pure power among
        the contraction leading terms (checked exactly from the basis)."""
        if any(d <= 0 for d in self.target.zdegs):
            raise ValueError("module-finiteness detection needs positive degrees")
        return self._pure_power_exponents() is not None

    def module_generators(self) -> tuple[tuple[Monomial, ...], tuple[Bidegree, ...]]:
        """Monomial basis of B over (images of) A: the standard monomials of
        the contraction ideal, sorted by bidegree then order key."""
        if self._gens_cache is not None:
            return self._gens_cache
        powers = self._pure_power_exponents()
        if powers is None:
            raise NotModuleFiniteError(f"{self.name}: infinite staircase")
        gb = self._contraction_gb()
        leads = [g.leading_term()[0] for g in gb.generators]
        ambient = self.target.ambient()
        # every standard monomial divides the corner prod x_i^(k_i - 1)
        bound = sum(max(k - 1, 0) * d for k, d in zip(powers, self.target.zdegs))
        bound = min(bound, self._staircase_guard() * max(1, self.target.nvars))
        found: list[Monomial] = []
        for z in range(bound + 1):
            for mono in _monomials_of_zdeg(ambient, z):
                if not any(monomial_divides(lm, mono) for lm in leads):
                    found.append(mono)
        found.sort(key=lambda m: (self.target.monomial_bidegree(m).zdeg,
                                  self.target.order.key(m)))
        monos = tuple(found)
        degs = tuple(self.target.monomial_bidegree(m) for m in monos)
        self._gens_cache = (monos, degs)
        return self._gens_cache

    # -- the mixed (elimination) ring ------------------------------------------

    def _mixed(self):
        """Mixed ring Q[target vars, renamed source vars] with an order
        eliminating the target block, plus the GB of the graph ideal
        (target ideal, source_var - image)."""
        if self._mixed_cache is not None:
            return self._mixed_cache
        tvars = list(self.target.variables)
        svars = [v + "~" for v in self.source.variables]
        img_degs = [img.bidegree() for img in self.images]
        ring = GradedRing(
            tvars + svars,
            list(self.target.zdegs) + [d.zdeg for d in img_degs],
            list(self.target.weights) + [d.weight for d in img_degs],
            self.target.group_order,
            order=_EliminationOrder(len(tvars)),
            name="mixed")
        nt = self.target.nvars

        def widen_target(p: Polynomial) -> Polynomial:
            return ring.poly({m + (0,) * len(svars): c for m, c in p.terms.items()})

        graph = [widen_target(g) for g in self.target.ideal]
        for idx, img in enumerate(self.images):
            mono = [0] * ring.nvars
            mono[nt + idx] = 1
            graph.append(ring.monomial(tuple(mono)) - widen_target(img))
        gb = buchberger(graph, ring=ring)
        self._mixed_cache = (ring, gb, widen_target)
        return self._mixed_cache

    def coordinates(self, p: Polynomial) -> tuple[Polynomial, ...]:
        """Write a target element over the staircase basis with source
        coefficients: p = sum_k a_k(source) * b_k in B."""
        monos, _ = self.module_generators()
        ring, gb, widen = self._mixed()
        nt = self.target.nvars
        nf = normal_form(widen(p), gb)
        coords = [dict() for _ in monos]
        index = {m: i for i, m in enumerate(monos)}
        for mono, coeff in nf.terms.items():
            tpart, spart = mono[:nt], mono[nt:]
            if tpart not in index:
                raise ValueError(f"normal form left a non-staircase monomial in {p}")
            coords[index[tpart]][spart] = coeff
        source_ambient = self.weighted_source().ambient()
        return tuple(source_ambient.poly(c) for c in coords)


def restrict_along(f: RingMorphism, N: ModulePresentation) -> ModulePresentation:
    """N, a module over the target, as a module over the (weighted) source.

    Generators are b_k * n_j ordered with the target generator n_j major and
    the staircase monomial b_k minor; relations are computed by syzygies in
    the mixed ring followed by elimination of the target block.
    """
    if N.ring != f.target:
        raise RingMismatchError("module is not over the morphism target")
    monos, mono_degs = f.module_generators()
    ring_a = f.weighted_source()
    mixed, graph_gb, widen = f._mixed()
    nt = f.target.nvars
    ns = f.source.nvars

    def widen_vec(vec: Vector) -> Vector:
        return tuple(widen(p) for p in vec)

    # generators b_k e_j of the restriction, as vectors over the mixed ring
    gen_vecs: list[Vector] = []
    gen_degs: list[Bidegree] = []
    for j in range(N.rank):
        for k, mono in enumerate(monos):
            vec = [mixed.zero()] * N.rank
            vec[j] = mixed.monomial(mono + (0,) * ns)
            gen_vecs.append(tuple(vec))
            gen_degs.append(mono_degs[k] + N.free.bidegrees[j])

    context: list[Vector] = [widen_vec(col) for col in N.relations]
    for g in graph_gb.generators:
        for pos in range(N.rank):
            vec = [mixed.zero()] * N.rank
            vec[pos] = g
            context.append(tuple(vec))

    raw = syzygies_over(mixed, gen_vecs + context, rank=N.rank)
    ngen = len(gen_vecs)
    projected = [tuple(s[:ngen]) for s in raw
                 if any(not p.is_zero() for p in s[:ngen])]

    # eliminate the target block: Groebner basis of the projected module in
    # the term-over-position elimination order, keep target-free elements
    vecs = [groebner.vec_from_polys(v) for v in projected]
    rel_cols: list[Vector] = []
    if vecs:
        gb = groebner._TrackedGB(vecs, mixed)
        source_ambient = ring_a.ambient()
        seen = set()
        for b in gb.basis:
            if any(any(m[:nt]) for (_, m) in b):
                continue
            comps = [dict() for _ in range(ngen)]
            for (pos, m), c in b.items():
                comps[pos][m[nt:]] = c
            col = tuple(ring_a.reduce(source_ambient.poly(comp)) for comp in comps)
            if all(p.is_zero() for p in col):
                continue
            key = tuple(str(p) for p in col)
            if key not in seen:
                seen.add(key)
                rel_cols.append(col)

    keep = sorted(minimal_generating_vectors(
        ring_a, rel_cols, ngen,
        [vector_bidegree(c, tuple(gen_degs), ring_a) for c in rel_cols]))
    pres = ModulePresentation(FreeModule(ring_a, tuple(gen_degs)),
                              [rel_cols[i] for i in keep])
    return pres
