"""Finitely presented bigraded modules and their algebra.

A module is presented by its ring, one bidegree per generator and a list of
homogeneous relation columns; a module with no relations is free, so there
is no separate free-module type.  Relations, map columns and kernel
inclusions are `groebner.Column`s, {position: Polynomial} holding only the
nonzero entries, reduced modulo the ring ideal, so every operation visits
stored entries only.  On top of that sit the operations the duality recipes
need: kernels, Hom, minimal presentations, Hilbert tables, invariant
(weight-zero) parts, and the target of a module-finite ring map as a module
over its source.

All values are immutable after construction and every operation is a pure
function.
"""

from __future__ import annotations

from functools import cached_property
from itertools import islice
from operator import add, le
from typing import Optional, Sequence

from .caps import InputError, check_deadline, check_term_cap
from .groebner import (Column, SubmoduleOracle, buchberger, column,
                       lead_coefficient, minimal_generating_vectors,
                       normal_form, syzygies_over, vector_bidegree)
from .poly import (Bidegree, GradedRing, Monomial, MonomialOrder, Polynomial,
                   RingMismatchError, monomial_div, monomial_divides,
                   monomial_lcm, substitute)


# ---------------------------------------------------------------------------
# presentations


class ModulePresentation:
    """Generators, one bidegree each, over `ring`, together with homogeneous
    relation columns; a module with no relations is free.  `span`, the
    span-only oracle over the relations, is built on first use and never
    extended: every query of one presentation shares its basis."""

    def __init__(self, ring: GradedRing, bidegrees: Sequence[Bidegree],
                 relations: Sequence[Column] = ()):
        self.ring = ring
        self.bidegrees: tuple[Bidegree, ...] = tuple(bidegrees)
        if any(d.modulus != ring.group_order for d in self.bidegrees):
            raise ValueError("generator bidegree modulus differs from the ring")
        cols: list[Column] = []
        degs: list[Bidegree] = []
        for col in relations:
            reduced = column(ring, col, self.rank)
            if not reduced:
                continue
            d = vector_bidegree(reduced, self.bidegrees)
            if d is None:
                raise ValueError("inhomogeneous relation column")
            # normalize the column monic in the term-over-position order
            lc = lead_coefficient(reduced, ring)
            if lc != 1:
                reduced = {pos: p / lc for pos, p in reduced.items()}
            cols.append(reduced)
            degs.append(d)
        self.relations: tuple[Column, ...] = tuple(cols)
        self.relation_bidegrees: tuple[Bidegree, ...] = tuple(degs)

    # -- constructors --------------------------------------------------------

    @classmethod
    def structure(cls, ring: GradedRing) -> "ModulePresentation":
        """The ring itself as a module over itself."""
        return cls(ring, (ring.degree_zero(),))

    # -- basic queries ---------------------------------------------------------

    @property
    def rank(self) -> int:
        return len(self.bidegrees)

    @cached_property
    def span(self) -> SubmoduleOracle:
        return SubmoduleOracle(self.ring, self.relations, self.rank)

    def __str__(self) -> str:
        gens = ", ".join(f"e{i + 1}:{d}" for i, d in enumerate(self.bidegrees))
        if not self.relations:
            return f"<{gens or '0'}>"
        rels = ", ".join(
            " + ".join(f"({p})*e{i + 1}" for i, p in col.items())
            for col in self.relations)
        return f"<{gens}> / ({rels})"

    __repr__ = __str__


class ModuleMap:
    """A homogeneous map between presented modules, given on generators.

    columns[j] is the image of the j-th source generator, a column of the
    target's free module; the map is homogeneous of degree zero, so column j
    has the bidegree of source generator j.  The columns are the map's only
    stored form: kernels read them directly.
    Every map is checked to send the source's relations into the span of
    the target's; a free source has none, so its check costs nothing.
    """

    def __init__(self, source: ModulePresentation, target: ModulePresentation,
                 columns: Sequence[Column]):
        if source.ring != target.ring:
            raise RingMismatchError("module map across different rings")
        self.source = source
        self.target = target
        self.ring = source.ring
        self.columns = tuple(column(self.ring, col, target.rank)
                             for col in columns)
        if len(self.columns) != source.rank:
            raise ValueError("need one column per source generator")
        for j, col in enumerate(self.columns):
            if col and (vector_bidegree(col, target.bidegrees)
                        != source.bidegrees[j]):
                raise ValueError(f"column {j} is not homogeneous of degree zero")
        if not self.sends_into_relations(source.relations):
            raise ValueError("map does not send relations into relations")

    def sends_into_relations(self, vectors: Sequence[Column]) -> bool:
        """Whether the image of every column of the source's free module in
        `vectors` lies in the span of the target's relations (modulo the
        ring ideal): well-definedness for the source's relations, d o d = 0
        for the columns of a preceding differential."""
        if not vectors:
            return True
        if not self.target.relations:
            # images are reduced modulo the ideal, so only zero lies in the span
            return not any(self.apply_to_vector(v) for v in vectors)
        span = self.target.span
        return all(span.contains(self.apply_to_vector(v)) for v in vectors)

    def apply_to_vector(self, vec: Column) -> Column:
        return apply_columns(self.ring, self.columns, vec, self.target.rank)


def apply_columns(ring: GradedRing, columns: Sequence[Column], vec: Column,
                  rank: int) -> Column:
    """sum_j vec[j] * columns[j], a column of R^rank: the image of `vec`
    under the map whose columns are `columns`."""
    out: dict[int, Polynomial] = {}
    for j, coeff in vec.items():
        for i, entry in columns[j].items():
            out[i] = out[i] + coeff * entry if i in out else coeff * entry
    return column(ring, out, rank)


# ---------------------------------------------------------------------------
# kernels and subquotients


def kernel_with_inclusion(f: ModuleMap, modulo: Sequence[Column] = ()
                          ) -> tuple[ModulePresentation, tuple[Column, ...]]:
    """ker f modulo the span of `modulo`, plus its generators as vectors of
    the source's free module.

    `modulo` lists columns of the source's free module that must lie in
    ker f, such as the boundaries of a complex; the result is the
    subquotient ker f / <modulo> of the `kernel_generators`, and ker f
    itself when `modulo` is empty.  The presentation is minimal.
    """
    return subquotient(kernel_generators(f), modulo, f.source)


def kernel_generators(f: ModuleMap) -> list[Column]:
    """Generators of ker f: the syzygies of f's stored columns modulo the
    target's relations, or the unit columns when f maps into zero."""
    if f.target.rank == 0:
        return [{j: f.ring.one()} for j in range(f.source.rank)]
    return syzygies_over(f.ring, f.columns, f.target.rank, f.target.relations)


def kernel(f: ModuleMap) -> ModulePresentation:
    """Presentation of the kernel of f (minimal)."""
    return kernel_with_inclusion(f)[0]


def subquotient(gens: Sequence[Column], subs: Sequence[Column],
                within: ModulePresentation) -> tuple[ModulePresentation, tuple[Column, ...]]:
    """The module (<gens> + rel)/(<subs> + rel) inside the presented `within`.

    Returns a minimal presentation together with the surviving generators as
    columns of the ambient free module: the ones `subquotient_generators`
    keeps, less any that `minimalize` then eliminates.  Minimal means that
    `minimalize` returns it unchanged: no relation column has a unit entry
    or lies in the span of the others.  When every variable has positive
    Z-degree, no kept generator is eliminated: a relation with a unit entry
    would put the last same-degree generator it holds into the span of the
    ones kept before it, so the rank is the number of kept generators.
    """
    ring = within.ring
    kept_gens, kept_degs = subquotient_generators(gens, subs, within)
    if not kept_gens:
        return ModulePresentation(ring, kept_degs), ()
    # relations on the kept generators: the combinations landing in the
    # span of subs + ambient relations
    pres = ModulePresentation(ring, kept_degs, syzygies_over(
        ring, kept_gens, within.rank, [*subs, *within.relations]))
    pres, kept2 = minimalize_with_tracking(pres)
    return pres, tuple(kept_gens[i] for i in kept2)


def subquotient_generators(gens: Sequence[Column], subs: Sequence[Column],
                           within: ModulePresentation
                           ) -> tuple[list[Column], list[Bidegree]]:
    """The generators of `subquotient` before it presents them, with their
    bidegrees: a subsequence of `gens`, kept greedily in ascending degree,
    then printed form, each one outside the span of subs, relations and the
    ones kept before it."""
    ring = within.ring
    gens = [column(ring, g, within.rank) for g in gens]
    degs = [vector_bidegree(g, within.bidegrees) for g in gens]
    if any(d is None and g for g, d in zip(gens, degs)):
        raise ValueError("inhomogeneous subquotient generator")
    keep = sorted(minimal_generating_vectors(ring, gens, within.bidegrees, degs,
                                             [*subs, *within.relations]))
    return [gens[i] for i in keep], [degs[i] for i in keep]


# ---------------------------------------------------------------------------
# hom


def hom_module(M: ModulePresentation, N: ModulePresentation) -> ModulePresentation:
    """Hom_R(M, N) as a minimal presented module (`minimalize` returns it
    unchanged).

    For a presentation F1 -> F0 -> M this is the kernel of Hom(F0, N) ->
    Hom(F1, N), phi -> phi o d; for free M it is Hom(F0, N) itself,
    minimalized.  A map sending a generator of bidegree d to an element of
    bidegree e contributes bidegree e - d.
    """
    if M.ring != N.ring:
        raise RingMismatchError("hom across different rings")
    hom0 = hom_free_into(M.bidegrees, N)
    if not M.relations:
        return minimalize(hom0)
    hom1 = hom_free_into(M.relation_bidegrees, N)
    return kernel(ModuleMap(hom0, hom1,
                            precompose_columns(M.relations, M.rank, N)))


def hom_free_into(bidegrees: Sequence[Bidegree], N: ModulePresentation
                  ) -> ModulePresentation:
    """Hom(F, N) = a direct sum of shifted copies of N, for the free module
    F on generators of the given `bidegrees` (a presentation with no
    relations).

    Generators are ordered (F-generator major, N-generator minor)."""
    degs = [dn - df for df in bidegrees for dn in N.bidegrees]
    rels = [{k * N.rank + i: p for i, p in col.items()}
            for k in range(len(bidegrees)) for col in N.relations]
    return ModulePresentation(N.ring, degs, rels)


def precompose_columns(columns: Sequence[Column], rank: int,
                       N: ModulePresentation) -> list[Column]:
    """Columns of Hom(F0, N) -> Hom(F1, N), phi -> phi o d, for d: F1 -> F0
    given by its `columns` over F0 of rank `rank`; generators of both Hom
    modules are ordered as in `hom_free_into`.  The column of the source
    index pair (k, l) holds entry k of column t at position (t, l)."""
    cols: list[Column] = [{} for _ in range(rank * N.rank)]
    for t, col in enumerate(columns):     # ascending t keeps positions sorted
        for k, entry in col.items():
            for l in range(N.rank):
                cols[k * N.rank + l][t * N.rank + l] = entry
    return cols


# ---------------------------------------------------------------------------
# minimal presentations


def minimalize(M: ModulePresentation) -> ModulePresentation:
    return minimalize_with_tracking(M)[0]


def minimalize_with_tracking(M: ModulePresentation
                             ) -> tuple[ModulePresentation, tuple[int, ...]]:
    """Minimal presentation plus the surviving original generator indices.

    Unit (nonzero scalar) entries are eliminated by graded Nakayama, then
    redundant relation columns are pruned in ascending degree so that both
    the generator and the relation counts are minimal.  Each pivot is the
    lowest unit position of the first column that has one.  Elimination
    runs in one pass over the incoming generator numbering: it keeps each
    column's first unit position, a pivot rebuilds only the columns that
    hold an entry at its position, and the generators are renumbered once
    when no unit is left.  Nakayama needs every variable of positive
    Z-degree; otherwise each generator in the span of the relations and of
    the generators kept before it is dropped too, and the module is
    presented again on the kept ones, so the zero module comes out with no
    generators.  The count is then an upper bound, not a minimum.
    """
    ring = M.ring
    gens = list(M.bidegrees)
    origin = list(range(len(gens)))
    cols = list(M.relations)

    while True:
        unit_at = [_first_unit(col) for col in cols]
        eliminated: set[int] = set()
        while True:
            c = next((n for n, i in enumerate(unit_at) if i is not None), None)
            if c is None:
                break
            i = unit_at.pop(c)
            pivot_col = cols.pop(c)
            unit = pivot_col[i].constant_value()
            # gen_i = -1/unit * sum of the other entries; substitute it into
            # the columns that hold it
            for n, col in enumerate(cols):
                factor = col.get(i)
                if factor is None:
                    continue
                col = dict(col)
                del col[i]
                for k, p in pivot_col.items():
                    if k != i:
                        q = col.get(k, ring.zero()) - factor * p / unit
                        col[k] = ring.reduce(q)
                cols[n] = col = {k: p for k, p in sorted(col.items())
                                 if not p.is_zero()}
                unit_at[n] = _first_unit(col)
            eliminated.add(i)
        if eliminated:
            kept = [k for k in range(len(gens)) if k not in eliminated]
            renumber = {k: n for n, k in enumerate(kept)}
            cols = [{renumber[k]: p for k, p in col.items()} for col in cols]
            gens = [gens[k] for k in kept]
            origin = [origin[k] for k in kept]
        if ring.positive or not gens:
            break
        units = [{i: ring.one()} for i in range(len(gens))]
        keep = sorted(minimal_generating_vectors(ring, units, gens, gens, cols))
        if len(keep) == len(gens):
            break
        cols = syzygies_over(ring, [units[i] for i in keep], len(gens), cols)
        gens = [gens[i] for i in keep]
        origin = [origin[i] for i in keep]

    # dedupe then prune columns expressible through the others
    unique = list({tuple(col.items()): col for col in cols if col}.values())
    degs = [vector_bidegree(col, gens) for col in unique]
    keep = minimal_generating_vectors(ring, unique, gens, degs)
    return ModulePresentation(ring, gens, [unique[ix] for ix in keep]), tuple(origin)


def _first_unit(col: Column) -> Optional[int]:
    """The lowest position of a unit (nonzero scalar) entry, or None."""
    return next((i for i, p in col.items() if p.is_unit_scalar()), None)


# ---------------------------------------------------------------------------
# Hilbert tables and invariants


def _staircase(ring: GradedRing, leads: Sequence[Monomial], low: int, top: int):
    """Yield the monomials of Z-degree low..top that no lead monomial
    divides, in ascending exponent order; every variable must have
    positive degree.  They form an order ideal, so the walk raises an
    exponent only while the monomial so far (later exponents zero) is
    standard, testing it against the leads whose last variable is the one
    raised.  The last exponent starts where the Z-degree reaches `low`."""
    zdegs, last = ring.zdegs, ring.nvars - 1
    ending: list[list[Monomial]] = [[] for _ in zdegs]
    for lm in leads:
        if not any(lm):
            return                       # a unit lead: B = 0
        ending[max(i for i, e in enumerate(lm) if e)].append(lm)

    def walk(head: Monomial, room: int):
        i = len(head)
        d, near = zdegs[i], ending[i]
        for e in range(0 if i < last else max(0, -((top - low - room) // d)), room // d + 1):
            mono = head + (e,)
            if e:
                check_deadline()
                for lm in near:
                    if all(map(le, lm, mono)):
                        return
            yield from walk(mono, room - e * d) if i < last else (mono,)
    yield from walk((), top)


def _minimal_monomials(monos: Sequence[Monomial]) -> list[Monomial]:
    """The minimal generators of the monomial ideal (monos), in ascending
    total degree: a divisor never has a larger total degree."""
    out: list[Monomial] = []
    for m in sorted(set(monos), key=lambda m: (sum(m), m)):
        if not any(monomial_divides(g, m) for g in out):
            out.append(m)
    return out


def _numerator(ring: GradedRing, gens: Sequence[Monomial], top: int
               ) -> dict[tuple[int, int], int]:
    """The numerator N of the bigraded Hilbert series of S/J, J = (gens),
    as {(zdeg, weight): coefficient}, up to zdeg `top`.

    N(0) = 1 and N(J + (m)) = N(J) - t^deg(m) w^wt(m) N(J : m), unrolled
    over the minimal generators m_1, ..., m_r of J: N(J) = 1 - sum_i
    t^deg(m_i) w^wt(m_i) N((m_1, ..., m_{i-1}) : m_i).  Generators above
    `top` do not change S/J up to `top`, so they are dropped first.
    """
    check_deadline()
    gens = _minimal_monomials(
        [m for m in gens if ring.monomial_bidegree(m).zdeg <= top])
    if gens and not any(gens[0]):
        return {}                        # J is the unit ideal
    out = {(0, 0): 1}
    for i, m in enumerate(gens):
        d = ring.monomial_bidegree(m)
        colon = [monomial_div(monomial_lcm(g, m), m) for g in gens[:i]]
        for (z, w), c in _numerator(ring, colon, top - d.zdeg).items():
            key = (z + d.zdeg, (w + d.weight) % ring.group_order)
            out[key] = out.get(key, 0) - c
            if not out[key]:
                del out[key]
    return out


def _expand(ring: GradedRing, numerator: dict[tuple[int, int], int], top: int
            ) -> list[list[int]]:
    """dims[z][w] for 0 <= z <= top: the coefficients of the Hilbert series
    numerator / prod over the variables of (1 - t^d w^wt), where
    `numerator` is {(zdeg, weight): coefficient} with every zdeg in 0..top."""
    a = ring.group_order
    dims = [[0] * a for _ in range(top + 1)]
    for (z, w), c in numerator.items():
        dims[z][w] = c
    # multiply by 1/(1 - t^d w^wt) for each variable, one pass each:
    # dims[z][w + wt] += dims[z - d][w], the source row rotated by wt
    for d, wt in zip(ring.zdegs, ring.weights):
        cut = a - wt % a
        for z in range(d, top + 1):
            src = dims[z - d]
            dims[z] = list(map(add, dims[z], src[cut:] + src[:cut]))
    return dims


def _live_generators(M: ModulePresentation, zmax: int
                     ) -> list[tuple[int, Bidegree]]:
    """(index, bidegree) of every generator of zdeg <= zmax, after the
    checks of a Hilbert table: a negative bound is an input error, and when
    some generator is live, so is a variable of degree <= 0, and a table of
    more Z-degrees than the term cap exits 3."""
    if zmax < 0:
        raise InputError("zmax must be >= 0")
    live = [(k, g) for k, g in enumerate(M.bidegrees) if g.zdeg <= zmax]
    if live:
        if not M.ring.positive:
            raise InputError("Hilbert enumeration needs all variable degrees >= 1")
        base = min(g.zdeg for _, g in live)
        check_term_cap(zmax - base + 1,
                       f"Hilbert table from zdeg {base} to {zmax}")
    return live


def hilbert_function(M: ModulePresentation, zmax: int) -> dict[tuple[int, int], int]:
    """Exact dimensions of the bigraded pieces for zdeg <= zmax.

    Keys are (zdeg, weight residue); zero entries are omitted.  The Hilbert
    series is linear in its numerator, so the module's series is one
    expansion of the sum of its positions' numerators (those of their lead
    ideals), each shifted by its generator's bidegree.  Raises on rings with
    non-positive variable degrees, where pieces are infinite, and past the
    term cap on tables of more Z-degrees.
    """
    ring = M.ring
    live = _live_generators(M, zmax)
    if not live:
        return {}
    a = ring.group_order
    base = min(g.zdeg for _, g in live)
    gb = M.span.gb
    numerator: dict[tuple[int, int], int] = {}
    for k, g in live:
        shift = g.zdeg - base
        for (z, w), c in _numerator(ring, gb.lead_monomials(k), zmax - g.zdeg).items():
            key = (z + shift, (w + g.weight) % a)
            numerator[key] = numerator.get(key, 0) + c
    return {(base + z, w): dim
            for z, row in enumerate(_expand(ring, numerator, zmax - base))
            for w, dim in enumerate(row) if dim}


def invariant_part(M: ModulePresentation, bound: int
                   ) -> tuple[dict[int, int], list[str]]:
    """The weight-zero part up to zdeg `bound`.

    Returns the dimension table {zdeg: dim}, read off each position's
    Hilbert series, and the first 24 printable representatives (standard
    monomials times generators), generator-major, then by zdeg; only the
    Z-degrees they come from are walked, each until its last one is found.
    """
    ring = M.ring
    dims: dict[int, int] = {}
    elements: list[str] = []
    for k, g in _live_generators(M, bound):
        leads = M.span.gb.lead_monomials(k)
        top, w0 = bound - g.zdeg, -g.weight % ring.group_order
        for z, row in enumerate(_expand(ring, _numerator(ring, leads, top), top)):
            if not row[w0]:
                continue
            dims[g.zdeg + z] = dims.get(g.zdeg + z, 0) + row[w0]
            found = (mono for mono in _staircase(ring, leads, z, z)
                     if ring.monomial_bidegree(mono).weight == w0)
            for mono in islice(found, min(row[w0], 24 - len(elements))):
                mono_str = str(ring.monomial(mono)) if any(mono) else "1"
                elements.append(f"{mono_str}*e{k + 1} (zdeg {g.zdeg + z})")
    return dims, elements


# ---------------------------------------------------------------------------
# ring morphisms and restriction of scalars


class NotModuleFiniteError(InputError):
    """The target is not finite over the image of the source."""


class RingMorphism:
    """A bidegree-compatible finite ring map A -> B, one image per variable.

    Weights are compared through the canonical index map Z/a_A -> Z/a_B
    (multiplication by a_B/a_A, requiring a_A | a_B); Z-degrees must match
    exactly.  The source ideal must map into the target ideal.  Declaring
    the map builds `weighted_source`, the source regraded by the target
    group, and `graph`, the graph basis G, which decides finiteness and
    presents B over A; `module_generators`, the staircase of G, is built on
    first read.
    """

    def __init__(self, source: GradedRing, target: GradedRing,
                 images: Sequence[Polynomial], name: str = "f"):
        self.source = source
        self.target = target
        self.name = name
        if len(images) != source.nvars:
            raise ValueError("need one image per source variable")
        if target.group_order % source.group_order != 0:
            raise ValueError("source group order must divide the target's")
        self.multiplier = target.group_order // source.group_order
        self.images = tuple(target.reduce(p) for p in images)
        for idx, img in enumerate(self.images):
            if img.is_zero():
                continue  # zero is homogeneous of every bidegree
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
        if not target.positive:
            raise ValueError("module-finiteness detection needs positive degrees")
        # the source regraded by the target group: each variable takes the
        # transported weight of its image (so also for a zero image)
        base = GradedRing(source.variables, source.zdegs,
                          [w * self.multiplier for w in source.weights],
                          target.group_order, (), source.order, source.name)
        ideal = tuple(base.reinterpret(g) for g in source.ideal)
        self.weighted_source = base.quotient(ideal) if ideal else base
        self.graph = self._graph_basis()
        # B is finite over A exactly when every target variable has a pure
        # power among the source-free leads of G, which eliminates the
        # target block (the Finiteness Theorem of Cox, Little & O'Shea, 5.3,
        # over the source); sound also where a source variable of degree 0
        # maps to a unit
        nt = target.nvars
        self._leads = [lm[:nt] for lm in self.graph.leads if not any(lm[nt:])]
        self._powers = _pure_powers(self._leads, nt)
        if self._powers is None:
            raise NotModuleFiniteError(
                f"{name}: target is not module-finite over the source images")

    def __repr__(self):
        imgs = ", ".join(f"{v} -> {p}" for v, p in zip(self.source.variables, self.images))
        return f"{self.name}: {self.source!r} -> {self.target!r} {{{imgs}}}"

    def _graph_basis(self):
        """The reduced Groebner basis G of the graph ideal (target ideal,
        source_var - image) in Q[target vars, renamed source vars] under an
        order eliminating the target block, graded there by the target
        Z-degrees."""
        svars = [v + "~" for v in self.source.variables]
        ring = GradedRing(
            self.target.variables + tuple(svars),
            self.target.zdegs + self.source.zdegs,
            self.target.weights + self.weighted_source.weights,
            self.target.group_order,
            order=MonomialOrder(head_degrees=self.target.zdegs),
            name="mixed")
        pad = (0,) * len(svars)

        def widen(p: Polynomial) -> Polynomial:
            return ring.poly({m + pad: c for m, c in p.terms.items()})

        graph = [widen(g) for g in self.target.ideal]
        graph += [ring.var(v) - widen(img) for v, img in zip(svars, self.images)]
        return buchberger(graph, ring=ring)

    # -- elementwise ---------------------------------------------------------

    def apply(self, p: Polynomial) -> Polynomial:
        """Push a source polynomial through the variable images (reduced)."""
        return self.target.reduce(substitute(p, self.target.ambient(), self.images))

    def transport_bidegree(self, d: Bidegree) -> Bidegree:
        return Bidegree(d.zdeg, d.weight * self.multiplier, self.target.group_order)

    def transport_module(self, M: ModulePresentation) -> ModulePresentation:
        """Reinterpret a source module over the weighted source ring."""
        if M.ring.ambient().signature != self.source.ambient().signature:
            raise RingMismatchError("module is not over the morphism source")
        ring = self.weighted_source
        degs = [self.transport_bidegree(d) for d in M.bidegrees]
        rels = [{pos: ring.reinterpret(p) for pos, p in col.items()}
                for col in M.relations]
        return ModulePresentation(ring, degs, rels)

    # -- the staircase basis ---------------------------------------------------

    @cached_property
    def module_generators(self) -> tuple[tuple[Monomial, ...], tuple[Bidegree, ...]]:
        """Monomial basis of B over (images of) A: the target monomials that
        no source-free lead of the graph basis G divides, sorted by bidegree
        then order key; each divides the corner prod x_i^(k_i - 1) of the
        least pure powers x_i^k_i among the leads.  By graded Nakayama they
        minimally generate B over A when every source variable has positive
        degree."""
        bound = sum(max(k - 1, 0) * d for k, d in zip(self._powers, self.target.zdegs))
        found = sorted(_staircase(self.target.ambient(), self._leads, 0, bound),
                       key=lambda m: (self.target.monomial_bidegree(m).zdeg,
                                      self.target.order.key(m)))
        return tuple(found), tuple(self.target.monomial_bidegree(m) for m in found)

    def coordinates(self, b: Monomial, e: Optional[Monomial] = None) -> Column:
        """Write f(y^e) * x^b over the staircase basis with source
        coefficients, f(y^e) * x^b = sum_k f(a_k) * b_k in B, from the
        normal form of the graph monomial x^b * y~^e modulo G (e = None
        reads x^b alone).  The column {k: a_k} has its entries over the
        ambient of the weighted source, not reduced modulo its ideal."""
        monos, _ = self.module_generators
        nt = self.target.nvars
        if e is None:
            e = (0,) * self.source.nvars
        nf = normal_form(self.graph.ring.monomial(b + e), self.graph)
        coords: dict[int, dict] = {}
        for mono, coeff in nf.terms.items():
            if mono[:nt] not in monos:
                raise RuntimeError(f"normal form of x^{b} y~^{e} left the staircase")
            coords.setdefault(monos.index(mono[:nt]), {})[mono[nt:]] = coeff
        source_ambient = self.weighted_source.ambient()
        return {k: source_ambient.poly(coords[k]) for k in sorted(coords)}


def _pure_powers(leads: Sequence[Monomial], nvars: int) -> Optional[list[int]]:
    """Least pure power of each variable among the lead monomials (a unit
    lead counts as the zeroth power of all); None if some variable has
    none (the staircase is then infinite)."""
    out: list[int] = []
    for idx in range(nvars):
        powers = [lm[idx] for lm in leads if sum(lm) == lm[idx]]
        if not powers:
            return None
        out.append(min(powers))
    return out


def restrict_along(f: RingMorphism) -> ModulePresentation:
    """B, the target of f, as a module over the (weighted) source A.

    The generators are the staircase monomials b_k.  A product y^e * b_k of
    a source monomial and a generator is a standard monomial of the graph
    ideal unless a lead x^g * y^e of its basis G has x^g | b_k; for each
    such lead, y^e * e_k - coordinates(b_k, e) is a relation.  These
    relations span every relation, but need not be minimal: reducing a
    relation vector by them lowers its largest non-standard term, and a
    vector of standard terms alone is its own normal form.  `resolve`
    prunes them once, with its opening `minimalize`.
    """
    monos, mono_degs = f.module_generators
    ring_a = f.weighted_source
    nt = f.target.nvars
    rel_cols: list[Column] = []
    for k, b in enumerate(monos):
        for lead in f.graph.leads:
            if not monomial_divides(lead[:nt], b):
                continue
            e = lead[nt:]
            col = {pos: -c for pos, c in f.coordinates(b, e).items()}
            col[k] = col.get(k, ring_a.zero()) + ring_a.monomial(e)
            rel_cols.append(col)
    return ModulePresentation(ring_a, mono_degs, rel_cols)
