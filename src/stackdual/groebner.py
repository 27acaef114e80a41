"""Buchberger Groebner bases, normal forms, and syzygies.

A column, an element of a free module R^n, is {position: Polynomial}: only
nonzero entries, each reduced modulo the ring ideal, in ascending position
order; the rank lives on the module presentation.  Every module value outside this
file is a column.  `column` builds one.  `printed_column` is its dense
rendering, for report text; `column_order_key` sorts columns exactly as
their printed forms do but reads only the stored entries.

One engine, private to this file, works on flat vectors {(position,
monomial): coefficient} with the term-over-position order induced by the
ring order.  Every module basis starts in `SubmoduleOracle`, the one door:
columns are flattened where they enter it and projected straight back.  A
span-only oracle (`contains`, `extend`: presentation spans and
`minimal_generating_vectors`) grows with `extend`, keeps no expressions and
drops S-pairs by the chain criterion; the product criterion does not hold
for module elements.  `contains` keeps the remainder of the column it was
asked about, and an `extend` of that same column inserts that remainder
instead of reducing the column again, so a greedy loop that asks and then
keeps reduces each kept candidate once.  A liftable one (`lift`,
`syzygies`, and so `syzygies_over`) is fixed at construction: it records
how every basis element is expressed in the inputs and processes every
S-pair, so Schreyer syzygies fall out of the S-pair reductions.  Liftable
oracles come from `liftable_oracle`, which builds each one once per
command and hands the same oracle to every caller with equal inputs.  An
ideal is a rank-1 submodule, so `buchberger` and `normal_form` run on the
same engine.
Quotient rings B = C/I are handled by lifting to the ambient ring and
adjoining I times the unit vectors, then projecting back.

Everything is deterministic: pair selection, generator order and the final
bases do not depend on dict iteration order.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Mapping, Optional, Sequence

from .caps import check_deadline, check_term_cap, command_table
from .poly import (Bidegree, GradedRing, Monomial, MonomialOrder, Polynomial,
                   RingMismatchError, Scalar, coefficient, monomial_div,
                   monomial_divides, monomial_lcm, monomial_mul)

Column = dict[int, Polynomial]


def column(ring: GradedRing, entries: Mapping[int, Polynomial],
           rank: int) -> Column:
    """The column of R^rank with the given entries: each reduced modulo the
    ring ideal, zeros dropped, positions ascending.  Raises ValueError for
    a position outside 0..rank-1 and RingMismatchError for an entry of
    another ring."""
    out: Column = {}
    for pos in sorted(entries):
        if not 0 <= pos < rank:
            raise ValueError(f"column position {pos} outside rank {rank}")
        p = entries[pos]
        if not p.is_zero():
            p = ring.reduce(p)
            if not p.is_zero():
                out[pos] = p
    return out


def printed_column(col: Column, rank: int) -> tuple[str, ...]:
    """The printed entries of a column at every position 0..rank-1, "0"
    where nothing is stored."""
    return tuple(str(col[i]) if i in col else "0" for i in range(rank))


def column_order_key(col: Column) -> tuple:
    """A key that orders columns of one rank exactly as `printed_column`
    does.  Two printed tuples first differ where one column stores an entry
    s that the other lacks or stores differently, and s sorts after the
    other's "0" exactly when s > "0".  So a stored entry at pos keys as
    (1, -pos, s) when s > "0" and as (-1, pos, s) otherwise, and the key
    ends with (0,), which sorts between the two kinds."""
    out = []
    for pos, p in col.items():
        s = str(p)
        out.append((1, -pos, s) if s > "0" else (-1, pos, s))
    out.append((0,))
    return tuple(out)


def lead_coefficient(col: Column, order: MonomialOrder) -> Scalar:
    """The coefficient of a nonzero column's lead term in the
    term-over-position order: the largest monomial, lower positions winning
    ties."""
    _, p = max(col.items(),
               key=lambda item: (order.key(item[1].leading_term(order)[0]),
                                 -item[0]))
    return p.leading_term(order)[1]


def vector_bidegree(vec: Column, gen_bidegrees: Sequence[Bidegree]
                    ) -> Optional[Bidegree]:
    """Common bidegree of a homogeneous column (entry degree + generator
    degree must agree across entries); None if inhomogeneous or zero."""
    found: Optional[Bidegree] = None
    for pos, p in vec.items():
        d = p.bidegree()
        if d is None:
            return None
        total = d + gen_bidegrees[pos]
        if found is None:
            found = total
        elif found != total:
            return None
    return found


# ---------------------------------------------------------------------------
# module engine
#
# A module element of R^n is stored as dict[(position, monomial)] -> scalar,
# each scalar an `int` when it is integral, else a `Fraction` (the canonical
# form of `poly.coefficient`; floats are refused), the same representation
# as `Polynomial.terms`, so flattening and projecting convert nothing.  The
# module order is term-over-position: monomials compare by the ring order
# first, lower positions win ties.


VecDict = dict[tuple[int, Monomial], Scalar]


def _flatten(col: Column, ring: GradedRing) -> VecDict:
    """A column as one flat vector; each entry must share `ring`'s ambient
    signature."""
    out: VecDict = {}
    for pos, p in col.items():
        if p.ring is not ring and not ring.same_ambient(p.ring):
            raise RingMismatchError(f"vector entry {p} does not live over {ring!r}")
        for m, c in p.terms.items():
            out[(pos, m)] = c
    return out


def _project(vec: VecDict, ring: GradedRing, positions: Sequence[Optional[int]],
             rank: int) -> Column:
    """The column of R^rank whose entry at positions[k] is the part of vec
    at engine position k; engine positions past the list, or mapped to
    None, are dropped."""
    terms: dict[int, dict] = {}
    for (k, m), c in vec.items():
        if k < len(positions) and positions[k] is not None:
            terms.setdefault(positions[k], {})[m] = c
    return column(ring, {pos: Polynomial(ring, t) for pos, t in terms.items()},
                  rank)


def _vec_key(order: MonomialOrder):
    def key(posmono):
        pos, mono = posmono
        return (order.key(mono), -pos)
    return key


def _vec_lead(vec: VecDict, order: MonomialOrder):
    k = max(vec, key=_vec_key(order))
    return k, vec[k]


def _vec_add_term(vec: VecDict, key, coeff: Scalar) -> None:
    s = vec.get(key, 0) + coeff
    if s == 0:
        vec.pop(key, None)
    else:
        vec[key] = s if type(s) is int or s.denominator != 1 else s.numerator


def _vec_axpy(target: VecDict, mono: Monomial, coeff: Scalar, src: VecDict) -> None:
    """target += coeff * mono * src"""
    for (pos, m), c in src.items():
        _vec_add_term(target, (pos, monomial_mul(m, mono)), c * coeff)
    check_term_cap(len(target), "module vector")


def _vec_scale(vec: VecDict, coeff: Scalar) -> VecDict:
    return {k: coefficient(c * coeff) for k, c in vec.items()}


def _vec_reduce(vec: VecDict, basis: list[VecDict], order: MonomialOrder,
                by_pos: dict[int, list[tuple[Monomial, int]]],
                track: bool = False):
    """Full reduction of vec by the monic basis.

    `by_pos` indexes the basis leads per position as (monomial, basis
    index), in basis order.  Returns (remainder, quotients): quotients
    maps the index i of each basis element used to a terms dict, with vec =
    sum_i quotients[i]*basis[i] + remainder; it is empty unless `track`.
    """
    quotients: dict[int, dict] = {}
    remainder: VecDict = {}
    current = dict(vec)
    keyf = _vec_key(order)
    while current:
        check_deadline()
        key = max(current, key=keyf)
        pos, mono = key
        coeff = current[key]
        for bmono, i in by_pos.get(pos, ()):
            if monomial_divides(bmono, mono):
                q = monomial_div(mono, bmono)
                _vec_axpy(current, q, -coeff, basis[i])
                if track:
                    quotients.setdefault(i, {})[q] = coeff
                break
        else:
            remainder[key] = coeff
            del current[key]
    return remainder, quotients


class _TrackedGB:
    """Module Groebner basis of the span of the input vectors; only
    `SubmoduleOracle` and `buchberger` build one.

    Input vector i carries the index i (zero inputs keep their index and
    contribute nothing).

    With `track=True` every basis element carries its representation over
    the inputs (`reps`), so `express` writes any span element over the
    inputs.  Every same-position S-pair is processed, and the
    representations of those that reduce to zero are the Schreyer syzygies
    (`syzygies`).  Such a basis is fixed at construction.

    With `track=False` only the span is built: no representations, no
    quotients, no syzygies; `extend` grows the span by a vector that is not
    already in it and completes the basis.  A pair (i, j) is skipped by the
    chain criterion (Gebauer-Moller): some same-position lead k divides
    lcm(i, j) and neither (i, k) nor (j, k) is still pending.  The product
    criterion does not hold for module elements: for f = x*e1 and
    g = y*e1 + e2 the S-vector -x*e2 does not reduce to zero.

    Pair keys are computed once and kept in a heap; leads are cached and
    indexed per position (basis elements are monic and never mutated after
    insertion).  Pairs pop by the Z-degree of their lcm first, then by the
    order (the sugar strategy for homogeneous input), so a basis completes
    degree by degree instead of growing large before it reduces.
    """

    def __init__(self, vectors: Sequence[VecDict], ring: GradedRing,
                 track: bool = False):
        self.ring = ring
        self.order = ring.order
        self.track = track
        self.basis: list[VecDict] = []
        self.leads: list[tuple[int, Monomial]] = []
        # per position: (lead monomial, basis index), in basis order
        self.by_pos: dict[int, list[tuple[Monomial, int]]] = {}
        self.reps: list[VecDict] = []          # over the input index space
        self.syzygies: list[VecDict] = []      # likewise
        self._heap: list = []
        self._pending: set[tuple[int, int]] = set()
        self._unit = (0,) * ring.nvars
        for i, v in enumerate(vectors):
            if v:
                self._insert(dict(v), {(i, self._unit): 1})
        self._complete()

    def _insert(self, vec: VecDict, rep: Optional[VecDict]) -> None:
        check_term_cap(len(vec), "module vector")
        (posmono, lc) = _vec_lead(vec, self.order)
        if lc != 1:
            # -1 is its own inverse, and 1 / lc would be a float for an int lc
            inverse = -1 if lc == -1 else coefficient(Fraction(1) / lc)
            vec = _vec_scale(vec, inverse)
            if self.track:
                rep = _vec_scale(rep, inverse)
        self.basis.append(vec)
        if self.track:
            self.reps.append(rep)
        self.leads.append(posmono)
        new = len(self.basis) - 1
        npos, nmono = posmono
        same = self.by_pos.setdefault(npos, [])
        for kmono, k in same:
            lcm = monomial_lcm(kmono, nmono)
            key = (sum(e * d for e, d in zip(lcm, self.ring.zdegs)),
                   self.order.key(lcm))
            heapq.heappush(self._heap, (key, npos, k, new, lcm))
            self._pending.add((k, new))
        same.append((nmono, new))

    def _add_reps(self, target: VecDict, quotients: dict[int, dict],
                  sign: Scalar) -> None:
        """target += sign * sum_t quotients[t] * reps[t]"""
        for t in sorted(quotients):
            for mono, coeff in quotients[t].items():
                _vec_axpy(target, mono, sign * coeff, self.reps[t])

    def _chain(self, pos: int, i: int, j: int, lcm: Monomial) -> bool:
        pending = self._pending
        for kmono, k in self.by_pos[pos]:
            if (k != i and k != j and monomial_divides(kmono, lcm)
                    and (min(i, k), max(i, k)) not in pending
                    and (min(j, k), max(j, k)) not in pending):
                return True
        return False

    def _complete(self) -> None:
        while self._heap:
            check_deadline()
            _, pos, i, j, lcm = heapq.heappop(self._heap)
            self._pending.discard((i, j))
            if not self.track and self._chain(pos, i, j, lcm):
                continue
            mi = self.leads[i][1]
            mj = self.leads[j][1]
            s: VecDict = {}
            _vec_axpy(s, monomial_div(lcm, mi), 1, self.basis[i])
            _vec_axpy(s, monomial_div(lcm, mj), -1, self.basis[j])
            if not self.track:
                remainder, _ = self.reduce(s)
                if remainder:
                    self._insert(remainder, None)
                continue
            srep: VecDict = {}
            _vec_axpy(srep, monomial_div(lcm, mi), 1, self.reps[i])
            _vec_axpy(srep, monomial_div(lcm, mj), -1, self.reps[j])
            remainder, quotients = self.reduce(s, track=True)
            self._add_reps(srep, quotients, -1)
            if remainder:
                self._insert(remainder, srep)
            elif srep:
                self.syzygies.append(srep)

    def extend(self, remainder: VecDict) -> None:
        """Grow a span-only basis by `remainder`, a nonzero vector that this
        basis already reduces to itself, and complete it."""
        self._insert(remainder, None)
        self._complete()

    # -- queries -------------------------------------------------------------

    def reduce(self, vec: VecDict, track: bool = False):
        if track and not self.track:
            raise RuntimeError("span-only Groebner basis (track=False) "
                               "keeps no representations")
        return _vec_reduce(vec, self.basis, self.order, self.by_pos,
                           track=track)

    def reduces_by_itself(self, b: int) -> bool:
        """Whether basis element b comes first among those whose lead
        divides its own, so that reducing it subtracts it once and leaves
        zero."""
        pos, mono = self.leads[b]
        return next(k for kmono, k in self.by_pos[pos]
                    if monomial_divides(kmono, mono)) == b

    def express(self, vec: VecDict) -> Optional[VecDict]:
        """Write vec over the input vectors; None if vec is not in the span."""
        remainder, quotients = self.reduce(vec, track=True)
        if remainder:
            return None
        out: VecDict = {}
        self._add_reps(out, quotients, 1)
        return out


# ---------------------------------------------------------------------------
# ideals: rank-1 modules on the same engine


@dataclass(frozen=True)
class GroebnerBasis:
    """A reduced Groebner basis; leads[i] is the lead monomial of generators[i]."""
    ring: GradedRing
    generators: tuple[Polynomial, ...]
    leads: tuple[Monomial, ...]

    def __len__(self):
        return len(self.generators)

    @cached_property
    def _engine(self) -> tuple[list[VecDict], dict[int, list[tuple[Monomial, int]]]]:
        """The generators as rank-1 flat vectors and their lead index, the
        form `normal_form` reduces by, converted once per basis."""
        return ([_rank1(g) for g in self.generators],
                {0: [(lm, i) for i, lm in enumerate(self.leads)]})


def _rank1(p: Polynomial) -> VecDict:
    return {(0, m): c for m, c in p.terms.items()}


def buchberger(gens: Sequence[Polynomial],
               ring: GradedRing | None = None) -> GroebnerBasis:
    """Reduced Groebner basis under the ring's order: monic, inter-reduced,
    sorted by descending lead.

    The ideal is the rank-1 submodule spanned by the generators, so the
    span-only module engine builds the basis.  The empty input is the zero
    ideal.
    """
    gens = [g for g in gens if not g.is_zero()]
    if ring is None:
        if not gens:
            raise ValueError("need a ring for the empty ideal")
        ring = gens[0].ring
    for g in gens:
        if not ring.same_ambient(g.ring):
            raise RingMismatchError("generators live in different rings")
    order = ring.order
    gb = _TrackedGB([_rank1(g) for g in gens], ring)

    # minimalize: a global order makes every proper divisor strictly smaller,
    # so processing leads in ascending order sees divisors first
    minimal: list[int] = []
    for i in sorted(range(len(gb.basis)), key=lambda i: order.key(gb.leads[i][1])):
        if not any(monomial_divides(gb.leads[k][1], gb.leads[i][1]) for k in minimal):
            minimal.append(i)

    # inter-reduce: the reduced element with lead m is m + NF(tail), and the
    # normal form modulo any Groebner basis of the ideal is unique
    final = []
    for i in reversed(minimal):
        tail = dict(gb.basis[i])
        del tail[gb.leads[i]]
        remainder, _ = gb.reduce(tail)
        remainder[gb.leads[i]] = 1
        final.append(Polynomial(ring, {m: c for (_, m), c in remainder.items()}))
    return GroebnerBasis(ring, tuple(final),
                         tuple(gb.leads[i][1] for i in reversed(minimal)))


def normal_form(p: Polynomial, gb: GroebnerBasis) -> Polynomial:
    """Unique remainder of p modulo a Groebner basis; zero iff p is in the ideal."""
    if not p.ring.same_ambient(gb.ring):
        raise RingMismatchError("polynomial and basis live in different rings")
    basis, by_pos = gb._engine
    remainder, _ = _vec_reduce(_rank1(p), basis, gb.ring.order, by_pos)
    return Polynomial(p.ring, {m: c for (_, m), c in remainder.items()})


# ---------------------------------------------------------------------------
# quotient-ring wrappers


def _ideal_rows(ring: GradedRing, rank: int) -> list[VecDict]:
    rows = []
    if ring.ideal:
        for g in ring.ideal_groebner().generators:
            for pos in range(rank):
                rows.append({(pos, m): c for m, c in g.terms.items()})
    return rows


def syzygies_over(ring: GradedRing, vectors: Sequence[Column], rank: int,
                  context: Sequence[Column] = ()) -> list[Column]:
    """Relations among `vectors` modulo span(context) + I * R^rank, for I the
    ideal of the (possibly quotient) ring and every column of R^rank.

    A relation is a column a of R^len(vectors), with sum_i a_i * vectors[i]
    in that submodule; the result generates all of them, as read off the
    command's liftable oracle over those inputs by `SubmoduleOracle.syzygies`.
    """
    if not vectors:
        return []
    return list(liftable_oracle(ring, [*vectors, *context], rank)
                .syzygies(len(vectors)))


def liftable_oracle(ring: GradedRing, generators: Sequence[Column],
                    rank: int) -> "SubmoduleOracle":
    """The liftable oracle over `generators` in R^rank, built once per
    command: equal inputs (the same ring object, rank and columns) get the
    same oracle from `caps.command_table`.  A liftable oracle never changes
    after it is built, so sharing it changes no result."""
    key = (id(ring), rank, tuple(tuple(v.items()) for v in generators))
    table = command_table()
    oracle = table.get(key)
    if oracle is None:
        # the oracle keeps `ring` alive, so its id is not reused in the table
        oracle = table[key] = SubmoduleOracle(ring, generators, rank,
                                              liftable=True)
    return oracle


class SubmoduleOracle:
    """Membership, lifting and syzygies for a tuple of generators over a
    ring: the one door into the module engine.

    Over a quotient ring the span implicitly includes I times the free
    module, so `lift` returns coordinates valid modulo the ideal.  The
    default builds the span alone, which is all that `contains` and
    `extend` need: presentation spans and `minimal_generating_vectors` use
    it, and it grows with `extend`, so it is never shared.  An oracle built
    with `liftable=True` tracks representations, so it can also `lift` and
    read off `syzygies`; it is fixed at construction, and `extend` refuses
    it.  The pipeline takes liftable oracles from `liftable_oracle`, which
    builds each one once per command.
    """

    def __init__(self, ring: GradedRing, generators: Sequence[Column], rank: int,
                 liftable: bool = False):
        self.ring = ring
        self.rank = rank
        self.ngens = len(generators)
        self.ambient = ring.ambient()
        rows = ([_flatten(v, self.ambient) for v in generators]
                + _ideal_rows(ring, rank))
        self.gb = _TrackedGB(rows, self.ambient, track=liftable)
        # the GB inputs, which `syzygies` expresses over themselves
        self._inputs = rows
        self._syzygies: dict[int, list[Column]] = {}
        # the last column `contains` answered and its remainder, which
        # `extend` of that same column inserts instead of reducing again
        self._last: tuple[Column, VecDict] | None = None

    def contains(self, v: Column) -> bool:
        remainder, _ = self.gb.reduce(_flatten(v, self.ambient))
        self._last = (v, remainder)
        return not remainder

    def extend(self, v: Column) -> None:
        """Append v as generator number `ngens` of a span-only oracle.
        Raises RuntimeError on a liftable one."""
        if self.gb.track:
            raise RuntimeError("a liftable oracle is fixed at construction")
        last, self._last = self._last, None
        remainder = (last[1] if last is not None and last[0] is v
                     else self.gb.reduce(_flatten(v, self.ambient))[0])
        if remainder:
            self.gb.extend(remainder)
        self.ngens += 1

    def syzygies(self, heads: int) -> list[Column]:
        """Generators of the relations among the first `heads` generators
        modulo the others and I * R^rank, as columns of R^heads: Schreyer's
        S-pair relations plus e_i minus the expression of input i (e_i for
        a zero input), projected, deduplicated and sorted by printed column,
        not minimalized.  The list is computed once per `heads` and kept on
        the oracle, so callers must not change it.  Raises RuntimeError
        unless the oracle is liftable."""
        gb = self.gb
        if not gb.track:
            raise RuntimeError("syzygies need a liftable oracle")
        if heads in self._syzygies:
            return self._syzygies[heads]
        relations = list(gb.syzygies)
        b = -1  # nonzero inputs go into the basis first, in order
        for i, v in enumerate(self._inputs):
            if v:
                b += 1
                if gb.reduces_by_itself(b):
                    # so v expresses as e_i, and its relation is zero
                    continue
            delta: VecDict = {(i, gb._unit): 1}
            for k, c in gb.express(v).items():
                _vec_add_term(delta, k, -c)
            relations.append(delta)
        cols = (_project(s, self.ring, range(heads), heads) for s in relations)
        unique = {tuple(col.items()): col for col in cols if col}
        found = self._syzygies[heads] = sorted(unique.values(),
                                               key=column_order_key)
        return found

    def lift(self, v: Column) -> Optional[Column]:
        """Coordinates a, a column of R^ngens, with v = sum a_i * gen_i
        modulo I * R^rank.

        Raises RuntimeError unless the oracle was built with liftable=True.
        """
        expr = self.gb.express(_flatten(v, self.ambient))
        if expr is None:
            return None
        return _project(expr, self.ring, range(self.ngens), self.ngens)


def minimal_generating_vectors(ring: GradedRing, vectors: Sequence[Column],
                               rank: int, bidegrees: Sequence | None = None,
                               context: Sequence[Column] = ()) -> list[int]:
    """Indices of a minimal generating subset modulo `context`, in the
    greedy order: ascending degree, then printed form.

    The single greedy minimality loop of the package: one oracle over the
    context grows by each candidate that it does not already contain.  The
    ring is assumed connected (scalars in degree zero), so graded Nakayama
    makes the kept count well-defined.
    """
    def zdeg_of(i):
        if bidegrees is not None and bidegrees[i] is not None:
            return bidegrees[i].zdeg
        return min(min(ring.monomial_bidegree(m).zdeg for m in p.terms)
                   for p in vectors[i].values())

    order = sorted((i for i, v in enumerate(vectors) if v),
                   key=lambda i: (zdeg_of(i), column_order_key(vectors[i])))
    if not order:
        return []
    oracle = SubmoduleOracle(ring, context, rank)
    kept: list[int] = []
    for i in order:
        if not oracle.contains(vectors[i]):
            oracle.extend(vectors[i])
            kept.append(i)
    return kept
