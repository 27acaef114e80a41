"""Buchberger Groebner bases, normal forms, and syzygies.

A column, an element of a free module R^n, is {position: Polynomial}: only
nonzero entries, each reduced modulo the ring ideal, in ascending position
order; the rank lives on the module presentation.  Every module value outside this
file is a column.  `column` builds one.  `printed_column` is its dense
rendering, for report text; `column_order_key` sorts columns exactly as
their printed forms do but reads only the stored entries.

One engine, private to this file, works on flat vectors {term key:
coefficient}, a term key being one integer that packs the monomial's
`MonomialOrder.key` with the position, so that integers compare as the
term-over-position order induced by the ring order does (see "module
engine" below).  Every module basis starts in `SubmoduleOracle`, the one door:
columns are flattened where they enter it and projected straight back.  A
span-only oracle (`contains`, `add`: presentation spans and
`minimal_generating_vectors`) grows with `add`, keeps no expressions and
drops S-pairs by the chain criterion; the product criterion does not hold
for module elements.  `add` asks `contains` and inserts the remainder that
`contains` kept, so the greedy loop reduces each candidate once.  The
oracle of `minimal_generating_vectors` is degree-truncated when its input
is homogeneous over a positively graded ring: it processes an S-pair only
when a query of at least that pair's Z-degree needs it, so candidates
never pay for pairs above their own degree.  A liftable oracle (`lift`,
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
from operator import mul
from typing import Mapping, Optional, Sequence

from .caps import check_deadline, check_term_cap, command_table
from .poly import (FIELD_MASK, FIELD_MAX, Bidegree, GradedRing, Monomial,
                   Polynomial, RingMismatchError, Scalar, coefficient,
                   from_packed, key_range_error, monomial_lcm)

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


def lead_coefficient(col: Column, ring: GradedRing) -> Scalar:
    """The coefficient of a nonzero column's lead term in the
    term-over-position order: the largest monomial, lower positions winning
    ties."""
    vec = _flatten(col, ring)
    return vec[max(vec)]


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
# A module element of R^n is stored as dict[term] -> scalar, the scalars in
# the canonical form of `poly.coefficient`.  A term is the int
# key << 64 | (FIELD_MAX - position), key being the monomial's `PackedKeys`
# key, so terms compare as the term-over-position order does and a lead is
# `max(vec)`.  Adding (key(m) - one) << 64 multiplies a term by m, and a lead
# b divides a term t of its position exactly when (one + t - b) has no guard
# bit set; t - b is then the quotient.  Every product checks the guard bits,
# so an exponent past its field raises ResourceCapError.  A `Polynomial`
# stores the same keys (`Polynomial.packed`), so a column enters the engine
# by a shift of each key (`_flatten`, `_rank1`) and leaves it by the
# opposite shift (`_project`); no monomial is encoded or decoded on the
# way.  Only the pair lcm of `_TrackedGB._insert` needs exponents, and each
# lead is decoded once, when it is inserted.


VecDict = dict[int, Scalar]


def _position(term: int) -> int:
    return FIELD_MAX - (term & FIELD_MASK)


def _flatten(col: Column, ring: GradedRing) -> VecDict:
    """A column as one flat vector; each entry must share `ring`'s ambient
    signature."""
    out: VecDict = {}
    for pos, p in col.items():
        if p.ring is not ring and not ring.same_ambient(p.ring):
            raise RingMismatchError(f"vector entry {p} does not live over {ring!r}")
        low = FIELD_MAX - pos
        for k, c in p.packed.items():
            out[(k << 64) + low] = c
    return out


def _project(vec: VecDict, ring: GradedRing, positions: Sequence[Optional[int]],
             rank: int) -> Column:
    """The column of R^rank whose entry at positions[k] is the part of vec
    at engine position k; engine positions past the list, or mapped to
    None, are dropped."""
    terms: dict[int, dict] = {}
    for t, c in vec.items():
        k = _position(t)
        if k < len(positions) and positions[k] is not None:
            terms.setdefault(positions[k], {})[t >> 64] = c
    return column(ring, {pos: from_packed(ring, t) for pos, t in terms.items()},
                  rank)


def _vec_axpy(target: VecDict, q: int, coeff: Scalar, src: VecDict,
              guards: int) -> None:
    """target += coeff * m * src, for q the shifted key difference
    (key(m) - one) << 64 of the monomial m."""
    for t, c in src.items():
        t += q
        if t & guards:
            raise key_range_error()
        s = target.get(t, 0) + c * coeff
        if s == 0:
            target.pop(t, None)
        else:
            target[t] = s if type(s) is int or s.denominator != 1 else s.numerator
    check_term_cap(len(target), "module vector")


def _vec_scale(vec: VecDict, coeff: Scalar) -> VecDict:
    return {k: coefficient(c * coeff) for k, c in vec.items()}


def _vec_reduce(vec: VecDict, basis: list[VecDict],
                by_pos: dict[int, list[tuple[int, int]]], one: int,
                guards: int, track: bool = False):
    """Full reduction of vec by the monic basis.

    `by_pos` indexes the basis leads per position as (lead term, basis
    index), in basis order; `one` and `guards` are the unit monomial's key
    and the guard bits, both shifted to term level.  Returns (remainder,
    quotients): quotients maps the index i of each basis element used to
    a dict {q: coefficient} of shifted key differences, with vec =
    sum_i quotients[i]*basis[i] + remainder; it is empty unless `track`.
    """
    quotients: dict[int, dict] = {}
    remainder: VecDict = {}
    current = dict(vec)
    while current:
        check_deadline()
        t = max(current)
        coeff = current[t]
        for b, i in by_pos.get(FIELD_MAX - (t & FIELD_MASK), ()):
            q = t - b
            if not (one + q) & guards:
                _vec_axpy(current, q, -coeff, basis[i], guards)
                if track:
                    quotients.setdefault(i, {})[q] = coeff
                break
        else:
            remainder[t] = coeff
            del current[t]
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

    Given `position_zdegs`, the Z-degrees of the positions, a span-only
    basis is degree-truncated.  A pair's key then begins with the Z-degree
    of its S-vector, zdeg(lcm) + zdeg(position).  The constructor and
    `extend` complete nothing; `complete_for(vec)` processes the pairs up
    to vec's Z-degree and leaves the rest pending, so the chain criterion
    never skips a pair on the strength of an unprocessed one.  This is
    exact when every variable has positive Z-degree and every input is
    homogeneous: an S-vector of degree d reduces to a vector of degree d,
    and a vector of degree D is reduced only by basis elements of degree
    at most D, so once every pair of degree at most D is processed the
    basis decides membership of every vector of degree at most D (Kreuzer
    and Robbiano, Computational Commutative Algebra 2, 4.5-4.6).  Only
    `minimal_generating_vectors` truncates, and only on such input.
    Liftable bases stay eager, because their Schreyer syzygies depend on
    the pair order; so do presentation spans, whose full basis
    `hilbert_function` reads through `lead_monomials`, and `buchberger`.
    """

    def __init__(self, vectors: Sequence[VecDict], ring: GradedRing,
                 track: bool = False,
                 position_zdegs: Optional[Sequence[int]] = None):
        self.ring = ring
        self.packing = ring.packing
        # the unit monomial and the guard bits at term level
        self.one = self.packing.one << 64
        self.guards = self.packing.guards << 64
        self.track = track
        # set only on a degree-truncated basis (see the class docstring)
        self.position_zdegs = position_zdegs
        self.basis: list[VecDict] = []
        self.leads: list[int] = []
        # each lead's monomial, decoded once when it is inserted
        self.lead_monos: list[Monomial] = []
        # per position: (lead term, basis index), in basis order
        self.by_pos: dict[int, list[tuple[int, int]]] = {}
        self.reps: list[VecDict] = []          # over the input index space
        self.syzygies: list[VecDict] = []      # likewise
        self._heap: list = []
        self._pending: set[tuple[int, int]] = set()
        for i, v in enumerate(vectors):
            if v:
                self._insert(dict(v), {self.one + FIELD_MAX - i: 1})
        if position_zdegs is None:
            self._complete()

    def divides(self, b: int, t: int) -> bool:
        """Whether the lead term b divides the term t of the same position."""
        return not (self.one + t - b) & self.guards

    def lead_monomials(self, pos: int) -> list[Monomial]:
        """The lead monomials at position `pos`, in basis order."""
        return [self.lead_monos[k] for _, k in self.by_pos.get(pos, ())]

    def _insert(self, vec: VecDict, rep: Optional[VecDict]) -> None:
        check_term_cap(len(vec), "module vector")
        lead = max(vec)
        lc = vec[lead]
        if lc != 1:
            # -1 is its own inverse, and 1 / lc would be a float for an int lc
            inverse = -1 if lc == -1 else coefficient(Fraction(1) / lc)
            vec = _vec_scale(vec, inverse)
            if self.track:
                rep = _vec_scale(rep, inverse)
        self.basis.append(vec)
        if self.track:
            self.reps.append(rep)
        self.leads.append(lead)
        nmono = self.packing.monomial(lead >> 64)
        self.lead_monos.append(nmono)
        new = len(self.basis) - 1
        npos = _position(lead)
        same = self.by_pos.setdefault(npos, [])
        monos, zdegs, key = self.lead_monos, self.ring.zdegs, self.packing.key
        heap = self._heap
        shift = 0 if self.position_zdegs is None else self.position_zdegs[npos]
        for _, k in same:
            lcm = monomial_lcm(monos[k], nmono)
            heapq.heappush(heap, ((sum(map(mul, lcm, zdegs)) + shift, key(lcm)),
                                  npos, k, new))
        if same and not self.track:     # only the chain criterion reads pending pairs
            self._pending.update([(k, new) for _, k in same])
        same.append((lead, new))

    def _add_reps(self, target: VecDict, quotients: dict[int, dict],
                  sign: Scalar) -> None:
        """target += sign * sum_t quotients[t] * reps[t]"""
        for t in sorted(quotients):
            for q, coeff in quotients[t].items():
                _vec_axpy(target, q, sign * coeff, self.reps[t], self.guards)

    def _chain(self, pos: int, i: int, j: int, lcm: int) -> bool:
        pending = self._pending
        for b, k in self.by_pos[pos]:
            if (k != i and k != j and self.divides(b, lcm)
                    and (min(i, k), max(i, k)) not in pending
                    and (min(j, k), max(j, k)) not in pending):
                return True
        return False

    def _complete(self, upto: Optional[int] = None) -> None:
        """Process the pending S-pairs, all of them or, given `upto`, those
        of Z-degree at most `upto`; the rest stay pending."""
        guards, heap = self.guards, self._heap
        while heap and (upto is None or heap[0][0][0] <= upto):
            check_deadline()
            (_, lcm), pos, i, j = heapq.heappop(heap)
            lcm = (lcm << 64) + FIELD_MAX - pos
            if not self.track:
                self._pending.discard((i, j))
                if self._chain(pos, i, j, lcm):
                    continue
            qi = lcm - self.leads[i]
            qj = lcm - self.leads[j]
            s: VecDict = {}
            _vec_axpy(s, qi, 1, self.basis[i], guards)
            _vec_axpy(s, qj, -1, self.basis[j], guards)
            if not self.track:
                remainder, _ = self.reduce(s)
                if remainder:
                    self._insert(remainder, None)
                continue
            srep: VecDict = {}
            _vec_axpy(srep, qi, 1, self.reps[i], guards)
            _vec_axpy(srep, qj, -1, self.reps[j], guards)
            remainder, quotients = self.reduce(s, track=True)
            self._add_reps(srep, quotients, -1)
            if remainder:
                self._insert(remainder, srep)
            elif srep:
                self.syzygies.append(srep)

    def extend(self, remainder: VecDict) -> None:
        """Grow a span-only basis by `remainder`, a nonzero vector that this
        basis already reduces to itself (`SubmoduleOracle.add` passes the
        remainder `contains` kept), and complete it unless the basis is
        degree-truncated."""
        self._insert(remainder, None)
        if self.position_zdegs is None:
            self._complete()

    # -- queries -------------------------------------------------------------

    def complete_for(self, vec: VecDict) -> None:
        """Complete a degree-truncated basis far enough to reduce the
        homogeneous vec: up to its Z-degree, that of any of its terms plus
        its position's.  A full basis is already complete."""
        if vec and self.position_zdegs is not None:
            t = next(iter(vec))
            self._complete(self.ring.bidegree_of[t >> 64].zdeg
                           + self.position_zdegs[_position(t)])

    def reduce(self, vec: VecDict, track: bool = False):
        if track and not self.track:
            raise RuntimeError("span-only Groebner basis (track=False) "
                               "keeps no representations")
        return _vec_reduce(vec, self.basis, self.by_pos, self.one, self.guards,
                           track=track)

    def reduces_by_itself(self, b: int) -> bool:
        """Whether basis element b comes first among those whose lead
        divides its own, so that reducing it subtracts it once and leaves
        zero."""
        lead = self.leads[b]
        return next(k for kb, k in self.by_pos[_position(lead)]
                    if self.divides(kb, lead)) == b

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
    """A reduced Groebner basis; leads[i] is the lead monomial of
    generators[i] and lead_keys[i] its packed key."""
    ring: GradedRing
    generators: tuple[Polynomial, ...]
    leads: tuple[Monomial, ...]
    lead_keys: tuple[int, ...]

    def __len__(self):
        return len(self.generators)

    @cached_property
    def _engine(self) -> tuple[list[VecDict], dict[int, list[tuple[int, int]]]]:
        """The generators as rank-1 flat vectors and their lead index, the
        form `normal_form` reduces by, converted once per basis."""
        basis = [_rank1(g) for g in self.generators]
        return basis, {0: [(max(v), i) for i, v in enumerate(basis)]}

    @cached_property
    def _lead_offsets(self) -> list[int]:
        return [self.ring.packing.one - b for b in self.lead_keys]

    def divides_a_term(self, p: Polynomial) -> bool:
        """Whether some lead divides some term of p, by the packed test."""
        guards, offsets = self.ring.packing.guards, self._lead_offsets
        return any(not (k + o) & guards for k in p.packed for o in offsets)


def _rank1(p: Polynomial) -> VecDict:
    return {(k << 64) + FIELD_MAX: c for k, c in p.packed.items()}


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
    gb = _TrackedGB([_rank1(g) for g in gens], ring)
    leads = gb.leads

    # minimalize: a global order makes every proper divisor strictly smaller,
    # so processing leads in ascending order sees divisors first
    minimal: list[int] = []
    for i in sorted(range(len(gb.basis)), key=leads.__getitem__):
        if not any(gb.divides(leads[k], leads[i]) for k in minimal):
            minimal.append(i)

    # inter-reduce: the reduced element with lead m is m + NF(tail), and the
    # normal form modulo any Groebner basis of the ideal is unique
    final = []
    for i in reversed(minimal):
        tail = dict(gb.basis[i])
        del tail[leads[i]]
        remainder, _ = gb.reduce(tail)
        remainder[leads[i]] = 1
        final.append(from_packed(ring, {t >> 64: c for t, c in remainder.items()}))
    kept = minimal[::-1]
    return GroebnerBasis(ring, tuple(final),
                         tuple(gb.lead_monos[i] for i in kept),
                         tuple(leads[i] >> 64 for i in kept))


def normal_form(p: Polynomial, gb: GroebnerBasis) -> Polynomial:
    """Unique remainder of p modulo a Groebner basis; zero iff p is in the ideal."""
    if not p.ring.same_ambient(gb.ring):
        raise RingMismatchError("polynomial and basis live in different rings")
    basis, by_pos = gb._engine
    packing = gb.ring.packing
    remainder, _ = _vec_reduce(_rank1(p), basis, by_pos, packing.one << 64,
                               packing.guards << 64)
    return from_packed(p.ring, {t >> 64: c for t, c in remainder.items()})


# ---------------------------------------------------------------------------
# quotient-ring wrappers


def _ideal_rows(ring: GradedRing, rank: int) -> list[VecDict]:
    """g * e_pos for every generator g of the ideal's basis and every
    position, generator-major: the rank-1 vectors moved to each position."""
    if not ring.ideal:
        return []
    rows, _ = ring.ideal_groebner()._engine
    return [{t - pos: c for t, c in row.items()}
            for row in rows for pos in range(rank)]


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
    default builds the span alone, which is all that `contains` and `add`
    need: presentation spans and `minimal_generating_vectors` use it, and
    it grows with `add`, so it is never shared.  Only
    `minimal_generating_vectors` passes `position_zdegs`, which makes the
    span degree-truncated (see `_TrackedGB`).  An oracle built
    with `liftable=True` tracks representations, so it can also `lift` over
    its `ngens` generators and read off `syzygies`; it is fixed at
    construction, and `add` refuses it.  The pipeline takes liftable
    oracles from `liftable_oracle`, which builds each one once per command.
    """

    def __init__(self, ring: GradedRing, generators: Sequence[Column], rank: int,
                 liftable: bool = False,
                 position_zdegs: Optional[Sequence[int]] = None):
        self.ring = ring
        self.rank = rank
        self.ngens = len(generators)
        self.ambient = ring.ambient()
        rows = ([_flatten(v, self.ambient) for v in generators]
                + _ideal_rows(ring, rank))
        self.gb = _TrackedGB(rows, self.ambient, track=liftable,
                             position_zdegs=position_zdegs)
        # the GB inputs, which `syzygies` expresses over themselves
        self._inputs = rows
        self._syzygies: dict[int, list[Column]] = {}
        # the remainder of the last column `contains` answered, for `add`
        self._remainder: VecDict = {}

    def contains(self, v: Column) -> bool:
        vec = _flatten(v, self.ambient)
        self.gb.complete_for(vec)
        self._remainder, _ = self.gb.reduce(vec)
        return not self._remainder

    def add(self, v: Column) -> bool:
        """Grow a span-only oracle by v and return True, or return False
        when it already contains v.  Raises RuntimeError on a liftable
        oracle."""
        if self.gb.track:
            raise RuntimeError("a liftable oracle is fixed at construction")
        if self.contains(v):
            return False
        self.gb.extend(self._remainder)
        return True

    def syzygies(self, heads: int) -> list[Column]:
        """Generators of the relations among the first `heads` generators
        modulo the others and I * R^rank, as columns of R^heads: Schreyer's
        S-pair relations plus e_i minus the expression of input i (e_i for
        a zero input), projected, deduplicated and sorted by
        `column_order_key`, which is the order of their printed columns,
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
            delta: VecDict = {gb.one + FIELD_MAX - i: 1}
            _vec_axpy(delta, 0, -1, gb.express(v), gb.guards)
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
                               positions: Sequence[Bidegree], *,
                               context: Sequence[Column] = ()) -> list[int]:
    """Indices of a minimal generating subset modulo `context`, in the
    greedy order: ascending degree, then printed form.  The columns live in
    R^len(positions), `positions[k]` being the bidegree of its k-th
    generator.  Each nonzero candidate's `vector_bidegree` is computed once
    and keys the greedy order; zero vectors are never kept.  Raises
    ValueError on an inhomogeneous candidate.

    The single greedy minimality loop of the package: one oracle over the
    context `add`s each candidate, keeping those it does not already
    contain.  The ring is assumed connected (scalars in degree zero), so
    graded Nakayama makes the kept count well-defined.

    When every variable has positive Z-degree and every context column is
    homogeneous over `positions`, the oracle's basis is degree-truncated:
    it processes an S-pair only once a candidate of at least the pair's
    Z-degree asks about membership, so no pair above the last candidate's
    degree is ever processed.  Otherwise it is completed in full each time
    it grows.
    """
    degs = {i: vector_bidegree(v, positions) for i, v in enumerate(vectors) if v}
    if None in degs.values():
        raise ValueError("inhomogeneous candidate column")
    order = sorted(degs, key=lambda i: (degs[i].zdeg, column_order_key(vectors[i])))
    if not order:
        return []
    graded = ring.positive and all(vector_bidegree(v, positions) is not None
                                   for v in context if v)
    oracle = SubmoduleOracle(ring, context, len(positions), position_zdegs=(
        [d.zdeg for d in positions] if graded else None))
    return [i for i in order if oracle.add(vectors[i])]
