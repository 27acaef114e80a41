"""Buchberger Groebner bases, normal forms, and syzygies.

Two engines live here.  The ring-level engine computes reduced Groebner
bases of ideals with the product and chain criteria for S-pair elimination.
The module-level engine works on vectors over a free module with a
term-over-position order induced by the ring order; it tracks how every
basis element is expressed in the input generators, which makes Schreyer
syzygies fall out of the S-pair reductions.  Quotient rings B = C/I are
handled by lifting to the ambient ring and adjoining I times the unit
vectors, then projecting back.

Everything is deterministic: pair selection, generator order and the final
bases do not depend on dict iteration order.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .caps import check_deadline
from .poly import (GradedRing, Monomial, MonomialOrder, Polynomial,
                   RingMismatchError, monomial_div, monomial_divides,
                   monomial_lcm, monomial_mul)

Vector = tuple[Polynomial, ...]


# ---------------------------------------------------------------------------
# ring-level Buchberger


@dataclass(frozen=True)
class GroebnerBasis:
    ring: GradedRing
    order: MonomialOrder
    generators: tuple[Polynomial, ...]

    def __iter__(self):
        return iter(self.generators)

    def __len__(self):
        return len(self.generators)


def _reduce_poly(p: Polynomial, basis: Sequence[Polynomial],
                 order: MonomialOrder) -> Polynomial:
    """Full normal form: every term of the remainder is irreducible."""
    if not basis:
        return p
    leads = [(g.leading_term(order)[0], g.leading_term(order)[1], g) for g in basis]
    remainder = p.ring.zero()
    current = p
    while not current.is_zero():
        check_deadline()
        mono, coeff = current.leading_term(order)
        for lm, lc, g in leads:
            if monomial_divides(lm, mono):
                current = current - g.scale_monomial(monomial_div(mono, lm), coeff / lc)
                break
        else:
            remainder = remainder + current.ring.monomial(mono, coeff)
            current = current - current.ring.monomial(mono, coeff)
    return remainder


def normal_form(p: Polynomial, gb: GroebnerBasis | Sequence[Polynomial]) -> Polynomial:
    """Unique remainder of p modulo a (Groebner) basis; zero iff p is in the ideal."""
    if isinstance(gb, GroebnerBasis):
        if not p.ring.same_ambient(gb.ring):
            raise RingMismatchError("polynomial and basis live in different rings")
        return _reduce_poly(p, gb.generators, gb.order)
    return _reduce_poly(p, list(gb), p.ring.order)


def _spoly(f: Polynomial, g: Polynomial, order: MonomialOrder) -> Polynomial:
    lmf, lcf = f.leading_term(order)
    lmg, lcg = g.leading_term(order)
    lcm = monomial_lcm(lmf, lmg)
    return (f.scale_monomial(monomial_div(lcm, lmf), Fraction(1) / lcf)
            - g.scale_monomial(monomial_div(lcm, lmg), Fraction(1) / lcg))


def buchberger(gens: Sequence[Polynomial], order: MonomialOrder | None = None,
               ring: GradedRing | None = None) -> GroebnerBasis:
    """Reduced Groebner basis (monic, auto-reduced, deterministically sorted).

    The empty input is the zero ideal.  Pairs are discarded by the product
    criterion (coprime leading monomials) and the chain criterion.
    """
    gens = [g for g in gens if not g.is_zero()]
    if ring is None:
        if not gens:
            raise ValueError("need a ring for the empty ideal")
        ring = gens[0].ring
    order = order or ring.order
    if not gens:
        return GroebnerBasis(ring, order, ())
    for g in gens:
        if not ring.same_ambient(g.ring):
            raise RingMismatchError("generators live in different rings")

    basis: list[Polynomial] = []
    for g in sorted(gens, key=lambda q: (order.key(q.leading_term(order)[0]), str(q))):
        r = _reduce_poly(g, basis, order)
        if not r.is_zero():
            basis.append(r.monic(order))

    def lead(i: int) -> Monomial:
        return basis[i].leading_term(order)[0]

    pairs = {(i, j) for i in range(len(basis)) for j in range(i + 1, len(basis))}
    while pairs:
        check_deadline()
        i, j = min(pairs, key=lambda pq: (order.key(monomial_lcm(lead(pq[0]), lead(pq[1]))),
                                          pq[0], pq[1]))
        pairs.discard((i, j))
        lcm = monomial_lcm(lead(i), lead(j))
        if lcm == monomial_mul(lead(i), lead(j)):
            continue  # product criterion
        chain = False
        for k in range(len(basis)):
            if k in (i, j) or not monomial_divides(lead(k), lcm):
                continue
            if ((min(i, k), max(i, k)) not in pairs
                    and (min(j, k), max(j, k)) not in pairs):
                chain = True
                break
        if chain:
            continue
        r = _reduce_poly(_spoly(basis[i], basis[j], order), basis, order)
        if not r.is_zero():
            basis.append(r.monic(order))
            pairs.update((k, len(basis) - 1) for k in range(len(basis) - 1))

    # minimalize: a global order makes every proper divisor strictly smaller,
    # so processing leads in ascending order sees divisors first
    basis.sort(key=lambda q: (order.key(q.leading_term(order)[0]), str(q)))
    minimal: list[Polynomial] = []
    for g in basis:
        lm = g.leading_term(order)[0]
        if any(monomial_divides(h.leading_term(order)[0], lm) for h in minimal):
            continue
        minimal.append(g)

    # inter-reduce tails; leading terms are pairwise non-dividing, so they survive
    final = []
    for idx, g in enumerate(minimal):
        others = minimal[:idx] + minimal[idx + 1:]
        final.append(_reduce_poly(g, others, order).monic(order))
    final.sort(key=lambda q: order.key(q.leading_term(order)[0]), reverse=True)
    return GroebnerBasis(ring, order, tuple(final))


# ---------------------------------------------------------------------------
# module engine
#
# A module element of R^n is stored as dict[(position, monomial)] -> Fraction.
# The module order is term-over-position: monomials compare by the ring
# order first, lower positions win ties.  With an eliminating ring order
# this makes the leading term of a vector x-free only if the whole vector
# is, which is what restriction of scalars relies on.


VecDict = dict[tuple[int, Monomial], Fraction]


def vec_from_polys(polys: Sequence[Polynomial]) -> VecDict:
    out: VecDict = {}
    for pos, p in enumerate(polys):
        for m, c in p.terms.items():
            out[(pos, m)] = c
    return out


def vec_to_polys(vec: VecDict, rank: int, ring: GradedRing) -> Vector:
    comps: list[dict] = [{} for _ in range(rank)]
    for (pos, m), c in vec.items():
        comps[pos][m] = c
    return tuple(Polynomial(ring, comp) for comp in comps)


def _vec_key(order: MonomialOrder):
    def key(posmono):
        pos, mono = posmono
        return (order.key(mono), -pos)
    return key


def _vec_lead(vec: VecDict, order: MonomialOrder):
    k = max(vec, key=_vec_key(order))
    return k, vec[k]


def _vec_add_term(vec: VecDict, key, coeff: Fraction) -> None:
    s = vec.get(key, Fraction(0)) + coeff
    if s == 0:
        vec.pop(key, None)
    else:
        vec[key] = s


def _vec_axpy(target: VecDict, mono: Monomial, coeff: Fraction, src: VecDict) -> None:
    """target += coeff * mono * src"""
    for (pos, m), c in src.items():
        _vec_add_term(target, (pos, monomial_mul(m, mono)), c * coeff)


def _vec_scale(vec: VecDict, coeff: Fraction) -> VecDict:
    return {k: c * coeff for k, c in vec.items()}


def _vec_reduce(vec: VecDict, basis: list[VecDict], order: MonomialOrder,
                track: bool = False, leads=None):
    """Full reduction of vec by the basis.

    Returns (remainder, quotients): quotients[i] is a terms dict with
    vec = sum_i quotients[i]*basis[i] + remainder.
    """
    if leads is None:
        leads = [_vec_lead(b, order) for b in basis]
    by_pos: dict[int, list] = {}
    for i, ((bpos, bmono), bcoeff) in enumerate(leads):
        by_pos.setdefault(bpos, []).append((bmono, bcoeff, i))
    quotients: list[dict] = [{} for _ in basis] if track else []
    remainder: VecDict = {}
    current = dict(vec)
    keyf = _vec_key(order)
    while current:
        check_deadline()
        key = max(current, key=keyf)
        pos, mono = key
        coeff = current[key]
        for bmono, bcoeff, i in by_pos.get(pos, ()):
            if monomial_divides(bmono, mono):
                q = monomial_div(mono, bmono)
                factor = coeff / bcoeff
                _vec_axpy(current, q, -factor, basis[i])
                if track:
                    quotients[i][q] = quotients[i].get(q, Fraction(0)) + factor
                break
        else:
            remainder[key] = coeff
            del current[key]
    return remainder, quotients


class _TrackedGB:
    """Module Groebner basis with expressions in terms of the input vectors.

    Input vector i carries the index i (zero inputs keep their index and
    contribute nothing); `extend` grows the span by one more input at the
    next free index, `ninputs`, when the new vector is not already in it.
    It reduces the vector with tracking, inserts the nonzero remainder
    with its representation over that index and completes the basis, so
    `express` stays valid over every input seen so far.

    For syzygy completeness every same-position S-pair is processed; the
    Buchberger shortcut criteria are deliberately not used here.  Pair keys
    are computed once and kept in a heap, leads are cached (basis elements
    are monic and never mutated after insertion).
    """

    def __init__(self, vectors: Sequence[VecDict], ring: GradedRing,
                 collect_syzygies: bool = False):
        self.ring = ring
        self.order = ring.order
        self.basis: list[VecDict] = []
        self.leads: list[tuple[tuple[int, Monomial], Fraction]] = []
        self.reps: list[VecDict] = []          # over the input index space
        self.syzygies: list[VecDict] = []      # likewise
        self.collect = collect_syzygies
        self.ninputs = len(vectors)
        self._heap: list = []
        self._unit = (0,) * ring.nvars
        for i, v in enumerate(vectors):
            if v:
                self._insert(dict(v), {(i, self._unit): Fraction(1)})
        self._complete()

    def _insert(self, vec: VecDict, rep: VecDict) -> None:
        (posmono, lc) = _vec_lead(vec, self.order)
        self.basis.append(_vec_scale(vec, 1 / lc))
        self.reps.append(_vec_scale(rep, 1 / lc))
        self.leads.append((posmono, Fraction(1)))
        new = len(self.basis) - 1
        npos, nmono = posmono
        for k in range(new):
            (kpos, kmono), _ = self.leads[k]
            if kpos != npos:
                continue
            lcm = monomial_lcm(kmono, nmono)
            heapq.heappush(self._heap,
                           (self.order.key(lcm), kpos, k, new, lcm))

    def _add_reps(self, target: VecDict, quotients: list[dict],
                  sign: Fraction) -> None:
        """target += sign * sum_t quotients[t] * reps[t]"""
        for t, q in enumerate(quotients):
            for mono, coeff in q.items():
                _vec_axpy(target, mono, sign * coeff, self.reps[t])

    def _complete(self) -> None:
        while self._heap:
            check_deadline()
            _, _, i, j, lcm = heapq.heappop(self._heap)
            (pi, mi), _ = self.leads[i]
            (pj, mj), _ = self.leads[j]
            s: VecDict = {}
            _vec_axpy(s, monomial_div(lcm, mi), Fraction(1), self.basis[i])
            _vec_axpy(s, monomial_div(lcm, mj), Fraction(-1), self.basis[j])
            srep: VecDict = {}
            _vec_axpy(srep, monomial_div(lcm, mi), Fraction(1), self.reps[i])
            _vec_axpy(srep, monomial_div(lcm, mj), Fraction(-1), self.reps[j])
            remainder, quotients = _vec_reduce(s, self.basis, self.order,
                                               track=True, leads=self.leads)
            self._add_reps(srep, quotients, Fraction(-1))
            if remainder:
                self._insert(remainder, srep)
            elif self.collect and srep:
                self.syzygies.append(srep)

    def extend(self, vec: VecDict) -> bool:
        """Add vec as input `ninputs` unless it is already in the span."""
        remainder, quotients = self.reduce(vec, track=True)
        if not remainder:
            return False
        rep: VecDict = {(self.ninputs, self._unit): Fraction(1)}
        self._add_reps(rep, quotients, Fraction(-1))
        self.ninputs += 1
        self._insert(remainder, rep)
        self._complete()
        return True

    # -- queries -------------------------------------------------------------

    def reduce(self, vec: VecDict, track: bool = False):
        return _vec_reduce(vec, self.basis, self.order, track=track,
                           leads=self.leads)

    def contains(self, vec: VecDict) -> bool:
        remainder, _ = self.reduce(vec)
        return not remainder

    def express(self, vec: VecDict) -> Optional[VecDict]:
        """Write vec over the input vectors; None if vec is not in the span."""
        remainder, quotients = self.reduce(vec, track=True)
        if remainder:
            return None
        out: VecDict = {}
        self._add_reps(out, quotients, Fraction(1))
        return out


def module_syzygies(vectors: Sequence[VecDict], ring: GradedRing) -> list[VecDict]:
    """Generators of the syzygy module over the ambient (non-quotient) ring.

    Schreyer: the S-pair relations of the tracked basis, completed with the
    discrepancy columns e_i - (expression of input i through the basis).
    """
    unit = (0,) * ring.nvars
    syz: list[VecDict] = []
    for i, v in enumerate(vectors):
        if not v:
            syz.append({(i, unit): Fraction(1)})  # zero rows are pure relations
    if len(syz) == len(vectors):
        return syz
    gb = _TrackedGB(vectors, ring, collect_syzygies=True)
    syz.extend(gb.syzygies)
    for i, v in enumerate(vectors):
        if not v:
            continue
        expr = gb.express(dict(v))
        assert expr is not None
        delta: VecDict = {(i, unit): Fraction(1)}
        for k, c in expr.items():
            _vec_add_term(delta, k, -c)
        if delta:
            syz.append(delta)
    return syz


# ---------------------------------------------------------------------------
# quotient-ring wrappers


def _ideal_rows(ring: GradedRing, rank: int) -> list[VecDict]:
    rows = []
    if ring.ideal:
        for g in ring.ideal_groebner().generators:
            for pos in range(rank):
                rows.append({(pos, m): c for m, c in g.terms.items()})
    return rows


def _vector_rank(vectors: Sequence[Vector]) -> int:
    return len(vectors[0]) if vectors else 0


def syzygies_over(ring: GradedRing, vectors: Sequence[Vector],
                  rank: int | None = None) -> list[Vector]:
    """Generators of the syzygy module over a possibly-quotient ring.

    Entries of the result are reduced modulo the ring ideal; zero vectors
    are dropped.  No minimalization happens at this level.
    """
    if not vectors:
        return []
    if rank is None:
        rank = _vector_rank(vectors)
    ambient = ring.ambient()
    vecs = [vec_from_polys([ambient.retag(p) for p in v]) for v in vectors]
    nin = len(vecs)
    augmented = vecs + _ideal_rows(ring, rank)
    raw = module_syzygies(augmented, ambient)
    out: list[Vector] = []
    seen = set()
    for s in raw:
        head = {(pos, m): c for (pos, m), c in s.items() if pos < nin}
        polys = vec_to_polys(head, nin, ambient)
        reduced = tuple(ring.reduce(p) for p in polys)
        if all(p.is_zero() for p in reduced):
            continue
        key = tuple(str(p) for p in reduced)
        if key in seen:
            continue
        seen.add(key)
        out.append(reduced)
    out.sort(key=lambda v: tuple(str(p) for p in v))
    return out


class SubmoduleOracle:
    """Membership and lifting for a growing tuple of generators over a ring.

    Over a quotient ring the span implicitly includes I times the free
    module, so `lift` returns coordinates valid modulo the ideal.
    """

    def __init__(self, ring: GradedRing, generators: Sequence[Vector], rank: int):
        self.ring = ring
        self.rank = rank
        self.ngens = len(generators)
        self.ambient = ring.ambient()
        ideal_rows = _ideal_rows(ring, rank)
        self.gb = _TrackedGB([self._vec(v) for v in generators] + ideal_rows,
                             self.ambient)
        # generator index of each GB input; None for the ideal rows
        self._gen_of: list[Optional[int]] = (list(range(self.ngens))
                                             + [None] * len(ideal_rows))

    def _vec(self, v: Vector) -> VecDict:
        return vec_from_polys([self.ambient.retag(p) for p in v])

    def contains(self, v: Vector) -> bool:
        return self.gb.contains(self._vec(v))

    def extend(self, v: Vector) -> None:
        """Append v as generator number `ngens`."""
        if self.gb.extend(self._vec(v)):
            self._gen_of.append(self.ngens)
        self.ngens += 1

    def lift(self, v: Vector) -> Optional[Vector]:
        """Coordinates a with v = sum a_i * gen_i modulo I * R^rank."""
        expr = self.gb.express(self._vec(v))
        if expr is None:
            return None
        coords = [self.ring.zero() for _ in range(self.ngens)]
        for (pos, m), c in expr.items():
            gen = self._gen_of[pos]
            if gen is not None:
                coords[gen] = coords[gen] + self.ring.monomial(m, c)
        return tuple(self.ring.reduce(p) for p in coords)


def minimal_generating_vectors(ring: GradedRing, vectors: Sequence[Vector],
                               rank: int, bidegrees: Sequence | None = None,
                               context: Sequence[Vector] = ()) -> list[int]:
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
        return min((min(ring.monomial_bidegree(m).zdeg for m in p.terms)
                    for p in vectors[i] if not p.is_zero()), default=0)

    order = sorted((i for i, v in enumerate(vectors)
                    if any(not p.is_zero() for p in v)),
                   key=lambda i: (zdeg_of(i), tuple(str(p) for p in vectors[i])))
    if not order:
        return []
    oracle = SubmoduleOracle(ring, context, rank)
    kept: list[int] = []
    for i in order:
        if not oracle.contains(vectors[i]):
            oracle.extend(vectors[i])
            kept.append(i)
    return kept


# ---------------------------------------------------------------------------
# the public syzygy surface


@dataclass(frozen=True)
class SyzygyModule:
    """Generating vectors for the relations among a list of module elements."""

    ring: GradedRing
    rank: int                       # number of input rows
    vectors: tuple[Vector, ...]     # each of length rank
    bidegrees: tuple                # Bidegree per vector

    def annihilates(self, rows: Sequence[Vector]) -> bool:
        """Check matrix(S) * transpose(rows) reduces to zero."""
        for syz in self.vectors:
            target_rank = len(rows[0]) if rows else 0
            acc = [self.ring.zero() for _ in range(target_rank)]
            for coeff, row in zip(syz, rows):
                for t in range(target_rank):
                    acc[t] = acc[t] + coeff * row[t]
            if any(not self.ring.reduce(p).is_zero() for p in acc):
                return False
        return True


def syzygies(rows: Sequence[Vector | Polynomial], ring: GradedRing | None = None,
             gen_bidegrees: Sequence | None = None) -> SyzygyModule:
    """Relations among module elements over a (possibly quotient) ring.

    Rows may be plain polynomials (elements of the rank-1 free module) or
    tuples of polynomials; they must be bihomogeneous.  The output is a
    minimal generating set of the full relation module over the quotient.
    """
    norm_rows: list[Vector] = [(r,) if isinstance(r, Polynomial) else tuple(r)
                               for r in rows]
    if ring is None:
        if not norm_rows:
            raise ValueError("need a ring for an empty row list")
        ring = norm_rows[0][0].ring
    if not norm_rows:
        return SyzygyModule(ring, 0, (), ())
    rank = _vector_rank(norm_rows)
    if any(len(r) != rank for r in norm_rows):
        raise ValueError("rows of different lengths")

    from .gmodule import vector_bidegree
    free_degs = (tuple(gen_bidegrees) if gen_bidegrees is not None
                 else tuple(ring.degree_zero() for _ in range(rank)))
    row_degs = []
    for r in norm_rows:
        d = vector_bidegree(r, free_degs, ring)
        if d is None and any(not p.is_zero() for p in r):
            raise ValueError("syzygies: inhomogeneous input row")
        row_degs.append(d if d is not None else ring.degree_zero())

    result = syzygies_over(ring, norm_rows, rank=rank)
    keep = sorted(minimal_generating_vectors(
        ring, result, len(norm_rows),
        [vector_bidegree(v, tuple(row_degs), ring) for v in result]))
    vectors = tuple(result[i] for i in keep)
    bidegs = tuple(vector_bidegree(v, tuple(row_degs), ring) for v in vectors)
    return SyzygyModule(ring, len(norm_rows), vectors, bidegs)
