"""Independent oracles: Hom modules of the worked maps, and a reference
Groebner basis.

The Hom oracles were derived by hand from the explicit A-module
decompositions before the build and deliberately avoid the Groebner engine:
dimension tables come from counting basis elements of the known
decompositions.

`reference_buchberger` is a ring-level Buchberger algorithm with the
product and chain criteria, independent of the module engine in
`stackdual.groebner`.  The reduced basis of an ideal under a fixed order is
unique, so both must return the same generators.

`reference_relations_modulo` projects the syzygies of vectors + context by
hand, without the `context` argument of `syzygies_over`.

`reference_homology` presents the cycles first and quotients by the
boundaries in a second subquotient, without the `modulo` argument of
`kernel_with_inclusion`.  `reference_kernel` recomputes a map's images by
applying it to every unit vector instead of reading its stored columns.
`annihilates` checks relations by multiplying them out.

`reference_hilbert_function` and `reference_invariant_part` count the
standard monomials of every position by testing every monomial up to the
bound against the leads of the module Groebner basis, where the engine
reads its tables off the Hilbert series of those lead ideals.

`reference_pruned_restriction` prunes the staircase relations of
`restrict_along` to a minimal subset with `minimal_generating_vectors`, so
the pruning of `resolve`'s opening `minimalize` has a span to match.
`reference_precomposition` applies phi -> phi o d to a vector of
Hom(F_0, N) by walking the (F_0-generator, N-generator) positions by hand,
without `precompose_columns`.

`reference_resolve` is the plain minimal-resolution loop, a minimal
generating set of the syzygies of each differential in turn, with no stop
at a repeat, so a resolution that `resolve` ends at its first exact repeat
has a full one to match: its stored period and the repeat it claims.

`reference_minimalize_with_tracking` is the Nakayama loop that rescans
every column for a pivot and renumbers every generator after each
elimination.  `reference_syzygies` reads the relations off a liftable
oracle by expressing every input over the others, the ones that reduce by
themselves included, and sorts them by their printed columns.

`reference_restrict_along` presents B over A by elimination: the syzygies
of the staircase monomials modulo the graph ideal in the mixed ring, then a
module Groebner basis of those in the elimination order, keeping its
target-free elements.  `reference_module_generators` and
`reference_is_module_finite` take the staircase and the finiteness verdict
from the contraction ideal (target ideal + images) in the target's own
order instead of from the graph basis.  `reference_krull_dimension` reads
the dimension of a quotient off the reference basis of its ideal.

`ReferencePolynomial` is polynomial arithmetic on {exponent tuple:
coefficient}, the representation `Polynomial`'s packed keys replaced, with
the tuple helper `monomial_mul` that no engine code needs any more.

Module elements are columns, {position: Polynomial} with nonzero entries
only, as in `stackdual.groebner`; `col` writes one from dense entries, and
`parse_polynomial` reads one polynomial with the session parser.

`leading_term` reads the largest term of a polynomial under any monomial
order, for the reference Buchberger algorithm and the tests of orders.

`reference_tokenize` is the session tokenizer as a loop over each
character, with `->` as a token kind of its own (ARROW); `dsl.tokenize`
reads the same tokens with one regular expression.

`reference_cm_gorenstein_check` reads every Ext^i up to the bound off the
Hom complex of the resolution, as `cm_gorenstein_check` did before it took
its verdicts from grade and projective dimension.
`reference_lci_dualizing` tests a sequence for regularity by the ranks of
its Koszul homology below r, where `lci_dualizing` first tests its height.

`hochster_betti` gives the graded Betti numbers of C/I for a squarefree
monomial ideal I by Hochster's formula, beta_{i,sigma} = dim
H~_{|sigma|-i-1}(Delta|sigma) over Q for the Stanley-Reisner complex Delta
of I (Miller & Sturmfels, Combinatorial Commutative Algebra, Cor. 5.12),
from exact `Fraction` ranks of simplicial boundary matrices: no Groebner
basis and no syzygy is computed.
"""

import itertools
from fractions import Fraction
from typing import Sequence

from stackdual.caps import ResourceCapError, check_deadline, command_caps
from stackdual.dsl import Diagnostic, ParseError, Token, _Bail, _Parser, tokenize
from stackdual.poly import (GradedRing, Monomial, MonomialOrder, Polynomial,
                            RingMismatchError, monomial_div, monomial_divides,
                            monomial_lcm)


def monomial_mul(m1: Monomial, m2: Monomial) -> Monomial:
    """The product of two exponent tuples; `Polynomial` adds packed keys."""
    return tuple(a + b for a, b in zip(m1, m2))


def col(*entries: Polynomial) -> dict:
    """The column with these dense entries: position i holds entries[i]."""
    return {i: p for i, p in enumerate(entries) if not p.is_zero()}


def scale_monomial(p: Polynomial, mono: Monomial, coeff) -> Polynomial:
    """coeff * mono * p, a single-term product."""
    return p * p.ring.monomial(mono, coeff)


def leading_term(p: Polynomial, order: MonomialOrder | None = None):
    """(monomial, coefficient) of the largest term of p under `order`, the
    ring's own by default."""
    if p.is_zero():
        raise ValueError("zero polynomial has no leading term")
    if order is None or order == p.ring.order:
        return p.sorted_terms()[0]
    mono = max(p.terms, key=order.key)
    return mono, p.terms[mono]


# ---------------------------------------------------------------------------
# the module engine's packed terms, read and written as the engine does


def engine_terms(vec: dict, ring: GradedRing) -> dict:
    """An engine vector over `ring` as {(position, monomial): coefficient},
    decoded with the engine's own position and key decoders."""
    from stackdual.groebner import _position
    return {(_position(t), ring.packing.monomial(t >> 64)): c
            for t, c in vec.items()}


def engine_vector(terms: dict, ring: GradedRing) -> dict:
    """{(position, monomial): coefficient} as an engine vector over `ring`,
    encoded by the engine's own `_flatten`; the inverse of `engine_terms`."""
    from stackdual.groebner import _flatten
    entries: dict[int, dict] = {}
    for (pos, m), c in terms.items():
        entries.setdefault(pos, {})[m] = c
    return _flatten({pos: ring.poly(t) for pos, t in entries.items()}, ring)


def reference_order_key(order: MonomialOrder, mono: Monomial) -> tuple:
    """The tuple key the packed integer key replaced: tuples compare as
    the order does, larger key meaning larger monomial."""
    if order.kind == "lex":
        return mono
    degs = order.head_degrees
    if not degs:
        return (sum(mono), tuple(-e for e in reversed(mono)))
    head, tail = mono[:len(degs)], mono[len(degs):]
    return (
        (sum(e * d for e, d in zip(head, degs)), sum(head),
         tuple(-e for e in reversed(head))),
        (sum(tail), tuple(-e for e in reversed(tail))),
    )


class ReferencePolynomial:
    """The tuple-keyed polynomial that packed terms replaced: {exponent
    tuple: coefficient} over a `GradedRing`, with canonical coefficients
    (an `int` when integral), monomials multiplied and compared as tuples
    (`monomial_mul`, `reference_order_key`) and printed as `Polynomial`
    prints.  It shares no code with `Polynomial`'s packed arithmetic."""

    def __init__(self, ring: GradedRing, terms: dict):
        self.ring = ring
        self.terms = {tuple(m): (c.numerator if isinstance(c, Fraction)
                                 and c.denominator == 1 else c)
                      for m, c in terms.items() if c != 0}

    def __add__(self, other):
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, 0) + c
        return ReferencePolynomial(self.ring, out)

    def __neg__(self):
        return ReferencePolynomial(self.ring, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = monomial_mul(m1, m2)
                out[m] = out.get(m, 0) + c1 * c2
        return ReferencePolynomial(self.ring, out)

    def __truediv__(self, scalar):
        return ReferencePolynomial(
            self.ring, {m: Fraction(c) / scalar for m, c in self.terms.items()})

    def __pow__(self, n: int):
        out = ReferencePolynomial(self.ring, {(0,) * self.ring.nvars: 1})
        for _ in range(n):
            out = out * self
        return out

    def bidegree(self):
        """(zdeg, weight, modulus) common to every term, or None."""
        ring = self.ring
        a = ring.group_order
        degs = {(sum(e * d for e, d in zip(m, ring.zdegs)),
                 sum(e * w for e, w in zip(m, ring.weights)) % a, a)
                for m in self.terms}
        return degs.pop() if len(degs) == 1 else None

    def sorted_terms(self, order: MonomialOrder | None = None) -> list:
        order = order or self.ring.order
        return sorted(self.terms.items(),
                      key=lambda t: reference_order_key(order, t[0]), reverse=True)

    def leading_term(self, order: MonomialOrder | None = None):
        return self.sorted_terms(order)[0]

    def __str__(self) -> str:
        parts = []
        for m, c in self.sorted_terms():
            body = "*".join(f"{v}^{e}" if e > 1 else v
                            for v, e in zip(self.ring.variables, m) if e)
            s = (str(c) if not body else body if c == 1
                 else f"-{body}" if c == -1 else f"{c}*{body}")
            parts.append(s if not parts else f"- {s[1:]}" if s[0] == "-"
                         else f"+ {s}")
        return " ".join(parts) or "0"


def monic(p: Polynomial, order: MonomialOrder | None = None) -> Polynomial:
    """p divided by its lead coefficient under `order`; zero stays zero."""
    return p / leading_term(p, order)[1] if p.terms else p


def twist(M, d):
    """M with its grading shifted: twist(M, d) in degree e is M in degree
    d + e."""
    from stackdual.gmodule import ModulePresentation
    return ModulePresentation(M.ring, [g - d for g in M.bidegrees],
                              M.relations)


def parse_polynomial(text: str, ring: GradedRing) -> Polynomial:
    """Parse one polynomial over `ring`; it may span several lines.  The
    resource caps of a command hold for its arithmetic."""
    tokens = tokenize(text)
    body = [t for t in tokens if t.kind not in ("NEWLINE", "EOF")]
    if not body:
        return ring.zero()
    end = tokens[-2]  # the last line's end, so diagnostics stay in the text
    parser = _Parser(body + [Token("EOF", "", end.line, end.col)])
    try:
        with command_caps():
            p = parser.polynomial(ring)
        if parser.peek().kind != "EOF":
            parser.fail(f"unexpected {parser.peek().value!r} in expression")
    except _Bail as bail:
        raise ParseError([bail.diagnostic])
    except ResourceCapError as exc:
        raise ParseError([Diagnostic(body[0].line, body[0].col, str(exc))])
    return p


_SYMBOLS = set("(){}[]:;,=^*+-/>")


def reference_tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        i = 0
        while i < len(line):
            ch = line[i]
            col = i + 1
            if ch in " \t":
                i += 1
                continue
            if ch == "#":
                break
            if ch.isalpha():
                j = i
                while j < len(line) and (line[j].isalnum() or line[j] == "_"):
                    j += 1
                tokens.append(Token("IDENT", line[i:j], lineno, col))
                i = j
                continue
            if ch.isdigit():
                j = i
                while j < len(line) and line[j].isdigit():
                    j += 1
                tokens.append(Token("INT", line[i:j], lineno, col))
                i = j
                continue
            if ch == "-" and i + 1 < len(line) and line[i + 1] == ">":
                tokens.append(Token("ARROW", "->", lineno, col))
                i += 2
                continue
            if ch in _SYMBOLS:
                tokens.append(Token("SYMBOL", ch, lineno, col))
                i += 1
                continue
            tokens.append(Token("ERROR", ch, lineno, col))
            i += 1
        tokens.append(Token("NEWLINE", "", lineno, len(line) + 1))
    tokens.append(Token("EOF", "", len(text.splitlines()) + 1, 1))
    return tokens


def node_hom_oracle(a, i, j, alpha, beta, zmax):
    """Bigraded dimensions of Hom_A(B, A) for the orbifold node.

    Decomposition A.e0 + sum_l (u).e_l + sum_m (v).f_m, where e_l is dual
    to x^l, f_m dual to y^m, u acts as x^alpha and v as y^beta.
    """
    table = {}

    def add(z, w):
        if z <= zmax:
            key = (z, w % a)
            table[key] = table.get(key, 0) + 1

    k = 0
    while k * min(alpha, beta) <= zmax:
        if k == 0:
            add(0, 0)
        else:
            add(k * alpha, 0)
            add(k * beta, 0)
        k += 1
    for l in range(1, alpha):
        k = 1
        while k * alpha - l <= zmax:
            add(k * alpha - l, -i * l)
            k += 1
    for m in range(1, beta):
        k = 1
        while k * beta - m <= zmax:
            add(k * beta - m, -j * m)
            k += 1
    return table


def root_hom_oracle(a, zmax):
    """Hom_A(Q[t], Q[u]) for u = t^a: one copy of A per dual (t^l)^dual."""
    table = {}
    for l in range(a):
        k = 0
        while k * a - l <= zmax:
            key = (k * a - l, (-l) % a)
            table[key] = table.get(key, 0) + 1
            k += 1
    return table


def cusp_hom_oracle(zmax):
    """Hom_A(B, A) for the cusp over the line: A.1^dual + A.y^dual."""
    table = {}
    k = 0
    while 2 * k <= zmax:
        table[(2 * k, 0)] = 1
        k += 1
    k = 0
    while 2 * k - 3 <= zmax:
        table[(2 * k - 3, 1)] = 1
        k += 1
    return table


# ---------------------------------------------------------------------------
# reference ring-level Buchberger


def _reduce_poly(p: Polynomial, basis: Sequence[Polynomial],
                 order: MonomialOrder) -> Polynomial:
    """Full normal form: every term of the remainder is irreducible."""
    if not basis:
        return p
    leads = [(leading_term(g, order)[0], leading_term(g, order)[1], g) for g in basis]
    remainder = p.ring.zero()
    current = p
    while not current.is_zero():
        check_deadline()
        mono, coeff = leading_term(current, order)
        for lm, lc, g in leads:
            if monomial_divides(lm, mono):
                current = current - scale_monomial(g, monomial_div(mono, lm),
                                                   Fraction(coeff) / lc)
                break
        else:
            remainder = remainder + current.ring.monomial(mono, coeff)
            current = current - current.ring.monomial(mono, coeff)
    return remainder


def _spoly(f: Polynomial, g: Polynomial, order: MonomialOrder) -> Polynomial:
    lmf, lcf = leading_term(f, order)
    lmg, lcg = leading_term(g, order)
    lcm = monomial_lcm(lmf, lmg)
    return (scale_monomial(f, monomial_div(lcm, lmf), Fraction(1) / lcf)
            - scale_monomial(g, monomial_div(lcm, lmg), Fraction(1) / lcg))


def reference_buchberger(gens: Sequence[Polynomial], order: MonomialOrder | None = None,
                         ring: GradedRing | None = None) -> tuple[Polynomial, ...]:
    """Reduced Groebner basis (monic, auto-reduced, sorted by descending
    lead), as a tuple of generators.

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
        return ()
    for g in gens:
        if not ring.same_ambient(g.ring):
            raise RingMismatchError("generators live in different rings")

    basis: list[Polynomial] = []
    for g in sorted(gens, key=lambda q: (order.key(leading_term(q, order)[0]), str(q))):
        r = _reduce_poly(g, basis, order)
        if not r.is_zero():
            basis.append(monic(r, order))

    def lead(i: int) -> Monomial:
        return leading_term(basis[i], order)[0]

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
            basis.append(monic(r, order))
            pairs.update((k, len(basis) - 1) for k in range(len(basis) - 1))

    # minimalize: a global order makes every proper divisor strictly smaller,
    # so processing leads in ascending order sees divisors first
    basis.sort(key=lambda q: (order.key(leading_term(q, order)[0]), str(q)))
    minimal: list[Polynomial] = []
    for g in basis:
        lm = leading_term(g, order)[0]
        if any(monomial_divides(leading_term(h, order)[0], lm) for h in minimal):
            continue
        minimal.append(g)

    # inter-reduce tails; leading terms are pairwise non-dividing, so they survive
    final = []
    for idx, g in enumerate(minimal):
        others = minimal[:idx] + minimal[idx + 1:]
        final.append(monic(_reduce_poly(g, others, order), order))
    final.sort(key=lambda q: order.key(leading_term(q, order)[0]), reverse=True)
    return tuple(final)


# ---------------------------------------------------------------------------
# reference projection of syzygy heads


def reference_relations_modulo(ring: GradedRing, vectors, rank: int,
                               context) -> set:
    """Relations among `vectors` modulo span(context) + I * R^rank, as a set
    of column item tuples: the syzygies of vectors + context cut to their
    first len(vectors) positions, reduced modulo the ring ideal, zero heads
    dropped."""
    from stackdual.groebner import syzygies_over
    heads = set()
    for syz in syzygies_over(ring, list(vectors) + list(context), rank):
        head = {i: ring.reduce(p) for i, p in syz.items() if i < len(vectors)}
        head = tuple((i, p) for i, p in head.items() if not p.is_zero())
        if head:
            heads.add(head)
    return heads


def annihilates(ring: GradedRing, relations, rows) -> bool:
    """Whether sum_i a_i * rows[i] reduces to zero for every relation a."""
    for rel in relations:
        acc = {}
        for i, coeff in rel.items():
            for t, p in rows[i].items():
                acc[t] = acc.get(t, ring.zero()) + coeff * p
        if any(not ring.reduce(p).is_zero() for p in acc.values()):
            return False
    return True


def reference_homology(C, i):
    """H_i of a complex in two steps: a minimal presentation of the cycles,
    whose generators are then cut down modulo the boundaries."""
    from stackdual.gmodule import kernel_with_inclusion, subquotient
    term = C.terms[i]
    out_map, in_map = C.map_out_of(i), C.map_into(i)
    if out_map is None:
        cycles = [{j: C.ring.one()} for j in range(term.rank)]
    else:
        cycles = list(kernel_with_inclusion(out_map)[1])
    boundaries = list(in_map.columns) if in_map is not None else []
    return subquotient(cycles, boundaries, term)


def reference_kernel(f, modulo=()):
    """ker f modulo `modulo`, with the images of the source generators
    recomputed as f applied to each unit vector."""
    from stackdual.gmodule import subquotient
    from stackdual.groebner import syzygies_over
    units = [{j: f.ring.one()} for j in range(f.source.rank)]
    if f.target.rank == 0:
        gens = units
    else:
        gens = syzygies_over(f.ring, [f.apply_to_vector(u) for u in units],
                             f.target.rank, f.target.relations)
    return subquotient(gens, modulo, f.source)


def reference_restrict_along(f):
    """B, the target of f, over the weighted source, by elimination.

    The relations among the staircase monomials b_k modulo the graph ideal
    are syzygies over the mixed ring; a module Groebner basis of them in the
    term-over-position elimination order has a target-free element for
    every relation with coefficients in the source alone.
    """
    from stackdual import groebner
    from stackdual.gmodule import ModulePresentation
    monos, mono_degs = f.module_generators
    ring_a = f.weighted_source
    graph_gb = f.graph
    mixed = graph_gb.ring
    nt = f.target.nvars
    ns = f.source.nvars
    gen_vecs = [{0: mixed.monomial(m + (0,) * ns)} for m in monos]
    context = [{0: g} for g in graph_gb.generators]
    projected = groebner.syzygies_over(mixed, gen_vecs, 1, context)
    rel_cols = []
    if projected:
        gb = groebner._TrackedGB(
            [groebner._flatten(v, mixed) for v in projected], mixed)
        source_ambient = ring_a.ambient()
        for b in gb.basis:
            b = engine_terms(b, mixed)
            if any(any(m[:nt]) for (_, m) in b):
                continue
            comps = {}
            for (pos, m), c in b.items():
                comps.setdefault(pos, {})[m[nt:]] = c
            column = {pos: ring_a.reduce(source_ambient.poly(comps[pos]))
                      for pos in sorted(comps)}
            column = {pos: p for pos, p in column.items() if not p.is_zero()}
            if column and column not in rel_cols:
                rel_cols.append(column)
    keep = sorted(groebner.minimal_generating_vectors(ring_a, rel_cols, mono_degs))
    return ModulePresentation(ring_a, mono_degs,
                              [rel_cols[i] for i in keep])


def reference_pruned_restriction(f):
    """B over the weighted source, its staircase relations pruned by
    `minimal_generating_vectors` in the greedy order."""
    from stackdual import groebner
    from stackdual.gmodule import ModulePresentation
    monos, mono_degs = f.module_generators
    ring_a = f.weighted_source
    nt = f.target.nvars
    rel_cols = []
    for k, b in enumerate(monos):
        for lead in f.graph.leads:
            if not monomial_divides(lead[:nt], b):
                continue
            e = lead[nt:]
            column = {pos: -c for pos, c in f.coordinates(b, e).items()}
            column[k] = column.get(k, ring_a.zero()) + ring_a.monomial(e)
            rel_cols.append(groebner.column(ring_a, column, len(monos)))
    keep = sorted(groebner.minimal_generating_vectors(ring_a, rel_cols, mono_degs))
    return ModulePresentation(ring_a, mono_degs,
                              [rel_cols[i] for i in keep])


def reference_resolve(M, depth):
    """The minimal free resolution of M to `depth`, every step computed."""
    from stackdual.complexes import ChainComplex
    from stackdual.gmodule import ModuleMap, ModulePresentation, minimalize
    from stackdual.groebner import (minimal_generating_vectors, syzygies_over,
                                    vector_bidegree)
    ring = M.ring
    M0 = minimalize(M)
    terms = [ModulePresentation(ring, M0.bidegrees)]
    maps = {}
    cols, degs = M0.relations, M0.relation_bidegrees
    for i in range(1, depth + 1):
        if not cols:
            return ChainComplex(ring, terms, maps, finite=True)
        terms.append(ModulePresentation(ring, degs))
        maps[i] = ModuleMap(terms[i], terms[i - 1], cols)
        if i < depth:
            syz = syzygies_over(ring, cols, terms[i - 1].rank)
            keep = sorted(minimal_generating_vectors(ring, syz, degs))
            cols = tuple(syz[k] for k in keep)
            degs = tuple(vector_bidegree(v, degs) for v in cols)
    return ChainComplex(ring, terms, maps)


def reference_minimalize_with_tracking(M):
    """A minimal presentation of M and the surviving generator indices,
    eliminating one unit entry per full rescan of the columns."""
    from stackdual.gmodule import ModulePresentation
    from stackdual.groebner import minimal_generating_vectors, syzygies_over
    ring = M.ring
    gens = list(M.bidegrees)
    origin = list(range(len(gens)))
    cols = list(M.relations)
    positive = all(d > 0 for d in ring.zdegs)

    while True:
        pivot = next(((c, i, entry.constant_value())
                      for c, col in enumerate(cols)
                      for i, entry in col.items() if entry.is_unit_scalar()),
                     None)
        if pivot is None:
            if positive or not gens:
                break
            units = [{i: ring.one()} for i in range(len(gens))]
            keep = sorted(minimal_generating_vectors(ring, units, gens,
                                                     context=cols))
            if len(keep) == len(gens):
                break
            cols = syzygies_over(ring, [units[i] for i in keep], len(gens), cols)
            gens = [gens[i] for i in keep]
            origin = [origin[i] for i in keep]
            continue
        c, i, unit = pivot
        pivot_col = cols.pop(c)
        for n, col in enumerate(cols):
            col = dict(col)
            factor = col.pop(i, None)
            if factor is not None:
                for k, p in pivot_col.items():
                    if k != i:
                        q = col.get(k, ring.zero()) - factor * p / unit
                        col[k] = ring.reduce(q)
            cols[n] = {k - (k > i): p for k, p in sorted(col.items())
                       if not p.is_zero()}
        del gens[i]
        del origin[i]

    unique = list({tuple(col.items()): col for col in cols if col}.values())
    keep = minimal_generating_vectors(ring, unique, gens)
    return ModulePresentation(ring, gens, [unique[ix] for ix in keep]), tuple(origin)


def reference_syzygies(oracle, heads):
    """The relations `oracle.syzygies(heads)` reads off a liftable oracle,
    with e_i minus the expression of every input i, sorted by printed
    column."""
    from stackdual.groebner import _project, printed_column
    gb = oracle.gb
    unit = (0,) * gb.ring.nvars
    relations = list(gb.syzygies)
    for i, v in enumerate(oracle._inputs):
        delta = engine_vector({(i, unit): 1}, gb.ring)
        for k, c in gb.express(v).items():
            s = delta.get(k, 0) - c
            if s:
                delta[k] = s
            else:
                del delta[k]
        relations.append(delta)
    cols = (_project(s, oracle.ring, range(heads), heads) for s in relations)
    unique = {tuple(col.items()): col for col in cols if col}
    return sorted(unique.values(), key=lambda v: printed_column(v, heads))


def reference_precomposition(ring, d, nm, vec):
    """phi o d for phi = vec, a vector of Hom(F_0, N) = N^rank(F_0) at
    positions s * nm + l, and d: F_1 -> F_0 given by its columns over F_0;
    the result is a vector of Hom(F_1, N) at positions k * nm + l."""
    from stackdual.groebner import column
    acting = {}                 # s -> [(k, entry s of column k)]
    for k, dcol in enumerate(d):
        for s, c in dcol.items():
            acting.setdefault(s, []).append((k, c))
    moved = {}
    for pos, entry in vec.items():
        s, l = divmod(pos, nm)
        for k, c in acting.get(s, ()):
            key = k * nm + l
            moved[key] = moved[key] + c * entry if key in moved else c * entry
    return column(ring, moved, len(d) * nm)


def _contraction_leads(target, images):
    """The leads of the basis of the contraction ideal (target ideal +
    images) in the target order."""
    from stackdual.groebner import buchberger
    gb = buchberger(list(target.ideal) + list(images), ring=target.ambient())
    return [leading_term(g)[0] for g in gb.generators]


def reference_is_module_finite(target, images):
    """Whether every target variable has a pure power among the leads of
    the contraction ideal: the finiteness criterion of a map whose source
    variables all have positive degree."""
    leads = _contraction_leads(target, images)
    return all(any(sum(lm) == lm[idx] for lm in leads)
               for idx in range(target.nvars))


def reference_module_generators(f):
    """The staircase of the contraction ideal (target ideal + images) in
    the target order: the target monomials no lead of its basis divides,
    enumerated up to the corner of the pure powers and sorted like
    `RingMorphism.module_generators`."""
    target = f.target
    leads = _contraction_leads(target, f.images)
    corner = 0
    for idx, d in enumerate(target.zdegs):
        powers = [lm[idx] for lm in leads if sum(lm) == lm[idx]]
        corner += max(min(powers) - 1, 0) * d
    found = [m for level in _monomials_by_zdeg(target, corner).values()
             for m in level if not any(monomial_divides(lm, m) for lm in leads)]
    return sorted(found, key=lambda m: (target.monomial_bidegree(m).zdeg,
                                        target.order.key(m)))


def reference_krull_dimension(ring, gens):
    """Krull dimension of ring/(gens): the size of a largest set of
    variables that holds the support of no lead of `reference_buchberger`'s
    basis; -1 for the unit ideal."""
    leads = [leading_term(g)[0] for g in reference_buchberger(gens, ring=ring)]
    if any(not any(lm) for lm in leads):
        return -1
    return max(size for size in range(ring.nvars + 1)
               for S in itertools.combinations(range(ring.nvars), size)
               if not any(all(i in S for i, e in enumerate(lm) if e)
                          for lm in leads))


def _monomials_by_zdeg(ring, zmax):
    """Every monomial of Z-degree <= zmax, grouped by Z-degree, each group in
    ascending lexicographic order of exponents."""
    out = {z: [] for z in range(zmax + 1)}
    for m in itertools.product(range(zmax + 1), repeat=ring.nvars):
        z = sum(e * d for e, d in zip(m, ring.zdegs))
        if z <= zmax:
            out[z].append(m)
    return out


def reference_standard_basis(M, zmax):
    """(generator index, standard monomial, bidegree) for every basis element
    of M up to Z-degree zmax, generator-major, then by Z-degree, then
    lexicographic: every monomial is tested against every lead of its
    position.  Raises ValueError if a generator is in range and some
    variable has Z-degree <= 0, where the pieces are infinite."""
    from stackdual.groebner import SubmoduleOracle
    ring = M.ring
    live = [(k, g) for k, g in enumerate(M.bidegrees) if g.zdeg <= zmax]
    if not live:
        return []
    if any(d <= 0 for d in ring.zdegs):
        raise ValueError("pieces are infinite-dimensional")
    gb = SubmoduleOracle(ring, M.relations, M.rank).gb
    leads = engine_terms(dict.fromkeys(gb.leads, 1), gb.ring)
    monos = _monomials_by_zdeg(ring, zmax - min(g.zdeg for _, g in live))
    out = []
    for k, g in live:
        for z in range(zmax - g.zdeg + 1):
            for mono in monos[z]:
                if not any(pos == k and monomial_divides(lm, mono)
                           for pos, lm in leads):
                    out.append((k, mono, ring.monomial_bidegree(mono) + g))
    return out


def reference_hilbert_function(M, zmax):
    """{(zdeg, weight): dim} up to zmax, by counting standard monomials."""
    if zmax < 0:
        raise ValueError("zmax must be >= 0")
    table = {}
    for _, _, d in reference_standard_basis(M, zmax):
        table[(d.zdeg, d.weight)] = table.get((d.zdeg, d.weight), 0) + 1
    return table


def reference_invariant_part(M, bound):
    """The weight-zero dimensions {zdeg: dim} up to the bound and the first
    24 weight-zero basis elements, printed as `invariant_part` prints them."""
    dims, elements = {}, []
    for k, mono, d in reference_standard_basis(M, bound):
        if d.weight:
            continue
        dims[d.zdeg] = dims.get(d.zdeg, 0) + 1
        if len(elements) < 24:
            text = str(M.ring.monomial(mono)) if any(mono) else "1"
            elements.append(f"{text}*e{k + 1} (zdeg {d.zdeg})")
    return dims, elements


def reference_cm_gorenstein_check(C, ideal_gens, imax):
    """The CM/Gorenstein report from every Ext^i, i = 0..imax, read off the
    Hom complex into the canonical module."""
    from stackdual.complexes import hom_complex
    from stackdual.duality import (CMReport, _combinatorial_dimension,
                                   _ext_ranks, _ext_resolution, canonical_module)
    omega = canonical_module(C)
    ring_b, res = _ext_resolution(C, ideal_gens, omega, imax)
    profile = _ext_ranks(hom_complex(res, omega), range(imax + 1))
    nonzero = [i for i, n in profile.items() if n]
    notes = []
    if not nonzero:
        return CMReport(None, profile, False, False, inconclusive=True,
                        notes=["every computed Ext vanishes"])
    r = nonzero[0]
    codim_by_dim = C.nvars - _combinatorial_dimension(ring_b)
    inconclusive = False
    if codim_by_dim != r:
        inconclusive = True
        notes.append(f"first nonvanishing Ext index {r} disagrees with "
                     f"combinatorial codimension {codim_by_dim}")
    cm = nonzero == [r] and not inconclusive
    gorenstein = cm and profile[r] == 1
    return CMReport(r, profile, cm, gorenstein, inconclusive, notes)


def reference_lci_dualizing(C, seq, omega, imax=None):
    """The l.c.i. report with the sequence tested by its Koszul homology
    ranks below r before the quotient ring is built."""
    from stackdual.caps import InputError
    from stackdual.complexes import hom_complex, homology, koszul
    from stackdual.duality import (COMPARE_BOUND, DualityReport, _check_ext_inputs,
                                   _ext_ranks, _over, compare_modules)
    from stackdual.gmodule import ModulePresentation
    if omega.rank != 1 or omega.relations:
        raise InputError("omega must be free of rank one")
    seq = [C.reduce(g) for g in seq]
    r = len(seq)
    imax = imax if imax is not None else max(r + 1, 2)
    _check_ext_inputs(C, omega, imax)
    hc = hom_complex(koszul(C, seq), omega)
    below = [j for j, n in _ext_ranks(hc, range(r)).items() if n]
    if below:
        raise InputError(f"sequence is not regular: Koszul H_{r - below[-1]} is nonzero")
    ring_b = C.quotient(seq, name=f"{C.name}/I")
    if any(g.is_constant() for g in ring_b.ideal_groebner().generators):
        raise InputError("sequence generates the unit ideal")
    total = C.degree_zero()
    for g in seq:
        total = total + g.bidegree()
    module = ModulePresentation(ring_b, (omega.bidegrees[0] - total,))
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


def fraction_rank(rows):
    """The rank over Q of a matrix given as a list of rows, by exact
    Gaussian elimination."""
    rows = [[Fraction(x) for x in row] for row in rows if any(row)]
    rank = 0
    while rows:
        pivot = rows.pop()
        j = next((k for k, x in enumerate(pivot) if x), None)
        if j is None:
            continue
        rank += 1
        rows = [[x - row[j] / pivot[j] * y for x, y in zip(row, pivot)]
                for row in rows]
    return rank


def hochster_betti(nvars, supports):
    """{(i, sigma): beta_{i,sigma}(C/I)} over the nonzero graded Betti
    numbers, for the ideal I of C = Q[x_1..x_n] spanned by the squarefree
    monomials prod_{k in s} x_k, s in `supports` (nonempty sets): sigma
    runs over the subsets of range(nvars), as sorted tuples."""
    supports = [frozenset(s) for s in supports]
    out = {}
    for size in range(nvars + 1):
        for sigma in itertools.combinations(range(nvars), size):
            # faces of Delta|sigma by dimension k, from k = -1 (the empty face)
            faces = [[F for F in itertools.combinations(sigma, k + 1)
                      if not any(s <= set(F) for s in supports)]
                     for k in range(-1, size)]
            ranks = [0]  # rank of d_k: C_k -> C_{k-1}, for k = -1, 0, ...
            for k in range(1, len(faces)):
                index = {F: pos for pos, F in enumerate(faces[k - 1])}
                rows = []
                for F in faces[k]:
                    row = [0] * len(faces[k - 1])
                    for pos in range(len(F)):
                        row[index[F[:pos] + F[pos + 1:]]] = (-1) ** pos
                    rows.append(row)
                ranks.append(fraction_rank(rows))
            ranks.append(0)
            for i in range(size + 1):
                k = size - i - 1  # reduced homology degree, index k + 1 in faces
                dim = len(faces[k + 1]) - ranks[k + 1] - ranks[k + 2]
                if dim:
                    out[(i, sigma)] = dim
    return out
