"""Exact bigraded polynomial arithmetic over Q.

A coefficient is an `int` when it is integral, else a `fractions.Fraction`
(`coefficient` states the rule once); floats are refused, so every
operation is exact and nothing is ever rounded.  A monomial is a tuple of
nonnegative exponents, one per ring variable, and its *packed key* is one
integer that encodes it under the ring's monomial order (`PackedKeys`).  A
polynomial stores {packed key: coefficient} with no zero entries, the same
integers the module engine works on, so a product adds keys and the
leading term is the largest key.  Exponent tuples are decoded only where
the exponents themselves are needed: display, the Hilbert/staircase code,
substitution, a term's bidegree (once per key) and moving a polynomial
into a ring of another order.  Each variable of a ring carries a
*bidegree* (a Z-degree together with a Z/a-weight, where a is the order
of the acting cyclic group; a = 1 means no group), so homogeneity can be
tracked in both gradings at once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from numbers import Rational
from operator import itemgetter, le, mul, sub
from types import MappingProxyType
from typing import Mapping, Optional, Sequence

from .caps import InputError, ResourceCapError, check_term_cap

Monomial = tuple[int, ...]
Scalar = int | Fraction


def coefficient(c) -> Scalar:
    """The canonical form of an exact rational scalar: an `int` when it is
    integral, else a `Fraction`.  Raises TypeError for anything that is not
    an exact rational, such as a float.

    `Polynomial.__init__` keeps an `int` or a proper `Fraction` with no call
    and sends anything else here; the module engine's add loop inlines the
    same test on a sum s of canonical scalars:
    `s if type(s) is int or s.denominator != 1 else s.numerator`."""
    if type(c) is int:
        return c
    if not isinstance(c, Rational):
        raise TypeError(f"coefficient {c!r} is not an exact rational")
    return c.numerator if c.denominator == 1 else Fraction(c)


class RingMismatchError(InputError):
    """Operands live in rings with different ambient signatures."""


# ---------------------------------------------------------------------------
# bidegrees


class Bidegree(tuple):
    """A (Z-degree, Z/a-weight) pair; the weight is stored in [0, a).

    An immutable value: the tuple (zdeg, weight, modulus), so it is built,
    compared and hashed at tuple speed and its fields cannot be assigned.
    Adding or subtracting bidegrees of different moduli raises ValueError.
    """

    __slots__ = ()

    def __new__(cls, zdeg: int, weight: int, modulus: int = 1):
        if modulus < 1:
            raise ValueError("group order must be >= 1")
        return _tuple_new(cls, (zdeg, weight % modulus, modulus))

    zdeg = property(itemgetter(0))
    weight = property(itemgetter(1))
    modulus = property(itemgetter(2))

    def __getnewargs__(self):
        return tuple(self)

    def _check(self, other: "Bidegree") -> None:
        if self[2] != other[2]:
            raise ValueError(
                f"bidegree modulus mismatch: {self[2]} vs {other[2]}")

    def __add__(self, other: "Bidegree") -> "Bidegree":
        self._check(other)
        z, w, a = self
        return _tuple_new(Bidegree, (z + other[0], (w + other[1]) % a, a))

    def __sub__(self, other: "Bidegree") -> "Bidegree":
        self._check(other)
        z, w, a = self
        return _tuple_new(Bidegree, (z - other[0], (w - other[1]) % a, a))

    def __neg__(self) -> "Bidegree":
        z, w, a = self
        return _tuple_new(Bidegree, (-z, -w % a, a))

    def __mul__(self, other):
        raise TypeError("a bidegree is not a sequence to repeat")

    __rmul__ = __mul__

    def lambda_exponent(self) -> str:
        """The weight rendered as a power of the group character.

        Residues are also shown with their negative representative, matching
        how dual generators are usually written (lambda^1 = lambda^-1 mod 2).
        """
        if self.modulus == 1 or self.weight == 0:
            return "lambda^0"
        neg = self.weight - self.modulus
        return f"lambda^{self.weight} = lambda^{neg}"

    def __str__(self) -> str:
        if self.modulus == 1:
            return f"({self.zdeg})"
        return f"({self.zdeg}, {self.weight} mod {self.modulus})"

    def __repr__(self) -> str:
        return f"Bidegree(zdeg={self[0]}, weight={self[1]}, modulus={self[2]})"


_tuple_new = tuple.__new__


# ---------------------------------------------------------------------------
# monomial helpers


def monomial_divides(m1: Monomial, m2: Monomial) -> bool:
    """True if m1 divides m2."""
    return all(map(le, m1, m2))


def monomial_div(m1: Monomial, m2: Monomial) -> Monomial:
    """m1 / m2; caller guarantees divisibility."""
    return tuple(map(sub, m1, m2))


def monomial_lcm(m1: Monomial, m2: Monomial) -> Monomial:
    return tuple(map(max, m1, m2))


# ---------------------------------------------------------------------------
# monomial orders


FIELD_MAX = (1 << 63) - 1      # the largest value of a guarded field
FIELD_MASK = (1 << 64) - 1     # one 64-bit field


class PackedKeys:
    """The integer keys of one monomial order on n variables.

    A key packs the order's weight rows, most significant first, one 64-bit
    field each: row r holds const_r + sum_i weights_r[i] * e_i, so
    key(m1 * m2) = key(m1) + key(m2) - `one`.  Every field but a degree in
    the top row is guarded: it holds [0, 2^63), and its bit 63 is in
    `guards`.  So integers compare as the rows do, a sum of keys left the
    range exactly when it has a guard bit set, and, as every exponent has a
    guarded row of its own, m2 divides m1 exactly when
    `(one + key(m1) - key(m2)) & guards == 0`.  `key` encodes (raising
    ResourceCapError out of range) and `monomial` decodes, both memoized.
    """

    def __init__(self, rows: Sequence[tuple[int, tuple[int, ...]]],
                 guarded_top: bool, keys: dict):
        self.rows = tuple(rows)
        top = len(self.rows) - 1
        shifts = [64 * (top - r) for r in range(len(self.rows))]
        self.guarded = tuple(r > 0 or guarded_top for r in range(len(self.rows)))
        self.guards = sum(1 << (s + 63) for s, g in zip(shifts, self.guarded) if g)
        self.one = sum(const << s for (const, _), s in zip(self.rows, shifts))
        n = len(self.rows[0][1]) if self.rows else 0
        # key(m) = one + sum_i e_i * deltas[i]
        self._deltas = tuple(sum(w[i] << s for (_, w), s in zip(self.rows, shifts))
                             for i in range(n))
        # exponents up to this bound keep every row inside its range
        self._limit = FIELD_MAX // max([1, *(sum(map(abs, w)) for _, w in self.rows)])
        self._keys = keys          # shared by every packing of the order
        self._monos: dict[int, Monomial] = {}
        # each exponent is read off the last row in which it appears alone
        self._exponent_rows = []
        for i in range(n):
            r = max(r for r, (_, w) in enumerate(self.rows)
                    if abs(w[i]) == 1 and sum(map(abs, w)) == 1)
            const, weights = self.rows[r]
            self._exponent_rows.append((shifts[r], const, weights[i]))

    def key(self, mono: Monomial) -> int:
        k = self._keys.get(mono)
        if k is None:
            if max(mono, default=0) > self._limit:
                self._check_range(mono)
            k = self.one + sum(map(mul, mono, self._deltas))
            self._keys[mono] = k
            self._monos[k] = mono
        return k

    def _check_range(self, mono: Monomial) -> None:
        for (const, weights), guarded in zip(self.rows, self.guarded):
            v = const + sum(map(mul, weights, mono))
            if guarded and not 0 <= v <= FIELD_MAX:
                raise ResourceCapError(f"monomial {mono} is outside the 63-bit "
                                       f"range of the packed monomial key")

    def monomial(self, key: int) -> Monomial:
        """The exponent tuple of a key."""
        mono = self._monos.get(key)
        if mono is None:
            mono = self._monos[key] = tuple(
                sign * (((key >> shift) & FIELD_MASK) - const)
                for shift, const, sign in self._exponent_rows)
        return mono


def key_range_error() -> ResourceCapError:
    """The error of a product whose packed key left its fields' range."""
    return ResourceCapError("a product leaves the 63-bit range of the packed "
                            "monomial key")


class _KeyBidegrees(dict):
    """{packed key: Bidegree} for one ring signature, filled on first use, so
    that a term's bidegree is one dict lookup."""

    __slots__ = ("monomial", "zdegs", "weights", "modulus")

    def __init__(self, monomial, zdegs, weights, modulus):
        super().__init__()
        self.monomial, self.zdegs, self.weights = monomial, zdegs, weights
        self.modulus = modulus

    def __missing__(self, key: int) -> Bidegree:
        mono = self.monomial(key)
        d = self[key] = Bidegree(sum(map(mul, mono, self.zdegs)),
                                 sum(map(mul, mono, self.weights)), self.modulus)
        return d


@dataclass(frozen=True)
class MonomialOrder:
    """A global monomial order: degrevlex or lex in declaration order, or,
    with `head_degrees`, the block order that eliminates the first
    len(head_degrees) variables (plumbing for restriction of scalars).

    The head block compares by its Z-degree sum e_i * head_degrees[i] and
    then by degrevlex, the tail block by degrevlex; with equal head degrees
    this is plain degrevlex per block.

    `key(m)` is one integer, larger for a larger monomial, packed from
    weight rows with guard bits (`PackedKeys`): degrevlex has the total
    degree, then FIELD_MAX - e_i for i from last to first; lex has e_0 ..
    e_{n-1}; the block order has the weighted head degree, then the
    degrevlex rows of the head, then those of the tail.
    """

    kind: str = "degrevlex"
    head_degrees: tuple[int, ...] = ()
    _keys: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _packings: dict = field(default_factory=dict, init=False, repr=False,
                            compare=False)

    def __post_init__(self):
        if self.kind not in ("degrevlex", "lex"):
            raise ValueError(f"unknown monomial order kind {self.kind!r}")

    def _rows(self, n: int) -> list[tuple[int, tuple[int, ...]]]:
        def unit(i, sign=1):
            return tuple(sign if j == i else 0 for j in range(n))

        if self.kind == "lex":
            return [(0, unit(i)) for i in range(n)]
        k = len(self.head_degrees)
        blocks = [range(k), range(k, n)] if k else [range(n)]
        rows = []
        if k:
            rows.append((0, tuple(self.head_degrees[i] if i < k else 0
                                  for i in range(n))))
        for block in blocks:
            rows.append((0, tuple(int(i in block) for i in range(n))))
            rows += [(FIELD_MAX, unit(i, -1)) for i in reversed(block)]
        return rows

    def packing(self, nvars: int) -> PackedKeys:
        """The packed keys of this order on `nvars` variables."""
        if nvars not in self._packings:
            self._packings[nvars] = PackedKeys(self._rows(nvars), self.kind == "lex",
                                               self._keys)
        return self._packings[nvars]

    def key(self, mono: Monomial) -> int:
        k = self._keys.get(mono)
        if k is None:
            k = self.packing(len(mono)).key(mono)
        return k


# ---------------------------------------------------------------------------
# graded rings


class GradedRing:
    """A bigraded polynomial ring Q[x_1..x_n], optionally modulo an ideal.

    The ideal generators are ordinary polynomials over the same ambient
    signature; arithmetic on ring elements never reduces automatically, the
    module layer reduces where its contracts require it.  Instances are
    immutable after construction.
    """

    def __init__(self, variables: Sequence[str], zdegs: Sequence[int] | None = None,
                 weights: Sequence[int] | None = None, group_order: int = 1,
                 ideal: Sequence["Polynomial"] = (), order: MonomialOrder | None = None,
                 name: str | None = None):
        self.variables = tuple(variables)
        n = len(self.variables)
        if len(set(self.variables)) != n:
            raise ValueError("duplicate variable names")
        self.zdegs = tuple(zdegs) if zdegs is not None else (1,) * n
        # every variable of positive Z-degree: graded Nakayama holds
        self.positive = all(d > 0 for d in self.zdegs)
        self.weights = tuple(w % group_order for w in weights) if weights is not None else (0,) * n
        if group_order < 1:
            raise ValueError("group order must be >= 1")
        if len(self.zdegs) != n or len(self.weights) != n:
            raise ValueError("degree/weight lists must match the variable count")
        self.group_order = group_order
        self.order = order if order is not None else MonomialOrder()
        self.packing = self.order.packing(n)
        # shared with every ring of the same signature (`ambient`, `quotient`)
        self.bidegree_of = _KeyBidegrees(self.packing.monomial, self.zdegs,
                                         self.weights, group_order)
        self.signature = (self.variables, self.zdegs, self.weights, group_order,
                          self.order)
        self.name = name or "Q[" + ",".join(self.variables) + "]"
        kept = []
        for g in ideal:
            if not self.same_ambient(g.ring):
                raise RingMismatchError("ideal generator lives in a different ambient ring")
            if g.is_zero():
                continue
            if g.bidegree() is None:
                raise InputError(f"ideal generator {g} is not bihomogeneous")
            kept.append(g)
        # the generators live in the ambient ring, which holds no reference
        # back, so a quotient ring is freed as soon as nothing uses it
        self._ambient = self._same_signature((), self.name) if kept else None
        self.ideal: tuple[Polynomial, ...] = tuple(
            from_packed(self._ambient, g.packed) for g in kept)
        self._gb_cache = None

    # -- identity ----------------------------------------------------------

    def same_ambient(self, other: "GradedRing") -> bool:
        return self.signature == other.signature

    def _ideal_key(self) -> tuple:
        """Canonical form of the ideal: the reduced Groebner basis, so two
        presentations of the same quotient compare equal."""
        if not self.ideal:
            return ()
        return self.ideal_groebner().generators

    def __eq__(self, other):
        if self is other:
            return True
        return (isinstance(other, GradedRing) and self.signature == other.signature
                and self._ideal_key() == other._ideal_key())

    def __hash__(self):
        return hash((self.signature, self._ideal_key()))

    def __repr__(self):
        quot = "/(" + ", ".join(map(str, self.ideal)) + ")" if self.ideal else ""
        return f"{self.name}{quot}"

    # -- construction ------------------------------------------------------

    def ambient(self) -> "GradedRing":
        """The same signature with no ideal, built once per ring."""
        return self if self._ambient is None else self._ambient

    def quotient(self, gens: Sequence["Polynomial"], name: str | None = None) -> "GradedRing":
        return self._same_signature(tuple(self.ideal) + tuple(gens),
                                    name or self.name)

    def _same_signature(self, ideal, name: str) -> "GradedRing":
        ring = GradedRing(self.variables, self.zdegs, self.weights,
                          self.group_order, ideal, self.order, name)
        ring.bidegree_of = self.bidegree_of
        return ring

    @property
    def nvars(self) -> int:
        return len(self.variables)

    # -- element constructors ----------------------------------------------

    def zero(self) -> "Polynomial":
        return Polynomial(self, {})

    def one(self) -> "Polynomial":
        return self.constant(1)

    def constant(self, c) -> "Polynomial":
        c = coefficient(c)
        if c == 0:
            return self.zero()
        return from_packed(self, {self.packing.one: c})

    def var(self, name_or_index) -> "Polynomial":
        idx = (name_or_index if isinstance(name_or_index, int)
               else self.variables.index(name_or_index))
        exp = [0] * self.nvars
        exp[idx] = 1
        return from_packed(self, {self.packing.key(tuple(exp)): 1})

    def monomial(self, mono: Monomial, coeff=1) -> "Polynomial":
        coeff = coefficient(coeff)
        if coeff == 0:
            return self.zero()
        return from_packed(self, {self.packing.key(tuple(mono)): coeff})

    def poly(self, terms: dict) -> "Polynomial":
        canonical = ((tuple(m), coefficient(c)) for m, c in terms.items())
        return Polynomial(self, {m: c for m, c in canonical if c != 0})

    # -- grading -------------------------------------------------------------

    def degree_zero(self) -> Bidegree:
        return Bidegree(0, 0, self.group_order)

    def monomial_bidegree(self, mono: Monomial) -> Bidegree:
        z = sum(map(mul, mono, self.zdegs))
        w = sum(map(mul, mono, self.weights))
        return Bidegree(z, w, self.group_order)

    def variable_bidegree(self, idx: int) -> Bidegree:
        return Bidegree(self.zdegs[idx], self.weights[idx], self.group_order)

    # -- the ideal -----------------------------------------------------------

    def ideal_groebner(self):
        """Reduced Groebner basis of the defining ideal (cached)."""
        if self._gb_cache is None:
            from .groebner import buchberger
            self._gb_cache = buchberger(list(self.ideal), ring=self.ambient())
        return self._gb_cache

    def reduce(self, p: "Polynomial") -> "Polynomial":
        """Normal form of p modulo the defining ideal, as an element of this
        ring.  This is where a polynomial enters a ring: p must share the
        ambient signature, or RingMismatchError is raised.  What it returns
        is marked reduced, so reducing it again over this ring is free."""
        if p.ring is self and p._reduced:
            return p
        if p.ring is not self and not self.same_ambient(p.ring):
            raise RingMismatchError(f"{p} does not live in {self!r}")
        if self.ideal:
            gb = self.ideal_groebner()
            # a polynomial with no reducible term is its own normal form
            if gb.divides_a_term(p):
                from .groebner import normal_form
                p = normal_form(p, gb)
        if p.ring is not self:
            p = from_packed(self, p.packed)
        p._reduced = True
        return p

    def reinterpret(self, p: "Polynomial") -> "Polynomial":
        """Reinterpret by raw terms only (for regrading along a ring map):
        the packed keys carry over as they are when both orders pack alike,
        and the exponents are decoded and encoded again only into another
        order."""
        if self.nvars != p.ring.nvars:
            raise RingMismatchError("variable count mismatch")
        if self.packing.rows == p.ring.packing.rows:
            return from_packed(self, p.packed)
        return Polynomial(self, p.terms)


# ---------------------------------------------------------------------------
# polynomials


_UNKNOWN = object()     # a bidegree not computed yet (None is an answer)


def _canonical(c: Scalar) -> Scalar:
    """`coefficient` of a sum or product of canonical scalars."""
    return c if type(c) is int or c.denominator != 1 else c.numerator


class Polynomial:
    """Immutable sparse polynomial with exact rational coefficients, each
    in the canonical form of `coefficient`: zero terms are dropped and the
    others are brought to that form here, so a float raises TypeError.

    `Polynomial(ring, {exponent tuple: c})` encodes its terms; `packed`
    holds them as {packed key of the ring's order: coefficient}, and
    `terms` is a read-only view of them keyed by exponent tuples again.
    Polynomials of rings with one ambient signature share one packing, so
    their keys compare, add and divide directly.

    Four facts about a polynomial are computed once and kept on it: its
    `bidegree()`, its printed form `str(p)`, its hash (on first use), and
    whether it is in normal form modulo its ring's ideal (set by
    `GradedRing.reduce` on what it returns); `-p` and `p / c` keep the
    first and the last.  They hold only because `packed` is never mutated
    after construction; build a new polynomial instead."""

    __slots__ = ("ring", "packed", "_bidegree", "_str", "_reduced", "_hash")

    def __init__(self, ring: GradedRing, terms: Mapping[Monomial, Scalar]):
        key = ring.packing.key
        self.ring = ring
        self.packed = {key(m): c if type(c) is int
                       or type(c) is Fraction and c.denominator != 1
                       else coefficient(c)
                       for m, c in terms.items() if c != 0}
        self._bidegree = _UNKNOWN
        self._str = self._hash = None
        self._reduced = False

    @property
    def terms(self) -> Mapping[Monomial, Scalar]:
        """The terms keyed by exponent tuples, decoded from `packed`: a
        read-only view for display and inspection."""
        monomial = self.ring.packing.monomial
        return MappingProxyType({monomial(k): c for k, c in self.packed.items()})

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.packed

    def is_constant(self) -> bool:
        packed = self.packed
        return not packed or (len(packed) == 1 and self.ring.packing.one in packed)

    def constant_value(self) -> Scalar:
        if self.is_zero():
            return 0
        if not self.is_constant():
            raise ValueError("not a constant")
        return next(iter(self.packed.values()))

    def is_unit_scalar(self) -> bool:
        return self.is_constant() and not self.is_zero()

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.ring.same_ambient(other.ring) and self.packed == other.packed

    def __hash__(self):
        h = self._hash
        if h is None:
            # equal polynomials have equal keys; most hashed entries are zero
            h = self._hash = hash(frozenset(self.packed.items())) if self.packed else 0
        return h

    # -- arithmetic ----------------------------------------------------------

    def _coerce(self, other) -> "Polynomial":
        if isinstance(other, Polynomial):
            if not self.ring.same_ambient(other.ring):
                raise RingMismatchError(
                    f"ring mismatch: {self.ring!r} vs {other.ring!r}")
            return other
        return self.ring.constant(other)

    def __add__(self, other) -> "Polynomial":
        other = self._coerce(other)
        out = dict(self.packed)
        for k, c in other.packed.items():
            s = out.get(k, 0) + c
            if s == 0:
                del out[k]
            else:
                out[k] = _canonical(s)
        return from_packed(self.ring, out)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        p = from_packed(self.ring, {k: -c for k, c in self.packed.items()})
        p._bidegree, p._reduced = self._bidegree, self._reduced  # same monomials
        return p

    def __sub__(self, other) -> "Polynomial":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "Polynomial":
        return self._coerce(other) - self

    def __mul__(self, other) -> "Polynomial":
        """The product: key(m1 * m2) = key(m1) + key(m2) - one, refused with
        ResourceCapError when a sum sets a guard bit."""
        other = self._coerce(other)
        packing = self.ring.packing
        guards = packing.guards
        out: dict[int, Scalar] = {}
        for k1, c1 in self.packed.items():
            base = k1 - packing.one
            for k2, c2 in other.packed.items():
                k = base + k2
                if k & guards:
                    raise key_range_error()
                s = out.get(k, 0) + c1 * c2
                if s == 0:
                    out.pop(k, None)
                else:
                    out[k] = s
        check_term_cap(len(out))
        return from_packed(self.ring, {k: _canonical(c) for k, c in out.items()})

    __rmul__ = __mul__

    def __truediv__(self, scalar) -> "Polynomial":
        inverse = Fraction(1) / coefficient(scalar)
        p = from_packed(self.ring, {k: _canonical(c * inverse)
                                    for k, c in self.packed.items()})
        p._bidegree, p._reduced = self._bidegree, self._reduced  # same monomials
        return p

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise ValueError("negative exponent")
        # repeated squaring: about log2(n) products instead of n
        out, square = self.ring.one(), self
        while n:
            if n & 1:
                out = out * square
            n >>= 1
            if n:
                square = square * square
        return out

    # -- order-dependent views ------------------------------------------------

    def sorted_terms(self) -> list[tuple[Monomial, Scalar]]:
        """(monomial, coefficient) pairs, largest first under the ring's
        order, which sorts the keys themselves."""
        monomial, packed = self.ring.packing.monomial, self.packed
        return [(monomial(k), packed[k]) for k in sorted(packed, reverse=True)]

    # -- grading ---------------------------------------------------------------

    def bidegree(self) -> Optional[Bidegree]:
        """The common bidegree of all terms, or None.

        Returns None both for the zero polynomial (whose degree is "any";
        test is_zero() to tell the cases apart) and for inhomogeneous input.
        """
        if self._bidegree is _UNKNOWN:
            degs = set(map(self.ring.bidegree_of.__getitem__, self.packed))
            self._bidegree = degs.pop() if len(degs) == 1 else None
        return self._bidegree

    # -- display ----------------------------------------------------------------

    def _term_str(self, mono: Monomial, coeff: Scalar) -> str:
        factors = [f"{v}^{e}" if e > 1 else v
                   for v, e in zip(self.ring.variables, mono) if e]
        if not factors:
            return str(coeff)
        body = "*".join(factors)
        if coeff == 1:
            return body
        if coeff == -1:
            return f"-{body}"
        return f"{coeff}*{body}"

    def __str__(self) -> str:
        if self._str is None:
            parts = []
            for i, (m, c) in enumerate(self.sorted_terms()):
                s = self._term_str(m, c)
                if i == 0:
                    parts.append(s)
                elif s.startswith("-"):
                    parts.append(f"- {s[1:]}")
                else:
                    parts.append(f"+ {s}")
            self._str = " ".join(parts) or "0"
        return self._str

    def __repr__(self):
        return f"<{self}>"


def from_packed(ring: GradedRing, packed: dict[int, Scalar]) -> Polynomial:
    """The polynomial of `ring` with terms {packed key of the ring's order:
    coefficient}, taken as given: the keys, canonical nonzero coefficients,
    and a dict that nothing mutates afterwards."""
    p = _new_polynomial(Polynomial)
    p.ring, p.packed = ring, packed
    p._bidegree, p._str, p._reduced, p._hash = _UNKNOWN, None, False, None
    return p


_new_polynomial = object.__new__


# ---------------------------------------------------------------------------
# substitution


def substitute(p: Polynomial, target: GradedRing, images: Sequence[Polynomial]) -> Polynomial:
    """Evaluate p at the given images (one per variable of p's ring)."""
    if len(images) != p.ring.nvars:
        raise ValueError("need one image per variable")
    cache: dict[tuple[int, int], Polynomial] = {}

    def power(idx: int, e: int) -> Polynomial:
        if (idx, e) not in cache:
            cache[(idx, e)] = images[idx] ** e
        return cache[(idx, e)]

    out = target.zero()
    for mono, coeff in sorted(p.terms.items()):
        term = target.constant(coeff)
        for idx, e in enumerate(mono):
            if e:
                term = term * power(idx, e)
        out = out + term
    return out
