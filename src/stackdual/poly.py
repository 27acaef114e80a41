"""Exact bigraded polynomial arithmetic over Q.

Coefficients are `fractions.Fraction`: every operation is exact, nothing is
ever rounded.  A monomial is a tuple of nonnegative exponents, one per ring
variable; a polynomial is a mapping monomial -> coefficient with no zero
entries.  Each variable of a ring carries a *bidegree* (a Z-degree together
with a Z/a-weight, where a is the order of the acting cyclic group; a = 1
means no group), so homogeneity can be tracked in both gradings at once.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .caps import check_term_cap

Monomial = tuple[int, ...]
Scalar = Fraction


class RingMismatchError(ValueError):
    """Operands live in rings with different ambient signatures."""


# ---------------------------------------------------------------------------
# bidegrees


@dataclass(frozen=True)
class Bidegree:
    """A (Z-degree, Z/a-weight) pair; the weight is stored in [0, a)."""

    zdeg: int
    weight: int
    modulus: int = 1

    def __post_init__(self):
        if self.modulus < 1:
            raise ValueError("group order must be >= 1")
        object.__setattr__(self, "weight", self.weight % self.modulus)

    def _check(self, other: "Bidegree") -> None:
        if self.modulus != other.modulus:
            raise ValueError(
                f"bidegree modulus mismatch: {self.modulus} vs {other.modulus}")

    def __add__(self, other: "Bidegree") -> "Bidegree":
        self._check(other)
        return Bidegree(self.zdeg + other.zdeg, self.weight + other.weight, self.modulus)

    def __sub__(self, other: "Bidegree") -> "Bidegree":
        self._check(other)
        return Bidegree(self.zdeg - other.zdeg, self.weight - other.weight, self.modulus)

    def __neg__(self) -> "Bidegree":
        return Bidegree(-self.zdeg, -self.weight, self.modulus)

    def scale(self, n: int) -> "Bidegree":
        return Bidegree(self.zdeg * n, self.weight * n, self.modulus)

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


ZERO_DEGREE = Bidegree(0, 0, 1)


# ---------------------------------------------------------------------------
# monomial helpers


def monomial_mul(m1: Monomial, m2: Monomial) -> Monomial:
    return tuple(a + b for a, b in zip(m1, m2))


def monomial_divides(m1: Monomial, m2: Monomial) -> bool:
    """True if m1 divides m2."""
    return all(a <= b for a, b in zip(m1, m2))


def monomial_div(m1: Monomial, m2: Monomial) -> Monomial:
    """m1 / m2; caller guarantees divisibility."""
    return tuple(a - b for a, b in zip(m1, m2))


def monomial_lcm(m1: Monomial, m2: Monomial) -> Monomial:
    return tuple(max(a, b) for a, b in zip(m1, m2))


# ---------------------------------------------------------------------------
# monomial orders


@dataclass(frozen=True)
class MonomialOrder:
    """A global monomial order: degrevlex or lex with a precedence list.

    `precedence` lists variable indices from most to least precedent; the
    default is declaration order.  Keys compare as Python tuples, larger key
    means larger monomial.  Keys are memoized per order instance (monomials
    repeat heavily inside the kernels).
    """

    kind: str = "degrevlex"
    precedence: Optional[tuple[int, ...]] = None

    def __post_init__(self):
        if self.kind not in ("degrevlex", "lex"):
            raise ValueError(f"unknown monomial order kind {self.kind!r}")
        object.__setattr__(self, "_key_cache", {})

    def resolved_precedence(self, nvars: int) -> tuple[int, ...]:
        if self.precedence is None:
            return tuple(range(nvars))
        if sorted(self.precedence) != list(range(nvars)):
            raise ValueError("precedence must be a permutation of the variables")
        return self.precedence

    def _compute_key(self, mono: Monomial):
        prec = self.resolved_precedence(len(mono))
        if self.kind == "lex":
            return tuple(mono[p] for p in prec)
        # degrevlex: total degree first, ties broken so that the monomial
        # with the smaller exponent in the least precedent variable wins.
        return (sum(mono), tuple(-mono[p] for p in reversed(prec)))

    def key(self, mono: Monomial):
        cache = self._key_cache  # type: ignore[attr-defined]
        k = cache.get(mono)
        if k is None:
            k = cache[mono] = self._compute_key(mono)
        return k


class _EliminationOrder(MonomialOrder):
    """Block order eliminating the first `split` variables (plumbing for
    restriction of scalars; compares each block by degrevlex)."""

    def __init__(self, split: int):
        object.__setattr__(self, "kind", "degrevlex")
        object.__setattr__(self, "precedence", None)
        object.__setattr__(self, "split", split)
        object.__setattr__(self, "_key_cache", {})

    def _compute_key(self, mono: Monomial):
        split = self.split  # type: ignore[attr-defined]
        head, tail = mono[:split], mono[split:]
        return (
            (sum(head), tuple(-e for e in reversed(head))),
            (sum(tail), tuple(-e for e in reversed(tail))),
        )


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
        self.weights = tuple(w % group_order for w in weights) if weights is not None else (0,) * n
        if group_order < 1:
            raise ValueError("group order must be >= 1")
        if len(self.zdegs) != n or len(self.weights) != n:
            raise ValueError("degree/weight lists must match the variable count")
        self.group_order = group_order
        self.order = order if order is not None else MonomialOrder()
        self.signature = (self.variables, self.zdegs, self.weights, group_order,
                          self.order.kind, self.order.resolved_precedence(n))
        self.name = name or "Q[" + ",".join(self.variables) + "]"
        self.ideal: tuple[Polynomial, ...] = ()
        for g in ideal:
            if not self.same_ambient(g.ring):
                raise RingMismatchError("ideal generator lives in a different ambient ring")
            if g.is_zero():
                continue
            if g.bidegree() is None:
                raise ValueError(f"ideal generator {g} is not bihomogeneous")
            self.ideal += (Polynomial(self, dict(g.terms)),)
        self._gb_cache = None

    # -- identity ----------------------------------------------------------

    def same_ambient(self, other: "GradedRing") -> bool:
        return self.signature == other.signature

    def _ideal_key(self) -> tuple:
        """Canonical form of the ideal: the reduced Groebner basis, so two
        presentations of the same quotient compare equal."""
        if not self.ideal:
            return ()
        return tuple(str(g) for g in self.ideal_groebner().generators)

    def __eq__(self, other):
        return (isinstance(other, GradedRing) and self.signature == other.signature
                and self._ideal_key() == other._ideal_key())

    def __hash__(self):
        return hash((self.signature, self._ideal_key()))

    def __repr__(self):
        quot = "/(" + ", ".join(map(str, self.ideal)) + ")" if self.ideal else ""
        return f"{self.name}{quot}"

    # -- construction ------------------------------------------------------

    def ambient(self) -> "GradedRing":
        """The same signature with no ideal."""
        if not self.ideal:
            return self
        return GradedRing(self.variables, self.zdegs, self.weights,
                          self.group_order, (), self.order, self.name)

    def quotient(self, gens: Sequence["Polynomial"], name: str | None = None) -> "GradedRing":
        return GradedRing(self.variables, self.zdegs, self.weights,
                          self.group_order, tuple(self.ideal) + tuple(gens),
                          self.order, name or self.name)

    @property
    def nvars(self) -> int:
        return len(self.variables)

    # -- element constructors ----------------------------------------------

    def zero(self) -> "Polynomial":
        return Polynomial(self, {})

    def one(self) -> "Polynomial":
        return self.constant(1)

    def constant(self, c) -> "Polynomial":
        c = Fraction(c)
        if c == 0:
            return self.zero()
        return Polynomial(self, {(0,) * self.nvars: c})

    def var(self, name_or_index) -> "Polynomial":
        idx = (name_or_index if isinstance(name_or_index, int)
               else self.variables.index(name_or_index))
        exp = [0] * self.nvars
        exp[idx] = 1
        return Polynomial(self, {tuple(exp): Fraction(1)})

    def monomial(self, mono: Monomial, coeff=1) -> "Polynomial":
        coeff = Fraction(coeff)
        if coeff == 0:
            return self.zero()
        return Polynomial(self, {tuple(mono): coeff})

    def poly(self, terms: dict) -> "Polynomial":
        return Polynomial(self, {tuple(m): Fraction(c) for m, c in terms.items()
                                 if Fraction(c) != 0})

    def parse(self, text: str) -> "Polynomial":
        from . import dsl
        return dsl.parse_polynomial(text, self)

    # -- grading -------------------------------------------------------------

    def degree_zero(self) -> Bidegree:
        return Bidegree(0, 0, self.group_order)

    def monomial_bidegree(self, mono: Monomial) -> Bidegree:
        z = sum(e * d for e, d in zip(mono, self.zdegs))
        w = sum(e * d for e, d in zip(mono, self.weights))
        return Bidegree(z, w, self.group_order)

    def variable_bidegree(self, idx: int) -> Bidegree:
        return Bidegree(self.zdegs[idx], self.weights[idx], self.group_order)

    # -- the ideal -----------------------------------------------------------

    def ideal_groebner(self):
        """Reduced Groebner basis of the defining ideal (cached)."""
        if self._gb_cache is None:
            from .groebner import buchberger
            self._gb_cache = buchberger(list(self.ideal), order=self.order,
                                        ring=self.ambient())
        return self._gb_cache

    def reduce(self, p: "Polynomial") -> "Polynomial":
        """Normal form of p modulo the defining ideal."""
        if not self.ideal:
            return p if p.ring is self else Polynomial(self, dict(p.terms))
        from .groebner import normal_form
        return Polynomial(self, dict(normal_form(p, self.ideal_groebner()).terms))

    def retag(self, p: "Polynomial") -> "Polynomial":
        """Reinterpret a polynomial of the same ambient signature in this ring."""
        if not self.same_ambient(p.ring):
            raise RingMismatchError(f"cannot retag {p} into {self!r}")
        return Polynomial(self, dict(p.terms))

    def reinterpret(self, p: "Polynomial") -> "Polynomial":
        """Reinterpret by raw terms only (for regrading along a ring map)."""
        if self.nvars != p.ring.nvars:
            raise RingMismatchError("variable count mismatch")
        return Polynomial(self, dict(p.terms))


# ---------------------------------------------------------------------------
# polynomials


class Polynomial:
    """Immutable sparse polynomial with exact rational coefficients."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: GradedRing, terms: dict):
        self.ring = ring
        self.terms = {m: c for m, c in terms.items() if c != 0}

    # -- basic queries -----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(all(e == 0 for e in m) for m in self.terms)

    def constant_value(self) -> Fraction:
        if self.is_zero():
            return Fraction(0)
        if not self.is_constant():
            raise ValueError("not a constant")
        return next(iter(self.terms.values()))

    def is_unit_scalar(self) -> bool:
        return self.is_constant() and not self.is_zero()

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.ring.same_ambient(other.ring) and self.terms == other.terms

    def __hash__(self):
        return hash((self.ring.signature, tuple(sorted(self.terms.items()))))

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
        out = dict(self.terms)
        for m, c in other.terms.items():
            s = out.get(m, Fraction(0)) + c
            if s == 0:
                out.pop(m, None)
            else:
                out[m] = s
        return Polynomial(self.ring, out)

    __radd__ = __add__

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.ring, {m: -c for m, c in self.terms.items()})

    def __sub__(self, other) -> "Polynomial":
        return self + (-self._coerce(other))

    def __rsub__(self, other) -> "Polynomial":
        return self._coerce(other) - self

    def __mul__(self, other) -> "Polynomial":
        other = self._coerce(other)
        out: dict[Monomial, Fraction] = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = monomial_mul(m1, m2)
                s = out.get(m, Fraction(0)) + c1 * c2
                if s == 0:
                    out.pop(m, None)
                else:
                    out[m] = s
        check_term_cap(len(out))
        return Polynomial(self.ring, out)

    __rmul__ = __mul__

    def __truediv__(self, scalar) -> "Polynomial":
        scalar = Fraction(scalar)
        return Polynomial(self.ring, {m: c / scalar for m, c in self.terms.items()})

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise ValueError("negative exponent")
        out = self.ring.one()
        for _ in range(n):
            out = out * self
        return out

    def scale_monomial(self, mono: Monomial, coeff: Fraction) -> "Polynomial":
        """coeff * mono * self (a single-term product, used by the kernels)."""
        if coeff == 0:
            return self.ring.zero()
        return Polynomial(self.ring,
                          {monomial_mul(m, mono): c * coeff for m, c in self.terms.items()})

    # -- order-dependent views ------------------------------------------------

    def sorted_terms(self, order: MonomialOrder | None = None) -> list[tuple[Monomial, Fraction]]:
        order = order or self.ring.order
        return sorted(self.terms.items(), key=lambda t: order.key(t[0]), reverse=True)

    def leading_term(self, order: MonomialOrder | None = None) -> tuple[Monomial, Fraction]:
        if self.is_zero():
            raise ValueError("zero polynomial has no leading term")
        order = order or self.ring.order
        mono = max(self.terms, key=order.key)
        return mono, self.terms[mono]

    def monic(self, order: MonomialOrder | None = None) -> "Polynomial":
        if self.is_zero():
            return self
        _, c = self.leading_term(order)
        return self / c

    # -- grading ---------------------------------------------------------------

    def bidegree(self) -> Optional[Bidegree]:
        """The common bidegree of all terms, or None.

        Returns None both for the zero polynomial (whose degree is "any";
        test is_zero() to tell the cases apart) and for inhomogeneous input.
        """
        degs = {self.ring.monomial_bidegree(m) for m in self.terms}
        if len(degs) != 1:
            return None
        return next(iter(degs))

    # -- display ----------------------------------------------------------------

    def _term_str(self, mono: Monomial, coeff: Fraction) -> str:
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
        if self.is_zero():
            return "0"
        parts = []
        for i, (m, c) in enumerate(self.sorted_terms()):
            s = self._term_str(m, c)
            if i == 0:
                parts.append(s)
            elif s.startswith("-"):
                parts.append(f"- {s[1:]}")
            else:
                parts.append(f"+ {s}")
        return " ".join(parts)

    def __repr__(self):
        return f"<{self}>"


# ---------------------------------------------------------------------------
# free operations of the spec surface


def multiply(p: Polynomial, q: Polynomial) -> Polynomial:
    """Exact product; raises RingMismatchError across different ambients."""
    return p * q


def leading_term(p: Polynomial, order: MonomialOrder | None = None) -> tuple[Monomial, Scalar]:
    return p.leading_term(order)


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
