"""Session input language: ring, map and module declarations plus
computation commands.

Statements are newline- or semicolon-terminated; `#` starts a comment.
Polynomials are written infix with explicit `*` and `^` (integers only;
rational coefficients enter through division, e.g. (1/2)*x).  One
recursive-descent parser reads every statement, expressions included, from
a single token stream, read by one regular expression, and matches keywords
and symbols by their text: an expression ends at the first token that cannot
continue it (`,`, `)`, `}` or the end of the statement), so any declared
variable or generator name may appear in it.  References must resolve to
earlier declarations, so the parser keeps a symbol table and produces fully
resolved statements.  On error it recovers at the next statement terminator
and reports every diagnostic with line and column.

    ring B = Q[x,y]/(x*y) group 3 weights {x:1, y:2} degrees {x:1, y:1}
    map f : A -> B { u = x^3, v = y^3 }
    module W over B gens w:(-3,1) rels x*w
    dualize-finite f depth 4
    dualize-lci C seq (z*x^2 - y^2) omega canonical depth 4
    check gorenstein C ideal (u*v - t^2) max 3
    check pushforward f W A bound 8
    hom W W; ext C ideal (x*y) omega canonical max 2
    koszul C seq (x, y); hilbert W max 10; invariants W bound 8
    compare W W bound 8
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple, NoReturn, Optional, Sequence

from .caps import InputError, ResourceCapError, command_caps
from .gmodule import ModulePresentation, RingMorphism
from .poly import Bidegree, GradedRing, MonomialOrder, Polynomial

COMMAND_KINDS = ("hom", "ext", "koszul", "dualize-finite", "dualize-lci",
                 "check", "hilbert", "invariants", "compare")


@dataclass
class Diagnostic:
    line: int
    col: int
    message: str
    expected: tuple[str, ...] = ()

    def __str__(self):
        exp = f" (expected {', '.join(self.expected)})" if self.expected else ""
        return f"{self.line}:{self.col}: {self.message}{exp}"


class ParseError(InputError):
    def __init__(self, diagnostics: Sequence[Diagnostic]):
        self.diagnostics = list(diagnostics)
        super().__init__("; ".join(str(d) for d in self.diagnostics))


# ---------------------------------------------------------------------------
# tokens


# An IDENT is a letter, then word characters; an INT, decimal digits; a
# SYMBOL, `->` or one of (){}[]:;,=^*+-/>.  Blanks and a `#` comment match
# no named group.  Any other character is an ERROR token, which the parser
# reports at its column.
_TOKEN = re.compile(r"(?:[ \t]+|#.*)|(?P<IDENT>[^\W\d_]\w*)|(?P<INT>\d+)"
                    r"|(?P<SYMBOL>->|[(){}\[\]:;,=^*+\-/>])|(?P<ERROR>.)")


class Token(NamedTuple):
    kind: str       # IDENT INT SYMBOL NEWLINE EOF, or ERROR
    value: str      # the text; empty only for NEWLINE and EOF
    line: int
    col: int


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    lines = text.splitlines()
    for lineno, line in enumerate(lines, start=1):
        tokens += [Token(m.lastgroup, m.group(), lineno, m.start() + 1)
                   for m in _TOKEN.finditer(line) if m.lastgroup]
        tokens.append(Token("NEWLINE", "", lineno, len(line) + 1))
    tokens.append(Token("EOF", "", len(lines) + 1, 1))
    return tokens


# ---------------------------------------------------------------------------
# resolved statements


@dataclass
class RingDecl:
    name: str
    ring: GradedRing

    def print_canonical(self) -> str:
        r = self.ring
        out = f"ring {self.name} = Q[{','.join(r.variables)}]"
        if r.ideal:
            out += "/(" + ", ".join(str(g) for g in r.ideal) + ")"
        if r.group_order != 1:
            out += f" group {r.group_order}"
        if any(w != 0 for w in r.weights):
            out += " weights {" + ", ".join(
                f"{v}:{w}" for v, w in zip(r.variables, r.weights)) + "}"
        if any(d != 1 for d in r.zdegs):
            out += " degrees {" + ", ".join(
                f"{v}:{d}" for v, d in zip(r.variables, r.zdegs)) + "}"
        if r.order.kind != "degrevlex":
            out += f" order {r.order.kind}"
        return out


@dataclass
class MapDecl:
    name: str
    morphism: RingMorphism
    source_name: str
    target_name: str

    def print_canonical(self) -> str:
        f = self.morphism
        imgs = ", ".join(f"{v} = {img}" for v, img in
                         zip(f.source.variables, f.images))
        return f"map {self.name} : {self.source_name} -> {self.target_name} {{{imgs}}}"


@dataclass
class ModuleDecl:
    name: str
    ring_name: str
    module: ModulePresentation
    gen_names: tuple[str, ...]

    def print_canonical(self) -> str:
        gens = ", ".join(
            f"{n}:({d.zdeg},{d.weight})"
            for n, d in zip(self.gen_names, self.module.bidegrees))
        out = f"module {self.name} over {self.ring_name} gens {gens}"
        if self.module.relations:
            rels = ", ".join(
                " + ".join(f"({p})*{self.gen_names[i]}" for i, p in col.items())
                for col in self.module.relations)
            out += f" rels {rels}"
        return out


@dataclass
class Command:
    kind: str                      # one of COMMAND_KINDS
    subkind: Optional[str] = None  # gorenstein | pushforward, for check
    args: dict = field(default_factory=dict)
    options: dict = field(default_factory=dict)
    text: str = ""                 # canonical form

    def print_canonical(self) -> str:
        return self.text


Statement = RingDecl | MapDecl | ModuleDecl | Command


@dataclass
class SessionAst:
    statements: list[Statement]
    rings: dict[str, GradedRing]
    maps: dict[str, RingMorphism]
    modules: dict[str, ModulePresentation]

    def commands(self) -> list[Command]:
        return [s for s in self.statements if isinstance(s, Command)]

    def print_canonical(self) -> str:
        return "\n".join(s.print_canonical() for s in self.statements) + "\n"


# ---------------------------------------------------------------------------
# the parser


class _Bail(Exception):
    def __init__(self, diagnostic: Diagnostic):
        self.diagnostic = diagnostic


class _Parser:
    def __init__(self, tokens: list[Token], default_order: str = "degrevlex"):
        self.tokens = tokens
        self.pos = 0
        self.diagnostics: list[Diagnostic] = []
        self.default_order = default_order
        self.rings: dict[str, GradedRing] = {}
        self.maps: dict[str, RingMorphism] = {}
        self.modules: dict[str, tuple[ModulePresentation, str]] = {}
        # the ring and module generators of the expression being read
        self.expr_ring: Optional[GradedRing] = None
        self.expr_gens: dict[str, int] = {}

    # -- token plumbing ------------------------------------------------------

    def peek(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind == "ERROR":
            self.fail_at(tok, f"unexpected character {tok.value!r}")
        return tok

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def accept(self, *values: str) -> Optional[Token]:
        """Take the next token if its text is one of `values`.  Symbols, `->`
        and keywords never share text, and only NEWLINE and EOF have none,
        so the text alone tells them apart."""
        if self.peek().value in values:
            return self.advance()
        return None

    def expect(self, value: str) -> Token:
        t = self.peek()
        if t.value != value:
            self.fail(f"unexpected {t.value or t.kind!r}", expected=(value,))
        return self.advance()

    def expect_ident(self, what: str = "identifier") -> str:
        t = self.peek()
        if t.kind != "IDENT":
            self.fail(f"unexpected {t.value or t.kind!r}", expected=(what,))
        return self.advance().value

    def expect_int(self) -> int:
        neg = bool(self.accept("-"))
        if self.peek().kind != "INT":
            self.fail("expected an integer", expected=("integer",))
        value = self.integer()
        return -value if neg else value

    def integer(self) -> int:
        """The value of the INT token at hand, which it takes."""
        t = self.advance()
        try:
            return int(t.value)
        except ValueError:  # longer than Python converts
            self.fail_at(t, "integer literal too long")

    def comma_list(self, item) -> list:
        out = [item()]
        while self.accept(","):
            out.append(item())
        return out

    def fail(self, message: str, expected: tuple[str, ...] = ()) -> NoReturn:
        self.fail_at(self.peek(), message, expected)

    def fail_at(self, tok: Token, message: str,
                expected: tuple[str, ...] = ()) -> NoReturn:
        raise _Bail(Diagnostic(tok.line, tok.col, message, expected))

    def at_terminator(self) -> bool:
        return self.tokens[self.pos].value in ("", ";")

    def skip_to_terminator(self):
        while not self.at_terminator():
            self.advance()

    # -- entry ----------------------------------------------------------------

    def parse(self) -> SessionAst:
        statements: list[Statement] = []
        while (start := self.tokens[self.pos]).kind != "EOF":
            if self.at_terminator():
                self.advance()
                continue
            try:
                statements.append(self.statement())
            except _Bail as bail:
                self.diagnostics.append(bail.diagnostic)
                self.skip_to_terminator()
            except ResourceCapError as exc:
                self.diagnostics.append(Diagnostic(start.line, start.col, str(exc)))
                self.skip_to_terminator()
        if self.diagnostics:
            raise ParseError(self.diagnostics)
        return SessionAst(statements, dict(self.rings), dict(self.maps),
                          {n: m for n, (m, _) in self.modules.items()})

    def statement(self) -> Statement:
        t = self.peek()
        if t.kind != "IDENT":
            self.fail("expected a statement",
                      expected=("ring", "map", "module") + COMMAND_KINDS)
        if t.value == "ring":
            return self.ring_decl()
        if t.value == "map":
            return self.map_decl()
        if t.value == "module":
            return self.module_decl()
        return self.command()

    def end_statement(self):
        t = self.peek()
        if self.at_terminator():
            return
        self.fail(f"unexpected {t.value!r} after a complete statement",
                  expected=("newline", ";"))

    def declare(self, name: str, tok: Token):
        """Refuse a name an earlier declaration took.  A name is taken only
        when its statement has parsed, so a failed one leaves none behind."""
        if name in self.rings or name in self.maps or name in self.modules:
            self.fail_at(tok, f"duplicate name {name!r}")

    # -- declarations -----------------------------------------------------------

    def ring_decl(self) -> RingDecl:
        self.advance()  # ring
        tok = self.peek()
        name = self.expect_ident("ring name")
        self.declare(name, tok)
        self.expect("=")
        if self.expect_ident("Q") != "Q":
            self.fail("only the rational field Q is supported", expected=("Q",))
        self.expect("[")
        variables: list[str] = []
        while True:
            var_tok = self.peek()
            v = self.expect_ident("variable")
            if v in variables:
                self.fail_at(var_tok, f"duplicate variable {v!r}")
            variables.append(v)
            if not self.accept(","):
                break
        self.expect("]")

        # The ideal comes before the grading and order it lives in.  Sums and
        # products do not depend on either, so it is read over the ungraded
        # ring on the same variables and regraded once the options are known.
        ungraded = GradedRing(variables)
        quotient: list[tuple[Token, Polynomial]] = []
        if self.accept("/"):
            self.expect("(")
            quotient = self.comma_list(
                lambda: (self.peek(), self.polynomial(ungraded)))
            self.expect(")")

        group = 1
        weights = {v: 0 for v in variables}
        degrees = {v: 1 for v in variables}
        weight_toks: dict[str, Token] = {}
        order_kind = self.default_order
        while word := self.accept("group", "weights", "degrees", "order"):
            if word.value == "group":
                group = self.expect_int()
                if group < 1:
                    self.fail("group order must be >= 1")
            elif word.value == "order":
                order_kind = self.expect_ident("degrevlex|lex")
                if order_kind not in ("degrevlex", "lex"):
                    self.fail("unknown order", expected=("degrevlex", "lex"))
            else:
                table = weights if word.value == "weights" else degrees
                self.expect("{")
                while True:
                    var_tok = self.peek()
                    v = self.expect_ident("variable")
                    if v not in variables:
                        self.fail_at(var_tok, f"unknown variable {v!r}")
                    self.expect(":")
                    table[v] = self.expect_int()
                    if table is weights:
                        weight_toks[v] = var_tok
                    if not self.accept(","):
                        break
                self.expect("}")
        self.end_statement()

        for v, w in weights.items():
            if not 0 <= w < group:
                self.diagnostics.append(Diagnostic(
                    weight_toks[v].line, weight_toks[v].col,
                    f"weight of {v} outside [0, {group})"))
        ambient = GradedRing(variables, [degrees[v] for v in variables],
                             [weights[v] for v in variables], group,
                             order=MonomialOrder(order_kind), name=name)
        gens = [ambient.reinterpret(g) for _, g in quotient]
        for g, (first, _) in zip(gens, quotient):
            if g.bidegree() is None and not g.is_zero():
                self.fail_at(first, f"ideal generator {g} is not bihomogeneous")
        ring = ambient.quotient(gens, name=name) if gens else ambient
        self.rings[name] = ring
        return RingDecl(name, ring)

    def map_decl(self) -> MapDecl:
        self.advance()  # map
        tok = self.peek()
        name = self.expect_ident("map name")
        self.declare(name, tok)
        self.expect(":")
        source, src = self.ring_ref()
        if not self.accept("->"):
            self.fail("expected ->", expected=("->",))
        target, tgt = self.ring_ref()
        self.expect("{")
        images: dict[str, Polynomial] = {}
        while True:
            var_tok = self.peek()
            v = self.expect_ident("source variable")
            if v not in source.variables:
                self.fail_at(var_tok, f"{v!r} is not a variable of {src}")
            self.expect("=")
            images[v] = self.polynomial(target)
            if not self.accept(","):
                break
        self.expect("}")
        self.end_statement()
        missing = [v for v in source.variables if v not in images]
        if missing:
            self.fail_at(tok, f"map {name} is missing images for {missing}")
        try:
            morphism = RingMorphism(source, target,
                                    [images[v] for v in source.variables],
                                    name=name)
        except ValueError as exc:
            self.fail_at(tok, str(exc))
        self.maps[name] = morphism
        return MapDecl(name, morphism, src, tgt)

    def module_decl(self) -> ModuleDecl:
        self.advance()  # module
        tok = self.peek()
        name = self.expect_ident("module name")
        self.declare(name, tok)
        self.expect("over")
        ring, ring_name = self.ring_ref()
        self.expect("gens")
        gen_names: list[str] = []
        bidegrees: list[Bidegree] = []
        while True:
            gtok = self.peek()
            g = self.expect_ident("generator name")
            if g in gen_names or g in ring.variables:
                self.fail_at(gtok, f"generator name {g!r} clashes")
            self.expect(":")
            self.expect("(")
            z = self.expect_int()
            self.expect(",")
            w = self.expect_int()
            self.expect(")")
            gen_names.append(g)
            bidegrees.append(Bidegree(z, w, ring.group_order))
            if not self.accept(","):
                break
        rels: list[dict[int, Polynomial]] = []
        if self.accept("rels"):
            rels = self.comma_list(lambda: self.relation(ring, gen_names))
        self.end_statement()
        try:
            module = ModulePresentation(ring, bidegrees, rels)
        except ValueError as exc:
            self.fail_at(tok, str(exc))
        try:  # printing caches the text; a report prints these later
            for col in module.relations:
                for entry in col.values():
                    str(entry)
        except ValueError:  # a coefficient longer than Python prints
            self.fail_at(tok, "coefficient too long to print")
        self.modules[name] = (module, ring_name)
        return ModuleDecl(name, ring_name, module, tuple(gen_names))

    # -- commands -----------------------------------------------------------------

    def module_ref(self) -> tuple[ModulePresentation, str]:
        tok = self.peek()
        name = self.expect_ident("module or ring name")
        if name in self.modules:
            return self.modules[name][0], name
        if name in self.rings:
            return ModulePresentation.structure(self.rings[name]), name
        self.fail_at(tok, f"unknown module or ring {name!r}")

    def ring_ref(self) -> tuple[GradedRing, str]:
        tok = self.peek()
        name = self.expect_ident("ring name")
        if name not in self.rings:
            self.fail_at(tok, f"unknown ring {name!r}")
        return self.rings[name], name

    def map_ref(self) -> tuple[RingMorphism, str]:
        tok = self.peek()
        name = self.expect_ident("map name")
        if name not in self.maps:
            self.fail_at(tok, f"unknown map {name!r}")
        return self.maps[name], name

    def poly_list(self, ring: GradedRing) -> tuple[list[Polynomial], str]:
        """A parenthesized polynomial list and its canonical text."""
        self.expect("(")
        out = self.comma_list(lambda: self.printed_polynomial(ring))
        self.expect(")")
        return [p for p, _ in out], "(" + ", ".join(t for _, t in out) + ")"

    def printed_polynomial(self, ring: GradedRing) -> tuple[Polynomial, str]:
        first = self.peek()
        p = self.polynomial(ring)
        try:
            return p, str(p)
        except ValueError:  # a coefficient longer than Python prints
            self.fail_at(first, "coefficient too long to print")

    def int_option(self, name: str, default: Optional[int]) -> Optional[int]:
        value = default
        while self.accept(name):
            value = self.expect_int()
        return value

    def command(self) -> Command:
        tok = self.peek()
        head = self.expect_ident("command")
        if head == "dualize":
            self.expect("-")
            sub = self.expect_ident("finite|lci")
            head = f"dualize-{sub}"
        if head not in COMMAND_KINDS:
            self.fail_at(tok, f"unknown command {head!r}", COMMAND_KINDS)
        method = getattr(self, "cmd_" + head.replace("-", "_"))
        cmd = method()
        self.end_statement()
        return cmd

    def cmd_hom(self) -> Command:
        m, mn = self.module_ref()
        n, nn = self.module_ref()
        return Command("hom", args={"M": m, "N": n},
                       text=f"hom {mn} {nn}")

    def cmd_ext(self) -> Command:
        ring, rname = self.ring_ref()
        self.expect("ideal")
        gens, gens_txt = self.poly_list(ring.ambient())
        self.expect("omega")
        omega, oname = self.omega_ref()
        imax = self.int_option("max", max(2, ring.nvars))
        return Command("ext", args={"ring": ring, "ideal": gens, "omega": omega},
                       options={"max": imax},
                       text=f"ext {rname} ideal {gens_txt} omega {oname} max {imax}")

    def omega_ref(self) -> tuple[Optional[ModulePresentation], str]:
        if self.accept("canonical"):
            return None, "canonical"  # resolved against the ring at run time
        return self.module_ref()

    def cmd_koszul(self) -> Command:
        ring, rname = self.ring_ref()
        self.expect("seq")
        seq, seq_txt = self.poly_list(ring)
        return Command("koszul", args={"ring": ring, "seq": seq},
                       text=f"koszul {rname} seq {seq_txt}")

    def cmd_dualize_finite(self) -> Command:
        f, fname = self.map_ref()
        omega, text = None, f"dualize-finite {fname}"
        if self.accept("omega"):
            omega, oname = self.module_ref()
            text += f" omega {oname}"
        depth = self.int_option("depth", 4)
        return Command("dualize-finite", args={"map": f, "omega": omega},
                       options={"depth": depth}, text=f"{text} depth {depth}")

    def cmd_dualize_lci(self) -> Command:
        ring, rname = self.ring_ref()
        self.expect("seq")
        seq, seq_txt = self.poly_list(ring)
        self.expect("omega")
        omega, oname = self.omega_ref()
        depth = self.int_option("depth", None)
        text = f"dualize-lci {rname} seq {seq_txt} omega {oname}"
        if depth is not None:
            text += f" depth {depth}"
        return Command("dualize-lci",
                       args={"ring": ring, "seq": seq, "omega": omega},
                       options={"depth": depth}, text=text)

    def cmd_check(self) -> Command:
        tok = self.peek()
        sub = self.expect_ident("gorenstein|pushforward")
        if sub == "gorenstein":
            ring, rname = self.ring_ref()
            self.expect("ideal")
            gens, gens_txt = self.poly_list(ring.ambient())
            imax = self.int_option("max", max(2, ring.nvars))
            return Command("check", subkind="gorenstein",
                           args={"ring": ring, "ideal": gens},
                           options={"max": imax},
                           text=f"check gorenstein {rname} ideal {gens_txt} max {imax}")
        if sub == "pushforward":
            f, fname = self.map_ref()
            mb, mbn = self.module_ref()
            ma, man = self.module_ref()
            bound = self.int_option("bound", 8)
            return Command("check", subkind="pushforward",
                           args={"map": f, "omega_b": mb, "omega_a": ma},
                           options={"bound": bound},
                           text=f"check pushforward {fname} {mbn} {man} bound {bound}")
        self.fail_at(tok, f"unknown check {sub!r}", ("gorenstein", "pushforward"))

    def cmd_hilbert(self) -> Command:
        m, mn = self.module_ref()
        zmax = self.int_option("max", 12)
        return Command("hilbert", args={"M": m}, options={"bound": zmax},
                       text=f"hilbert {mn} max {zmax}")

    def cmd_invariants(self) -> Command:
        m, mn = self.module_ref()
        bound = self.int_option("bound", 12)
        return Command("invariants", args={"M": m}, options={"bound": bound},
                       text=f"invariants {mn} bound {bound}")

    def cmd_compare(self) -> Command:
        m, mn = self.module_ref()
        n, nn = self.module_ref()
        bound = self.int_option("bound", 8)
        return Command("compare", args={"M": m, "N": n},
                       options={"bound": bound},
                       text=f"compare {mn} {nn} bound {bound}")

    # -- polynomial expressions --------------------------------------------------
    # An expression is read in place and ends at the first token that cannot
    # continue it: `,`, `)`, `}` or the end of the statement.  Its value is a
    # polynomial, or {generator index: coefficient} for an expression linear
    # in the module generators of a relation.

    def polynomial(self, ring: GradedRing) -> Polynomial:
        self.expr_ring, self.expr_gens = ring, {}
        return self.expr()

    def relation(self, ring: GradedRing,
                 gen_names: list[str]) -> dict[int, Polynomial]:
        first = self.peek()
        self.expr_ring = ring
        self.expr_gens = {g: i for i, g in enumerate(gen_names)}
        value = self.expr()
        if not isinstance(value, dict):
            self.fail_at(first, "relation does not involve any generator")
        return value

    def expr(self):
        value = self.term()
        while op := self.accept("+", "-"):
            value = self.add(value, self.term(), op)
        return value

    def term(self):
        value = self.unary()
        while op := self.accept("*", "/"):
            rhs = self.unary()
            if op.value == "/":
                if isinstance(rhs, dict) or not rhs.is_constant() or rhs.is_zero():
                    self.fail_at(op, "division only by a nonzero constant")
                rhs = self.expr_ring.constant(Fraction(1) / rhs.constant_value())
            value = self.mul(value, rhs, op)
        return value

    def unary(self):
        # a sign binds looser than `^`: -x^2 and 2*-x^2 both negate x^2
        if op := self.accept("+", "-"):
            value = self.unary()
            if op.value == "-":
                value = self.mul(self.expr_ring.constant(-1), value, op)
            return value
        return self.power()

    def power(self):
        value = self.atom()
        if op := self.accept("^"):
            if self.peek().kind != "INT":
                self.fail_at(op, "exponent must be a nonnegative integer")
            if isinstance(value, dict):
                self.fail_at(op, "cannot raise a generator to a power")
            value = value ** self.integer()
        return value

    def atom(self):
        t = self.peek()
        if t.kind == "INT":
            return self.expr_ring.constant(self.integer())
        if t.kind == "IDENT":
            if t.value in self.expr_ring.variables:
                self.advance()
                return self.expr_ring.var(t.value)
            if t.value in self.expr_gens:
                self.advance()
                return {self.expr_gens[t.value]: self.expr_ring.one()}
            self.fail(f"unknown symbol {t.value!r}")
        if self.accept("("):
            value = self.expr()
            if not self.accept(")"):
                self.fail_at(t, "missing closing parenthesis")
            return value
        self.fail("expected an expression", expected=("polynomial",))

    def add(self, a, b, op: Token):
        if not isinstance(a, dict) and not isinstance(b, dict):
            return a + b if op.value == "+" else a - b
        out = dict(self.combination(a, op))
        for k, v in self.combination(b, op).items():
            v = v if op.value == "+" else -v
            out[k] = out[k] + v if k in out else v
        return out

    def combination(self, value, op: Token) -> dict:
        if isinstance(value, dict):
            return value
        if not value.is_zero():
            self.fail_at(op, "cannot add a bare polynomial to a generator combination")
        return {}

    def mul(self, a, b, op: Token):
        if isinstance(a, dict) and isinstance(b, dict):
            self.fail_at(op, "relations must be linear in the generators")
        if isinstance(a, dict):
            return {k: v * b for k, v in a.items()}
        if isinstance(b, dict):
            return {k: a * v for k, v in b.items()}
        return a * b


# ---------------------------------------------------------------------------
# public functions


def parse_session(text: str, default_order: str = "degrevlex") -> SessionAst:
    """Parse a session; raises ParseError carrying all diagnostics.  The
    resource caps of a command hold for the arithmetic done while parsing."""
    with command_caps():
        return _Parser(tokenize(text), default_order).parse()

