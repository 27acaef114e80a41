"""Session input language: ring, map and module declarations plus
computation commands.

Statements are newline- or semicolon-terminated; `#` starts a comment.
Polynomials are written infix with explicit `*` and `^` (integers only;
rational coefficients enter through division, e.g. (1/2)*x).  References
must resolve to earlier declarations, so the parser keeps a symbol table
and produces fully resolved statements.  On error it recovers at the next
statement terminator and reports every diagnostic with line and column.

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

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from .gmodule import FreeModule, ModulePresentation, RingMorphism
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


class ParseError(ValueError):
    def __init__(self, diagnostics: Sequence[Diagnostic]):
        self.diagnostics = list(diagnostics)
        super().__init__("; ".join(str(d) for d in self.diagnostics))


# ---------------------------------------------------------------------------
# tokens


@dataclass(frozen=True)
class Token:
    kind: str       # IDENT INT SYMBOL ARROW NEWLINE EOF
    value: str
    line: int
    col: int


_SYMBOLS = set("(){}[]:;,=^*+-/>")


def tokenize(text: str) -> list[Token]:
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
            raise ParseError([Diagnostic(lineno, col, f"unexpected character {ch!r}")])
        tokens.append(Token("NEWLINE", "", lineno, len(line) + 1))
    tokens.append(Token("EOF", "", len(text.splitlines()) + 1, 1))
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
            for n, d in zip(self.gen_names, self.module.free.bidegrees))
        out = f"module {self.name} over {self.ring_name} gens {gens}"
        if self.module.relations:
            rels = ", ".join(
                " + ".join(f"({p})*{self.gen_names[i]}"
                           for i, p in enumerate(col) if not p.is_zero())
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


class _Parser:
    def __init__(self, tokens: list[Token], default_order: str = "degrevlex"):
        self.tokens = tokens
        self.pos = 0
        self.diagnostics: list[Diagnostic] = []
        self.default_order = default_order
        self.rings: dict[str, GradedRing] = {}
        self.maps: dict[str, RingMorphism] = {}
        self.modules: dict[str, tuple[ModulePresentation, str]] = {}
        self.names: set[str] = set()

    # -- token plumbing ------------------------------------------------------

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "EOF":
            self.pos += 1
        return tok

    def at_symbol(self, sym: str) -> bool:
        t = self.peek()
        return t.kind == "SYMBOL" and t.value == sym

    def accept_symbol(self, sym: str) -> bool:
        if self.at_symbol(sym):
            self.advance()
            return True
        return False

    def expect_symbol(self, sym: str) -> Token:
        t = self.peek()
        if not self.at_symbol(sym):
            self.fail(f"unexpected {t.value or t.kind!r}", expected=(sym,))
        return self.advance()

    def expect_ident(self, what: str = "identifier") -> str:
        t = self.peek()
        if t.kind != "IDENT":
            self.fail(f"unexpected {t.value or t.kind!r}", expected=(what,))
        return self.advance().value

    def expect_keyword(self, word: str) -> None:
        t = self.peek()
        if t.kind != "IDENT" or t.value != word:
            self.fail(f"unexpected {t.value or t.kind!r}", expected=(word,))
        self.advance()

    def expect_int(self) -> int:
        neg = False
        if self.at_symbol("-"):
            self.advance()
            neg = True
        t = self.peek()
        if t.kind != "INT":
            self.fail("expected an integer", expected=("integer",))
        self.advance()
        return -int(t.value) if neg else int(t.value)

    def fail(self, message: str, expected: tuple[str, ...] = ()):
        t = self.peek()
        raise _Bail(Diagnostic(t.line, t.col, message, expected))

    def skip_to_terminator(self):
        while self.peek().kind not in ("NEWLINE", "EOF"):
            if self.at_symbol(";"):
                break
            self.advance()

    # -- entry ----------------------------------------------------------------

    def parse(self) -> SessionAst:
        statements: list[Statement] = []
        while self.peek().kind != "EOF":
            if self.peek().kind == "NEWLINE":
                self.advance()
                continue
            if self.accept_symbol(";"):
                continue
            try:
                statements.append(self.statement())
            except _Bail as bail:
                self.diagnostics.append(bail.diagnostic)
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
        if t.kind in ("NEWLINE", "EOF"):
            return
        if self.at_symbol(";"):
            return
        self.fail(f"unexpected {t.value!r} after a complete statement",
                  expected=("newline", ";"))

    def declare(self, name: str, tok_like: Token):
        if name in self.names:
            raise _Bail(Diagnostic(tok_like.line, tok_like.col,
                                   f"duplicate name {name!r}"))
        self.names.add(name)

    # -- declarations -----------------------------------------------------------

    def ring_decl(self) -> RingDecl:
        self.advance()  # ring
        tok = self.peek()
        name = self.expect_ident("ring name")
        self.declare(name, tok)
        self.expect_symbol("=")
        field_tok = self.expect_ident("Q")
        if field_tok != "Q":
            self.fail("only the rational field Q is supported", expected=("Q",))
        self.expect_symbol("[")
        variables = [self.expect_ident("variable")]
        while self.accept_symbol(","):
            variables.append(self.expect_ident("variable"))
        self.expect_symbol("]")

        quotient_src: list[list[Token]] = []
        if self.accept_symbol("/"):
            self.expect_symbol("(")
            quotient_src.append(self.collect_expr_tokens())
            while self.accept_symbol(","):
                quotient_src.append(self.collect_expr_tokens())
            self.expect_symbol(")")

        group = 1
        weights = {v: 0 for v in variables}
        degrees = {v: 1 for v in variables}
        weight_toks: dict[str, Token] = {}
        order_kind = self.default_order
        while self.peek().kind == "IDENT" and self.peek().value in (
                "group", "weights", "degrees", "order"):
            word = self.advance().value
            if word == "group":
                group = self.expect_int()
                if group < 1:
                    self.fail("group order must be >= 1")
            elif word == "order":
                order_kind = self.expect_ident("degrevlex|lex")
                if order_kind not in ("degrevlex", "lex"):
                    self.fail("unknown order", expected=("degrevlex", "lex"))
            else:
                table = weights if word == "weights" else degrees
                self.expect_symbol("{")
                while True:
                    var_tok = self.peek()
                    v = self.expect_ident("variable")
                    if v not in variables:
                        raise _Bail(Diagnostic(var_tok.line, var_tok.col,
                                               f"unknown variable {v!r}"))
                    self.expect_symbol(":")
                    table[v] = self.expect_int()
                    if table is weights:
                        weight_toks[v] = var_tok
                    if not self.accept_symbol(","):
                        break
                self.expect_symbol("}")
        self.end_statement()

        for v, w in weights.items():
            if not 0 <= w < group:
                self.diagnostics.append(Diagnostic(
                    weight_toks[v].line, weight_toks[v].col,
                    f"weight of {v} outside [0, {group})"))
        ambient = GradedRing(variables, [degrees[v] for v in variables],
                             [weights[v] for v in variables], group,
                             order=MonomialOrder(order_kind), name=name)
        gens = [self.eval_poly_tokens(toks, ambient) for toks in quotient_src]
        for g, toks in zip(gens, quotient_src):
            if g.bidegree() is None and not g.is_zero():
                t0 = toks[0]
                raise _Bail(Diagnostic(t0.line, t0.col,
                                       f"ideal generator {g} is not bihomogeneous"))
        ring = ambient.quotient(gens, name=name) if gens else ambient
        self.rings[name] = ring
        return RingDecl(name, ring)

    def map_decl(self) -> MapDecl:
        self.advance()  # map
        tok = self.peek()
        name = self.expect_ident("map name")
        self.declare(name, tok)
        self.expect_symbol(":")
        source, src = self.ring_ref()
        t = self.peek()
        if t.kind != "ARROW":
            self.fail("expected ->", expected=("->",))
        self.advance()
        target, tgt = self.ring_ref()
        self.expect_symbol("{")
        images: dict[str, Polynomial] = {}
        while True:
            var_tok = self.peek()
            v = self.expect_ident("source variable")
            if v not in source.variables:
                raise _Bail(Diagnostic(var_tok.line, var_tok.col,
                                       f"{v!r} is not a variable of {src}"))
            self.expect_symbol("=")
            images[v] = self.eval_poly_tokens(self.collect_expr_tokens(), target)
            if not self.accept_symbol(","):
                break
        self.expect_symbol("}")
        self.end_statement()
        missing = [v for v in source.variables if v not in images]
        if missing:
            raise _Bail(Diagnostic(tok.line, tok.col,
                                   f"map {name} is missing images for {missing}"))
        try:
            morphism = RingMorphism(source, target,
                                    [images[v] for v in source.variables],
                                    name=name)
        except ValueError as exc:
            raise _Bail(Diagnostic(tok.line, tok.col, str(exc)))
        self.maps[name] = morphism
        return MapDecl(name, morphism, src, tgt)

    def module_decl(self) -> ModuleDecl:
        self.advance()  # module
        tok = self.peek()
        name = self.expect_ident("module name")
        self.declare(name, tok)
        self.expect_keyword("over")
        ring, ring_name = self.ring_ref()
        self.expect_keyword("gens")
        gen_names: list[str] = []
        bidegrees: list[Bidegree] = []
        while True:
            gtok = self.peek()
            g = self.expect_ident("generator name")
            if g in gen_names or g in ring.variables:
                raise _Bail(Diagnostic(gtok.line, gtok.col,
                                       f"generator name {g!r} clashes"))
            self.expect_symbol(":")
            self.expect_symbol("(")
            z = self.expect_int()
            self.expect_symbol(",")
            w = self.expect_int()
            self.expect_symbol(")")
            gen_names.append(g)
            bidegrees.append(Bidegree(z, w, ring.group_order))
            if not self.accept_symbol(","):
                break
        rels: list[tuple[Polynomial, ...]] = []
        if self.peek().kind == "IDENT" and self.peek().value == "rels":
            self.advance()
            while True:
                rels.append(self.eval_relation_tokens(
                    self.collect_expr_tokens(), ring, gen_names))
                if not self.accept_symbol(","):
                    break
        self.end_statement()
        try:
            module = ModulePresentation(FreeModule(ring, tuple(bidegrees)), rels)
        except ValueError as exc:
            raise _Bail(Diagnostic(tok.line, tok.col, str(exc)))
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
        raise _Bail(Diagnostic(tok.line, tok.col,
                               f"unknown module or ring {name!r}"))

    def ring_ref(self) -> tuple[GradedRing, str]:
        tok = self.peek()
        name = self.expect_ident("ring name")
        if name not in self.rings:
            raise _Bail(Diagnostic(tok.line, tok.col, f"unknown ring {name!r}"))
        return self.rings[name], name

    def map_ref(self) -> tuple[RingMorphism, str]:
        tok = self.peek()
        name = self.expect_ident("map name")
        if name not in self.maps:
            raise _Bail(Diagnostic(tok.line, tok.col, f"unknown map {name!r}"))
        return self.maps[name], name

    def poly_list(self, ring: GradedRing) -> list[Polynomial]:
        self.expect_symbol("(")
        out = [self.eval_poly_tokens(self.collect_expr_tokens(), ring)]
        while self.accept_symbol(","):
            out.append(self.eval_poly_tokens(self.collect_expr_tokens(), ring))
        self.expect_symbol(")")
        return out

    def int_option(self, *names: str) -> dict[str, int]:
        opts: dict[str, int] = {}
        while self.peek().kind == "IDENT" and self.peek().value in names:
            key = self.advance().value
            opts[key] = self.expect_int()
        return opts

    def command(self) -> Command:
        tok = self.peek()
        head = self.expect_ident("command")
        if head == "dualize":
            self.expect_symbol("-")
            sub = self.expect_ident("finite|lci")
            head = f"dualize-{sub}"
        if head not in COMMAND_KINDS:
            raise _Bail(Diagnostic(tok.line, tok.col,
                                   f"unknown command {head!r}", COMMAND_KINDS))
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
        self.expect_keyword("ideal")
        gens = self.poly_list(ring.ambient())
        self.expect_keyword("omega")
        omega, oname = self.omega_ref(ring)
        opts = self.int_option("max")
        imax = opts.get("max", max(2, ring.nvars))
        gens_txt = ", ".join(str(g) for g in gens)
        return Command("ext", args={"ring": ring, "ideal": gens, "omega": omega},
                       options={"max": imax},
                       text=f"ext {rname} ideal ({gens_txt}) omega {oname} max {imax}")

    def omega_ref(self, ring: GradedRing) -> tuple[Optional[ModulePresentation], str]:
        tok = self.peek()
        if tok.kind == "IDENT" and tok.value == "canonical":
            self.advance()
            return None, "canonical"  # resolved against the ring at run time
        return self.module_ref()

    def cmd_koszul(self) -> Command:
        ring, rname = self.ring_ref()
        self.expect_keyword("seq")
        seq = self.poly_list(ring)
        seq_txt = ", ".join(str(g) for g in seq)
        return Command("koszul", args={"ring": ring, "seq": seq},
                       text=f"koszul {rname} seq ({seq_txt})")

    def cmd_dualize_finite(self) -> Command:
        f, fname = self.map_ref()
        omega = None
        oname = None
        if self.peek().kind == "IDENT" and self.peek().value == "omega":
            self.advance()
            omega, oname = self.module_ref()
        opts = self.int_option("depth")
        depth = opts.get("depth", 4)
        text = f"dualize-finite {fname}"
        if oname:
            text += f" omega {oname}"
        text += f" depth {depth}"
        return Command("dualize-finite", args={"map": f, "omega": omega},
                       options={"depth": depth}, text=text)

    def cmd_dualize_lci(self) -> Command:
        ring, rname = self.ring_ref()
        self.expect_keyword("seq")
        seq = self.poly_list(ring)
        self.expect_keyword("omega")
        omega, oname = self.omega_ref(ring)
        opts = self.int_option("depth")
        depth = opts.get("depth")
        seq_txt = ", ".join(str(g) for g in seq)
        text = f"dualize-lci {rname} seq ({seq_txt}) omega {oname}"
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
            self.expect_keyword("ideal")
            gens = self.poly_list(ring.ambient())
            opts = self.int_option("max")
            imax = opts.get("max", max(2, ring.nvars))
            gens_txt = ", ".join(str(g) for g in gens)
            return Command("check", subkind="gorenstein",
                           args={"ring": ring, "ideal": gens},
                           options={"max": imax},
                           text=f"check gorenstein {rname} ideal ({gens_txt}) max {imax}")
        if sub == "pushforward":
            f, fname = self.map_ref()
            mb, mbn = self.module_ref()
            ma, man = self.module_ref()
            opts = self.int_option("bound")
            bound = opts.get("bound", 8)
            return Command("check", subkind="pushforward",
                           args={"map": f, "omega_b": mb, "omega_a": ma},
                           options={"bound": bound},
                           text=f"check pushforward {fname} {mbn} {man} bound {bound}")
        raise _Bail(Diagnostic(tok.line, tok.col, f"unknown check {sub!r}",
                               ("gorenstein", "pushforward")))

    def cmd_hilbert(self) -> Command:
        m, mn = self.module_ref()
        opts = self.int_option("max")
        zmax = opts.get("max", 12)
        return Command("hilbert", args={"M": m}, options={"max": zmax},
                       text=f"hilbert {mn} max {zmax}")

    def cmd_invariants(self) -> Command:
        m, mn = self.module_ref()
        opts = self.int_option("bound")
        bound = opts.get("bound", 12)
        return Command("invariants", args={"M": m}, options={"bound": bound},
                       text=f"invariants {mn} bound {bound}")

    def cmd_compare(self) -> Command:
        m, mn = self.module_ref()
        n, nn = self.module_ref()
        opts = self.int_option("bound")
        bound = opts.get("bound", 8)
        return Command("compare", args={"M": m, "N": n},
                       options={"bound": bound},
                       text=f"compare {mn} {nn} bound {bound}")

    # -- polynomial expressions --------------------------------------------------

    def collect_expr_tokens(self) -> list[Token]:
        """Grab the tokens of one expression, up to a delimiter at depth 0."""
        depth = 0
        out: list[Token] = []
        while True:
            t = self.peek()
            if t.kind in ("NEWLINE", "EOF"):
                break
            if t.kind == "SYMBOL":
                if t.value == "(":
                    depth += 1
                elif t.value == ")":
                    if depth == 0:
                        break
                    depth -= 1
                elif depth == 0 and t.value in (",", ";", "}"):
                    break
            if t.kind == "IDENT" and depth == 0 and t.value in (
                    "group", "weights", "degrees", "order", "rels",
                    "max", "depth", "bound", "omega", "seq", "ideal"):
                break
            out.append(self.advance())
        if not out:
            self.fail("expected an expression", expected=("polynomial",))
        return out

    def eval_poly_tokens(self, toks: list[Token], ring: GradedRing) -> Polynomial:
        p = _ExprEval(toks, ring, {}).parse()
        if isinstance(p, dict):
            raise _Bail(Diagnostic(toks[0].line, toks[0].col,
                                   "module generators are not allowed here"))
        return p

    def eval_relation_tokens(self, toks: list[Token], ring: GradedRing,
                             gen_names: list[str]) -> tuple[Polynomial, ...]:
        gens = {g: i for i, g in enumerate(gen_names)}
        value = _ExprEval(toks, ring, gens).parse()
        if not isinstance(value, dict):
            raise _Bail(Diagnostic(toks[0].line, toks[0].col,
                                   "relation does not involve any generator"))
        return tuple(value.get(i, ring.zero()) for i in range(len(gen_names)))


class _Bail(Exception):
    def __init__(self, diagnostic: Diagnostic):
        self.diagnostic = diagnostic


class _ExprEval:
    """Evaluate an infix expression over a ring, optionally with module
    generator symbols.  Values are either polynomials or dicts
    {generator index: coefficient} for expressions linear in the generators."""

    def __init__(self, tokens: list[Token], ring: GradedRing,
                 gens: dict[str, int]):
        self.tokens = tokens
        self.pos = 0
        self.ring = ring
        self.gens = gens

    def peek(self) -> Optional[Token]:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def bail(self, message: str, tok: Optional[Token] = None):
        tok = tok or (self.tokens[-1] if self.tokens else None)
        line, col = (tok.line, tok.col) if tok else (1, 1)
        raise _Bail(Diagnostic(line, col, message))

    def parse(self):
        value = self.expr()
        if self.peek() is not None:
            self.bail(f"unexpected {self.peek().value!r} in expression", self.peek())
        return value

    # values: Polynomial | dict[int, Polynomial]

    def _add(self, a, b, sign=1):
        if isinstance(a, dict) or isinstance(b, dict):
            a = a if isinstance(a, dict) else ({} if a.is_zero() else self.bail(
                "cannot add a bare polynomial to a generator combination"))
            b = b if isinstance(b, dict) else ({} if b.is_zero() else self.bail(
                "cannot add a bare polynomial to a generator combination"))
            out = dict(a)
            for k, v in b.items():
                out[k] = out.get(k, self.ring.zero()) + sign * v
            return out
        return a + sign * b

    def _mul(self, a, b, tok):
        if isinstance(a, dict) and isinstance(b, dict):
            self.bail("relations must be linear in the generators", tok)
        if isinstance(a, dict):
            return {k: v * b for k, v in a.items()}
        if isinstance(b, dict):
            return {k: a * v for k, v in b.items()}
        return a * b

    def expr(self):
        t = self.peek()
        negate = False
        if t and t.kind == "SYMBOL" and t.value in ("+", "-"):
            self.advance()
            negate = t.value == "-"
        value = self.term()
        if negate:
            value = self._mul(self.ring.constant(-1), value, t)
        while (t := self.peek()) is not None and t.kind == "SYMBOL" and t.value in ("+", "-"):
            self.advance()
            rhs = self.term()
            value = self._add(value, rhs, -1 if t.value == "-" else 1)
        return value

    def term(self):
        value = self.factor()
        while (t := self.peek()) is not None and t.kind == "SYMBOL" and t.value in ("*", "/"):
            self.advance()
            rhs = self.factor()
            if t.value == "*":
                value = self._mul(value, rhs, t)
            else:
                if isinstance(rhs, dict) or not rhs.is_constant() or rhs.is_zero():
                    self.bail("division only by a nonzero constant", t)
                value = self._mul(value, self.ring.constant(
                    Fraction(1) / rhs.constant_value()), t)
        return value

    def factor(self):
        value = self.atom()
        t = self.peek()
        if t is not None and t.kind == "SYMBOL" and t.value == "^":
            self.advance()
            e = self.peek()
            if e is None or e.kind != "INT":
                self.bail("exponent must be a nonnegative integer", t)
            self.advance()
            if isinstance(value, dict):
                self.bail("cannot raise a generator to a power", t)
            value = value ** int(e.value)
        return value

    def atom(self):
        t = self.peek()
        if t is None:
            self.bail("unexpected end of expression")
        if t.kind == "INT":
            self.advance()
            return self.ring.constant(int(t.value))
        if t.kind == "IDENT":
            self.advance()
            if t.value in self.ring.variables:
                return self.ring.var(t.value)
            if t.value in self.gens:
                return {self.gens[t.value]: self.ring.one()}
            self.bail(f"unknown symbol {t.value!r}", t)
        if t.kind == "SYMBOL" and t.value == "(":
            self.advance()
            value = self.expr()
            close = self.peek()
            if close is None or close.kind != "SYMBOL" or close.value != ")":
                self.bail("missing closing parenthesis", t)
            self.advance()
            return value
        if t.kind == "SYMBOL" and t.value in ("+", "-"):
            self.advance()
            inner = self.atom()
            return self._mul(self.ring.constant(-1 if t.value == "-" else 1),
                             inner, t)
        self.bail(f"unexpected {t.value!r} in expression", t)


# ---------------------------------------------------------------------------
# public functions


def parse_session(text: str, default_order: str = "degrevlex") -> SessionAst:
    """Parse a session; raises ParseError carrying all diagnostics."""
    return _Parser(tokenize(text), default_order).parse()


def parse_polynomial(text: str, ring: GradedRing) -> Polynomial:
    toks = [t for t in tokenize(text) if t.kind not in ("NEWLINE", "EOF")]
    if not toks:
        return ring.zero()
    try:
        return _ExprEval(toks, ring, {}).parse()
    except _Bail as bail:
        raise ParseError([bail.diagnostic])
