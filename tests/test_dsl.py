"""Session language: parsing, resolution, diagnostics, round trips."""

import random
from fractions import Fraction

import pytest
from oracles import col, parse_polynomial

from stackdual.dsl import ParseError, parse_session
from stackdual.gmodule import ModulePresentation
from stackdual.groebner import printed_column
from stackdual.poly import Bidegree, GradedRing, MonomialOrder


def test_ring_declaration_with_group_and_weights():
    ast = parse_session("ring B = Q[x,y]/(x*y) group 3 weights {x:1, y:2}")
    B = ast.rings["B"]
    assert B.group_order == 3
    assert B.weights == (1, 2)
    assert [str(g) for g in B.ideal] == ["x*y"]


def test_map_declaration():
    ast = parse_session("""
ring A = Q[u,v]/(u*v) degrees {u:3, v:3}
ring B = Q[x,y]/(x*y) group 3 weights {x:1, y:2}
map f : A -> B { u = x^3, v = y^3 }
""")
    f = ast.maps["f"]
    assert [str(p) for p in f.images] == ["x^3", "y^3"]


def test_lci_command_from_the_session_syntax():
    ast = parse_session("""
ring C = Q[x,y,z] degrees {x:1, y:4, z:6}
dualize-lci C seq (z*x^2 - y^2) omega canonical depth 4
""")
    cmd = ast.commands()[0]
    assert cmd.kind == "dualize-lci"
    assert cmd.options["depth"] == 4
    # canonical printing keeps declaration order inside each term
    assert [str(g) for g in cmd.args["seq"]] == ["x^2*z - y^2"]


def test_module_declaration_with_relations():
    ast = parse_session("""
ring B = Q[x,y]/(x*y) group 2 weights {x:1, y:1}
module M over B gens e1:(0,0), e2:(0,0) rels x*e1 - y*e2, y^2*e2
""")
    M = ast.modules["M"]
    assert M.rank == 2
    assert len(M.relations) == 2


def test_module_with_negative_degrees():
    ast = parse_session("""
ring B = Q[x,y]/(y^2 - x^3) group 2 weights {x:0, y:1} degrees {x:2, y:3}
module W over B gens w:(-3,1)
""")
    assert ast.modules["W"].bidegrees[0] == Bidegree(-3, 1, 2)


def test_rational_coefficients_via_division():
    R = GradedRing(["x"])
    p = parse_polynomial("(1/2)*x + 1/3", R)
    from fractions import Fraction
    assert p.terms[(1,)] == Fraction(1, 2)
    assert p.terms[(0,)] == Fraction(1, 3)


def test_round_trip_is_identity():
    text = """
ring A = Q[u,v]/(u*v) degrees {u:3, v:3}
ring B = Q[x,y]/(x*y) group 3 weights {x:1, y:2}
map p : A -> B { u = x^3, v = y^3 }
module W over B gens w:(-3,1) rels x^2*w
dualize-finite p depth 4
check pushforward p B A bound 8
hilbert W max 10; invariants W bound 6; compare W W bound 8
koszul B seq (x + y)
"""
    ast = parse_session(text)
    printed = ast.print_canonical()
    assert parse_session(printed).print_canonical() == printed


def test_semicolon_separated_statements():
    ast = parse_session("ring R = Q[x]; hilbert R max 3")
    assert len(ast.statements) == 2


def test_unresolved_reference_diagnostic():
    with pytest.raises(ParseError) as err:
        parse_session("hilbert M max 3")
    assert any("unknown module" in str(d) for d in err.value.diagnostics)


def test_duplicate_name_diagnostic():
    with pytest.raises(ParseError) as err:
        parse_session("ring R = Q[x]\nring R = Q[y]")
    assert any("duplicate" in str(d) for d in err.value.diagnostics)


def test_a_failed_declaration_takes_no_name():
    with pytest.raises(ParseError) as err:
        parse_session("ring R = Q[x]/(w)\nring R = Q[x]\nhilbert R max 2")
    assert [str(d) for d in err.value.diagnostics] == ["1:16: unknown symbol 'w'"]
    with pytest.raises(ParseError) as err:
        parse_session("ring R = Q[x]\nring R = Q[x]/(w)\nring R = Q[y]")
    assert [str(d) for d in err.value.diagnostics] == [
        "2:6: duplicate name 'R'", "3:6: duplicate name 'R'"]


def test_an_unreadable_character_skips_only_its_statement():
    with pytest.raises(ParseError) as err:
        parse_session("ring R = Q[x]$\nring S = Q[y]@\nring T = Q[t]; hilbert T max 2")
    assert [str(d) for d in err.value.diagnostics] == [
        "1:14: unexpected character '$'", "2:14: unexpected character '@'"]
    with pytest.raises(ParseError) as err:
        parse_session("ring R = Q[x]$ ; hilbert R max 2")
    assert [str(d) for d in err.value.diagnostics] == [
        "1:14: unexpected character '$'", "1:26: unknown module or ring 'R'"]
    with pytest.raises(ParseError) as err:
        parse_polynomial("x + $y", GradedRing(["x", "y"]))
    assert [str(d) for d in err.value.diagnostics] == ["1:5: unexpected character '$'"]


def test_multiple_diagnostics_with_recovery():
    with pytest.raises(ParseError) as err:
        parse_session("ring A = Q[x,y]/(x*w)\nmap g : A -> Z { }\nring ok = Q[t]")
    assert len(err.value.diagnostics) >= 2
    first = err.value.diagnostics[0]
    assert first.line == 1 and first.col > 0


def test_weight_outside_group_rejected():
    with pytest.raises(ParseError):
        parse_session("ring B = Q[x] group 3 weights {x:5}")


def test_weight_outside_group_points_at_the_entry():
    with pytest.raises(ParseError) as err:
        parse_session("ring A = Q[u]\n"
                      "ring B = Q[x,y] group 3 weights {x:1, y:5}")
    [diag] = err.value.diagnostics
    assert (diag.line, diag.col) == (2, 39)
    assert diag.message == "weight of y outside [0, 3)"


def test_weight_without_group_points_at_the_entry():
    with pytest.raises(ParseError) as err:
        parse_session("ring B = Q[x,y] weights {x:5, y:2}\nhilbert B max 2")
    assert [(d.line, d.col, d.message) for d in err.value.diagnostics] == [
        (1, 26, "weight of x outside [0, 1)"), (1, 31, "weight of y outside [0, 1)")]


@pytest.mark.parametrize("line, col, word, expected", [
    ("ext C idel (x*y) omega canonical max 2", 7, "idel", "ideal"),
    ("ext C ideal (x*y) omga canonical max 2", 19, "omga", "omega"),
    ("module M ovr C gens a:(0,0)", 10, "ovr", "over"),
    ("module M over C gns a:(0,0)", 17, "gns", "gens"),
    ("dualize-lci C sq (x) omega canonical", 15, "sq", "seq"),
    ("check gorenstein C idea (x) max 2", 20, "idea", "ideal"),
])
def test_wrong_keyword_points_at_the_word(line, col, word, expected):
    with pytest.raises(ParseError) as err:
        parse_session("ring C = Q[x,y]\n" + line)
    assert [str(d) for d in err.value.diagnostics] == [
        f"2:{col}: unexpected {word!r} (expected {expected})"]


def test_arity_mismatch_reported():
    with pytest.raises(ParseError) as err:
        parse_session("""
ring A = Q[u,v]/(u*v) degrees {u:2, v:2}
ring B = Q[x,y]/(x*y) group 2 weights {x:1, y:1}
map f : A -> B { u = x^2 }
""")
    assert any("missing images" in str(d) for d in err.value.diagnostics)


def test_inhomogeneous_ideal_rejected():
    with pytest.raises(ParseError):
        parse_session("ring B = Q[x,y]/(x + y^2)")


def test_relation_must_be_linear_in_generators():
    with pytest.raises(ParseError):
        parse_session("""
ring B = Q[x]
module M over B gens a:(0,0), b:(0,0) rels a*b
""")


def test_comments_and_blank_lines():
    ast = parse_session("""
# a comment line
ring R = Q[x]  # trailing comment

hilbert R max 2
""")
    assert len(ast.statements) == 2


# -- expressions are read in place from the statement ----------------------

TWO_GENS = "ring C = Q[x,y]\nmodule M over C gens a:(0,0), b:(0,0) rels "


@pytest.mark.parametrize("text, diagnostic", [
    ("ring A = Q[x,y]/(x*w)", "1:20: unknown symbol 'w'"),
    ("ring A = Q[x,y]/(x/y)", "1:19: division only by a nonzero constant"),
    ("ring A = Q[x,y]/(x/(1 - 1))", "1:19: division only by a nonzero constant"),
    ("ring A = Q[x,y]/(x^y)", "1:19: exponent must be a nonnegative integer"),
    (TWO_GENS + "x*a + y^2*b^2", "2:55: cannot raise a generator to a power"),
    (TWO_GENS + "x*a*b", "2:47: relations must be linear in the generators"),
    (TWO_GENS + "x*a + y",
     "2:48: cannot add a bare polynomial to a generator combination"),
    ("ring C = Q[x,y]\nkoszul C seq ((x, y)", "2:15: missing closing parenthesis"),
    ("ring C = Q[x,y]\nkoszul C seq (x, )",
     "2:18: expected an expression (expected polynomial)"),
    (TWO_GENS + "x*a, x*y", "2:49: relation does not involve any generator"),
])
def test_each_expression_diagnostic(text, diagnostic):
    with pytest.raises(ParseError) as err:
        parse_session(text)
    assert [str(d) for d in err.value.diagnostics] == [diagnostic]


def test_an_expression_ends_where_it_cannot_continue():
    with pytest.raises(ParseError) as err:
        parse_session(TWO_GENS + "x*a foo\nring C2 = Q[x,y]/(x*y, max 2")
    assert [str(d) for d in err.value.diagnostics] == [
        "2:48: unexpected 'foo' after a complete statement (expected newline, ;)",
        "3:24: unknown symbol 'max'"]


def test_polynomial_parsing_obeys_the_term_cap(monkeypatch):
    monkeypatch.setenv("STACKDUAL_MAX_TERMS", "50")
    R = GradedRing(["x", "y"])
    with pytest.raises(ParseError) as err:
        parse_polynomial("(x+y)^300", R)
    assert [str(d) for d in err.value.diagnostics] == ["1:1: polynomial exceeds 50 terms"]
    assert len(parse_polynomial("(x+y)^49", R).terms) == 50


def test_polynomial_diagnostics_stay_inside_the_text():
    R = GradedRing(["x", "y"])
    for text, diagnostic in (
            ("x + ", "1:5: expected an expression (expected polynomial)"),
            ("x +\n y*", "2:4: expected an expression (expected polynomial)"),
            ("x y", "1:3: unexpected 'y' in expression")):
        with pytest.raises(ParseError) as err:
            parse_polynomial(text, R)
        assert [str(d) for d in err.value.diagnostics] == [diagnostic]
    assert parse_polynomial("x +\n y", R) == R.var("x") + R.var("y")


@pytest.mark.parametrize("word", ["group", "weights", "degrees", "order", "rels",
                                  "max", "depth", "bound", "omega", "seq", "ideal"])
def test_former_stop_words_are_ordinary_names(word):
    text = (f"ring R = Q[{word},y]/({word}*y) group 2 weights {{{word}:1, y:1}}\n"
            f"ring P = Q[{word},y] degrees {{{word}:2, y:2}}\n"
            f"map f : P -> R {{ {word} = {word}^2, y = -({word}*y) + y^2 }}\n"
            f"module M over P gens {word}2:(0,0), e:(0,0) rels y*{word}2 - {word}*e\n"
            f"koszul P seq ({word}, y)\n"
            f"ext P ideal ({word}*y) omega canonical max 1\n"
            f"dualize-lci P seq ({word}) omega canonical depth 1")
    ast = parse_session(text)
    assert [str(g) for g in ast.rings["R"].ideal] == [f"{word}*y"]
    assert [str(p) for p in ast.maps["f"].images] == [f"{word}^2", "y^2"]
    assert list(printed_column(ast.modules["M"].relations[0], 2)) == ["-y", word]
    cmds = ast.commands()
    assert [str(g) for g in cmds[0].args["seq"]] == [word, "y"]
    assert [str(g) for g in cmds[1].args["ideal"]] == [f"{word}*y"]
    assert cmds[2].options["depth"] == 1
    printed = ast.print_canonical()
    assert parse_session(printed).print_canonical() == printed


def test_a_sign_binds_looser_than_a_power():
    R = GradedRing(["x", "y"])
    x, y = R.var("x"), R.var("y")
    assert parse_polynomial("-x^2", R) == -(x ** 2)
    assert parse_polynomial("2*-y^2", R) == -2 * y ** 2
    assert parse_polynomial("x - -y^2", R) == x + y ** 2
    assert parse_polynomial("-(x + y)^2", R) == -((x + y) ** 2)
    assert parse_polynomial("x*y/2/3 - 1/2*x*y", R) == Fraction(-1, 3) * x * y
    assert parse_polynomial("- +x", R) == -x


def _random_poly(rng, ring, degree=None):
    out = ring.zero()
    for _ in range(rng.randint(1, 4)):
        if degree is None:
            mono = tuple(rng.randint(0, 3) for _ in range(ring.nvars))
        else:
            cuts = sorted(rng.randint(0, degree) for _ in range(ring.nvars - 1))
            mono = tuple(b - a for a, b in zip([0] + cuts, cuts + [degree]))
        coeff = Fraction(rng.randint(-7, 7), rng.randint(1, 5))
        out = out + ring.monomial(mono, coeff)
    return out


def test_printed_polynomials_parse_back():
    rng = random.Random(20261018)
    for _ in range(200):
        nvars = rng.randint(1, 3)
        ring = GradedRing(["x", "y", "z"][:nvars],
                          order=MonomialOrder(rng.choice(["degrevlex", "lex"])))
        p = _random_poly(rng, ring)
        assert parse_polynomial(str(p), ring) == p, str(p)


def test_printed_module_relations_parse_back():
    rng = random.Random(20261019)
    for _ in range(40):
        nvars = rng.randint(1, 3)
        names = ["x", "y", "z"][:nvars]
        ring_text = f"ring R = Q[{','.join(names)}]"
        ring = parse_session(ring_text).rings["R"]
        zdegs = [rng.randint(0, 2) for _ in range(rng.randint(1, 3))]
        cols = []
        for _ in range(rng.randint(1, 3)):
            top = max(zdegs) + rng.randint(0, 2)
            cols.append(col(*(_random_poly(rng, ring, top - d) if rng.random() < 0.8
                              else ring.zero() for d in zdegs)))
        expected = ModulePresentation(
            ring, tuple(Bidegree(d, 0, 1) for d in zdegs), cols)
        gens = ", ".join(f"g{i}:({d},0)" for i, d in enumerate(zdegs))
        ast = parse_session(f"{ring_text}\nmodule M over R gens {gens}")
        decl = ast.statements[1]
        decl.module = expected
        printed = ast.print_canonical()
        reparsed = parse_session(printed)
        assert reparsed.modules["M"].relations == expected.relations, printed
        assert reparsed.print_canonical() == printed
