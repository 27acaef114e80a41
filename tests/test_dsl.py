"""Session language: parsing, resolution, diagnostics, round trips."""

import pytest

from stackdual.dsl import ParseError, parse_polynomial, parse_session
from stackdual.poly import Bidegree, GradedRing


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
    assert ast.modules["W"].free.bidegrees[0] == Bidegree(-3, 1, 2)


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
