"""Hash the reports of a fixed grid of preset sessions, for byte-identity checks.

    python3 tests/json_digest.py SRC > digest.txt

SRC is the `src` directory of the checkout under test.  Each output line
is tab-separated:

    name  sha256(RunReport.to_json() + RunReport.human_text())  exit code

Run it on two checkouts and `diff` the outputs: an empty diff means the
same `--json` bytes, the same human text and the same exit code on every
session.  The grid holds 520 preset sessions: `node` at a = 2..9 with
every pair of weights i != j in 0..a-1, at depths 1 and 3; and every preset
at its default depth and at depths 1, 2 and 5.  It also holds 58 Ext
sessions, each ideal once under `check gorenstein` and once under `ext`:
the rational normal curves of degree 3 and 4 at three group orders and
weights and of degree 5 at one; the triple point at group orders 2, 4, 5,
7 and 11 and several weights; seeded complete intersections (the
generator of perfbench/workloads.py, seed 1) of degrees (3), (2, 3) and
(2, 2, 2); two skew lines, which are not Cohen-Macaulay; and three ideals
over rings with a variable of Z-degree 0.  It takes a few seconds.

After the grid come nine malformed sessions, one line each, which hash the
text of their ParseError in place of a report, with the exit code 2 of an
input error: an unexpected character, a missing `->`, a duplicate name,
an unknown command, a missing `)`, a weight out of range and a term cap
hit while parsing, several of them from tests/test_dsl.py.

Last come 50 read-side sessions (`read_grid`): `hilbert` and `invariants`
at `max 60`, `compare` at `bound 46` and `check pushforward` at `bound 60`
over Q[x,y,z] and Q[x,y,z]/(xyz, y^4) at group orders 1, 5 and 7 with
several weights, on a module with a generator of negative Z-degree and
one above every bound, a zero module and a module whose one generator
lies above the bound.

Then come eight staircase-walk sessions (`walk_grid`): `invariants`
where a position has no weight-zero piece, where its only weight-zero
piece is at Z-degree 60 (twice, once with relations), where the variables
have Z-degrees 2 and 3, and where a generator lies above the bound; and
`node` with weights 5 and 7 at a = 101 and 211, whose B over A has rank
2a - 1.

Last of all come eleven sessions of the commands and paths the grids
above miss (`wide_grid`): `hom` over the node's target and over a weighted
polynomial ring; `koszul` on regular and non-regular sequences, one over a
quotient; a module over a ring whose variables all have Z-degree 0, under
`hom M M` and under `compare M M bound 3`, whose minimal presentation
drops a generator that no unit entry eliminates; `dualize-finite p omega W`
with relations in W; and `check pushforward` with a group on A, whose
omega_A has relations and a generator of nonzero weight.

Then come four Ext sessions on the rational normal curves of degree 5
and 6 under group 7 with weights 1 + 2k mod 7 (`cliff_grid`), each under
`check gorenstein` and `ext` at `max d`: the curves where the greedy
minimality loop's degree-truncated bases skip most S-pairs.

After them come five sessions (`repeat_grid`) of `dualize-finite`
around and far past the first repeat of its resolution: `node` at a = 5 and `tacnode-cusp` at
depth 500, and B = Q over A = Q[u]/(u^2), whose resolution repeats at
(2, 1), at depths 1, 2 and 6.
"""

from __future__ import annotations

import hashlib
import os
import random
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TRIPLE_POINT = "(u*v - t^2, u*t - v^2, v*t - u^2)"
SKEW_LINES = "(x0*x2, x0*x3, x1*x2, x1*x3)"
WEIGHTED_DEGREE_ZERO = "ring C = Q[x,y,t] group 3 weights {x:1, y:2, t:0} degrees {t:0}\n"
DEGREE_ZERO = ((WEIGHTED_DEGREE_ZERO, "(x*y, x^2*t)"),
               (WEIGHTED_DEGREE_ZERO, "(x^3 - y^3*t, x*y)"),
               # Ext^2 needs one generator, but the greedy count keeps two
               ("ring C = Q[x,y,t] degrees {t:0}\n", "(t^2 - t, x^2 - y^2*t, x^2*t - x^2)"))
TWO_RINGS = "ring A = Q[u,v]/(u*v)\nring B = Q[x,y]/(x*y)\n"
# (name, session text, STACKDUAL_MAX_TERMS or None)
MALFORMED = (
    ("unexpected-character",
     "ring R = Q[x]$\nring S = Q[y]@\nring T = Q[t]; hilbert T max 2", None),
    ("unexpected-character-in-expression", "ring R = Q[x,y]/(x + $y)", None),
    ("missing-arrow", TWO_RINGS + "map f : A B { u = x, v = y }", None),
    ("split-arrow", TWO_RINGS + "map f : A - > B { u = x, v = y }", None),
    ("duplicate-name", "ring R = Q[x]\nring R = Q[x]/(w)\nring R = Q[y]", None),
    ("unknown-command", "ring R = Q[x]\nhomology R\ndualize-all R", None),
    ("missing-parenthesis", "ring C = Q[x,y]\nkoszul C seq ((x, y)", None),
    ("weight-out-of-range", "ring A = Q[u]\nring B = Q[x,y] group 3 weights {x:1, y:5}",
     None),
    ("term-cap", "ring R = Q[x,y]\nkoszul R seq ((x+y)^300)", "50"),
)


def grid():
    """(name, session text, depth or None) per session."""
    from stackdual.presets import list_presets, preset_session
    for a in range(2, 10):
        for i in range(a):
            for j in range(a):
                if i != j:
                    for depth in (1, 3):
                        yield (f"node/a{a}-i{i}-j{j}-depth{depth}",
                               preset_session("node", a=a, i=i, j=j), depth)
    for name, _desc, _expect in list_presets():
        for depth in (None, 1, 2, 5):
            yield (f"preset/{name}-depth{depth or 'default'}",
                   preset_session(name), depth)
    yield from ext_grid()


def ext_grid():
    """`check gorenstein` and `ext` on each ideal of the Ext grid."""
    from workloads import complete_intersection, rational_normal_curve
    for d, a, w0, step in ((3, 5, 0, 1), (3, 7, 2, 3), (3, 11, 4, 5),
                           (4, 5, 1, 2), (4, 7, 3, 1), (4, 11, 0, 4), (5, 7, 1, 3)):
        ring, ideal = rational_normal_curve(d, a, w0, step)
        yield from _ext_pair(f"rnc{d}-a{a}-w{w0}-s{step}", ring, ideal, d)
    for a, weights in ((2, (0, 1)), (4, (1, 2)), (5, (0, 2, 4)), (7, (1, 3, 6)),
                       (11, (5, 10))):
        for w in weights:
            ring = f"ring C = Q[u,v,t] group {a} weights {{u:{w}, v:{w}, t:{w}}}\n"
            yield from _ext_pair(f"triple-a{a}-w{w}", ring, TRIPLE_POINT, 3)
    rng = random.Random(1)
    for degrees in ((3,), (2, 3), (2, 2, 2)):
        for k in range(2):
            ring, seq, _ = complete_intersection(rng, degrees, rng.choice((5, 7, 11)))
            tag = "".join(map(str, degrees))
            yield from _ext_pair(f"ci{tag}-{k + 1}", ring, seq, len(degrees) + 1)
    yield from _ext_pair("skew-lines", "ring C = Q[x0,x1,x2,x3]\n", SKEW_LINES, 4)
    for k, (ring, ideal) in enumerate(DEGREE_ZERO):
        yield from _ext_pair(f"degree-zero-{k + 1}", ring, ideal, 3)


def _ext_pair(name: str, ring: str, ideal: str, imax: int):
    yield (f"gorenstein/{name}", ring + f"check gorenstein C ideal {ideal} max {imax}\n",
           None)
    yield (f"ext/{name}", ring + f"ext C ideal {ideal} omega canonical max {imax}\n",
           None)


# The read side: Hilbert tables of modules over Q[x,y,z] and over
# Q[x,y,z]/(xyz, y^4), each at group orders 1, 5 and 7 under the weights
# below.  M has a generator of negative Z-degree and one above every bound;
# N presents M on permuted generators; P differs from M in one relation;
# Z is zero; H has its one generator above the bound.
READ_RINGS = (("poly", "", ""), ("quot", "/(x*y*z, y^4)", "/(u*v*w, v^4)"))
READ_WEIGHTS = ((1, (0, 0, 0)), (5, (1, 2, 3)), (5, (0, 4, 4)),
                (7, (1, 3, 6)), (7, (2, 0, 5)))
READ_RELS = ("x*{e1} - y*{e2}", "2*y^3*{e1}", "-3*z^2*{e2}", "x^2*z*{e3}",
             "3*y^2*{e3}", "z^5*{e4}", "x*y*{e4}", "x*{e5}")


def read_grid():
    """`hilbert`, `invariants`, `compare` and `check pushforward` at the
    bounds of the staircase workload, one session per command kind."""
    for tag, ideal_b, ideal_a in READ_RINGS:
        for a, (wx, wy, wz) in READ_WEIGHTS:
            group = f" group {a} weights {{x:{wx}, y:{wy}, z:{wz}}}" if a > 1 else ""
            ring = f"ring R = Q[x,y,z]{ideal_b}{group}\n"
            gens = ((0, 0), (0, (wx - wy) % a), (2, wy), (-3, (wx + wz) % a),
                    (61, a - 1))
            text = ring + _read_module("M", "e", gens, range(5), READ_RELS)
            text += _read_module("N", "f", gens, (2, 0, 3, 1, 4), READ_RELS)
            text += _read_module("P", "g", gens, range(5),
                                 READ_RELS[:5] + ("z^6*{e4}",) + READ_RELS[6:])
            text += "module Z over R gens z1:(0,0) rels x*z1, z1\n"
            text += "module H over R gens h1:(61,0) rels x*h1\n"
            name = f"read/{tag}-a{a}-w{wx}{wy}{wz}"
            yield f"{name}/hilbert", text + "hilbert M max 60\n", None
            yield f"{name}/invariants", text + "invariants M bound 60\n", None
            yield (f"{name}/compare",
                   text + "compare M N bound 46\ncompare M P bound 46\n", None)
            yield (f"{name}/edges",
                   text + "hilbert Z max 60\ninvariants Z bound 60\n"
                   "hilbert H max 60\ninvariants H bound 60\ncompare Z M bound 46\n",
                   None)
            pushforward = (f"ring A = Q[u,v,w]{ideal_a} degrees {{u:{a}, v:{a}, w:{a}}}\n"
                           + ring.replace("ring R", "ring B")
                           + f"map p : A -> B {{ u = x^{a}, v = y^{a}, w = z^{a} }}\n"
                           "check pushforward p B A bound 60\n")
            yield f"{name}/pushforward", pushforward, None


WALK_SESSIONS = (
    ("no-weight-zero", "ring R = Q[x,y,z] group 5\n"
     "module M over R gens e1:(0,1), e2:(0,0)\ninvariants M bound 60\n"),
    ("degrees-2-3", "ring R = Q[x,y] group 5 weights {x:1, y:2} degrees {x:2, y:3}\n"
     "module M over R gens e1:(0,0), e2:(1,3) rels x^3*e1, y^2*e2\n"
     "invariants M bound 60\ninvariants R bound 60\nhilbert M max 60\n"),
    ("degrees-2-3-quot", "ring R = Q[x,y]/(x^4*y) group 7 weights {x:3, y:5} degrees {x:2, y:3}\n"
     "module M over R gens e1:(1,4), e2:(2,0) rels y^5*e2\ninvariants M bound 60\n"),
    ("high-weight-zero", "ring R = Q[x,y,z] group 61 weights {x:1, y:1, z:1}\n"
     "module M over R gens e1:(0,1)\ninvariants M bound 60\n"),
    ("high-weight-zero-rels", "ring R = Q[x,y,z] group 61 weights {x:1, y:1, z:1}\n"
     "module M over R gens e1:(0,1), e2:(0,2) rels z^30*e1, x*y*e2\n"
     "invariants M bound 60\n"),
    ("above-the-bound", "ring R = Q[x,y,z] group 3 weights {x:1, y:2, z:0}\n"
     "module M over R gens e1:(61,0), e2:(3,1), e3:(60,0), e4:(58,2)"
     " rels x*e2, y^3*e2, z*e2\n"
     "invariants M bound 60\n"),
)


def walk_grid():
    """Sessions whose staircase walks stop early, skip a position or are
    long: weight-zero pieces that are absent, sparse or only at a high
    Z-degree, and the node's restriction at large group order."""
    from stackdual.presets import preset_session
    for name, text in WALK_SESSIONS:
        yield f"walk/{name}", text, None
    for a in (101, 211):
        yield f"walk/node-a{a}-i5-j7", preset_session("node", a=a, i=5, j=7), None


NODE_B = "ring B = Q[x,y]/(x*y) group 5 weights {x:1, y:2}\n"
DEGREE_ZERO_M = ("ring R = Q[t,u] degrees {t:0, u:0}\n"
                 "module M over R gens e:(0,0), g:(1,0) rels t*e, (1 - t)*e, u*g\n")
GROUP_A = ("ring A = Q[u,v]{} group 2 degrees {{u:4, v:4}}\n"
           "ring B = Q[x,y]{} group 4 weights {{x:1, y:3}}\n"
           "map p : A -> B {{ u = x^4, v = y^4 }}\n"
           "module WA over A gens a1:(0,1), a2:(3,0) rels u*a1, v^2*a2\n")
WIDE_SESSIONS = (
    ("hom-node", NODE_B + "module W over B gens w:(-1,1), z:(0,0) rels x*w, y^2*z\n"
     "hom W W\nhom B W\nhom W B\n"),
    ("hom-poly", "ring R = Q[x,y,z] group 3 weights {x:1, y:2, z:0}\n"
     "module M over R gens e1:(0,0), e2:(0,1) rels x*e1 - z*e2, y^3*e2\n"
     "hom M M\nhom M R\n"),
    ("koszul-regular", "ring C = Q[x,y,z] group 3 weights {x:1, y:2, z:0}\n"
     "koszul C seq (x, y^2, z)\n"),
    ("koszul-not-regular", "ring C = Q[x,y,z]\nkoszul C seq (x*y, x*z)\n"
     "koszul C seq (x, x*y)\n"),
    ("koszul-quotient", "ring C = Q[x,y,z]/(x*y - z^2) group 2 weights {x:1, y:1, z:1}\n"
     "koszul C seq (x, y)\n"),
    ("degree-zero-hom", DEGREE_ZERO_M + "hom M M\n"),
    ("degree-zero-compare", DEGREE_ZERO_M + "compare M M bound 3\n"),
    ("dualize-finite-node-omega", "ring A = Q[u,v]/(u*v) degrees {u:5, v:5}\n" + NODE_B
     + "map p : A -> B { u = x^5, v = y^5 }\n"
     "module W over A gens w1:(0,0), w2:(2,0) rels u*w1, v^2*w2\n"
     "dualize-finite p omega W depth 3\n"),
    ("dualize-finite-cusp-omega", "ring A = Q[u] degrees {u:2}\n"
     "ring B = Q[x,y]/(y^2 - x^3) group 2 weights {x:0, y:1} degrees {x:2, y:3}\n"
     "map f : A -> B { u = x }\nmodule W over A gens w:(1,0) rels u^3*w\n"
     "dualize-finite f omega W depth 3\n"),
    ("pushforward-group-poly", GROUP_A.format("", "")
     + "check pushforward p B WA bound 20\n"),
    ("pushforward-group-quot", GROUP_A.format("/(u*v)", "/(x*y)")
     + "module WB over B gens b:(-2,0) rels x^2*b\n"
     "check pushforward p WB WA bound 20\ncheck pushforward p B A bound 20\n"),
)


def wide_grid():
    """Sessions of `hom`, `koszul`, a Z-degree-0 ring, `dualize-finite`
    with an omega and `check pushforward` under a group on A."""
    for name, text in WIDE_SESSIONS:
        yield f"wide/{name}", text, None


def cliff_grid():
    """`check gorenstein` and `ext` on the rational normal curves of degree
    5 and 6 at group 7, weights 1 + 2k mod 7, up to Ext^d."""
    from workloads import rational_normal_curve
    for d in (5, 6):
        ring, ideal = rational_normal_curve(d, 7, 1, 2)
        yield from _ext_pair(f"rnc{d}-a7-w1-s2", ring, ideal, d)


NILPOTENT_POINT = ("ring A = Q[u]/(u^2)\nring B = Q[x]/(x)\n"
                   "map f : A -> B { u = 0 }\ndualize-finite f depth 1\n")


def repeat_grid():
    """`dualize-finite` at depths far past, just before and just after the
    first repeat of the A-resolution of B."""
    from stackdual.presets import preset_session
    yield "repeat/node-a5-depth500", preset_session("node", a=5), 500
    yield "repeat/tacnode-cusp-depth500", preset_session("tacnode-cusp"), 500
    for depth in (1, 2, 6):
        yield f"repeat/nilpotent-point-depth{depth}", NILPOTENT_POINT, depth


def _read_module(name: str, gen: str, gens, order, rels) -> str:
    """Module `name` on the generators `gens` declared in `order`, with the
    relations `rels` written in the generators e1..e5 of `gens`."""
    decl = ", ".join(f"{gen}{k + 1}:({gens[g][0]},{gens[g][1]})"
                     for k, g in enumerate(order))
    names = {f"e{g + 1}": f"{gen}{k + 1}" for k, g in enumerate(order)}
    return f"module {name} over R gens {decl} rels {', '.join(r.format(**names) for r in rels)}\n"


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        sys.stderr.write(__doc__)
        return 2
    sys.path[:0] = [str(Path(argv[0]).resolve()), str(ROOT / "perfbench")]
    from stackdual.dsl import ParseError, parse_session
    from stackdual.session import run_session

    def print_report_digest(name: str, text: str, depth):
        report = run_session(parse_session(text), default_depth=depth)
        text = report.to_json() + report.human_text()
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        print(f"{name}\t{digest}\t{report.exit_code()}", flush=True)

    for name, text, depth in grid():
        print_report_digest(name, text, depth)
    for name, text, max_terms in MALFORMED:
        if max_terms:
            os.environ["STACKDUAL_MAX_TERMS"] = max_terms
        try:
            parse_session(text)
        except ParseError as exc:
            digest = hashlib.sha256(str(exc).encode("utf-8")).hexdigest()
            print(f"diagnostic/{name}\t{digest}\t2", flush=True)
        else:
            raise SystemExit(f"diagnostic/{name} parsed without an error")
        finally:
            if max_terms:
                del os.environ["STACKDUAL_MAX_TERMS"]
    for name, text, depth in (*read_grid(), *walk_grid(), *wide_grid(),
                             *cliff_grid(), *repeat_grid()):
        print_report_digest(name, text, depth)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
