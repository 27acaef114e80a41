"""Seeded session workloads.

A workload is a list of sessions drawn once from the seed.  Each session is
a spec the program receives exactly as a CLI user would write it (a preset
name with parameters, or session text) plus the closed-form answer the
oracle checks the report against.  The seed varies weights and
coefficients only; degrees, shapes and bounds, which set the amount of
work, are fixed per workload so that runs on different seeds compare.

Nothing here imports stackdual: specs are plain data, expanded by
`expand` inside the process that runs them.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import permutations


@dataclass(frozen=True)
class Session:
    name: str
    spec: dict                      # {"preset", "params"} or {"text"}; optional "depth"
    expect: dict                    # closed-form answer, see oracle.problems


def expand(spec: dict) -> str:
    """Session text for a spec, the way `stackdual preset` expands it."""
    if "preset" in spec:
        from stackdual.presets import preset_session
        return preset_session(spec["preset"], **spec.get("params", {}))
    return spec["text"]


def _distinct_weights(rng: random.Random, a: int) -> tuple[int, int]:
    i, j = rng.sample(range(1, a), 2)
    return i, j


# ---------------------------------------------------------------------------
# finite-node: restriction of scalars, resolution over a singular ring,
# Hom-complex homology, B-structure reconstruction


def finite_node(seed: int) -> list[Session]:
    rng = random.Random(seed)
    out = []
    # a=7 is drawn six times: those draws cost the same (the Groebner work
    # does not depend on the weights) and sit between the four cheaper
    # sessions and the two heavy ones, so the median falls inside them
    for a, depth, draws in ((5, 4, 1), (7, 4, 6), (11, 4, 1), (13, 4, 1), (5, 10, 1)):
        for k in range(draws):
            i, j = _distinct_weights(rng, a)
            name = f"node-a{a}" + ("-depth10" if depth != 4 else "") + (f"-{k + 1}" if draws > 1 else "")
            spec = {"preset": "node", "params": {"a": a, "i": i, "j": j}}
            if depth != 4:
                spec["depth"] = depth
            out.append(Session(name, spec, {"kind": "node", "depth": depth}))
    out.append(Session("tacnode-cusp", {"preset": "tacnode-cusp"},
                       {"kind": "free-rank-one", "weight": 0}))
    out.append(Session("root-cover-a11", {"preset": "root-cover", "params": {"a": 11}},
                       {"kind": "free-rank-one", "weight": (-(11 - 1)) % 11}))
    return out


# ---------------------------------------------------------------------------
# lci-ext: Ext, CM/Gorenstein and l.c.i. over a regular ambient


def _weights_text(names, weights) -> str:
    return ", ".join(f"{v}:{w}" for v, w in zip(names, weights))


def rational_normal_curve(d: int, a: int, w0: int, step: int) -> tuple[str, str]:
    """Ring text and ideal text of the degree-d rational normal curve: the
    2x2 minors of [[x0..x(d-1)], [x1..xd]], homogeneous for the cyclic
    weights w(xk) = w0 + k*step mod a."""
    xs = [f"x{k}" for k in range(d + 1)]
    weights = [(w0 + k * step) % a for k in range(d + 1)]
    ring = f"ring C = Q[{', '.join(xs)}] group {a} weights {{{_weights_text(xs, weights)}}}\n"
    minors = [f"{xs[i]}*{xs[j + 1]} - {xs[i + 1]}*{xs[j]}"
              for i in range(d) for j in range(i + 1, d)]
    return ring, "(" + ", ".join(minors) + ")"


def _monomials(nvars: int, degree: int, first: int = 0):
    """Exponent tuples of the given total degree in variables first..nvars-1."""
    if first == nvars - 1:
        yield (0,) * first + (degree,)
        return
    for e in range(degree, -1, -1):
        for rest in _monomials(nvars, degree - e, first + 1):
            yield (0,) * first + (e,) + rest[first + 1:]


def _monomial_text(names, mono) -> str:
    parts = [v if e == 1 else f"{v}^{e}" for v, e in zip(names, mono) if e]
    return "*".join(parts) if parts else "1"


def complete_intersection(rng: random.Random, degrees: tuple[int, ...],
                          a: int) -> tuple[str, str, dict]:
    """A seeded complete intersection in Q[x0..x(n-1)], n = len(degrees) + 1.

    Form k is x_k^d_k plus seeded multiples of the three smallest monomials
    of degree d_k in x_k..x_(n-1).  Pairwise coprime leading terms make the
    forms a Groebner basis whose lead terms form a regular sequence, so the
    forms are a regular sequence for every seed.  All variables share one
    seeded weight, which keeps every form bihomogeneous.
    """
    n = len(degrees) + 1
    names = [f"x{k}" for k in range(n)]
    w = rng.randrange(a)
    forms = []
    for k, d in enumerate(degrees):
        lead = tuple(d if t == k else 0 for t in range(n))
        terms = [_monomial_text(names, lead)]
        for m in [m for m in _monomials(n, d, k) if m != lead][-3:]:
            c = rng.choice([c for c in range(-5, 6) if c])
            terms.append(f"{c}*{_monomial_text(names, m)}")
        forms.append(" + ".join(terms).replace("+ -", "- "))
    ring = f"ring C = Q[{', '.join(names)}] group {a} weights {{{_weights_text(names, [w] * n)}}}\n"
    expect = {"kind": "ci",
              "twist": f"O({sum(degrees) - n})",
              "weight": (n * w - sum(degrees) * w) % a}
    return ring, "(" + ", ".join(forms) + ")", expect


def lci_ext(seed: int) -> list[Session]:
    """Every shape is drawn several times with its own weights, so a run
    averages over weights: they change the work by up to a third."""
    rng = random.Random(seed)
    out = []
    for d, draws in ((3, 3), (4, 2)):
        cm = {"kind": "cm", "codim": d - 1, "generators": d - 1}
        for k in range(draws):
            a = rng.choice((5, 7, 11))
            ring, ideal = rational_normal_curve(d, a, rng.randrange(a), rng.randrange(1, a))
            out.append(Session(f"rnc{d}-check-{k + 1}",
                               {"text": ring + f"check gorenstein C ideal {ideal} max {d}\n"}, cm))
            out.append(Session(f"rnc{d}-ext-{k + 1}",
                               {"text": ring + f"ext C ideal {ideal} omega canonical max {d}\n"},
                               {**cm, "kind": "ext"}))
    # the triple-point ideal is homogeneous only for equal weights when 3 does not divide a
    ideal = "(u*v - t^2, u*t - v^2, v*t - u^2)"
    cm = {"kind": "cm", "codim": 2, "generators": 2}
    for k in range(3):
        a = rng.choice((5, 7, 11))
        w = rng.randrange(a)
        ring = f"ring C = Q[u,v,t] group {a} weights {{u:{w}, v:{w}, t:{w}}}\n"
        out.append(Session(f"triple-check-{k + 1}",
                           {"text": ring + f"check gorenstein C ideal {ideal} max 3\n"}, cm))
        out.append(Session(f"triple-ext-{k + 1}",
                           {"text": ring + f"ext C ideal {ideal} omega canonical max 3\n"},
                           {**cm, "kind": "ext"}))
    for degrees in ((2, 3), (2, 2, 2)):
        for k in range(3):
            ring, seq, expect = complete_intersection(rng, degrees, rng.choice((5, 7, 11)))
            name = "ci" + "".join(map(str, degrees)) + f"-{k + 1}"
            out.append(Session(name, {"text": ring + f"dualize-lci C seq {seq} omega canonical\n"},
                               expect))
    out.append(Session("p146-curve", {"preset": "p146-curve"},
                       {"kind": "ci", "twist": "O(-3)", "weight": 0}))
    out.append(Session("pija-node", {"preset": "pija-node"},
                       {"kind": "ci", "twist": "O(-3)", "weight": 0}))
    return out


# ---------------------------------------------------------------------------
# staircase: Hilbert tables, invariants, comparison and pushforward checks

# Relation shapes: (generator zdeg, monomial multiples of that generator).
# A monomial relation keeps the Hilbert table countable by brute force.
_STAIR_GENS = (0, 1, 2)
_STAIR_RELS = (((3, 0, 0), (0, 2, 1)), ((1, 1, 0), (0, 0, 4)), ((0, 3, 0), (2, 0, 2)))
_STAIR_IDEAL = ((1, 1, 1), (0, 4, 0))
_STAIR_VARS = ("x", "y", "z")
STAIR_MAX = 60
COMPARE_BOUND = 46
PUSHFORWARD_BOUND = 60


def _stair_ring(rng: random.Random, quotient: bool) -> tuple[str, dict]:
    a = rng.choice((5, 7, 11))
    weights = [rng.randrange(a) for _ in _STAIR_VARS]
    ideal = ""
    if quotient:
        ideal = "/(" + ", ".join(_monomial_text(_STAIR_VARS, m) for m in _STAIR_IDEAL) + ")"
    text = (f"ring R = Q[{', '.join(_STAIR_VARS)}]{ideal} group {a} "
            f"weights {{{_weights_text(_STAIR_VARS, weights)}}}\n")
    ring = {"a": a, "weights": weights, "ideal": list(_STAIR_IDEAL) if quotient else []}
    return text, ring


def _stair_module(rng: random.Random, ring: dict, name: str, gen: str,
                  perm: tuple[int, ...] = (0, 1, 2), gen_weights=None) -> tuple[str, dict]:
    """A module with monomial relations; `perm` lists the generators in the
    order they are declared, so a permuted copy presents the same module."""
    a = ring["a"]
    if gen_weights is None:
        gen_weights = [rng.randrange(a) for _ in _STAIR_GENS]
    decl = ", ".join(f"{gen}{k + 1}:({_STAIR_GENS[g]},{gen_weights[g]})"
                     for k, g in enumerate(perm))
    rels = []
    for k, g in enumerate(perm):
        for mono in _STAIR_RELS[g]:
            c = rng.choice((1, 2, 3, -1, -2, -3))
            rels.append(f"{c}*{_monomial_text(_STAIR_VARS, mono)}*{gen}{k + 1}")
    text = f"module {name} over R gens {decl} rels {', '.join(rels)}\n"
    return text, {"gens": [[z, w] for z, w in zip(_STAIR_GENS, gen_weights)],
                  "rels": [list(map(list, r)) for r in _STAIR_RELS]}


def staircase(seed: int) -> list[Session]:
    rng = random.Random(seed)
    out = []
    for quotient in (False, True):
        tag = "quot" if quotient else "poly"
        ring_text, ring = _stair_ring(rng, quotient)
        mod_text, module = _stair_module(rng, ring, "M", "e")
        facts = {"ring": ring, "module": module}
        out.append(Session(f"hilbert-{tag}", {"text": ring_text + mod_text + f"hilbert M max {STAIR_MAX}\n"},
                           {"kind": "hilbert", "max": STAIR_MAX, **facts}))
        out.append(Session(f"invariants-{tag}", {"text": ring_text + mod_text + f"invariants M bound {STAIR_MAX}\n"},
                           {"kind": "invariants", "max": STAIR_MAX, **facts}))
        perm = rng.choice([p for p in permutations(range(len(_STAIR_GENS)))
                           if p != tuple(range(len(_STAIR_GENS)))])
        copy_text, _ = _stair_module(rng, ring, "N", "f", perm, [w for _, w in module["gens"]])
        out.append(Session(f"compare-{tag}", {"text": ring_text + mod_text + copy_text
                                                       + f"compare M N bound {COMPARE_BOUND}\n"},
                           {"kind": "compare"}))
    for a in (7, 13):
        i, j = _distinct_weights(rng, a)
        text = (f"ring A = Q[u,v]/(u*v) degrees {{u:{a}, v:{a}}}\n"
                f"ring B = Q[x,y]/(x*y) group {a} weights {{x:{i}, y:{j}}}\n"
                f"map p : A -> B {{ u = x^{a}, v = y^{a} }}\n"
                f"check pushforward p B A bound {PUSHFORWARD_BOUND}\n")
        out.append(Session(f"pushforward-a{a}", {"text": text}, {"kind": "pushforward"}))
    return out


@dataclass(frozen=True)
class Workload:
    name: str
    generate: object                # seed -> list[Session]
    tail_pct: int                   # fixed percentile of session costs, printed
    nonzero: tuple[str, ...]        # per-layer metrics that must not read 0


# Per-layer metrics predicted nonzero.  A traced run that reads 0 on one of
# them fails: a renamed or bypassed function must not silently zero a layer.
_EVERYWHERE = ("cli.import_s", "dsl.parse_s", "session.to_json_s", "duality.self_s",
               "gmodule.minimalize_s", "gmodule.minimalize_calls",
               "groebner.gb_builds", "groebner.gb_build_s", "groebner.oracle_builds",
               "groebner.oracle_queries", "groebner.min_gens_s", "groebner.work_ticks",
               "poly.mul_calls", "trace.overhead_ratio")
_MODULE_ENGINE = ("complexes.resolve_s", "complexes.resolve_steps",
                  "complexes.resolution_ranks", "complexes.hom_complex_s",
                  "complexes.homology_s", "complexes.homology_calls",
                  "gmodule.subquotient_s", "gmodule.subquotient_calls", "gmodule.kernel_s",
                  "groebner.syzygies_over_s", "groebner.syzygies_over_calls",
                  "groebner.buchberger_calls", "groebner.normal_form_calls",
                  "poly.reduce_calls")

# tail_pct is the highest whole percentile with at least ten sessions beyond
# it at the lowest sample count among the baseline's runs.  It is fixed rather than recomputed
# from each run's count: every pass repeats the same session mix, so a
# faster program completes more passes, and a percentile taken from the
# count would slide onto a slower kind of session.
WORKLOADS = {w.name: w for w in [
    Workload("finite-node", finite_node, 58,
             _EVERYWHERE + _MODULE_ENGINE + ("duality.finite_shriek_calls",
                                             "gmodule.restrict_along_s",
                                             "gmodule.coordinates_calls")),
    Workload("lci-ext", lci_ext, 97,
             _EVERYWHERE + _MODULE_ENGINE + ("complexes.koszul_s",
                                             "duality.compare_modules_s")),
    Workload("staircase", staircase, 88,
             _EVERYWHERE + ("gmodule.hilbert_s", "duality.compare_modules_s")),
]}
