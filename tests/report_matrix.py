"""Fingerprint the reports of a fixed session matrix, for byte-identity checks.

    python3 tests/report_matrix.py SRC > matrix.txt

SRC is the `src` directory of the checkout under test; the matrix itself
(presets, session goldens and the benchmark's seeded sessions, expanded
with perfbench/workloads.py) comes from the checkout this script lives in.
Each output line is tab-separated:

    name  sha256(RunReport.to_json())  exit code  sha256(print_canonical())

Run it on two checkouts and `diff` the outputs: equal lines mean the same
report bytes, the same exit code and the same parse.  The matrix holds 169
reports: the ten presets; `node --i 2 --j 3` at a = 5, 7, 11, 13 and
`node --a 13 --i 5 --j 7`; `node --a 5` at depth 10 and 20; the
`rnc4-ext-1` and `command-tour` goldens; every session of `finite-node`,
`lci-ext` and `staircase` at seeds 1-3; the six presets with a map under
`--order lex`, where the target order and the elimination order of the
graph basis differ; a map that is not module-finite, whose diagnostic is
fingerprinted in place of a report; and, run with `--bound 20`, the eight
seed-1 `staircase` sessions, `pushforward-node` and the `command-tour`
golden; and one session that dualizes the node into a module with a
relation and reads its Hilbert table, invariants and endomorphisms.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SESSION_GOLDENS = ("rnc4-ext-1", "command-tour")
SEEDS = (1, 2, 3)
BOUND = 20
MAP_PRESETS = ("node", "pushforward-node", "cusp-line", "tacnode-node",
               "tacnode-cusp", "root-cover")
NOT_FINITE = ("ring A = Q[u]\nring B = Q[x,y]\nmap f : A -> B { u = x }\n"
              "dualize-finite f depth 2\n")
RELATION_TARGET = ("module W over A gens w:(0,0) rels u^2*w\n"
                   "dualize-finite p omega W depth 3\nhilbert W max 10\n"
                   "invariants W bound 10\nhom W W\n")


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def matrix():
    """(name, session text, default depth, default order, default bound) for
    every report of the matrix."""
    from stackdual.presets import list_presets, preset_session
    from workloads import WORKLOADS, expand

    for name, _desc, _expect in list_presets():
        yield f"preset/{name}", preset_session(name), None, "degrevlex", None
    for a, i, j in ((5, 2, 3), (7, 2, 3), (11, 2, 3), (13, 2, 3), (13, 5, 7)):
        yield (f"node/a{a}-i{i}-j{j}", preset_session("node", a=a, i=i, j=j), None,
               "degrevlex", None)
    for depth in (10, 20):
        yield (f"node/a5-depth{depth}", preset_session("node", a=5), depth,
               "degrevlex", None)
    for name in SESSION_GOLDENS:
        yield f"golden/{name}", _golden(name), None, "degrevlex", None
    for wname, workload in WORKLOADS.items():
        for seed in SEEDS:
            for k, session in enumerate(workload.generate(seed)):
                yield (f"{wname}/{seed}/{k}-{session.name}", expand(session.spec),
                       session.spec.get("depth"), "degrevlex", None)
    for name in MAP_PRESETS:
        yield f"lex/{name}", preset_session(name), None, "lex", None
    yield "diagnostic/not-module-finite", NOT_FINITE, None, "degrevlex", None
    for k, session in enumerate(WORKLOADS["staircase"].generate(1)):
        yield (f"bound{BOUND}/staircase/1/{k}-{session.name}", expand(session.spec),
               None, "degrevlex", BOUND)
    yield (f"bound{BOUND}/preset/pushforward-node", preset_session("pushforward-node"),
           None, "degrevlex", BOUND)
    yield (f"bound{BOUND}/golden/command-tour", _golden("command-tour"), None,
           "degrevlex", BOUND)
    yield ("relations/node-a3-W", preset_session("node", a=3) + RELATION_TARGET,
           None, "degrevlex", None)


def _golden(name: str) -> str:
    return (ROOT / "tests" / "golden" / f"{name}.session").read_text(encoding="utf-8")


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        sys.stderr.write(__doc__)
        return 2
    sys.path[:0] = [str(Path(argv[0]).resolve()), str(ROOT / "perfbench")]
    from stackdual.dsl import ParseError, parse_session
    from stackdual.session import EXIT_INPUT_ERROR, run_session

    for name, text, depth, order, bound in matrix():
        try:
            ast = parse_session(text, default_order=order)
        except ParseError as exc:
            print(f"{name}\t-\t{EXIT_INPUT_ERROR}\t{_sha(str(exc))}", flush=True)
            continue
        report = run_session(ast, default_depth=depth, default_bound=bound)
        print(f"{name}\t{_sha(report.to_json())}\t{report.exit_code()}\t"
              f"{_sha(ast.print_canonical())}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
