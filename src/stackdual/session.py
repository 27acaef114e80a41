"""Execute a parsed session and assemble human and machine reports.

Every numeric field in the machine-readable report is an integer or an
exact rational string, never floating point, and two runs of the same
session produce byte-identical JSON.  Wall-clock timings therefore go to
the human output only unless explicitly requested.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from typing import Optional

from .caps import ResourceCapError, command_caps
from .complexes import homology, koszul
from .dsl import Command, SessionAst
from .duality import (CMReport, DualityReport, canonical_module,
                      cm_gorenstein_check, compare_modules, ext_dualizing,
                      finite_shriek, lci_dualizing, pushforward_check)
from .gmodule import (ModulePresentation, hilbert_function, hom_module,
                      invariant_part)
from .groebner import printed_column
from .poly import Bidegree

SCHEMA_VERSION = "1"

EXIT_OK = 0
EXIT_FAILED_CHECK = 1
EXIT_INPUT_ERROR = 2
EXIT_RESOURCE_CAP = 3
EXIT_INTERNAL_ERROR = 4


# ---------------------------------------------------------------------------
# JSON helpers (deterministic, exact)


def json_text(value, newline: str = "\n") -> str:
    """`json.dumps(value, indent=2, sort_keys=True)`, byte for byte.

    A non-None indent makes the standard library fall back to its
    pure-Python encoder; this writer emits the report's dicts (with string
    keys), lists, strings, ints, booleans and None itself and hands any
    other value to `json.dumps`, re-indented to its depth."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if type(value) is int:
        return int.__repr__(value)
    inner = newline + "  "
    if type(value) is dict and all(type(k) is str for k in value):
        if not value:
            return "{}"
        items = (encode_basestring_ascii(k) + ": " + json_text(value[k], inner)
                 for k in sorted(value))
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if type(value) in (list, tuple):
        if not value:
            return "[]"
        items = (json_text(v, inner) for v in value)
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    return json.dumps(value, indent=2, sort_keys=True).replace("\n", newline)


def bidegree_json(d: Bidegree) -> dict:
    return {"zdeg": d.zdeg, "weight": {"residue": d.weight, "modulus": d.modulus}}


def module_json(M: ModulePresentation) -> dict:
    return {
        "ring": M.ring.name,
        "generators": [bidegree_json(d) for d in M.bidegrees],
        "relations": [list(printed_column(col, M.rank)) for col in M.relations],
    }


def table_json(table: dict) -> list:
    out = []
    for (z, w), dim in sorted(table.items()):
        out.append({"zdeg": z, "weight": w, "dim": dim})
    return out


def _ext_profile_json(profile: dict[int, tuple[bool, int]]) -> dict:
    return {str(i): {"zero": z, "min_generators": n}
            for i, (z, n) in sorted(profile.items())}


def duality_report_json(rep: DualityReport) -> dict:
    return {
        "description": rep.description,
        "module": module_json(rep.module),
        "twist": rep.twist_label(),
        "is_sheaf": rep.is_sheaf,
        "is_free_rank_one": rep.is_free_rank_one,
        "generator_bidegrees": [bidegree_json(d) for d in rep.generator_bidegrees],
        "fiber_representation": [
            {"residue": d.weight, "modulus": d.modulus,
             "lambda": d.lambda_exponent()} for d in rep.generator_bidegrees],
        "ext_profile": _ext_profile_json(rep.ext_profile),
        "depth": rep.depth,
        "notes": rep.notes,
    }


def cm_report_json(rep: CMReport) -> dict:
    return {
        "codimension": rep.codimension,
        "ext_profile": _ext_profile_json(rep.ext_profile),
        "cohen_macaulay": rep.cohen_macaulay,
        "gorenstein": rep.gorenstein,
        "inconclusive": rep.inconclusive,
        "notes": rep.notes,
    }


# ---------------------------------------------------------------------------
# command execution


@dataclass
class CommandOutcome:
    name: str
    inputs: str
    result: dict
    verdicts: dict
    human: list[str]
    failed_check: bool = False
    timing_ms: Optional[int] = None


@dataclass
class RunReport:
    outcomes: list[CommandOutcome] = field(default_factory=list)
    partial: bool = False
    error: Optional[str] = None

    def exit_code(self) -> int:
        if self.error == "resource-cap":
            return EXIT_RESOURCE_CAP
        if self.error is not None:
            if self.error.startswith("internal: "):
                return EXIT_INTERNAL_ERROR
            return EXIT_INPUT_ERROR
        if any(o.failed_check for o in self.outcomes):
            return EXIT_FAILED_CHECK
        return EXIT_OK

    def abort(self, cmd: Command, error: str, message: str, human: str) -> None:
        """Stop the session at `cmd`, flagging the report partial."""
        self.partial = True
        self.error = error
        self.outcomes.append(CommandOutcome(
            cmd.kind, cmd.text, {"error": message}, {"aborted": True},
            [human], failed_check=False))

    def to_json(self, include_timings: bool = False) -> str:
        commands = []
        for o in self.outcomes:
            entry = {"name": o.name, "inputs": o.inputs,
                     "result": o.result, "verdicts": o.verdicts}
            if include_timings:
                entry["timing_ms"] = o.timing_ms
            commands.append(entry)
        doc = {"schema_version": SCHEMA_VERSION, "commands": commands}
        if self.partial:
            doc["partial"] = True
            doc["error"] = self.error
        return json_text(doc) + "\n"

    def human_text(self) -> str:
        blocks = []
        for o in self.outcomes:
            blocks.append("\n".join([f"== {o.inputs}"] + o.human))
        if self.error:
            blocks.append(f"!! session aborted: {self.error}")
        return "\n\n".join(blocks) + "\n"


def run_session(ast: SessionAst, default_depth: Optional[int] = None,
                default_bound: Optional[int] = None) -> RunReport:
    report = RunReport()
    for cmd in ast.commands():
        started = time.monotonic()
        try:
            with command_caps():
                outcome = _execute(cmd, default_depth, default_bound)
        except ResourceCapError as exc:
            report.abort(cmd, "resource-cap", str(exc), f"aborted: {exc}")
            break
        except ValueError as exc:
            report.abort(cmd, str(exc), str(exc), f"error: {exc}")
            break
        except Exception as exc:
            # a broken engine invariant or any other fault of the program,
            # not of the input; exit 1 stays reserved for failed verdicts
            error = f"internal: {type(exc).__name__}: {exc}"
            report.abort(cmd, error, error, f"internal error: {type(exc).__name__}: {exc}")
            break
        outcome.timing_ms = int((time.monotonic() - started) * 1000)
        report.outcomes.append(outcome)
    return report


def _execute(cmd: Command, default_depth: Optional[int],
             default_bound: Optional[int]) -> CommandOutcome:
    handler = _HANDLERS[(cmd.kind, cmd.subkind)]
    return handler(cmd, default_depth, default_bound)


def _run_hom(cmd: Command, _d, _b) -> CommandOutcome:
    h = hom_module(cmd.args["M"], cmd.args["N"])
    return CommandOutcome(
        "hom", cmd.text, {"module": module_json(h)},
        {"min_generators": h.rank},
        [f"Hom module: {h}"])


def _run_ext(cmd: Command, _d, _b) -> CommandOutcome:
    ring = cmd.args["ring"]
    omega = cmd.args["omega"]
    if omega is None:
        omega = canonical_module(ring)
    exts = ext_dualizing(ring, cmd.args["ideal"], omega, cmd.options["max"])
    result = {"ext": [{"i": i, "module": module_json(e)} for i, e in exts]}
    human = [f"Ext^{i}: {e if e.rank else '0'}" for i, e in exts]
    nonzero = [i for i, e in exts if e.rank]
    return CommandOutcome("ext", cmd.text, result,
                          {"nonvanishing_indices": nonzero}, human)


def _run_koszul(cmd: Command, _d, _b) -> CommandOutcome:
    kc = koszul(cmd.args["ring"], cmd.args["seq"])
    homology_zero = all(homology(kc, i).rank == 0
                        for i in range(1, kc.length + 1))
    result = {
        "ranks": kc.ranks(),
        "generator_bidegrees": [[bidegree_json(d) for d in t.bidegrees]
                                for t in kc.terms],
        "regular_sequence": homology_zero,
    }
    human = [f"Koszul ranks: {kc.ranks()}",
             f"higher homology vanishes (regular sequence): {homology_zero}"]
    return CommandOutcome("koszul", cmd.text, result,
                          {"regular_sequence": homology_zero}, human,
                          failed_check=not homology_zero)


def _run_dualize_finite(cmd: Command, default_depth, _b) -> CommandOutcome:
    depth = cmd.options["depth"] if default_depth is None else default_depth
    rep = finite_shriek(cmd.args["map"], cmd.args["omega"], depth=depth)
    return CommandOutcome(
        "dualize-finite", cmd.text, duality_report_json(rep),
        {"is_sheaf": rep.is_sheaf, "is_free_rank_one": rep.is_free_rank_one,
         "fiber_weights": list(rep.fiber_representation)},
        rep.summary_lines())


def _run_dualize_lci(cmd: Command, default_depth, _b) -> CommandOutcome:
    ring = cmd.args["ring"]
    omega = cmd.args["omega"]
    if omega is None:
        omega = canonical_module(ring)
    imax = cmd.options["depth"] if default_depth is None else default_depth
    rep = lci_dualizing(ring, cmd.args["seq"], omega, imax)
    failed = any("FAILED" in n for n in rep.notes)
    return CommandOutcome(
        "dualize-lci", cmd.text, duality_report_json(rep),
        {"twist": rep.twist_label(), "fiber_weights": list(rep.fiber_representation),
         "cross_check_ok": not failed},
        rep.summary_lines(), failed_check=failed)


def _run_check_gorenstein(cmd: Command, _d, _b) -> CommandOutcome:
    rep = cm_gorenstein_check(cmd.args["ring"], cmd.args["ideal"],
                              cmd.options["max"])
    return CommandOutcome(
        "check", cmd.text, cm_report_json(rep),
        {"cohen_macaulay": rep.cohen_macaulay, "gorenstein": rep.gorenstein,
         "inconclusive": rep.inconclusive},
        rep.summary_lines(), failed_check=rep.inconclusive)


def _run_check_pushforward(cmd: Command, _d, default_bound) -> CommandOutcome:
    bound = cmd.options["bound"] if default_bound is None else default_bound
    verdict, discrepancy = pushforward_check(
        cmd.args["map"], cmd.args["omega_b"], cmd.args["omega_a"], bound)
    human = [f"invariant part vs moduli dualizing module: {verdict}"]
    if discrepancy:
        human.append(discrepancy)
    return CommandOutcome(
        "check", cmd.text,
        {"verdict": verdict, "first_discrepancy": discrepancy},
        {"verdict": verdict}, human, failed_check=verdict != "equal")


def _run_hilbert(cmd: Command, _d, default_bound) -> CommandOutcome:
    zmax = cmd.options["max"] if default_bound is None else default_bound
    table = hilbert_function(cmd.args["M"], zmax)
    human = ["bigraded dimensions (zdeg, weight) -> dim:"]
    human += [f"  ({z}, {w}) -> {dim}" for (z, w), dim in sorted(table.items())]
    return CommandOutcome("hilbert", cmd.text, {"table": table_json(table)},
                          {}, human)


def _run_invariants(cmd: Command, _d, default_bound) -> CommandOutcome:
    bound = cmd.options["bound"] if default_bound is None else default_bound
    dims, elements = invariant_part(cmd.args["M"], bound)
    human = ["weight-0 dimensions by zdeg:"]
    human += [f"  {z} -> {d}" for z, d in sorted(dims.items())]
    human += [f"  low-degree elements: {', '.join(elements[:8])}"] if elements else []
    return CommandOutcome(
        "invariants", cmd.text,
        {"dims": [{"zdeg": z, "dim": d} for z, d in sorted(dims.items())],
         "elements": elements},
        {}, human)


def _run_compare(cmd: Command, _d, default_bound) -> CommandOutcome:
    bound = cmd.options["bound"] if default_bound is None else default_bound
    verdict = compare_modules(cmd.args["M"], cmd.args["N"], bound)
    return CommandOutcome(
        "compare", cmd.text, {"verdict": verdict}, {"verdict": verdict},
        [f"comparison verdict: {verdict}"],
        failed_check=verdict != "isomorphic-up-to-bound")


_HANDLERS = {
    ("hom", None): _run_hom,
    ("ext", None): _run_ext,
    ("koszul", None): _run_koszul,
    ("dualize-finite", None): _run_dualize_finite,
    ("dualize-lci", None): _run_dualize_lci,
    ("check", "gorenstein"): _run_check_gorenstein,
    ("check", "pushforward"): _run_check_pushforward,
    ("hilbert", None): _run_hilbert,
    ("invariants", None): _run_invariants,
    ("compare", None): _run_compare,
}
