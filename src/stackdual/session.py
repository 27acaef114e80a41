"""Execute a parsed session and assemble human and machine reports.

Every numeric field in the machine-readable report is an integer or an
exact rational string, never floating point, and two runs of the same
session produce byte-identical JSON.  Wall-clock timings therefore go to
the human output only unless explicitly requested.  A failed command ends
the session, and the failure's type alone sets the exit code (see `caps`).
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field, replace
from itertools import chain
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from typing import Optional

from .caps import (EXIT_FAILED_CHECK, EXIT_INPUT_ERROR, EXIT_INTERNAL_ERROR,
                   EXIT_OK, EXIT_RESOURCE_CAP, InputError, ResourceCapError,
                   check_term_cap, command_caps)
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


# ---------------------------------------------------------------------------
# JSON helpers (deterministic, exact)


def json_text(value, newline: str = "\n") -> str:
    """`json.dumps(value, indent=2, sort_keys=True)`, byte for byte.

    A non-None indent makes the standard library fall back to its
    pure-Python encoder; this writer emits the report's dicts (with string
    keys), lists, strings, ints, booleans and None itself and hands any
    other value to `json.dumps`, re-indented to its depth.  A list of
    records, dicts with one set of string keys and only int values (a
    Hilbert table, say), is written row by row from one `%` template."""
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
        keys = _record_keys(value)
        if keys:
            field = inner + "  %s: %%d"
            row = "{" + ",".join(field % encode_basestring_ascii(k).replace("%", "%%")
                                 for k in keys) + inner + "}"
            items = map(row.__mod__, map(itemgetter(*keys), value))
        else:
            items = (json_text(v, inner) for v in value)
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    return json.dumps(value, indent=2, sort_keys=True).replace("\n", newline)


def _record_keys(items) -> list[str]:
    """The sorted keys shared by `items` when every item is a dict with
    that one nonempty set of string keys and int values (not bools), else
    an empty list."""
    first = items[0]
    # most lists of dicts in a report are no table: reject them on one row
    if type(first) is not dict or {*map(type, first.values())} != {int}:
        return []
    keys = first.keys()
    if ({*map(type, keys)} != {str} or {*map(type, items)} != {dict}
            or not all(map(keys.__eq__, map(dict.keys, items)))
            or {*map(type, chain.from_iterable(map(dict.values, items)))} != {int}):
        return []
    return sorted(keys)


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


def _ext_profile_json(profile: dict[int, int]) -> dict:
    return {str(i): {"zero": n == 0, "min_generators": n}
            for i, n in sorted(profile.items())}


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
    error: Optional[str] = None  # set when a failure aborted the session
    error_exit: int = EXIT_OK    # and the exit code its type sets

    def exit_code(self) -> int:
        if self.error is not None:
            return self.error_exit
        if any(o.failed_check for o in self.outcomes):
            return EXIT_FAILED_CHECK
        return EXIT_OK

    def abort(self, cmd: Command, code: int, error: str, message: str,
              human: str) -> None:
        """Stop the session at `cmd` with exit `code`, flagging the report partial."""
        self.error, self.error_exit = error, code
        self.outcomes.append(CommandOutcome(
            cmd.kind, cmd.text, {"error": message}, {"aborted": True}, [human]))

    def to_json(self, include_timings: bool = False) -> str:
        commands = []
        for o in self.outcomes:
            entry = {"name": o.name, "inputs": o.inputs,
                     "result": o.result, "verdicts": o.verdicts}
            if include_timings:
                entry["timing_ms"] = o.timing_ms
            commands.append(entry)
        doc = {"schema_version": SCHEMA_VERSION, "commands": commands}
        if self.error is not None:
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


# the word a session writes for an option that is stored under another
# name (hilbert's `max` is its `bound`, so that --bound overrides it)
_SESSION_WORDS = {("hilbert", "bound"): "max"}


def run_session(ast: SessionAst, default_depth: Optional[int] = None,
                default_bound: Optional[int] = None) -> RunReport:
    """Run each command under its caps.  `default_depth` and
    `default_bound` replace every `depth` and `bound` option, and a `depth`,
    `bound` or `max` above the term cap is a resource-cap failure before
    the command starts.  A handler gets that command and returns (result,
    verdicts, human lines, failed_check).
    A failure stops the session, and its type alone sets the exit code:
    ResourceCapError 3, InputError 2, any other exception (a fault of the
    program, not of the input) 4."""
    overrides = {k: v for k, v in (("depth", default_depth),
                                   ("bound", default_bound)) if v is not None}
    report = RunReport()
    for cmd in ast.commands():
        handler = _HANDLERS[(cmd.kind, cmd.subkind)]
        cmd = replace(cmd, options={k: overrides.get(k, v)
                                    for k, v in cmd.options.items()})
        started = time.monotonic()
        try:
            with command_caps():
                # a report holds O(depth or bound) entries, so the term cap
                # bounds those options too, before any work
                for name, value in cmd.options.items():
                    if value is not None:
                        word = _SESSION_WORDS.get((cmd.kind, name), name)
                        check_term_cap(value, f"{word} {value}")
                result, verdicts, human, failed = handler(cmd)
        except ResourceCapError as exc:
            report.abort(cmd, EXIT_RESOURCE_CAP, "resource-cap", str(exc), f"aborted: {exc}")
            break
        except InputError as exc:
            report.abort(cmd, EXIT_INPUT_ERROR, str(exc), str(exc), f"error: {exc}")
            break
        except Exception as exc:
            error = f"internal: {type(exc).__name__}: {exc}"
            report.abort(cmd, EXIT_INTERNAL_ERROR, error, error,
                         f"internal error: {type(exc).__name__}: {exc}")
            break
        report.outcomes.append(CommandOutcome(
            cmd.kind, cmd.text, result, verdicts, human, failed,
            int((time.monotonic() - started) * 1000)))
    return report


def _run_hom(cmd: Command):
    h = hom_module(cmd.args["M"], cmd.args["N"])
    return ({"module": module_json(h)}, {"min_generators": h.rank},
            [f"Hom module: {h}"], False)


def _run_ext(cmd: Command):
    ring = cmd.args["ring"]
    omega = cmd.args["omega"]
    if omega is None:
        omega = canonical_module(ring)
    exts = ext_dualizing(ring, cmd.args["ideal"], omega, cmd.options["max"])
    result = {"ext": [{"i": i, "module": module_json(e)} for i, e in exts]}
    human = [f"Ext^{i}: {e if e.rank else '0'}" for i, e in exts]
    nonzero = [i for i, e in exts if e.rank]
    return result, {"nonvanishing_indices": nonzero}, human, False


def _run_koszul(cmd: Command):
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
    return (result, {"regular_sequence": homology_zero}, human,
            not homology_zero)


def _run_dualize_finite(cmd: Command):
    rep = finite_shriek(cmd.args["map"], cmd.args["omega"],
                        depth=cmd.options["depth"])
    return (duality_report_json(rep),
            {"is_sheaf": rep.is_sheaf, "is_free_rank_one": rep.is_free_rank_one,
             "fiber_weights": list(rep.fiber_representation)},
            rep.summary_lines(), False)


def _run_dualize_lci(cmd: Command):
    ring = cmd.args["ring"]
    omega = cmd.args["omega"]
    if omega is None:
        omega = canonical_module(ring)
    rep = lci_dualizing(ring, cmd.args["seq"], omega, cmd.options["depth"])
    failed = any("FAILED" in n for n in rep.notes)
    return (duality_report_json(rep),
            {"twist": rep.twist_label(), "fiber_weights": list(rep.fiber_representation),
             "cross_check_ok": not failed},
            rep.summary_lines(), failed)


def _run_check_gorenstein(cmd: Command):
    rep = cm_gorenstein_check(cmd.args["ring"], cmd.args["ideal"],
                              cmd.options["max"])
    return (cm_report_json(rep),
            {"cohen_macaulay": rep.cohen_macaulay, "gorenstein": rep.gorenstein,
             "inconclusive": rep.inconclusive},
            rep.summary_lines(), rep.inconclusive)


def _run_check_pushforward(cmd: Command):
    verdict, discrepancy = pushforward_check(
        cmd.args["map"], cmd.args["omega_b"], cmd.args["omega_a"],
        cmd.options["bound"])
    human = [f"invariant part vs moduli dualizing module: {verdict}"]
    if discrepancy:
        human.append(discrepancy)
    return ({"verdict": verdict, "first_discrepancy": discrepancy},
            {"verdict": verdict}, human, verdict != "equal")


def _run_hilbert(cmd: Command):
    table = hilbert_function(cmd.args["M"], cmd.options["bound"])
    human = ["bigraded dimensions (zdeg, weight) -> dim:"]
    human += [f"  ({z}, {w}) -> {dim}" for (z, w), dim in sorted(table.items())]
    return {"table": table_json(table)}, {}, human, False


def _run_invariants(cmd: Command):
    dims, elements = invariant_part(cmd.args["M"], cmd.options["bound"])
    human = ["weight-0 dimensions by zdeg:"]
    human += [f"  {z} -> {d}" for z, d in sorted(dims.items())]
    human += [f"  low-degree elements: {', '.join(elements[:8])}"] if elements else []
    return ({"dims": [{"zdeg": z, "dim": d} for z, d in sorted(dims.items())],
             "elements": elements}, {}, human, False)


def _run_compare(cmd: Command):
    verdict = compare_modules(cmd.args["M"], cmd.args["N"], cmd.options["bound"])
    return ({"verdict": verdict}, {"verdict": verdict},
            [f"comparison verdict: {verdict}"],
            verdict != "isomorphic-up-to-bound")


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
