"""Outside-in layer tracing of stackdual.

The tracer wraps public entry points of each module from outside: nothing
under src/ knows about it.  A span wrapper records [session, span id,
parent span id, name, start, end]; a count wrapper only counts calls, for
functions called too often to span.  Spans stay in memory until the run
ends, and per-layer self time (span time minus child spans) is computed
from them.

`from x import y` copies the reference, so wrapping the defining module is
not enough: every binding of a traced object in any stackdual module is
patched, and methods are patched on their class.  Imports inside functions
resolve through the module attribute and so see the wrapper.  A traced name
that no longer exists, or a required binding that no longer points at it,
raises CoverageError before anything runs.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import time
from collections import Counter
from contextlib import contextmanager

# "<module>.<attribute path>" under the stackdual package
SPANS = (
    "dsl.parse_session",
    "session.run_session",
    "session.RunReport.to_json",
    "duality.finite_shriek",
    "duality._hom_as_target_module",
    "duality.lci_dualizing",
    "duality.ext_dualizing",
    "duality.cm_gorenstein_check",
    "duality.pushforward_check",
    "duality.compare_modules",
    "complexes.resolve",
    "complexes.hom_complex",
    "complexes.homology",
    "complexes.homology_with_inclusion",
    "complexes.koszul",
    "gmodule.restrict_along",
    "gmodule.minimalize",
    "gmodule.minimalize_with_tracking",
    "gmodule.subquotient",
    "gmodule.kernel",
    "gmodule.kernel_with_inclusion",
    "gmodule.hilbert_function",
    "gmodule.invariant_part",
    "groebner._TrackedGB.__init__",
    "groebner.SubmoduleOracle.__init__",
    "groebner.SubmoduleOracle.contains",
    "groebner.SubmoduleOracle.lift",
    "groebner.syzygies_over",
    "groebner.minimal_generating_vectors",
)

COUNTED = (
    "gmodule.RingMorphism.coordinates",
    "groebner.buchberger",
    "groebner.normal_form",
    "groebner.check_deadline",
    "poly.GradedRing.reduce",
    "poly.Polynomial.__mul__",
)

# bindings made by `from x import y` that the layers are reached through
REQUIRED_BINDINGS = {
    "duality": ("restrict_along", "minimalize", "resolve", "homology_with_inclusion"),
    "complexes": ("syzygies_over", "subquotient", "minimalize"),
    "gmodule": ("syzygies_over", "minimal_generating_vectors"),
    "session": ("finite_shriek", "ext_dualizing", "hilbert_function", "homology"),
    "groebner": ("check_deadline",),
}

# per-layer metric -> spans whose self time it sums
SELF_TIME = {
    "dsl.parse_s": ("dsl.parse_session",),
    "session.to_json_s": ("session.RunReport.to_json",),
    "duality.self_s": ("duality.finite_shriek", "duality._hom_as_target_module",
                       "duality.lci_dualizing", "duality.ext_dualizing",
                       "duality.cm_gorenstein_check", "duality.pushforward_check"),
    "duality.compare_modules_s": ("duality.compare_modules",),
    "complexes.resolve_s": ("complexes.resolve",),
    "complexes.hom_complex_s": ("complexes.hom_complex",),
    "complexes.homology_s": ("complexes.homology", "complexes.homology_with_inclusion"),
    "complexes.koszul_s": ("complexes.koszul",),
    "gmodule.restrict_along_s": ("gmodule.restrict_along",),
    "gmodule.minimalize_s": ("gmodule.minimalize", "gmodule.minimalize_with_tracking"),
    "gmodule.subquotient_s": ("gmodule.subquotient",),
    "gmodule.kernel_s": ("gmodule.kernel", "gmodule.kernel_with_inclusion"),
    "gmodule.hilbert_s": ("gmodule.hilbert_function", "gmodule.invariant_part"),
    "groebner.gb_build_s": ("groebner._TrackedGB.__init__",),
    "groebner.min_gens_s": ("groebner.minimal_generating_vectors",
                            "groebner.SubmoduleOracle.__init__",
                            "groebner.SubmoduleOracle.contains",
                            "groebner.SubmoduleOracle.lift"),
    "groebner.syzygies_over_s": ("groebner.syzygies_over",),
}

# per-layer metric -> traced names whose calls it counts
CALLS = {
    "duality.finite_shriek_calls": ("duality.finite_shriek",),
    "complexes.homology_calls": ("complexes.homology_with_inclusion",),
    "gmodule.coordinates_calls": ("gmodule.RingMorphism.coordinates",),
    "gmodule.minimalize_calls": ("gmodule.minimalize_with_tracking",),
    "gmodule.subquotient_calls": ("gmodule.subquotient",),
    "groebner.gb_builds": ("groebner._TrackedGB.__init__",),
    "groebner.oracle_builds": ("groebner.SubmoduleOracle.__init__",),
    "groebner.oracle_queries": ("groebner.SubmoduleOracle.contains",
                                "groebner.SubmoduleOracle.lift"),
    "groebner.syzygies_over_calls": ("groebner.syzygies_over",),
    "groebner.work_ticks": ("groebner.check_deadline",),
    "groebner.buchberger_calls": ("groebner.buchberger",),
    "groebner.normal_form_calls": ("groebner.normal_form",),
    "poly.reduce_calls": ("poly.GradedRing.reduce",),
    "poly.mul_calls": ("poly.Polynomial.__mul__",),
}

# counts taken from what a traced call returns
RESULT_COUNTS = ("complexes.resolve_steps", "complexes.resolution_ranks")

# measured by the benchmark around the trace rather than from spans
OUTSIDE = ("cli.import_s", "trace.overhead_ratio")

PER_LAYER = tuple(SELF_TIME) + tuple(CALLS) + RESULT_COUNTS + OUTSIDE


class CoverageError(RuntimeError):
    """A traced name or a required binding is missing."""


def _lookup(name: str):
    """(owner, attribute, object) for "<module>.<attr path>"."""
    mod_name, _, path = name.partition(".")
    owner = importlib.import_module(f"stackdual.{mod_name}")
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            raise CoverageError(f"traced name {name} is missing")
    attr = parts[-1]
    obj = (vars(owner).get(attr) if isinstance(owner, type)
           else getattr(owner, attr, None))
    if obj is None:
        raise CoverageError(f"traced name {name} is missing")
    return owner, attr, obj


def resolve_targets() -> dict[str, object]:
    """Traced name -> original object; raises CoverageError on a gap."""
    targets = {name: _lookup(name)[2] for name in SPANS + COUNTED}
    by_id = {id(obj): name for name, obj in targets.items()}
    for mod_name, attrs in REQUIRED_BINDINGS.items():
        module = importlib.import_module(f"stackdual.{mod_name}")
        for attr in attrs:
            obj = getattr(module, attr, None)
            if obj is None:
                raise CoverageError(f"stackdual.{mod_name} no longer binds {attr}")
            if id(obj) not in by_id:
                raise CoverageError(f"stackdual.{mod_name}.{attr} is not a traced function")
    return targets


def _bindings(targets: dict[str, object]) -> list[tuple[object, str, str]]:
    """Every (owner, attribute, traced name) under which a target is reachable."""
    by_id = {id(obj): name for name, obj in targets.items()}
    owners = [m for n, m in sorted(sys.modules.items())
              if n == "stackdual" or n.startswith("stackdual.")]
    owners += [_lookup(name)[0] for name in targets if name.count(".") > 1]
    found, seen = [], set()
    for owner in owners:
        for attr, obj in list(vars(owner).items()):
            key = (id(owner), attr)
            if id(obj) in by_id and key not in seen:
                seen.add(key)
                found.append((owner, attr, by_id[id(obj)]))
    return found


class Tracer:
    def __init__(self):
        self.targets = resolve_targets()
        self.bindings = _bindings(self.targets)
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.session = -1
        self._stack: list[int] = []
        self._wrappers = {name: self._wrap(name, obj) for name, obj in self.targets.items()}

    def _wrap(self, name: str, fn):
        counts = self.counts
        if name in COUNTED:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return counted

        spans, stack, clock = self.spans, self._stack, time.perf_counter
        on_result = _resolve_counts if name == "complexes.resolve" else None

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            counts[name] += 1
            rec = [self.session, len(spans), stack[-1] if stack else -1, name, clock(), 0.0]
            spans.append(rec)
            stack.append(rec[1])
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[5] = clock()
                stack.pop()
            if on_result is not None:
                on_result(counts, result)
            return result
        return spanned

    @contextmanager
    def installed(self, session: int):
        """Route every binding through its wrapper for one session."""
        self.session = session
        for owner, attr, name in self.bindings:
            setattr(owner, attr, self._wrappers[name])
        try:
            yield self
        finally:
            for owner, attr, name in self.bindings:
                setattr(owner, attr, self.targets[name])

    def self_times(self) -> Counter:
        """Span name -> summed self time in seconds."""
        child = [0.0] * len(self.spans)
        for _, _, parent, _, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: Counter = Counter()
        for (_, sid, _, name, start, end) in self.spans:
            out[name] += (end - start) - child[sid]
        return out

    def layer_metrics(self, sessions: int) -> dict[str, float]:
        """Per-session per-layer metrics from spans and counts."""
        self_times = self.self_times()
        out = {}
        for metric, names in SELF_TIME.items():
            out[metric] = sum(self_times[n] for n in names) / sessions
        for metric, names in CALLS.items():
            out[metric] = sum(self.counts[n] for n in names) / sessions
        for metric in RESULT_COUNTS:
            out[metric] = self.counts[metric] / sessions
        return out

    def write(self, path, t0: float) -> None:
        """Spans as JSON lines, times in seconds from t0."""
        with open(path, "w", encoding="utf-8") as fh:
            for session, sid, parent, name, start, end in self.spans:
                fh.write(json.dumps([session, sid, parent, name,
                                     round(start - t0, 7), round(end - t0, 7)]) + "\n")


def _resolve_counts(counts: Counter, cc) -> None:
    counts["complexes.resolve_steps"] += cc.length
    counts["complexes.resolution_ranks"] += sum(cc.ranks())


def overhead_ratio(traced: list[float], untraced: list[float]) -> float:
    return statistics.median(traced) / statistics.median(untraced)
