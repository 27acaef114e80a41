"""Closed-form answers for the benchmark's sessions.

Nothing here calls the program under test.  The answers are facts of the
inputs (dualizing modules known in closed form, verdicts fixed by how the
inputs were built) or are counted by brute force: a module with monomial
relations over a ring with a monomial ideal has the monomials outside the
relation and ideal staircases as a basis.

`problems(expect, report)` returns a list of human-readable discrepancies
between one session's parsed JSON report and its expectation; an empty
list means the report is correct.
"""

from __future__ import annotations


def _divides(m, n) -> bool:
    return all(a <= b for a, b in zip(m, n))


def _exponents(nvars: int, top: int):
    if nvars == 1:
        yield from ((e,) for e in range(top + 1))
        return
    for e in range(top + 1):
        for rest in _exponents(nvars - 1, top - e):
            yield (e,) + rest


def standard_monomials(nvars: int, top: int, forbidden):
    """Exponent tuples of total degree <= top divisible by no forbidden one."""
    for mono in _exponents(nvars, top):
        if not any(_divides(f, mono) for f in forbidden):
            yield mono


def hilbert_table(ring: dict, module: dict, zmax: int) -> dict[tuple[int, int], int]:
    """{(zdeg, weight residue): dim} of a monomial module, all variables of
    Z-degree one, counted generator by generator."""
    a, weights = ring["a"], ring["weights"]
    table: dict[tuple[int, int], int] = {}
    for (gz, gw), rels in zip(module["gens"], module["rels"]):
        forbidden = [tuple(m) for m in rels] + [tuple(m) for m in ring["ideal"]]
        for mono in standard_monomials(len(weights), zmax - gz, forbidden):
            key = (gz + sum(mono), (gw + sum(e * w for e, w in zip(mono, weights))) % a)
            table[key] = table.get(key, 0) + 1
    return table


def invariant_dims(table: dict[tuple[int, int], int]) -> dict[int, int]:
    return {z: d for (z, w), d in table.items() if w == 0}


def _command(report: dict) -> dict:
    commands = report.get("commands", [])
    if len(commands) != 1:
        raise ValueError(f"expected one command, report has {len(commands)}")
    return commands[0]


def _check_free_rank_one(result: dict, weight: int, out: list[str]) -> None:
    if not result.get("is_free_rank_one"):
        out.append("not free of rank one")
    weights = [f["residue"] for f in result.get("fiber_representation", [])]
    if weights != [weight]:
        out.append(f"fiber weights {weights}, expected [{weight}]")


def _check_ext_profile(profile: dict, codim: int, gens: int, out: list[str]) -> None:
    """Ext^i zero for i != codim and `gens` generators at i = codim."""
    if str(codim) not in profile:
        out.append(f"Ext^{codim} missing")
    for i, entry in profile.items():
        want_zero = int(i) != codim
        if entry["zero"] != want_zero:
            out.append(f"Ext^{i} zero={entry['zero']}, expected {want_zero}")
        elif not want_zero and entry["min_generators"] != gens:
            out.append(f"Ext^{i} has {entry['min_generators']} generators, expected {gens}")


def problems(expect: dict, report: dict, memo: dict | None = None) -> list[str]:
    """Discrepancies between a report and the session's closed-form answer.

    `memo` caches brute-force tables between repeats of one session.
    """
    if report.get("partial"):
        return [f"partial report: {report.get('error')}"]
    try:
        cmd = _command(report)
    except ValueError as exc:
        return [str(exc)]
    result, verdicts = cmd.get("result", {}), cmd.get("verdicts", {})
    out: list[str] = []
    kind = expect["kind"]
    if kind == "node":
        _check_free_rank_one(result, 0, out)
        profile = result.get("ext_profile", {})
        for i in range(1, expect["depth"] + 1):
            if not profile.get(str(i), {}).get("zero"):
                out.append(f"Ext^{i} is not zero")
        if verdicts.get("is_sheaf") is not True:
            out.append("not a sheaf")
    elif kind == "free-rank-one":
        _check_free_rank_one(result, expect["weight"], out)
    elif kind == "cm":
        if result.get("codimension") != expect["codim"]:
            out.append(f"codimension {result.get('codimension')}, expected {expect['codim']}")
        if verdicts != {"cohen_macaulay": True, "gorenstein": False, "inconclusive": False}:
            out.append(f"verdicts {verdicts}, expected CM and not Gorenstein")
        _check_ext_profile(result.get("ext_profile", {}), expect["codim"],
                           expect["generators"], out)
    elif kind == "ext":
        nonzero = verdicts.get("nonvanishing_indices")
        if nonzero != [expect["codim"]]:
            out.append(f"nonvanishing Ext indices {nonzero}, expected [{expect['codim']}]")
        exts = {e["i"]: len(e["module"]["generators"]) for e in result.get("ext", [])}
        if exts.get(expect["codim"]) != expect["generators"]:
            out.append(f"Ext^{expect['codim']} has {exts.get(expect['codim'])} generators, "
                       f"expected {expect['generators']}")
    elif kind == "ci":
        if not verdicts.get("cross_check_ok"):
            out.append("cross-check against Ext failed")
        if verdicts.get("twist") != expect["twist"]:
            out.append(f"twist {verdicts.get('twist')}, expected {expect['twist']}")
        if verdicts.get("fiber_weights") != [expect["weight"]]:
            out.append(f"fiber weights {verdicts.get('fiber_weights')}, expected [{expect['weight']}]")
    elif kind in ("hilbert", "invariants"):
        memo = memo if memo is not None else {}
        if "table" not in memo:
            memo["table"] = hilbert_table(expect["ring"], expect["module"], expect["max"])
        if kind == "hilbert":
            got = {(e["zdeg"], e["weight"]): e["dim"] for e in result.get("table", [])}
            want = memo["table"]
        else:
            got = {e["zdeg"]: e["dim"] for e in result.get("dims", [])}
            want = invariant_dims(memo["table"])
        if got != want:
            diff = sorted(k for k in set(got) | set(want) if got.get(k) != want.get(k))
            out.append(f"{kind} differs from the brute-force count at {diff[:5]}")
    elif kind == "compare":
        if verdicts.get("verdict") != "isomorphic-up-to-bound":
            out.append(f"compare verdict {verdicts.get('verdict')}, expected isomorphic-up-to-bound")
    elif kind == "pushforward":
        if verdicts.get("verdict") != "equal":
            out.append(f"pushforward verdict {verdicts.get('verdict')}, expected equal")
    else:
        out.append(f"unknown expectation kind {kind!r}")
    return out
