"""Command-line front end.

    stackdual run <file> [--json PATH] [--depth N] [--bound N]
                         [--order degrevlex|lex] [--timings]
    stackdual preset <name> [--a N] [--i N] [--j N] [--json PATH] ...
    stackdual list-presets

Exit codes: 0 success, 1 a computation verdict failed (distinct/unequal/
inconclusive), 2 input error, 3 resource cap exceeded by a command, 4 an
internal error: any other exception, while parsing too (a partial report is
flagged "internal: <exception type>: <message>").  Caps can be set through
STACKDUAL_MAX_TERMS and STACKDUAL_TIME_LIMIT_S; a cap exceeded while the
session is parsed is an input error, as are a cap variable with no valid
value, an unreadable or non-UTF-8 session file and an unwritable --json path.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .caps import EXIT_INPUT_ERROR, EXIT_INTERNAL_ERROR, InputError
from .dsl import ParseError, parse_session
from .presets import list_presets, preset_session


def _add_run_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--json", metavar="PATH", help="write the machine-readable report")
    p.add_argument("--depth", type=int, default=None,
                   help="override the depth of every duality command")
    p.add_argument("--bound", type=int, default=None,
                   help="override the bound of hilbert/invariants/compare/pushforward")
    p.add_argument("--order", choices=("degrevlex", "lex"), default="degrevlex",
                   help="default monomial order for rings without one")
    p.add_argument("--timings", action="store_true",
                   help="include wall-clock timings in the JSON report "
                        "(breaks byte-for-byte determinism)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stackdual",
        description="dualizing modules of cyclic-quotient curve singularities")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute a session file")
    run_p.add_argument("file", help="session file path")
    _add_run_options(run_p)

    pre_p = sub.add_parser("preset", help="run a named example")
    pre_p.add_argument("name", help="preset name (see list-presets)")
    pre_p.add_argument("--a", type=int, default=None, help="group order")
    pre_p.add_argument("--i", type=int, default=None, help="weight of x")
    pre_p.add_argument("--j", type=int, default=None, help="weight of y")
    pre_p.add_argument("--show-session", action="store_true",
                       help="print the expanded session text and exit")
    _add_run_options(pre_p)

    sub.add_parser("list-presets", help="list the named examples")
    return parser


def _input_error(*messages) -> int:
    for message in messages:
        sys.stderr.write(f"error: {message}\n")
    return EXIT_INPUT_ERROR


def _run_text(text: str, args) -> int:
    try:
        ast = parse_session(text, default_order=args.order)
    except ParseError as exc:
        return _input_error(*exc.diagnostics)
    except InputError as exc:
        return _input_error(exc)
    except Exception as exc:
        sys.stderr.write(f"internal error: {type(exc).__name__}: {exc}\n")
        return EXIT_INTERNAL_ERROR
    # the engine is imported only when a session has parsed and runs
    from .session import run_session
    report = run_session(ast, default_depth=args.depth, default_bound=args.bound)
    sys.stdout.write(report.human_text())
    total_ms = sum(o.timing_ms or 0 for o in report.outcomes)
    sys.stderr.write(f"[{len(report.outcomes)} commands, {total_ms} ms]\n")
    if args.json:
        try:
            Path(args.json).write_text(
                report.to_json(include_timings=args.timings), encoding="utf-8")
        except OSError as exc:
            return _input_error(f"cannot write {args.json}: {exc.strerror}")
    return report.exit_code()


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)

    if args.command == "list-presets":
        rows = list_presets()
        width = max(len(r[0]) for r in rows)
        for name, desc, expect in rows:
            sys.stdout.write(f"{name.ljust(width)}  {desc}\n")
            sys.stdout.write(f"{' ' * width}  expected: {expect}\n")
        return 0

    if args.command == "preset":
        params = {k: v for k, v in (("a", args.a), ("i", args.i), ("j", args.j))
                  if v is not None}
        try:
            text = preset_session(args.name, **params)
        except KeyError as exc:
            return _input_error(exc.args[0])
        if args.show_session:
            sys.stdout.write(text)
            return 0
        return _run_text(text, args)

    path = Path(args.file)
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError:
        return _input_error(f"{path} is not UTF-8 text")
    except OSError as exc:
        return _input_error(f"cannot read {path}: {exc.strerror}")
    return _run_text(text, args)


if __name__ == "__main__":
    sys.exit(main())
