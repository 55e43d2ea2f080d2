"""Command line: one-shot evaluation, verification suites, and a REPL.

Exit codes: 0 on success (all checks passed), 1 on a verification failure,
2 on a usage, parse, or evaluation error.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from typing import TYPE_CHECKING

from .errors import EvalError, ParseError, UnsupportedFragmentError
from .parser import evaluate, parse
from .printing import _RENDERERS, render, render_text

if TYPE_CHECKING:
    from .suites import SuiteReport

# RecursionError (input nested too deep for the recursive parser or evaluator)
# and MemoryError are reported like any other input that cannot be evaluated.
_USER_ERRORS = (ParseError, EvalError, UnsupportedFragmentError, RecursionError, MemoryError)


def _format_report_text(report: SuiteReport) -> str:
    lines = [f"suite {report.suite}"]
    for check in report.checks:
        status = "PASS" if check.passed else "FAIL"
        lines.append(f"  {check.name:55s} {status} ({check.cases} cases)")
        for failure in check.failures:
            lines.append(f"    input:      {failure.input}")
            lines.append(f"    difference: {render_text(failure.difference)}")
    lines.append(f"result: {'PASS' if report.passed else 'FAIL'}")
    return "\n".join(lines)


def cmd_eval(expr: str, fmt: str) -> int:
    try:
        text = render(evaluate(parse(expr)), fmt)
    except _USER_ERRORS as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2
    print(text)
    return 0


def run_suite(suite: str, **params) -> SuiteReport:
    """:func:`opalg.suites.run_suite`, imported on the verify path only: the
    suites and their ``random`` cost ``eval`` and the REPL nothing."""
    from . import suites

    return suites.run_suite(suite, **params)


class _SuiteChoices:
    """The ``--suite`` choices, read from :data:`opalg.suites.SUITE_NAMES`
    when argparse checks or prints them, which only ``verify`` does."""

    def __iter__(self):
        from . import suites

        return iter(suites.SUITE_NAMES + ("all",))


def cmd_verify(suite: str, max_degree: int, cases: int, seed: int, fmt: str) -> int:
    try:
        report = run_suite(suite, max_degree=max_degree, cases=cases, seed=seed)
    except (ValueError, RecursionError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 2
    if fmt == "json":
        print(json.dumps(report.to_json_dict()))
    else:
        print(_format_report_text(report))
    return 0 if report.passed else 1


_REPL_HELP = f"""\
Enter an expression to evaluate it, or a directive:
  :help            show this message
  :format FORMAT   set the output format ({', '.join(_RENDERERS)})
  :quit            leave the session"""


def cmd_repl(stdin=None, stdout=None) -> int:
    stdin = stdin if stdin is not None else sys.stdin
    stdout = stdout if stdout is not None else sys.stdout
    fmt = "text"
    interactive = stdin is sys.stdin and sys.stdin.isatty()
    while True:
        if interactive:
            stdout.write("opalg> ")
            stdout.flush()
        line = stdin.readline()
        if not line:
            return 0
        line = line.strip()
        if not line:
            continue
        if line.startswith(":"):
            parts = line.split()
            if parts[0] == ":quit":
                return 0
            if parts[0] == ":help":
                print(_REPL_HELP, file=stdout)
            elif parts[0] == ":format":
                if len(parts) == 2 and parts[1] in _RENDERERS:
                    fmt = parts[1]
                else:
                    print(f"usage: :format {'|'.join(_RENDERERS)}", file=stdout)
            else:
                print(f"unknown directive {parts[0]!r} (try :help)", file=stdout)
            continue
        try:
            print(render(evaluate(parse(line)), fmt), file=stdout)
        except _USER_ERRORS as exc:
            print(f"error: {str(exc) or type(exc).__name__}", file=stdout)


class _ArgumentParser(argparse.ArgumentParser):
    """Prints a usage error as one ``error:`` line, like every other error,
    and reads an argument that starts with ``-`` and a digit as a value: an
    expression such as ``-1/2`` or ``-1q`` is not an option."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-\d")

    def error(self, message: str):
        self.exit(2, f"error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="opalg",
        description="Exact symbolic operator algebra for the canonical pair (q, p).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate one expression and print it")
    p_eval.add_argument("expr", help="expression in the surface grammar")
    p_eval.add_argument("--format", choices=_RENDERERS, default="text", dest="fmt")

    p_verify = sub.add_parser("verify", help="run identity verification suites")
    p_verify.add_argument(
        "--suite", choices=_SuiteChoices(), default="all"
    )
    p_verify.add_argument("--max-degree", type=int, default=6)
    p_verify.add_argument("--cases", type=int, default=200)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--format", choices=("text", "json"), default="text", dest="fmt")

    sub.add_parser("repl", help="interactive read-eval-print session")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "eval":
        return cmd_eval(args.expr, args.fmt)
    if args.command == "verify":
        return cmd_verify(args.suite, args.max_degree, args.cases, args.seed, args.fmt)
    return cmd_repl()


if __name__ == "__main__":
    sys.exit(main())
