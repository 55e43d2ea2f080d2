"""Print one sha256 per part of the printed output that must stay byte-identical.

The parts are what ``opalg`` prints for:
- the eval_stream expressions of seeds 1-3, as ``opalg eval`` in the text,
  LaTeX and JSON formats;
- the ordering_large operations of seeds 1-3, each result rendered in the
  three formats (a verdict of the oracle as its ``repr``);
- ``opalg verify --suite all --seed 1`` in the text and JSON formats.

The inputs come from the benchmark's own generators (``perfbench/workloads.py``
and ``perfbench/jobs.py``), so they are the inputs the benchmark times.  Each
printed output is hashed with its exit code and everything written to stdout
and stderr.  This is a report, not a gate: run it in two checkouts and
compare the lines.

usage: python tools/output_digest.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import jobs  # noqa: E402
import workloads  # noqa: E402
from opalg import cli  # noqa: E402
from opalg.printing import render  # noqa: E402

SEEDS = (1, 2, 3)
EVAL_COUNT = 3000
ORDERING_ROUNDS = 50  # the rounds of one ``perfbench/run.py --seconds 10`` run
FORMATS = ("text", "latex", "json")


def digest(texts) -> str:
    h = hashlib.sha256()
    for text in texts:
        h.update(text.encode())
        h.update(b"\0")
    return h.hexdigest()


def printed(command, *args) -> str:
    """The exit code of ``command(*args)`` and all that it prints."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
        code = command(*args)
    return f"{code}\n{out.getvalue()}"


def eval_digests(seed: int, count: int = EVAL_COUNT) -> dict[str, str]:
    exprs = [item["expr"] for item in workloads.eval_stream(seed, count)]
    return {
        f"eval_stream seed {seed} {fmt}": digest(printed(cli.cmd_eval, expr, fmt) for expr in exprs)
        for fmt in FORMATS
    }


def ordering_digests(seed: int, rounds: int = ORDERING_ROUNDS) -> dict[str, str]:
    results = []
    for op in workloads.ordering_large(seed, rounds):
        function, args = jobs.prepare_ordering(op)
        try:
            results.append(function(*args))
        except Exception as exc:  # an operation that raises prints its error
            results.append(exc)
    return {
        f"ordering_large seed {seed} {fmt}": digest(
            repr(r) if isinstance(r, (Exception, bool)) else render(r, fmt) for r in results
        )
        for fmt in FORMATS
    }


def verify_digests(seed: int = 1, suite: str = "all") -> dict[str, str]:
    return {
        f"verify --suite {suite} --seed {seed} {fmt}": digest(
            [printed(cli.main, ["verify", "--suite", suite, "--seed", str(seed), "--format", fmt])]
        )
        for fmt in ("text", "json")
    }


def main() -> int:
    parts: dict[str, str] = {}
    for seed in SEEDS:
        parts.update(eval_digests(seed))
    for seed in SEEDS:
        parts.update(ordering_digests(seed))
    parts.update(verify_digests())
    width = max(map(len, parts))
    for name, value in parts.items():
        print(f"{name:{width}}  {value}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
