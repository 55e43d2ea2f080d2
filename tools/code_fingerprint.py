"""Fingerprint the package code that one benchmark workload's timed region runs.

Run from the root of a checkout:

    python tools/code_fingerprint.py --workload verify_all --seed 82 --seconds 10

It builds the job that ``perfbench/run.py --workload W --seed S --seconds N``
gives its children, and runs it once in this interpreter through the
checkout's own ``perfbench/jobs.py`` and ``src/opalg``, with the output
checks off.  While the timed region runs, a ``sys.setprofile`` hook counts
each ``call`` event per code object, told apart by identity: one per call of
a Python function, and one per resumption of a generator.  Calls that a C
function answers, such as a hit of an ``lru_cache``, raise no such event and
are not counted.
Code objects whose file lies under ``src/opalg`` are kept.  Each is hashed
by its bytecode, its constants (a nested code object by the same parts) and
the names it reads, under its module and qualified name.  Line numbers,
local names and module bodies stay out, so code that only moved, or a
function that was only added and is never called, leaves the fingerprint
as it was; a changed docstring of a reached function is one of its
constants and changes it.

The last line of stdout is a JSON object with the workload, the number of
code objects reached, the digest over all of them, one short hash per
``module:qualname`` (``functions``) and, under the same names, such as
``opalg/core.py:normal_order``, the number of call events summed over that
name's code objects (``calls``).  Two checkouts whose digests for a
workload are equal ran the same package bytecode in that workload's timed
region.  The fingerprint and the counts are properties of the code and the
seed, not of the machine: they take no time figure, and two processes give
the same ones.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from collections import Counter
from collections.abc import Iterable
from types import CodeType


def stable(value) -> str:
    """A text for a code constant that is the same in every process:
    frozensets are listed in sorted order, since their iteration order
    follows string hashes, which differ between processes."""
    if isinstance(value, CodeType):
        return repr(code_parts(value))
    if isinstance(value, tuple):
        return "(" + ", ".join(stable(v) for v in value) + ")"
    if isinstance(value, frozenset):
        return "frozenset(" + ", ".join(sorted(stable(v) for v in value)) + ")"
    return repr(value)


def code_parts(code: CodeType) -> tuple:
    """What a code object runs: its bytecode, constants and names."""
    return code.co_code.hex(), tuple(stable(c) for c in code.co_consts), code.co_names


def fingerprint(calls: Iterable[tuple[CodeType, int]], package_dir: str) -> dict:
    """The fingerprint of the code objects among the ``(code, count)``
    pairs of ``calls`` whose file lies under ``package_dir``: their number,
    one hash per ``module:qualname`` (over all the code objects of that
    name), one digest over those, and per name the sum of its code objects'
    counts."""
    package_dir = os.path.join(os.path.abspath(package_dir), "")
    root = os.path.dirname(os.path.dirname(package_dir))
    by_name: dict[str, list[str]] = {}
    counts: Counter[str] = Counter()
    for code, count in calls:
        path = os.path.abspath(code.co_filename)
        if not path.startswith(package_dir):
            continue
        module = os.path.relpath(path, root).replace(os.sep, "/")
        name = f"{module}:{getattr(code, 'co_qualname', code.co_name)}"
        by_name.setdefault(name, []).append(hashlib.sha256(repr(code_parts(code)).encode()).hexdigest())
        counts[name] += count
    functions = {
        name: hashlib.sha256(" ".join(sorted(hashes)).encode()).hexdigest()[:16]
        for name, hashes in sorted(by_name.items())
    }
    digest = hashlib.sha256(json.dumps(functions, sort_keys=True).encode()).hexdigest()
    return {"code_objects": sum(map(len, by_name.values())), "digest": digest, "functions": functions,
            "calls": dict(sorted(counts.items()))}


class CodeCollector:
    """Stands in for perfbench's tracer: the jobs call ``install`` when
    their timed region starts and ``freeze`` when it ends.  ``calls`` maps
    the ``id`` of each code object called in between to the object and its
    number of call events; keeping the object keeps its ``id`` unique."""

    def __init__(self):
        self.calls: dict[int, tuple[CodeType, int]] = {}

    def _hook(self, frame, event, arg):
        if event == "call":
            code, count = self.calls.get(id(frame.f_code), (frame.f_code, 0))
            self.calls[id(code)] = code, count + 1

    def install(self) -> None:
        sys.setprofile(self._hook)

    def freeze(self) -> None:
        sys.setprofile(None)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    args = parser.parse_args(argv)

    root = os.getcwd()
    package_dir = os.path.join(root, "src", "opalg", "")
    if not os.path.isfile(os.path.join(package_dir, "__init__.py")):
        print(f"error: no opalg sources under {package_dir}; run from the repository root", file=sys.stderr)
        return 2
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "perfbench")]
    import jobs
    import run

    if not os.path.abspath(jobs.opalg.__file__).startswith(package_dir):
        print(f"error: opalg was imported from {jobs.opalg.__file__}, not from {package_dir}", file=sys.stderr)
        return 2
    if args.workload not in jobs.RUNNERS:
        parser.error(f"--workload must be one of {', '.join(jobs.RUNNERS)}")
    job = {**run.make_job(args.workload, args.seed, args.seconds), "check": False}
    collector = CodeCollector()
    try:
        jobs.RUNNERS[args.workload](job, collector)
    finally:
        collector.freeze()
    print(json.dumps({"workload": args.workload, **fingerprint(collector.calls.values(), package_dir)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
