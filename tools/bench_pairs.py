"""Run the benchmark in two checkouts, alternately, and write a BENCH_<n>.json.

For every workload and seed given (by default every workload that the
change checkout's ``BENCHMARK.json`` names), ``perfbench/run.py --workload W
--seed S --seconds N`` runs once in the parent checkout and once in the
change checkout; the two runs of a pair alternate which one goes first, so
that a drift of the machine's speed does not favour one side.  Each pair is
printed as it finishes, then per workload and end-to-end metric the two
medians, the parent's quartiles and in how many pairs the change was better
(the direction of each metric, and the run length ``N``, come from the
change checkout's ``BENCHMARK.json``).  A claim is read from these pairs,
inside one record: two records of the same code differ by several percent,
so medians are never compared across records.  The output file holds the
environment, both commits, each side's ``tools/output_digest.py`` lines and
``tools/code_lines.py`` total, every run's full result line with its
``stress`` lines (the stress table an ``ordering_large`` run prints) and
the summary; the script prints whether the two sides' digests match.

Before the pairs, ``tools/code_fingerprint.py`` (this script's copy) runs
once per side and workload in each checkout, on the first seed and the
same run length: the one observation run.  It hashes the package functions
that the workload's timed region calls, and its ``sys.setprofile`` hook
counts their calls (a generator once per resumption), each count named
``opalg/<module>.py:<qualname>``; the counts are the same in every run of a
seed.  Both sides' fingerprints and counts go in the record.  The script
prints per workload whether the two sides ran the same code ("same") or not
("differs", naming each function that differs), and each count that
differs.  ``python perfbench/run.py --trace 1`` still prints what the record
does not hold: ``terms.pairs_in``, ``terms.terms_out``, each cache's
``hits``, ``misses`` and ``size``,
``combinatorics.multiset_permutations.arrangements`` and every layer's
``.self_s`` and ``.total_s``.  Both checkouts must be clean, so that each
recorded commit is the tree that was measured.  After the summary, an
``outlier:`` line names each run whose end-to-end metric is worse than the
median of its own side's runs of that workload by more than the metric's
``bound`` in ``BENCHMARK.json``, with the run's p50 and tail, so that one
stalled run is seen apart from a shift of the whole side; the record keeps
these lines.  An ``--out`` that already exists is refused, with exit status
2, before anything is inspected or run, so that no record is overwritten.

Each run imports ``opalg`` from its own checkout's ``src/``; this script
imports nothing from ``opalg`` and writes nothing under ``perfbench/``.

usage: python tools/bench_pairs.py --parent DIR --change DIR --out BENCH_<n>.json
           [--workloads W [W ...]] [--seeds 82-86,182-186]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

SIDES = ("parent", "change")
FINGERPRINT = Path(__file__).resolve().parent / "code_fingerprint.py"


def parse_seeds(text: str) -> list[int]:
    """``"82-85,90"`` as ``[82, 83, 84, 85, 90]``."""
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def run_once(checkout: Path, workload: str, seed: int, seconds: int, run=subprocess.run) -> tuple[dict, list[str]]:
    """One untraced ``perfbench/run.py`` run in ``checkout``: its JSON result
    line and its ``stress`` lines, stripped."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds)]
    *lines, last = stdout_lines(checkout, command, run)
    return json.loads(last), [line.strip() for line in lines if line.lstrip().startswith("stress")]


def code_fingerprint(checkout: Path, workload: str, seed: int, seconds: int,
                     run=subprocess.run) -> tuple[dict, dict[str, int]]:
    """The fingerprint that ``tools/code_fingerprint.py`` computes in
    ``checkout`` for one workload, seed and run length, and its call counts."""
    command = [sys.executable, str(FINGERPRINT), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds)]
    found = json.loads(stdout_lines(checkout, command, run)[-1])
    return {name: found[name] for name in ("code_objects", "digest", "functions")}, found["calls"]


def stdout_lines(checkout: Path, command: list[str], run) -> list[str]:
    """The lines that ``command`` prints, run in ``checkout``; a failure raises."""
    done = run(command, cwd=checkout, capture_output=True, text=True, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(command)} in {checkout} exited {done.returncode}:\n{done.stderr}")
    return done.stdout.splitlines()


def differing(before: dict, after: dict) -> list[str]:
    """The names, in order, whose values differ between the two sides or
    that one side lacks."""
    return sorted(name for name in before.keys() | after.keys() if before.get(name) != after.get(name))


def count_lines(workload: str, parent: dict[str, int], change: dict[str, int]) -> list[str]:
    """Each work count that differs between the two sides, with its delta."""
    differ = differing(parent, change)
    lines = [f"work counts, {workload}: {len(differ)} of {len(parent.keys() | change.keys())} differ"]
    for name in differ:
        old, new = parent.get(name, 0), change.get(name, 0)
        lines.append(f"  {name:48s} {old} -> {new} ({new - old:+})")
    return lines


def fingerprint_line(workload: str, parent: dict, change: dict) -> str:
    """Whether the two sides ran the same package code in ``workload``,
    naming each function whose hash differs or that one side lacks."""
    if parent["digest"] == change["digest"]:
        return f"code fingerprint, {workload}: same ({change['code_objects']} code objects)"
    differ = differing(parent["functions"], change["functions"])
    return (f"code fingerprint, {workload}: differs ({parent['code_objects']} -> {change['code_objects']} "
            f"code objects; {len(differ)} functions differ: {', '.join(differ)})")


def tool_outputs(checkout: Path, run=subprocess.run) -> dict:
    """The output digest lines and the code-line total of ``checkout``."""
    digests = stdout_lines(checkout, [sys.executable, "tools/output_digest.py"], run)
    total = stdout_lines(checkout, [sys.executable, "tools/code_lines.py"], run)[-1].split()[-1]
    return {"digests": digests, "code_lines": int(total)}


def digest_line(parent: list[str], change: list[str]) -> str:
    """Whether the two sides' digest lines match, naming each part that differs."""
    if parent == change:
        return f"output digests: all {len(parent)} match"
    before, after = (dict(line.rsplit(maxsplit=1) for line in lines) for lines in (parent, change))
    differ = differing(before, after)
    return f"output digests: {len(differ)} differ: {', '.join(differ)}"


def metric(result: dict, name: str) -> float:
    if name == "failed_share":
        return result["failed"] / result["attempted"]
    return result["metrics"][name]["value"]


def better(value: float, than: float, direction: str) -> bool:
    return value > than if direction == "higher" else value < than


def summarize(runs: list[dict], directions: dict[str, str]) -> dict:
    """Per workload and metric: the medians of both sides, the relative
    change of the medians, the parent's quartiles, and the pairs in which
    the change was better.  ``runs`` holds one entry per run, with the keys
    ``workload``, ``seed``, ``side`` and ``result``; ``directions`` maps each
    end-to-end metric to ``"higher"`` or ``"lower"``.  ``failed_share`` is
    added, lower being better."""
    pairs: dict[str, dict[int, dict[str, dict]]] = {}
    for run in runs:
        pairs.setdefault(run["workload"], {}).setdefault(run["seed"], {})[run["side"]] = run["result"]
    directions = {**directions, "failed_share": "lower"}
    summary = {}
    for workload, by_seed in pairs.items():
        complete = [sides for _, sides in sorted(by_seed.items()) if len(sides) == len(SIDES)]
        rows = {}
        for name, direction in directions.items():
            parent = [metric(sides["parent"], name) for sides in complete]
            change = [metric(sides["change"], name) for sides in complete]
            if not parent:
                continue
            parent_median, change_median = statistics.median(parent), statistics.median(change)
            q1, _, q3 = statistics.quantiles(parent, n=4, method="inclusive") if len(parent) > 1 else parent * 3
            rows[name] = {
                "better": direction,
                "parent_median": parent_median,
                "change_median": change_median,
                "change_pct": 100 * (change_median - parent_median) / parent_median if parent_median else None,
                "parent_q1": q1,
                "parent_q3": q3,
                "wins": sum(better(c, p, direction) for p, c in zip(parent, change)),
                "pairs": len(parent),
            }
        summary[workload] = rows
    return summary


def outlier_lines(runs: list[dict], end_to_end: list[dict]) -> list[str]:
    """One line per run and end-to-end metric whose value is worse than the
    median of its own side's runs of that workload by more than the metric's
    ``bound`` (a share of that median), naming the run's p50 and tail.  A
    metric without a ``bound`` is skipped."""
    bounded = [m for m in end_to_end if "bound" in m]
    values: dict[tuple[str, str, str], list[float]] = {}
    for run in runs:
        for m in bounded:
            values.setdefault((run["workload"], run["side"], m["name"]), []).append(metric(run["result"], m["name"]))
    lines = []
    for run in runs:
        result = run["result"]
        for m in bounded:
            value = metric(result, m["name"])
            median = statistics.median(values[run["workload"], run["side"], m["name"]])
            limit = median * (1 - m["bound"] if m["better"] == "higher" else 1 + m["bound"])
            if better(limit, value, m["better"]):
                lines.append(
                    f"outlier: {run['workload']} seed {run['seed']} {run['side']}: {m['name']} {value:.6g} "
                    f"against its side's median {median:.6g} (bound {m['bound']:.0%}); "
                    f"p50 {metric(result, 'latency_p50_ms'):.6g} ms, tail {metric(result, 'latency_tail_ms'):.6g} ms"
                )
    return lines


def pair_line(workload: str, seed: int, first: str, results: dict[str, dict], names) -> str:
    cells = [f"{name} {metric(results['parent'], name):.6g} -> {metric(results['change'], name):.6g}" for name in names]
    return f"{workload} seed {seed} ({first} first): " + "; ".join(cells)


def summary_lines(summary: dict) -> list[str]:
    lines = []
    for workload, rows in summary.items():
        lines.append(f"{workload}:")
        for name, row in rows.items():
            pct = "n/a" if row["change_pct"] is None else f"{row['change_pct']:+.1f}%"
            lines.append(
                f"  {name:16s} median {row['parent_median']:.6g} -> {row['change_median']:.6g} ({pct}), "
                f"parent quartiles {row['parent_q1']:.6g}..{row['parent_q3']:.6g}, "
                f"change better in {row['wins']}/{row['pairs']} ({row['better']} is better)"
            )
    return lines


def checkout_commit(checkout: Path) -> str:
    """The commit of ``checkout``, which must have no uncommitted or
    untracked file (ignored files aside)."""

    def git(*args: str) -> str:
        return subprocess.run(["git", *args], cwd=checkout, capture_output=True, text=True, check=True).stdout

    dirty = git("status", "--porcelain", "--untracked-files=all")
    if dirty:
        raise SystemExit(f"{checkout} has changes that are not committed:\n{dirty}")
    return git("rev-parse", "HEAD").strip()


def environment() -> dict:
    return {
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "cpus": os.cpu_count(),
        "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE"),
        "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--workloads", nargs="+", help="default: every workload of BENCHMARK.json")
    parser.add_argument("--seeds", type=parse_seeds, default=parse_seeds("82-86,182-186"))
    args = parser.parse_args(argv)
    if args.out.exists():
        print(f"error: {args.out} exists; a record is never overwritten", file=sys.stderr)
        return 2

    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    bench = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())
    directions = {m["name"]: m["better"] for m in bench["end_to_end"]}
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    record = {
        "environment": environment(),
        "seconds": bench["run_seconds"],
        **{side: {"commit": checkout_commit(checkouts[side])} for side in SIDES},
        "runs": [],
    }
    for side in SIDES:
        record[side].update(tool_outputs(checkouts[side]))
    print(digest_line(record["parent"]["digests"], record["change"]["digests"]))
    print(f"code lines: {record['parent']['code_lines']} -> {record['change']['code_lines']}", flush=True)
    record["counts_seed"] = args.seeds[0]
    for workload in workloads:
        for side in SIDES:
            fingerprint, counts = code_fingerprint(checkouts[side], workload, args.seeds[0], bench["run_seconds"])
            record[side].setdefault("counts", {})[workload] = counts
            record[side].setdefault("fingerprints", {})[workload] = fingerprint
        print("\n".join(count_lines(workload, *(record[side]["counts"][workload] for side in SIDES))))
        print(fingerprint_line(workload, *(record[side]["fingerprints"][workload] for side in SIDES)), flush=True)
    for workload in workloads:
        for index, seed in enumerate(args.seeds):
            order = SIDES if index % 2 == 0 else SIDES[::-1]
            results = {}
            for side in order:
                results[side], stress = run_once(checkouts[side], workload, seed, bench["run_seconds"])
                record["runs"].append({"workload": workload, "seed": seed, "side": side,
                                       "first": order[0], "result": results[side], "stress": stress})
            print(pair_line(workload, seed, order[0], results, [*directions, "failed_share"]), flush=True)
    record["summary"] = summarize(record["runs"], directions)
    print("\n".join(summary_lines(record["summary"])))
    record["outliers"] = outlier_lines(record["runs"], bench["end_to_end"])
    print(f"outliers: {len(record['outliers'])}", *record["outliers"], sep="\n")
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
