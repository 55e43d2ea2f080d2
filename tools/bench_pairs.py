"""Run the benchmark in two checkouts, alternately, and write a BENCH_<n>.json.

For every workload and seed given, ``perfbench/run.py --workload W --seed S
--seconds N`` runs once in the parent checkout and once in the change
checkout; the two runs of a pair alternate which one goes first, so that a
drift of the machine's speed does not favour one side.  Each pair is
printed as it finishes, then per workload and end-to-end metric the two
medians, the parent's quartiles and in how many pairs the change was better
(the direction of each metric, and the run length ``N``, come from the
change checkout's ``BENCHMARK.json``).  The output file holds the
environment, both commits, every run's full result line and the summary.
Both checkouts must be clean, so that each recorded commit is the tree
that was measured.

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


def parse_seeds(text: str) -> list[int]:
    """``"82-85,90"`` as ``[82, 83, 84, 85, 90]``."""
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def run_once(checkout: Path, workload: str, seed: int, seconds: int) -> dict:
    """One ``perfbench/run.py`` run in ``checkout``: its JSON result line."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds)]
    done = subprocess.run(command, cwd=checkout, capture_output=True, text=True, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(command)} in {checkout} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


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
    parser.add_argument("--workloads", nargs="+", default=["ordering_large"])
    parser.add_argument("--seeds", type=parse_seeds, default=parse_seeds("82-86,182-186"))
    args = parser.parse_args(argv)

    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    bench = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())
    directions = {m["name"]: m["better"] for m in bench["end_to_end"]}
    record = {
        "environment": environment(),
        "seconds": bench["run_seconds"],
        **{side: {"commit": checkout_commit(checkouts[side])} for side in SIDES},
        "runs": [],
    }
    for workload in args.workloads:
        for index, seed in enumerate(args.seeds):
            order = SIDES if index % 2 == 0 else SIDES[::-1]
            results = {}
            for side in order:
                results[side] = run_once(checkouts[side], workload, seed, bench["run_seconds"])
                record["runs"].append({"workload": workload, "seed": seed, "side": side,
                                       "first": order[0], "result": results[side]})
            print(pair_line(workload, seed, order[0], results, [*directions, "failed_share"]), flush=True)
    record["summary"] = summarize(record["runs"], directions)
    print("\n".join(summary_lines(record["summary"])))
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
