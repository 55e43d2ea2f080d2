"""Decide a benchmark claim from every record of the same measured code.

``--decide WORKLOAD METRIC RECORD`` reads the parent and change code
fingerprints that ``RECORD`` holds for ``WORKLOAD`` (``tools/bench_pairs.py``
writes them, from ``tools/code_fingerprint.py``) and pools the pairs of
every ``BENCH_*.json`` in ``RECORD``'s directory whose two fingerprint
digests for that workload are the same two.  A record made before the
fingerprints existed cannot be matched, and is counted as skipped.  It
prints each pooled record, the number skipped, ``bench_pairs``' own summary
row over the pooled pairs (each pair told apart by its record and seed):
the medians of both sides, the parent's quartiles and the pairs the change
won, in all and split by the side that ran first; and the number of
``outlier:`` lines that the pooled records keep for the workload and
metric.  The last line is the verdict of the one claim rule:

- CLAIMED: the change won at least ``WIN_SHARE`` of the pairs, and its
  median is better than the parent's by more than the parent's
  interquartile distance (``q3 - q1``);
- UNRESOLVED: one of the two holds;
- NOT MET: neither holds.

Two records of identical code have differed by several percent in their
medians, so the rule reads pairs, never medians across records, and pools
records only when both sides ran the same code as ``RECORD``'s.  A metric's
direction comes from ``BENCHMARK.json`` beside the records (``failed_share``
is lower-better).  The tool reads the records and rewrites none.

usage: python tools/bench_ledger.py --decide WORKLOAD METRIC RECORD
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import sys
from pathlib import Path

WIN_SHARE = 0.9  # at least 9 pairs of 10
BENCH_PAIRS = Path(__file__).resolve().parent / "bench_pairs.py"


def _bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", BENCH_PAIRS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_pairs = _bench_pairs()


def digests(record: dict, workload: str) -> tuple[str, str] | None:
    """The parent and change fingerprint digests of ``workload``, or None
    for a record that holds none."""
    try:
        return tuple(record[side]["fingerprints"][workload]["digest"] for side in bench_pairs.SIDES)
    except KeyError:
        return None


def pool(record_path: Path, workload: str) -> tuple[dict[str, dict], int]:
    """The records beside ``record_path`` whose fingerprint digests for
    ``workload`` equal its own, by file name, and the number of records
    skipped for holding no fingerprint."""
    wanted = digests(json.loads(record_path.read_text()), workload)
    if wanted is None:
        raise SystemExit(f"{record_path.name} holds no code fingerprint for {workload}")
    pooled, skipped = {}, 0
    for path in sorted(record_path.parent.glob("BENCH_*.json")):
        record = json.loads(path.read_text())
        found = digests(record, workload)
        if found is None:
            skipped += 1
        elif found == wanted:
            pooled[path.name] = record
    return pooled, skipped


def pooled_row(records: dict[str, dict], workload: str, name: str, direction: str) -> dict | None:
    """``bench_pairs``' summary row of the metric ``name`` over the pairs of
    ``workload`` in all ``records``, each pair told apart by its record's
    file name and its seed; None when the records hold no run of it."""
    runs = [{**run, "seed": (file, run["seed"])}
            for file, record in records.items() for run in record["runs"] if run["workload"] == workload]
    return bench_pairs.summarize(runs, {name: direction})[workload][name] if runs else None


def verdict(row: dict) -> tuple[float, str]:
    """The median gap of a summary row, in the direction of better, and the
    claim rule's verdict on the row."""
    gap = row["parent_median"] - row["change_median"]
    if row["better"] == "higher":
        gap = -gap
    wins_hold, gap_holds = row["wins"] >= WIN_SHARE * row["pairs"], gap > row["parent_q3"] - row["parent_q1"]
    return gap, "CLAIMED" if wins_hold and gap_holds else "UNRESOLVED" if wins_hold or gap_holds else "NOT MET"


def decide(workload: str, name: str, record_path: Path) -> list[str]:
    """The lines that ``--decide`` prints, the verdict last."""
    bench = json.loads((record_path.parent / "BENCHMARK.json").read_text())
    directions = {m["name"]: m["better"] for m in bench["end_to_end"]} | {"failed_share": "lower"}
    if name not in directions:
        raise SystemExit(f"unknown metric {name}; known: {', '.join(directions)}")
    records, skipped = pool(record_path, workload)
    row = pooled_row(records, workload, name, directions[name])
    if row is None:
        raise SystemExit(f"no run of {workload} in {', '.join(records)}")
    gap, decision = verdict(row)
    outliers = sum(line.startswith(f"outlier: {workload} ") and f": {name} " in line
                   for record in records.values() for line in record.get("outliers", []))
    return [
        f"pooled: {', '.join(records)}",
        f"skipped without a fingerprint: {skipped}",
        f"{workload} {name}: median {row['parent_median']:.6g} -> {row['change_median']:.6g}, "
        f"gap {gap:.6g} against the parent's quartile distance {row['parent_q3'] - row['parent_q1']:.6g} "
        f"({row['parent_q1']:.6g}..{row['parent_q3']:.6g}), {directions[name]} is better",
        f"change better in {row['wins']}/{row['pairs']} ({row['wins_by_first']['parent']} parent first, "
        f"{row['wins_by_first']['change']} change first); outlier lines: {outliers}",
        f"{decision}: {workload} {name} over {len(records)} record(s)",
    ]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--decide", nargs=3, metavar=("WORKLOAD", "METRIC", "RECORD"), required=True)
    args = parser.parse_args(argv)
    workload, name, record = args.decide
    print("\n".join(decide(workload, name, Path(record).resolve())))
    return 0


if __name__ == "__main__":
    sys.exit(main())
