"""The opalg benchmark: one workload, one seed, one result line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload verify_all --seed 1 --seconds 10 --trace 0

Workloads (see ``workloads.py`` for the inputs and README.md for why each
was chosen): ``verify_all``, ``eval_stream`` and ``ordering_large``.  Every
timed run happens in a fresh interpreter that imports ``opalg`` from
``src/``, as a command-line user starts one for every ``opalg verify`` or
``opalg eval``.  One closed-loop client drives it: the next operation starts
when the previous one returns.  Children run one at a time.

Every time is brought to nominal machine speed with a calibration kernel
that runs between the operations (``calibrate.py``); the raw wall-clock
figures are printed next to the metrics.

``--seconds`` scales the amount of work: 990 expressions or 5 ordering
rounds per second (``workloads.py``); ``verify_all`` has its fixed size.
The work does not depend on the speed of the code, so every run of a seed
does the same operations and the tail percentile stays the same one.

With ``--trace 0`` the result carries the end-to-end metrics; with
``--trace 1`` it carries the per-layer metrics of a traced child plus the
tracing overhead measured against an untraced child on the same inputs.
Human-readable lines come first; the last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import calibrate  # noqa: E402
import workloads  # noqa: E402
from tracer import metric_units  # noqa: E402

CHILD = os.path.join(HERE, "child.py")
CHILD_TIMEOUT = 150
WORKLOADS = ("verify_all", "eval_stream", "ordering_large")
# Fresh-process runs of the same inputs per benchmark run, suite seeds
# per verify_all run (one verify_all child takes about 15 s), and spawns
# that only import, per run.
REPEATS = 2
VERIFY_SEEDS = 2
SETUP_SAMPLES = 10
# Percentiles of the form 100 (1 - 10^-k), in tenths of a percent; the tail
# is the highest of them with at least MIN_BEYOND samples beyond it.
PERMILLE = (500, 900, 990, 999)
MIN_BEYOND = 10


class ChildError(RuntimeError):
    pass


class Child:
    """A fresh interpreter running ``child.py``; set-up time is measured
    from the spawn to the child's ready signal, after ``import opalg``."""

    def __init__(self, src: str, limits=None):
        env = dict(os.environ, PYTHONPATH=src)
        self.spawned = time.monotonic()
        self.proc = subprocess.Popen(
            [sys.executable, CHILD, src],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=env,
            text=True,
            preexec_fn=limits,
        )

    def __enter__(self) -> Child:
        return self

    def __exit__(self, *exc) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.communicate()

    def ready(self) -> float:
        line = self.proc.stdout.readline()
        if not line:
            self.proc.wait(timeout=CHILD_TIMEOUT)
            raise ChildError(f"child failed before it was ready:\n{self.proc.stderr.read()}")
        return json.loads(line)["ready"] - self.spawned

    def run(self, job: dict, timeout: float = CHILD_TIMEOUT) -> tuple[int, str, str]:
        out, err = self.proc.communicate(json.dumps(job) + "\n", timeout=timeout)
        return self.proc.returncode, out, err


def run_job(src: str, job: dict, setups: list[float]) -> dict:
    """Run one job in a fresh child; append its set-up time, at nominal
    speed by the reference start-up spawned just before it, to ``setups``."""
    reference = calibrate.startup_seconds()
    with Child(src) as child:
        setups.append(child.ready() / reference * calibrate.NOMINAL_STARTUP_S)
        code, out, err = child.run(job)
    if code != 0:
        raise ChildError(f"{job['workload']} child exited with {code}:\n{err}")
    return json.loads(out.strip().splitlines()[-1]) if out.strip() else {}


def measure_setup(src: str, setups: list[float], samples: int) -> None:
    """``samples`` spawns that only import opalg."""
    for _ in range(samples):
        run_job(src, {"workload": "none"}, setups)


def tail(latencies: list[float]) -> tuple[float, float, int]:
    """(percentile, value, samples beyond) of the tail percentile."""
    ordered = sorted(latencies)
    n = len(ordered)
    chosen = None
    for permille in PERMILLE:
        rank = max(1, -(-n * permille // 1000))  # nearest rank, exact in integers
        if chosen is None or n - rank >= MIN_BEYOND:
            chosen = (permille / 10, ordered[rank - 1], n - rank)
    return chosen


# -- workloads ------------------------------------------------------------------


def make_job(workload: str, seed: int, seconds: int) -> dict:
    """The seeded inputs of one run; ``verify_all`` has its fixed size."""
    if workload == "verify_all":
        return {"workload": workload, "seed": VERIFY_SEEDS * seed}
    if workload == "eval_stream":
        return {"workload": workload, "exprs": workloads.eval_stream(seed, seconds * workloads.EVAL_PER_SECOND)}
    return {"workload": workload, "ops": workloads.ordering_large(seed, seconds * workloads.ORDERING_ROUNDS_PER_SECOND)}


def child_jobs(job: dict) -> list[dict]:
    """The jobs of the children of an untraced run.

    ``eval_stream`` and ``ordering_large`` give every child the same
    inputs; the first checks its outputs one by one and the other must
    reproduce them.  ``verify_all`` gives each of ``VERIFY_SEEDS`` children
    a suite seed of its own, ``2 s`` and ``2 s + 1`` for run seed ``s``:
    its tail lies among the random cases the seed draws, and pooling seeds
    narrows how far one seed moves it (a third seed would narrow it more
    but add some 20 s to every run).  Each report is checked for failing
    cases; that one seed's reports are byte-identical is checked by the
    traced run, whose two children run suite seed ``2 s``.
    """
    if job["workload"] == "verify_all":
        return [{**job, "seed": job["seed"] + i} for i in range(VERIFY_SEEDS)]
    return [{**job, "check": i == 0} for i in range(REPEATS)]


def same_inputs(jobs: list[dict]) -> bool:
    inputs = [{k: v for k, v in job.items() if k != "check"} for job in jobs]
    return all(i == inputs[0] for i in inputs)


def mismatched_ops(results: list[dict]) -> int:
    """Operations of each child whose outputs differ from the first child's.

    Only the first child's outputs are checked one by one; the others must
    reproduce them byte for byte.
    """
    return sum(r["ops"] for r in results[1:] if r["digest"] != results[0]["digest"])


# -- stress table ------------------------------------------------------------------


def _limits() -> None:
    cpu = workloads.STRESS_SECONDS + 1
    resource.setrlimit(resource.RLIMIT_CPU, (cpu, cpu + 1))
    memory = workloads.STRESS_MEMORY_BYTES
    resource.setrlimit(resource.RLIMIT_AS, (memory, memory))


def classify(code: int | None, out: str, err: str) -> str:
    """One stress outcome: ``ok`` or the reason the input failed."""
    if code is None:
        return "time limit"
    if "MemoryError" in err:
        return "memory limit"
    if code < 0:
        return f"killed by signal {-code} (limit)"
    if "Traceback" in err:
        return f"traceback: {err.strip().splitlines()[-1][:80]}"
    if code == 2:
        return f"refused: {err.strip()[:80]}"
    if code != 0:
        return f"exit code {code}"
    return "ok" if json.loads(out.strip().splitlines()[-1])["correct"] else "wrong result"


def stress_table(src: str) -> list[tuple[str, str, float]]:
    rows = []
    for item in workloads.STRESS:
        with Child(src, limits=_limits) as child:
            try:
                child.ready()
                code, out, err = child.run(
                    {"workload": "stress", **item}, timeout=workloads.STRESS_SECONDS
                )
            except subprocess.TimeoutExpired:
                code, out, err = None, "", ""
            except ChildError as exc:
                code, out, err = child.proc.returncode, "", str(exc)
            elapsed = time.monotonic() - child.spawned
        rows.append((item["expr"], classify(code, out, err), elapsed))
    return rows


def stress_failed(rows: list[tuple[str, str, float]]) -> int:
    return sum(outcome != "ok" for _, outcome, _ in rows)


# -- main ---------------------------------------------------------------------------


def nominal(result: dict) -> list[float]:
    return calibrate.normalised(result["latencies"], result["calibration"])


def per_operation(runs: list[list[float]], same: bool) -> list[float]:
    """Each operation's time as the median (with two children, the mean) of
    its fresh-process runs when the children ran the same inputs, and all
    operations of all children when they did not."""
    if not same:
        return [t for run in runs for t in run]
    return [statistics.median(t) for t in zip(*runs)]


def end_to_end(results: list[dict], setups: list[float], same: bool) -> tuple[dict, list[str]]:
    """Times at nominal machine speed, per operation over the children."""
    times = per_operation([nominal(r) for r in results], same)
    wall = per_operation([r["latencies"] for r in results], same)
    p, tail_value, beyond = tail(times)
    metrics = {
        "ops_per_s": (len(times) / sum(times), "1/s"),
        "latency_p50_ms": (statistics.median(times) * 1000, "ms"),
        "latency_tail_ms": (tail_value * 1000, "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(r["rss_mb"] for r in results), "MB"),
    }
    speed = statistics.median(s for r in results for s in r["calibration"]["samples"]) / calibrate.NOMINAL_S
    notes = [
        f"each operation timed as the median of {len(results)} fresh-process runs"
        if same
        else f"operations of {len(results)} fresh-process runs of different inputs, pooled",
        f"times at nominal machine speed; the calibration kernel took {speed:.3f} x nominal (median)",
        f"wall clock: ops_per_s {len(wall) / sum(wall):.6g} 1/s, latency_p50_ms {statistics.median(wall) * 1000:.6g} ms, "
        f"latency_tail_ms {tail(wall)[1] * 1000:.6g} ms",
        f"latency_tail_ms is p{p:g} of {len(times)} operations, {beyond} beyond it",
        f"setup_s is the median of {len(setups)} spawns",
    ]
    return metrics, notes


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "opalg", "__init__.py")):
        print(f"error: no opalg sources under {src}; run from the repository root", file=sys.stderr)
        return 2

    job = make_job(args.workload, args.seed, args.seconds)
    setups: list[float] = []
    measure_setup(src, [], 1)  # warm-up: writes the bytecode caches
    lines = [f"workload {args.workload}, seed {args.seed}, seconds {args.seconds}, trace {args.trace}"]

    if args.trace:
        spans_dir = os.path.join(root, ".perfbench")
        os.makedirs(spans_dir, exist_ok=True)
        spans_path = os.path.join(spans_dir, f"spans-{args.workload}.bin")
        untraced = run_job(src, {**job, "check": True}, setups)
        traced = run_job(src, {**job, "check": False, "trace": 1, "spans_path": spans_path}, setups)
        results = [untraced, traced]
        plain_rate = untraced["ops"] / sum(nominal(untraced))
        traced_rate = traced["ops"] / sum(nominal(traced))
        units = metric_units()
        metrics = {name: (traced["layers"][name], unit) for name, unit in units.items()}
        metrics["trace.ops_per_s_untraced"] = (plain_rate, "1/s")
        metrics["trace.ops_per_s_traced"] = (traced_rate, "1/s")
        metrics["trace.overhead_pct"] = (100 * (plain_rate - traced_rate) / plain_rate, "%")
        absent = sorted({n.rsplit(".", 1)[0] for n in units if n.endswith(".hits")} - set(traced["caches_present"]))
        lines.append(f"spans written to {os.path.relpath(spans_path, root)}")
        if absent:
            lines.append(f"caches absent (counters reported as 0): {', '.join(absent)}")
    else:
        results = []
        jobs = child_jobs(job)
        for child_job in jobs:
            # Set-up samples spread over the run, like the repetitions.
            measure_setup(src, setups, SETUP_SAMPLES // len(jobs))
            results.append(run_job(src, child_job, setups))
        same = same_inputs(jobs)
        metrics, notes = end_to_end(results, setups, same)
        lines.extend(notes)

    attempted = sum(r["ops"] for r in results)
    failed = sum(r["failed"] for r in results)
    mismatch = mismatched_ops(results) if args.trace or same else 0
    if mismatch:
        lines.append("outputs differ between fresh-process runs of the same inputs")
    failed += mismatch
    for r in results:
        for example in r.get("failed_examples", []):
            lines.append(f"failed: {example}")
    lines.append(f"failed_share {failed / attempted:.6g} ({failed} of {attempted} operations)")

    if args.workload == "ordering_large" and not args.trace:
        rows = stress_table(src)
        lines.append(f"stress_failed {stress_failed(rows)} count (of {len(rows)} inputs, run apart from the timed region)")
        for expr, outcome, elapsed in rows:
            lines.append(f"  stress {expr:24s} {outcome} ({elapsed:.1f} s)")

    for name, (value, unit) in metrics.items():
        lines.append(f"{name:48s} {value:.6g} {unit}")
    print("\n".join(lines))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except ChildError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(1)
