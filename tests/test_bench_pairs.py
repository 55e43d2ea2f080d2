import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "bench_pairs.py"
DIRECTIONS = {"ops_per_s": "higher", "latency_p50_ms": "lower"}


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def result(ops: float, p50: float, failed: int = 0) -> dict:
    metrics = {"ops_per_s": {"value": ops, "unit": "1/s"}, "latency_p50_ms": {"value": p50, "unit": "ms"}}
    return {"correct": not failed, "attempted": 400, "failed": failed, "metrics": metrics}


def canned_runs() -> list[dict]:
    # Four pairs: the change is faster in three and slower in the last, and
    # one change run fails 4 of its 400 operations.
    pairs = [
        (1, result(100, 0.20), result(130, 0.15)),
        (2, result(110, 0.22), result(120, 0.21, failed=4)),
        (3, result(90, 0.25), result(150, 0.12)),
        (4, result(120, 0.18), result(115, 0.19)),
    ]
    # The sides alternate which runs first: the parent in seeds 1 and 3.
    runs = []
    for seed, parent, change in pairs:
        first = "parent" if seed % 2 else "change"
        runs.append({"workload": "ordering_large", "seed": seed, "side": "parent", "first": first, "result": parent})
        runs.append({"workload": "ordering_large", "seed": seed, "side": "change", "first": first, "result": change})
    return runs


def test_summary_gives_medians_quartiles_and_wins(tool):
    rows = tool.summarize(canned_runs(), DIRECTIONS)["ordering_large"]
    assert list(rows) == ["ops_per_s", "latency_p50_ms", "failed_share"]
    ops = rows["ops_per_s"]
    assert (ops["parent_median"], ops["change_median"]) == (105, 125)
    assert ops["change_pct"] == pytest.approx(100 * 20 / 105)
    assert (ops["parent_q1"], ops["parent_q3"]) == (97.5, 112.5)
    assert (ops["wins"], ops["pairs"], ops["better"]) == (3, 4, "higher")
    assert ops["wins_by_first"] == {"parent": 2, "change": 1}
    p50 = rows["latency_p50_ms"]
    assert p50["parent_median"] == pytest.approx(0.21)
    assert p50["change_median"] == pytest.approx(0.17)
    assert (p50["wins"], p50["better"]) == (3, "lower")
    failed = rows["failed_share"]
    assert (failed["parent_median"], failed["change_median"]) == (0, 0)
    assert failed["change_pct"] is None
    assert failed["wins"] == 0


def test_summary_skips_a_pair_that_lacks_a_side(tool):
    runs = canned_runs()[:-1]  # the last pair has no change run
    assert tool.summarize(runs, DIRECTIONS)["ordering_large"]["ops_per_s"]["pairs"] == 3


def test_summary_lines_and_pair_lines_name_every_figure(tool):
    lines = tool.summary_lines(tool.summarize(canned_runs(), DIRECTIONS))
    assert lines[0] == "ordering_large:"
    assert lines[1] == (
        "  ops_per_s        median 105 -> 125 (+19.0%), parent quartiles 97.5..112.5, "
        "change better in 3/4 (2 parent first, 1 change first), higher is better"
    )
    assert "failed_share" in lines[3] and "(n/a)" in lines[3]
    runs = canned_runs()
    line = tool.pair_line("ordering_large", 1, "parent", {"parent": runs[0]["result"], "change": runs[1]["result"]}, DIRECTIONS)
    assert line == "ordering_large seed 1 (parent first): ops_per_s 100 -> 130; latency_p50_ms 0.2 -> 0.15"


END_TO_END = [
    {"name": "ops_per_s", "better": "higher", "bound": 0.25},
    {"name": "latency_tail_ms", "better": "lower", "bound": 0.25},
    {"name": "latency_p50_ms", "better": "lower"},
]


def timed(ops: float, p50: float, tail: float = 1.0) -> dict:
    """A result that also holds a tail latency."""
    run = result(ops, p50)
    run["metrics"]["latency_tail_ms"] = {"value": tail, "unit": "ms"}
    return run


def test_a_run_worse_than_its_own_sides_median_by_more_than_the_bound_is_an_outlier(tool):
    # Per side: ordering_large (ops, p50, tail) by seed, then four verify_all
    # runs ten times faster, which a median pooled over workloads would mix in.
    sides = {
        "parent": [(100, 9.0, 1.0), (100, 0.5, 1.0), (76, 0.5, 1.0), (100, 0.5, 1.26)],
        "change": [(60, 0.5, 1.0), (60, 0.5, 1.0), (60, 0.5, 1.0), (44, 0.5, 1.0)],
    }
    runs = []
    for workload, scale in [("ordering_large", 1), ("verify_all", 10)]:
        for seed in range(1, 5):
            for side, figures in sides.items():
                ops, p50, tail = figures[seed - 1]
                runs.append({"workload": workload, "seed": seed, "side": side, "first": "parent",
                             "result": timed(ops * scale, p50 / scale, tail / scale)})
    summary = tool.summarize(runs, {m["name"]: m["better"] for m in END_TO_END})
    # 76 is inside 25% of the parent's median 100, and the change's 60 is
    # judged against its own side's median; p50 has no bound and is skipped.
    assert tool.outlier_lines(runs, summary, END_TO_END) == [
        "outlier: ordering_large seed 4 parent: latency_tail_ms 1.26 against its side's median 1 (bound 25%); "
        "p50 0.5 ms, tail 1.26 ms",
        "outlier: ordering_large seed 4 change: ops_per_s 44 against its side's median 60 (bound 25%); "
        "p50 0.5 ms, tail 1 ms",
        "outlier: verify_all seed 4 parent: latency_tail_ms 0.126 against its side's median 0.1 (bound 25%); "
        "p50 0.05 ms, tail 0.126 ms",
        "outlier: verify_all seed 4 change: ops_per_s 440 against its side's median 600 (bound 25%); "
        "p50 0.05 ms, tail 0.1 ms",
    ]
    # A wider bound names none of them, and p50 with a bound names its one
    # stalled run per workload.
    assert tool.outlier_lines(runs, summary, [{**m, "bound": 0.5} for m in END_TO_END[:2]]) == []
    p50 = tool.outlier_lines(runs, summary, [{**END_TO_END[2], "bound": 0.25}])
    assert [line.split(":")[1].strip() for line in p50] == ["ordering_large seed 1 parent", "verify_all seed 1 parent"]


def test_the_committed_records_outliers_follow_from_their_runs_and_summary(tool):
    end_to_end = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    directions = {m["name"]: m["better"] for m in end_to_end}
    for name in ("BENCH_45.json", "BENCH_46.json", "BENCH_47.json", "BENCH_48_first.json", "BENCH_48.json"):
        record = json.loads((ROOT / name).read_text())
        summary = tool.summarize(record["runs"], directions)
        assert tool.outlier_lines(record["runs"], summary, end_to_end) == record["outliers"], name


def test_the_committed_records_wins_split_by_the_side_that_ran_first(tool):
    directions = {m["name"]: m["better"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    for name, parent_first, change_first in [("BENCH_46.json", 5, 4), ("BENCH_47.json", 3, 4)]:
        record = json.loads((ROOT / name).read_text())
        row = tool.summarize(record["runs"], directions)["verify_all"]["latency_tail_ms"]
        assert row["wins_by_first"] == {"parent": parent_first, "change": change_first}, name
        # The stored summary, written before the split, keeps its total.
        assert row["wins"] == record["summary"]["verify_all"]["latency_tail_ms"]["wins"] == parent_first + change_first
    # A record written with the split stores the summary recomputed from its runs.
    for name in ("BENCH_48_first.json", "BENCH_48.json"):
        record = json.loads((ROOT / name).read_text())
        assert tool.summarize(record["runs"], directions) == record["summary"], name


def test_the_tool_imports_nothing_from_opalg():
    imports = [line for line in TOOL.read_text().splitlines() if line.startswith(("import ", "from "))]
    assert imports and not any("opalg" in line for line in imports)


def test_a_checkout_with_an_untracked_or_changed_file_is_refused(tool, tmp_path):
    def git(*args):
        subprocess.run(["git", *args], cwd=tmp_path, check=True, capture_output=True)

    git("init", "-q")
    (tmp_path / "a.py").write_text("x = 1\n")
    git("add", "a.py")
    git("-c", "user.name=t", "-c", "user.email=t@t", "commit", "-q", "-m", "a")
    assert len(tool.checkout_commit(tmp_path)) == 40
    (tmp_path / "new.py").write_text("y = 2\n")
    with pytest.raises(SystemExit, match="new.py"):
        tool.checkout_commit(tmp_path)
    (tmp_path / "new.py").unlink()
    (tmp_path / "a.py").write_text("x = 2\n")
    with pytest.raises(SystemExit, match="a.py"):
        tool.checkout_commit(tmp_path)


DIGESTS = [
    "eval_stream seed 1 text      aaaa",
    "eval_stream seed 1 json      bbbb",
    "verify --suite all --seed 1 text  cccc",
]


CODE_LINES = "__init__.py              88\ncore.py                 214\ntotal                  2136\n"


def test_tool_outputs_reads_the_digest_lines_and_the_code_line_total(tool, tmp_path):
    runner = ScriptRunner({"tools/output_digest.py": "\n".join(DIGESTS) + "\n", "tools/code_lines.py": CODE_LINES})
    assert tool.tool_outputs(tmp_path, run=runner) == {"digests": DIGESTS, "code_lines": 2136}
    assert runner.commands == [([sys.executable, "tools/output_digest.py"], tmp_path),
                               ([sys.executable, "tools/code_lines.py"], tmp_path)]


def test_a_failing_tool_raises_with_its_command_exit_status_and_stderr(tool, tmp_path):
    with pytest.raises(RuntimeError) as failed:
        tool.tool_outputs(tmp_path, run=FakeRunner("", returncode=1))
    assert str(failed.value) == f"{sys.executable} tools/output_digest.py in {tmp_path} exited 1:\nboom"


def test_digest_line_says_whether_the_sides_match_and_names_each_difference(tool):
    assert tool.digest_line(DIGESTS, list(DIGESTS)) == "output digests: all 3 match"
    changed = [DIGESTS[0], "eval_stream seed 1 json      dddd", DIGESTS[2]]
    assert tool.digest_line(DIGESTS, changed) == "output digests: 1 differ: eval_stream seed 1 json"
    assert tool.digest_line(DIGESTS, DIGESTS[:2]) == (
        "output digests: 1 differ: verify --suite all --seed 1 text"
    )


class FakeRunner:
    """Stands in for ``subprocess.run``: records each command and answers
    with canned ``perfbench/run.py`` output."""

    def __init__(self, stdout: str, returncode: int = 0):
        self.stdout, self.returncode, self.commands = stdout, returncode, []

    def __call__(self, command, **kwargs):
        self.commands.append((command, kwargs["cwd"]))
        return subprocess.CompletedProcess(command, self.returncode, self.stdout, "boom")


class ScriptRunner(FakeRunner):
    """A ``FakeRunner`` that answers each command with the output canned for
    the first script it names."""

    def __init__(self, outputs: dict[str, str]):
        super().__init__("")
        self.outputs = outputs

    def __call__(self, command, **kwargs):
        self.stdout = next(out for script, out in self.outputs.items() if script in map(str, command))
        return super().__call__(command, **kwargs)


ORDERING_OUTPUT = """workload ordering_large, seed 7, seconds 10, trace 0
failed_share 0 (0 of 400 operations)
stress_failed 1 count (of 3 inputs, run apart from the timed region)
  stress normal(p^200 q^200)       ok (0.4 s)
  stress S(q^100000 p^100000)      time limit (5.1 s)
  stress comm(S(q^12 p^10), S(q^9 p^11)) ok (0.3 s)
ops_per_s                                        9000 1/s
{"correct": true, "attempted": 400, "failed": 0, "metrics": {"ops_per_s": {"value": 9000, "unit": "1/s"}}}
"""


def test_run_once_keeps_the_result_line_and_the_stress_lines(tool, tmp_path):
    runner = FakeRunner(ORDERING_OUTPUT)
    result, stress = tool.run_once(tmp_path, "ordering_large", 7, 10, run=runner)
    assert result["metrics"]["ops_per_s"]["value"] == 9000
    assert stress == [
        "stress_failed 1 count (of 3 inputs, run apart from the timed region)",
        "stress normal(p^200 q^200)       ok (0.4 s)",
        "stress S(q^100000 p^100000)      time limit (5.1 s)",
        "stress comm(S(q^12 p^10), S(q^9 p^11)) ok (0.3 s)",
    ]
    (command, cwd), = runner.commands
    assert cwd == tmp_path
    assert command[1:] == ["perfbench/run.py", "--workload", "ordering_large", "--seed", "7", "--seconds", "10"]
    # A workload that prints no stress table keeps no stress lines.
    plain = "workload verify_all, seed 7\n" + ORDERING_OUTPUT.splitlines()[-1] + "\n"
    assert tool.run_once(tmp_path, "verify_all", 7, 10, run=FakeRunner(plain))[1] == []
    with pytest.raises(RuntimeError, match="exited 1:\nboom"):
        tool.run_once(tmp_path, "ordering_large", 7, 10, run=FakeRunner("", returncode=1))


FOUND = {
    "workload": "ordering_large", "code_objects": 3, "digest": "abc",
    "functions": {"opalg/scalars.py:HbarScalar.__mul__": "1", "opalg/weyl.py:expand_polynomial": "2",
                  "opalg/terms.py:bilinear_sum": "3"},
    "calls": {"opalg/scalars.py:HbarScalar.__mul__": 323, "opalg/weyl.py:expand_polynomial": 150,
              "opalg/terms.py:bilinear_sum": 7},
}


def test_the_fingerprint_run_gives_the_work_counts_and_the_deltas_are_printed(tool, tmp_path):
    runner = FakeRunner("\n" + json.dumps(FOUND) + "\n")
    _, parent = tool.code_fingerprint(tmp_path, "ordering_large", 7, 10, run=runner)
    assert parent == FOUND["calls"]
    change = {**parent, "opalg/scalars.py:HbarScalar.__mul__": 300, "opalg/terms.py:bilinear_sum": 19}
    assert tool.count_lines("ordering_large", parent, change) == [
        "work counts, ordering_large: 2 of 3 differ",
        f"  {'opalg/scalars.py:HbarScalar.__mul__':48s} 323 -> 300 (-23)",
        f"  {'opalg/terms.py:bilinear_sum':48s} 7 -> 19 (+12)",
    ]
    assert tool.count_lines("ordering_large", parent, dict(parent)) == ["work counts, ordering_large: 0 of 3 differ"]
    # A function that only one side calls reads 0 on the other.
    assert tool.count_lines("eval_stream", {}, {"opalg/weyl.py:normal_form": 5})[1:] == [
        f"  {'opalg/weyl.py:normal_form':48s} 0 -> 5 (+5)"
    ]


def test_the_record_holds_each_runs_stress_lines_and_each_sides_work_counts(tool, tmp_path, monkeypatch, capsys):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(
        {"run_seconds": 1, "workloads": [{"name": "ordering_large"}],
         "end_to_end": [{"name": "ops_per_s", "better": "higher"}]}))
    calls = []

    def fake_run_once(checkout, workload, seed, seconds):
        return result(100 + seed, 0.2), [f"stress_failed 0 count (seed {seed})"]

    def fingerprint(checkout, workload, seed, seconds):
        calls.append((workload, seed))
        return fake_fingerprint(checkout, workload, seed, seconds)[0], {"opalg/terms.py:bilinear_sum": len(calls)}

    monkeypatch.setattr(tool, "run_once", fake_run_once)
    monkeypatch.setattr(tool, "checkout_commit", lambda checkout: "0" * 40)
    monkeypatch.setattr(tool, "tool_outputs", lambda checkout: {"digests": DIGESTS, "code_lines": 2136})
    monkeypatch.setattr(tool, "code_fingerprint", fingerprint)
    monkeypatch.setattr(tool, "SEEDS", [3, 4])
    out = tmp_path / "BENCH.json"
    tool.main(["--parent", str(tmp_path), "--change", str(tmp_path), "--out", str(out)])
    record = json.loads(out.read_text())
    # One fingerprint run per side, on the first seed, gives the counts.
    assert calls == [("ordering_large", 3)] * 2
    assert (record["counts_seed"], record["parent"]["counts"], record["change"]["counts"]) == (
        3, {"ordering_large": {"opalg/terms.py:bilinear_sum": 1}}, {"ordering_large": {"opalg/terms.py:bilinear_sum": 2}})
    assert [run["stress"] for run in record["runs"]] == [[f"stress_failed 0 count (seed {s})"] for s in (3, 3, 4, 4)]
    assert f"  {'opalg/terms.py:bilinear_sum':48s} 1 -> 2 (+1)" in capsys.readouterr().out.splitlines()


def fake_fingerprint(checkout, workload, seed, seconds) -> tuple[dict, dict]:
    return {"code_objects": 1, "digest": "d", "functions": {"opalg/terms.py:bilinear_sum": "h"}}, {
        "opalg/terms.py:bilinear_sum": 4}


def fake_pair_run(tool, monkeypatch) -> list:
    """Replaces every step of ``main`` that reads a checkout or runs a
    command with a stand-in; returns the list of the steps taken."""
    calls = []

    def fake_run_once(checkout, workload, seed, seconds):
        calls.append(("run_once", workload, seed))
        return result(100 + seed, 0.2), []

    monkeypatch.setattr(tool, "run_once", fake_run_once)
    monkeypatch.setattr(tool, "checkout_commit", lambda checkout: calls.append(("commit",)) or "0" * 40)
    monkeypatch.setattr(
        tool, "tool_outputs", lambda checkout: calls.append(("tools",)) or {"digests": DIGESTS, "code_lines": 1})
    monkeypatch.setattr(tool, "code_fingerprint", lambda *args: calls.append(("fingerprint",)) or fake_fingerprint(*args))
    return calls


def test_without_workloads_every_workload_of_benchmark_json_is_recorded(tool, tmp_path, monkeypatch):
    # The workloads are the repository's own; the one metric is what the
    # stand-in results carry.
    workloads = json.loads((TOOL.parent.parent / "BENCHMARK.json").read_text())["workloads"]
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(
        {"run_seconds": 1, "workloads": workloads, "end_to_end": [{"name": "ops_per_s", "better": "higher"}]}))
    names = [workload["name"] for workload in workloads]
    fake_pair_run(tool, monkeypatch)
    monkeypatch.setattr(tool, "SEEDS", [3])
    out = tmp_path / "BENCH.json"
    tool.main(["--parent", str(tmp_path), "--change", str(tmp_path), "--out", str(out)])
    record = json.loads(out.read_text())
    assert list(record["summary"]) == names
    assert list(record["parent"]["counts"]) == list(record["change"]["counts"]) == names


def test_an_existing_out_is_refused_before_anything_is_inspected_or_run(tool, tmp_path, monkeypatch, capsys):
    calls = fake_pair_run(tool, monkeypatch)
    out = tmp_path / "BENCH_1.json"
    out.write_bytes(b'{"runs": []}\n')
    missing = str(tmp_path / "no-checkout")
    assert tool.main(["--parent", missing, "--change", missing, "--out", str(out)]) == 2
    assert out.read_bytes() == b'{"runs": []}\n'
    assert calls == []
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: {out} exists; a record is never overwritten"]


def test_compare_is_refused_as_an_unknown_option(tool, tmp_path, monkeypatch, capsys):
    # Medians of two records are not compared: a claim is read from the
    # pairs inside one record.
    calls = fake_pair_run(tool, monkeypatch)
    with pytest.raises(SystemExit) as exited:
        tool.main(["--parent", str(tmp_path), "--change", str(tmp_path), "--out", str(tmp_path / "BENCH.json"),
                   "--compare", str(tmp_path / "BENCH_1.json")])
    assert exited.value.code == 2 and calls == []
    assert "unrecognized arguments: --compare" in capsys.readouterr().err


def test_workloads_and_seeds_are_refused_as_unknown_options(tool, tmp_path, monkeypatch, capsys):
    # Every record holds every workload of BENCHMARK.json at the seeds of
    # ``SEEDS``, so that no record leaves a workload out.
    calls = fake_pair_run(tool, monkeypatch)
    for option, value in (("--workloads", "verify_all"), ("--seeds", "82")):
        with pytest.raises(SystemExit) as exited:
            tool.main(["--parent", str(tmp_path), "--change", str(tmp_path), "--out", str(tmp_path / "BENCH.json"),
                       option, value])
        assert exited.value.code == 2 and calls == []
        assert f"unrecognized arguments: {option} {value}" in capsys.readouterr().err


FINGERPRINT = TOOL.parent / "code_fingerprint.py"


def test_one_record_runs_one_fingerprint_per_side_and_workload_and_no_traced_run(tool, tmp_path, monkeypatch):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(
        {"run_seconds": 1, "workloads": [{"name": "verify_all"}, {"name": "ordering_large"}],
         "end_to_end": [{"name": "ops_per_s", "better": "higher"}]}))
    runner = ScriptRunner({"tools/output_digest.py": "\n".join(DIGESTS), "tools/code_lines.py": CODE_LINES,
                           str(FINGERPRINT): json.dumps(FOUND), "perfbench/run.py": ORDERING_OUTPUT})
    lines = tool.stdout_lines
    monkeypatch.setattr(tool, "stdout_lines", lambda checkout, command, run: lines(checkout, command, runner))
    monkeypatch.setattr(tool, "checkout_commit", lambda checkout: "0" * 40)
    monkeypatch.setattr(tool, "SEEDS", [3, 4])
    out = tmp_path / "BENCH.json"
    assert tool.main(["--parent", str(tmp_path), "--change", str(tmp_path), "--out", str(out)]) == 0
    scripts = [command[1] for command, _ in runner.commands]
    assert scripts == ["tools/output_digest.py", "tools/code_lines.py"] * 2 + [str(FINGERPRINT)] * 4 + [
        "perfbench/run.py"] * 8
    assert not any("--trace" in command for command, _ in runner.commands)
    assert json.loads(out.read_text())["change"]["counts"] == {"verify_all": FOUND["calls"], "ordering_large": FOUND["calls"]}


@pytest.fixture(scope="module")
def fingerprint_tool():
    spec = importlib.util.spec_from_file_location("code_fingerprint", FINGERPRINT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def compiled(source: str, path: Path, blank_lines: int = 0) -> list[tuple]:
    """The function code objects of ``source`` compiled as the file
    ``path``, each paired with one call."""
    module = compile("\n" * blank_lines + source, str(path), "exec")
    return [(c, 1) for c in module.co_consts if hasattr(c, "co_code")]


SOURCE = """
def area(a, b):
    return a * b * SCALE

def kinds(x):
    return x in {"q", "p", "drho_q"}
"""


def test_a_fingerprint_hashes_package_code_only_and_ignores_line_numbers(fingerprint_tool, tmp_path):
    package = tmp_path / "src" / "opalg"
    found = fingerprint_tool.fingerprint(
        compiled(SOURCE, package / "shapes.py") + compiled(SOURCE, tmp_path / "other.py"), str(package))
    assert found["code_objects"] == 2
    assert list(found["functions"]) == ["opalg/shapes.py:area", "opalg/shapes.py:kinds"]
    assert found["calls"] == {"opalg/shapes.py:area": 1, "opalg/shapes.py:kinds": 1}
    # Moved code keeps the fingerprint; a changed constant or name does not.
    assert fingerprint_tool.fingerprint(compiled(SOURCE, package / "shapes.py", 7), str(package)) == found
    for edit in (("* SCALE", "* 2"), ("drho_q", "drho_p")):
        changed = fingerprint_tool.fingerprint(
            compiled(SOURCE.replace(*edit), package / "shapes.py"), str(package))
        assert changed["digest"] != found["digest"]
        assert len(set(changed["functions"].items()) - set(found["functions"].items())) == 1


def test_the_collector_counts_equal_code_objects_of_two_files_apart(fingerprint_tool, tmp_path):
    # CPython 3.11 compares code objects without their file: the two copies
    # of ``area``, at the same first line, compare and hash equal.
    package = tmp_path / "src" / "opalg"
    functions = []
    for path in (package / "shapes.py", tmp_path / "other.py"):
        namespace = {"SCALE": 2}
        exec(compile(SOURCE, str(path), "exec"), namespace)
        functions.append(namespace["area"])
    collector = fingerprint_tool.CodeCollector()
    collector.install()
    try:
        for area in functions:
            area(3, 4)
    finally:
        collector.freeze()
    found = fingerprint_tool.fingerprint(collector.calls.values(), str(package))
    assert found["calls"] == {"opalg/shapes.py:area": 1}


def test_a_fingerprint_is_the_same_in_every_process_and_skips_what_the_timed_region_does_not_call(tmp_path):
    root = FINGERPRINT.parent.parent
    runs = []
    for hash_seed in ("1", "2"):
        command = [sys.executable, str(FINGERPRINT), "--workload", "ordering_large", "--seed", "1", "--seconds", "1"]
        env = {**os.environ, "PYTHONHASHSEED": hash_seed}
        done = subprocess.run(command, cwd=root, env=env, capture_output=True, text=True, check=True)
        runs.append(json.loads(done.stdout.splitlines()[-1]))
    assert runs[0] == runs[1]
    functions, calls = runs[0]["functions"], runs[0]["calls"]
    assert "opalg/core.py:normal_order" in functions and calls["opalg/core.py:normal_order"] > 0
    assert list(calls) == list(functions)
    # The operations are built, and their outputs checked, outside the timed region.
    assert not any(name.startswith("opalg/parser.py") for name in functions)
    assert "opalg/terms.py:bilinear_sum" not in functions
    # A directory without the package sources is refused.
    done = subprocess.run(command, cwd=tmp_path, capture_output=True, text=True)
    assert done.returncode == 2 and "no opalg sources" in done.stderr


def test_the_fingerprint_runs_in_the_checkout_and_its_line_says_same_or_differs(tool, tmp_path):
    found = {"workload": "eval_stream", "code_objects": 3, "digest": "abc", "functions": {"opalg/a.py:f": "1"},
             "calls": {"opalg/a.py:f": 2}}
    runner = FakeRunner("\n" + json.dumps(found) + "\n")
    assert tool.code_fingerprint(tmp_path, "eval_stream", 7, 10, run=runner) == (
        {key: found[key] for key in ("code_objects", "digest", "functions")}, {"opalg/a.py:f": 2})
    (command, cwd), = runner.commands
    assert cwd == tmp_path
    assert command[1:] == [str(FINGERPRINT), "--workload", "eval_stream", "--seed", "7", "--seconds", "10"]
    with pytest.raises(RuntimeError, match="exited 1:\nboom"):
        tool.code_fingerprint(tmp_path, "eval_stream", 7, 10, run=FakeRunner("", returncode=1))
    parent = {"code_objects": 3, "digest": "abc", "functions": {"opalg/a.py:f": "1", "opalg/a.py:g": "2"}}
    assert tool.fingerprint_line("eval_stream", parent, dict(parent)) == "code fingerprint, eval_stream: same (3 code objects)"
    change = {"code_objects": 2, "digest": "abd", "functions": {"opalg/a.py:f": "5", "opalg/a.py:h": "2"}}
    assert tool.fingerprint_line("eval_stream", parent, change) == (
        "code fingerprint, eval_stream: differs (3 -> 2 code objects; 3 functions differ: "
        "opalg/a.py:f, opalg/a.py:g, opalg/a.py:h)")


def test_the_record_holds_a_fingerprint_per_side_and_workload(tool, tmp_path, monkeypatch, capsys):
    parent, change = tmp_path / "parent", tmp_path / "change"
    change.mkdir()
    (change / "BENCHMARK.json").write_text(json.dumps(
        {"run_seconds": 1, "workloads": [{"name": "verify_all"}, {"name": "eval_stream"}],
         "end_to_end": [{"name": "ops_per_s", "better": "higher"}]}))
    fake_pair_run(tool, monkeypatch)
    calls = []

    def fingerprint(checkout, workload, seed, seconds):
        # Only eval_stream's code differs between the sides.
        calls.append((checkout, workload, seed, seconds))
        digest = "e" if checkout == change and workload == "eval_stream" else "d"
        return {"code_objects": 1, "digest": digest, "functions": {"opalg/terms.py:bilinear_sum": digest}}, {}

    monkeypatch.setattr(tool, "code_fingerprint", fingerprint)
    monkeypatch.setattr(tool, "SEEDS", [3, 4])
    out = tmp_path / "BENCH.json"
    tool.main(["--parent", str(parent), "--change", str(change), "--out", str(out)])
    record = json.loads(out.read_text())
    assert calls == [(side, workload, 3, 1) for workload in ("verify_all", "eval_stream") for side in (parent, change)]
    assert {side: {w: f["digest"] for w, f in record[side]["fingerprints"].items()} for side in ("parent", "change")} == {
        "parent": {"verify_all": "d", "eval_stream": "d"}, "change": {"verify_all": "d", "eval_stream": "e"}}
    lines = capsys.readouterr().out.splitlines()
    assert "code fingerprint, verify_all: same (1 code objects)" in lines
    assert "code fingerprint, eval_stream: differs (1 -> 1 code objects; 1 functions differ: opalg/terms.py:bilinear_sum)" in lines


def test_the_record_keeps_the_outlier_lines_that_are_printed(tool, tmp_path, monkeypatch, capsys):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(
        {"run_seconds": 1, "workloads": [{"name": "ordering_large"}], "end_to_end": END_TO_END}))
    fake_pair_run(tool, monkeypatch)
    # Both sides stall at seed 5.
    monkeypatch.setattr(tool, "run_once", lambda checkout, workload, seed, seconds: (
        timed(44 if seed == 5 else 100, 0.5), []))
    monkeypatch.setattr(tool, "SEEDS", [3, 4, 5])
    out = tmp_path / "BENCH.json"
    tool.main(["--parent", str(tmp_path), "--change", str(tmp_path), "--out", str(out)])
    outliers = json.loads(out.read_text())["outliers"]
    assert outliers == [
        f"outlier: ordering_large seed 5 {side}: ops_per_s 44 against its side's median 100 (bound 25%); "
        "p50 0.5 ms, tail 1 ms"
        for side in ("parent", "change")
    ]
    lines = capsys.readouterr().out.splitlines()
    start = lines.index("outliers: 2")
    assert lines[start + 1:start + 3] == outliers
