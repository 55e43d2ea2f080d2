import importlib.util
import subprocess
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
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
    runs = []
    for seed, parent, change in pairs:
        runs.append({"workload": "ordering_large", "seed": seed, "side": "parent", "result": parent})
        runs.append({"workload": "ordering_large", "seed": seed, "side": "change", "result": change})
    return runs


def test_summary_gives_medians_quartiles_and_wins(tool):
    rows = tool.summarize(canned_runs(), DIRECTIONS)["ordering_large"]
    assert list(rows) == ["ops_per_s", "latency_p50_ms", "failed_share"]
    ops = rows["ops_per_s"]
    assert (ops["parent_median"], ops["change_median"]) == (105, 125)
    assert ops["change_pct"] == pytest.approx(100 * 20 / 105)
    assert (ops["parent_q1"], ops["parent_q3"]) == (97.5, 112.5)
    assert (ops["wins"], ops["pairs"], ops["better"]) == (3, 4, "higher")
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
        "change better in 3/4 (higher is better)"
    )
    assert "failed_share" in lines[3] and "(n/a)" in lines[3]
    runs = canned_runs()
    line = tool.pair_line("ordering_large", 1, "parent", {"parent": runs[0]["result"], "change": runs[1]["result"]}, DIRECTIONS)
    assert line == "ordering_large seed 1 (parent first): ops_per_s 100 -> 130; latency_p50_ms 0.2 -> 0.15"


def test_seeds_parse_as_ranges_and_single_values(tool):
    assert tool.parse_seeds("82-85,182-185") == [82, 83, 84, 85, 182, 183, 184, 185]
    assert tool.parse_seeds("7") == [7]


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
