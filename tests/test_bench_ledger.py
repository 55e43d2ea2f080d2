import importlib.util
import json
import shutil
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "bench_ledger.py"


@pytest.fixture(scope="module")
def ledger():
    spec = importlib.util.spec_from_file_location("bench_ledger", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_the_fused_loop_record_claims_its_p50_alone(ledger):
    lines = ledger.decide("verify_all", "latency_p50_ms", ROOT / "BENCH_44.json")
    assert lines[0] == "pooled: BENCH_44.json"
    assert "change better in 10/10 (5 parent first, 5 change first)" in lines[3]
    assert lines[-1].startswith("CLAIMED: ")


def test_the_same_code_controls_pool_and_their_tail_lean_is_not_met(ledger):
    lines = ledger.decide("verify_all", "latency_tail_ms", ROOT / "BENCH_47.json")
    assert lines[0] == "pooled: BENCH_46.json, BENCH_47.json"
    records, _ = ledger.pool(ROOT / "BENCH_47.json", "verify_all")
    row = ledger.pooled_row(records, "verify_all", "latency_tail_ms", "lower")
    gap, decision = ledger.verdict(row)
    assert (row["wins"], row["pairs"], row["wins_by_first"]) == (16, 20, {"parent": 8, "change": 8})
    assert round(gap, 3) == 0.096
    assert round(row["parent_q3"] - row["parent_q1"], 3) == 0.149
    assert decision == "NOT MET"
    assert lines[-1].startswith("NOT MET: ")


def test_both_integer_merge_records_pool_into_one_p50_claim(ledger):
    lines = ledger.decide("verify_all", "latency_p50_ms", ROOT / "BENCH_48.json")
    assert lines[0] == "pooled: BENCH_48.json, BENCH_48_first.json"
    assert "change better in 19/20 " in lines[3]
    assert lines[-1].startswith("CLAIMED: ")


def test_a_record_whose_parent_ran_other_code_is_never_pooled(ledger):
    # In verify_all, BENCH_45's change side ran the code of both sides of
    # BENCH_46, but its parent did not.  In eval_stream both of its sides ran
    # that code, so there the two records pool.
    with_45, _ = ledger.pool(ROOT / "BENCH_45.json", "verify_all")
    with_46, _ = ledger.pool(ROOT / "BENCH_46.json", "verify_all")
    assert list(with_45) == ["BENCH_45.json"]
    assert "BENCH_46.json" in with_46 and "BENCH_45.json" not in with_46
    assert {"BENCH_45.json", "BENCH_46.json"} <= ledger.pool(ROOT / "BENCH_46.json", "eval_stream")[0].keys()


def test_records_without_fingerprints_are_skipped_and_counted(ledger, tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for name in ("BENCH_40.json", "BENCH_41.json", "BENCH_44.json", "BENCH_45.json"):
        shutil.copy(ROOT / name, tmp_path)
    lines = ledger.decide("verify_all", "ops_per_s", tmp_path / "BENCH_44.json")
    assert lines[:2] == ["pooled: BENCH_44.json", "skipped without a fingerprint: 2"]
    with pytest.raises(SystemExit, match="no code fingerprint"):
        ledger.decide("verify_all", "ops_per_s", tmp_path / "BENCH_40.json")


def test_the_rule_has_three_verdicts(ledger):
    # The parent's quartile distance is 1.0 in every row.
    rows = {
        "CLAIMED": (9, 1.5),  # 9/10, gap 1.5
        "UNRESOLVED": (10, 0.5),  # 10/10, gap 0.5
        "NOT MET": (8, 1.0),  # 8/10, gap 1.0, not larger than the distance
    }
    for expected, (wins, gap) in rows.items():
        for better, change in (("lower", 5 - gap), ("higher", 5 + gap)):
            row = {"better": better, "parent_median": 5, "change_median": change,
                   "parent_q1": 4.5, "parent_q3": 5.5, "wins": wins, "pairs": 10}
            assert ledger.verdict(row) == (gap, expected), (expected, better)
    gap_only = {"better": "lower", "parent_median": 5, "change_median": 2,
                "parent_q1": 4.5, "parent_q3": 5.5, "wins": 5, "pairs": 10}
    assert ledger.verdict(gap_only) == (3, "UNRESOLVED")


def test_the_committed_memo_record_claims_its_verify_all_tail(ledger):
    lines = ledger.decide("verify_all", "latency_tail_ms", ROOT / "BENCH_49.json")
    assert lines[0] == "pooled: BENCH_49.json"
    assert "change better in 10/10 " in lines[3]
    assert lines[-1] == "CLAIMED: verify_all latency_tail_ms over 1 record(s)"
    # One record pooled alone gives the summary row it stores.
    record = json.loads((ROOT / "BENCH_49.json").read_text())
    row = ledger.pooled_row({"BENCH_49.json": record}, "verify_all", "latency_tail_ms", "lower")
    assert row == record["summary"]["verify_all"]["latency_tail_ms"]


def test_the_tool_prints_the_verdict_last_and_rewrites_no_record(ledger, capsys):
    before = {path.name: path.read_bytes() for path in ROOT.glob("BENCH_*.json")}
    assert ledger.main(["--decide", "verify_all", "latency_tail_ms", str(ROOT / "BENCH_46.json")]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[-1] == "NOT MET: verify_all latency_tail_ms over 2 record(s)"
    assert {path.name: path.read_bytes() for path in ROOT.glob("BENCH_*.json")} == before


def test_the_ledger_imports_nothing_from_opalg():
    imports = [line for line in TOOL.read_text().splitlines() if line.startswith(("import ", "from "))]
    assert imports and not any("opalg" in line for line in imports)
