"""Tests of the benchmark's own parts.

Run from the repository root: ``python3 -m pytest -q perfbench/tests``.
"""

import itertools
import json
import os
import shutil
import subprocess
import sys

import pytest

import calibrate
import jobs
import reference
import run
import tracer
import workloads
from conftest import BENCH, ROOT
from opalg import FreePolynomial, Letter, WeylMonomial, Word, normal_form_of_weyl, normal_order


def test_same_seed_gives_same_inputs():
    assert workloads.eval_stream(7, 300) == workloads.eval_stream(7, 300)
    assert workloads.ordering_large(7, 12) == workloads.ordering_large(7, 12)
    assert workloads.eval_stream(7, 300) != workloads.eval_stream(8, 300)
    assert workloads.ordering_large(7, 12) != workloads.ordering_large(8, 12)


def test_generated_expressions_evaluate_and_pass_their_checks():
    items = workloads.eval_stream(3, 400)
    result = jobs.run_eval({"exprs": items, "check": True}, None)
    assert result["ops"] == 400
    assert result["failed"] == 0, result["failed_examples"]


@pytest.mark.parametrize("length", range(7))
def test_reference_normal_form_agrees_with_package(length):
    for letters in itertools.product("qp", repeat=length):
        word = Word(tuple(Letter.Q if ch == "q" else Letter.P for ch in letters))
        got = jobs.to_reference(normal_order(FreePolynomial.from_word(word)))
        assert got == reference.normal_word("".join(letters)), letters


def test_reference_closed_forms_agree_with_package():
    for a in range(7):
        for b in range(7):
            word = Word((Letter.P,) * b + (Letter.Q,) * a)
            assert jobs.to_reference(normal_order(FreePolynomial.from_word(word))) == reference.normal_pq(a, b)
            if a + b <= 6:
                assert jobs.to_reference(normal_form_of_weyl(WeylMonomial(a, b))) == reference.mccoy(a, b)


def test_ordering_operations_pass_their_checks():
    ops = workloads.ordering_large(5, 4)
    assert {op["kind"] for op in ops} == {"normal_pq", "normal_weyl", "comm", "oracle"}
    result = jobs.run_ordering({"ops": ops, "check": True}, None)
    assert result["failed"] == 0, result["failed_examples"]


def test_wrong_output_counts_as_failed(monkeypatch):
    ops = workloads.ordering_large(5, 4)
    monkeypatch.setattr(jobs.opalg, "normal_order", lambda x: x)
    result = jobs.run_ordering({"ops": ops, "check": True}, None)
    # commutator_bracket normal-orders through its own module, so only the
    # two normal-ordering kinds go wrong.
    wrong = sum(op["kind"] in ("normal_pq", "normal_weyl") for op in ops)
    assert result["failed"] == wrong

    items = workloads.eval_stream(3, 50)
    monkeypatch.setattr(jobs.opalg, "render_text", lambda x: "q")
    assert jobs.run_eval({"exprs": items, "check": True}, None)["failed"] > 0


def test_outputs_that_differ_between_runs_count_as_failed():
    results = [{"ops": 10, "digest": "a"}, {"ops": 10, "digest": "a"}, {"ops": 10, "digest": "b"}]
    assert run.mismatched_ops(results) == 10
    assert run.mismatched_ops(results[:2]) == 0


def test_verify_children_run_suite_seeds_of_their_own():
    jobs = run.child_jobs(run.make_job("verify_all", 7, 10))
    assert [job["seed"] for job in jobs] == [14, 15]
    assert not run.same_inputs(jobs)
    jobs = run.child_jobs(run.make_job("ordering_large", 7, 1))
    assert run.same_inputs(jobs) and [job["check"] for job in jobs] == [True, False]


def test_stress_input_that_times_out_is_counted(monkeypatch):
    monkeypatch.setattr(
        workloads,
        "STRESS",
        (
            {"expr": "S(q^100000 p^100000)", "expect": ["weyl_monomial", 100000, 100000]},
            {"expr": "normal(p^2 q^2)", "expect": ["normal_pq", 2, 2]},
            {"expr": "normal(p^2 q^2)", "expect": ["normal_pq", 3, 2]},
        ),
    )
    monkeypatch.setattr(workloads, "STRESS_SECONDS", 1)
    rows = run.stress_table(os.path.join(ROOT, "src"))
    assert [outcome for _, outcome, _ in rows] == ["time limit", "ok", "wrong result"]
    assert run.stress_failed(rows) == 2


def test_calibration_cancels_a_slower_machine():
    latencies = [0.001 * (1 + i % 3) for i in range(40)]
    marks = [0, 10, 20, 30, 40]
    samples = [0.004, 0.005, 0.006, 0.005, 0.004]
    fast = calibrate.normalised(latencies, {"marks": marks, "samples": samples})
    slow = calibrate.normalised([2 * t for t in latencies], {"marks": marks, "samples": [2 * s for s in samples]})
    assert slow == pytest.approx(fast)


def test_calibration_scales_by_the_samples_around_each_operation(monkeypatch):
    monkeypatch.setattr(calibrate, "HALF_WINDOW", 1)
    factors = calibrate.scales(40, [0, 10, 20, 30, 40], [1.0, 2.0, 4.0, 8.0, 8.0])
    # Operation 15 ran between the samples taken after 10 and 20 operations.
    assert factors[15] == pytest.approx(calibrate.NOMINAL_S / 3.0)


def test_tail_percentile_keeps_ten_samples_beyond():
    assert run.tail([float(i) for i in range(1000)])[::2] == (99, 10)
    assert run.tail([float(i) for i in range(999)])[::2] == (90, 99)
    assert run.tail([float(i) for i in range(15)])[0] == 50


def _bench(args, cwd):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def test_traced_run_reports_every_per_layer_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    out = _bench(["--workload", "eval_stream", "--seed", "1", "--seconds", "1", "--trace", "1"], ROOT)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m["name"] for m in spec["per_layer"]}
    assert result["metrics"]["parser.parse.calls"]["value"] == workloads.EVAL_PER_SECOND

    names, spans = tracer.read_spans(os.path.join(ROOT, ".perfbench", "spans-eval_stream.bin"))
    assert len(spans["start"]) == len(spans["end"]) > 0
    assert all(e >= s for s, e in zip(spans["start"], spans["end"]))
    assert "parser.evaluate" in names


def test_untraced_run_reports_every_end_to_end_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    out = _bench(["--workload", "eval_stream", "--seed", "2", "--seconds", "1", "--trace", "0"], ROOT)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == {m["name"] for m in spec["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_the_sources():
    bare = os.path.join(ROOT, ".perfbench", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(BENCH, os.path.join(bare, "perfbench"), ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    try:
        out = _bench(["--workload", "eval_stream", "--seed", "1", "--seconds", "1", "--trace", "0"], bare)
    finally:
        shutil.rmtree(bare)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
