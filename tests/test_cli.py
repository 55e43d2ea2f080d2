import io
import json
from contextlib import redirect_stdout

import pytest

from opalg.cli import cmd_repl, main


def run_cli(argv):
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = main(argv)
    return code, buffer.getvalue()


def test_eval_text():
    code, out = run_cli(["eval", "normal(S(q^2 p^2))"])
    assert code == 0
    assert out.strip() == "q^2 p^2 - 2 i hbar q p - (1/2) hbar^2"


def test_eval_latex():
    code, out = run_cli(["eval", "S(q^2) o S(p)", "--format", "latex"])
    assert code == 0
    assert out.strip() == r"\hat q^{2} \circ \hat p"


def test_eval_json():
    code, out = run_cli(["eval", "comm(q, p)", "--format", "json"])
    assert code == 0
    assert json.loads(out) == {
        "basis": "free",
        "terms": [{"word": [], "coeff": {"hbar_powers": {"0": {"re": "1", "im": "0"}}}}],
    }


def test_eval_parse_error_exits_2(capsys):
    assert main(["eval", "q o p * q"]) == 2
    assert "error" in capsys.readouterr().err


def test_eval_domain_error_exits_2(capsys):
    assert main(["eval", "S(rho)"]) == 2
    assert "error" in capsys.readouterr().err


# Deeper than the recursive-descent parser can follow at the default
# recursion limit.
DEEP = "(" * 400 + "q" + ")" * 400


def test_eval_too_deep_input_exits_2(capsys):
    assert main(["eval", DEEP]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error:")
    assert "Traceback" not in captured.err


def test_verify_single_suite_text():
    code, out = run_cli(
        ["verify", "--suite", "obstruction", "--max-degree", "2", "--cases", "3"]
    )
    assert code == 0
    assert "suite obstruction" in out
    assert "result: PASS" in out


def test_verify_json_report():
    code, out = run_cli(
        ["verify", "--suite", "eq6", "--max-degree", "3", "--cases", "2", "--format", "json"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["suite"] == "eq6"
    assert payload["passed"] is True


def test_verify_reports_are_byte_identical():
    args = ["verify", "--suite", "all", "--max-degree", "2", "--cases", "5",
            "--seed", "1", "--format", "json"]
    code_a, out_a = run_cli(args)
    code_b, out_b = run_cli(args)
    assert code_a == code_b == 0
    assert out_a == out_b


def test_verify_rejects_bad_config(capsys):
    assert main(["verify", "--max-degree", "0"]) == 2
    assert "error" in capsys.readouterr().err


def test_verification_failure_exits_1(monkeypatch, capsys):
    from opalg import cli
    from opalg.core import FreePolynomial
    from opalg.suites import CheckResult, Failure, SuiteReport

    broken = SuiteReport(
        "eq6",
        (
            CheckResult(
                "ordering-independence",
                3,
                (Failure("p q p", FreePolynomial.one()),),
            ),
        ),
    )
    monkeypatch.setattr(cli, "run_suite", lambda *a, **k: broken)
    assert main(["verify", "--suite", "eq6"]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out
    assert "input:      p q p" in out
    assert "difference: 1" in out


def test_usage_error_exits_2():
    with pytest.raises(SystemExit) as excinfo:
        main(["frobnicate"])
    assert excinfo.value.code == 2


def test_repl_session():
    stdin = io.StringIO(
        "comm(q^2, p)\n"
        "\n"
        ":format latex\n"
        "S(q p)\n"
        ":help\n"
        "q +\n"
        ":quit\n"
    )
    stdout = io.StringIO()
    assert cmd_repl(stdin=stdin, stdout=stdout) == 0
    lines = stdout.getvalue().splitlines()
    assert lines[0] == "2 q"
    assert r"\hat q \circ \hat p" in lines
    assert any(line.startswith("error:") for line in lines)
    assert any(":format FORMAT" in line for line in lines)


def test_repl_keeps_reading_after_too_deep_input():
    stdout = io.StringIO()
    assert cmd_repl(stdin=io.StringIO(f"{DEEP}\nq\n"), stdout=stdout) == 0
    lines = stdout.getvalue().splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("error:")
    assert lines[1] == "q"


def test_repl_eof_terminates():
    assert cmd_repl(stdin=io.StringIO(""), stdout=io.StringIO()) == 0
