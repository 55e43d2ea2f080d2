import gc
import hashlib
import io
import json
import os
import re
import signal
import subprocess
import sys
import time
import weakref
from contextlib import redirect_stdout

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import opalg
from opalg import cli, printing, suites, weyl
from opalg.cli import cmd_repl, main
from opalg.core import IDENTITY_WORD, FreePolynomial
from opalg.parser import evaluate, parse
from opalg.printing import render, render_json, render_text
from opalg.scalars import HbarScalar
from opalg.weyl import WeylMonomial, normal_form

from .test_core import mccoy_form
from .test_printing import COEFFICIENT_GOLDEN, GOLDEN


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


@pytest.mark.parametrize(
    "source, text, latex, json_text",
    GOLDEN + COEFFICIENT_GOLDEN,
    ids=[row[0] for row in GOLDEN + COEFFICIENT_GOLDEN],
)
def test_eval_prints_the_golden_renders(source, text, latex, json_text):
    for fmt, expected in (("text", text), ("latex", latex), ("json", json_text)):
        assert run_cli(["eval", source, "--format", fmt]) == (0, expected + "\n")


# Reads a JSON list of sources on stdin and prints each one's three renders.
_EVAL_EACH = """
import json, sys
from opalg import cli
for source in json.load(sys.stdin):
    for fmt in ("text", "latex", "json"):
        cli.main(["eval", source, "--format", fmt])
"""


def test_eval_prints_the_same_bytes_under_every_hash_seed():
    # Key hashes include the address of the key class, so they differ
    # between processes; no printed byte may depend on them.
    src = os.path.dirname(os.path.dirname(os.path.abspath(opalg.__file__)))
    sources = json.dumps([row[0] for row in GOLDEN])
    outputs = []
    for seed in ("0", "1"):
        env = {**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed}
        child = subprocess.run(
            [sys.executable, "-c", _EVAL_EACH],
            input=sources, capture_output=True, text=True, env=env, timeout=120,
        )
        assert child.returncode == 0, child.stderr
        outputs.append(child.stdout)
    expected = "".join(f"{text}\n{latex}\n{json_text}\n" for _, text, latex, json_text in GOLDEN)
    assert outputs == [expected, expected]


def test_import_loads_neither_dataclasses_nor_inspect():
    # Cold start: the package's records are tagged tuples.  -S keeps any
    # site hook from importing either module first.
    src = os.path.dirname(os.path.dirname(os.path.abspath(opalg.__file__)))
    code = "import sys, opalg; print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))"
    child = subprocess.run(
        [sys.executable, "-S", "-c", code],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120,
    )
    assert child.returncode == 0, child.stderr
    assert child.stdout == "[]\n"


# Runs one eval and a one-line REPL session, then prints which of the suites
# and ``random`` are loaded.
_EVAL_AND_REPL = """
import io, sys
from opalg.cli import cmd_repl, main
main(["eval", "q p"])
cmd_repl(io.StringIO("S(q) o p\\n"), io.StringIO())
print(sorted({"opalg.suites", "random"} & set(sys.modules)))
"""


def test_cli_import_loads_neither_the_suites_nor_random():
    # eval and the REPL run no suite; only the verify path imports them.
    src = os.path.dirname(os.path.dirname(os.path.abspath(opalg.__file__)))
    child = subprocess.run(
        [sys.executable, "-S", "-c", _EVAL_AND_REPL],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src}, timeout=120,
    )
    assert child.returncode == 0, child.stderr
    assert child.stdout == "q p\n[]\n"


def test_suite_choices_are_the_suite_names_and_all(capsys):
    # argparse takes any --suite; run_suite rejects an unknown one.
    assert len(suites.SUITE_NAMES) == 13
    assert main(["verify", "--suite", "eq7"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    names = ", ".join(repr(name) for name in (*suites.SUITE_NAMES, "all"))
    assert captured.err == f"error: unknown suite 'eq7'; expected one of ({names})\n"


def _held_expansions() -> list:
    """The expansions that the ``expand`` memo holds: the C ``lru_cache``
    reports its results among its referents."""
    memo = weyl._expansion_memo
    held = [x for x in gc.get_referents(memo) if isinstance(x, FreePolynomial)]
    assert len(held) == memo.cache_info().currsize
    return held


def test_expansion_memo_holds_no_expansion_above_its_word_bound():
    # S(q^6 p^6) q lists 924 words and S(q^4 p^4 drho_q) p 630; S(q^2 p) q 3.
    sources = ["S(q^6 p^6) q", "S(q^4 p^4 drho_q) p", "S(q^2 p) q"]
    weyl._expansion_memo.cache_clear()
    for source in sources:
        ok, line = cli._evaluated(source, "text")
        assert ok, line
    session = io.StringIO()
    assert cmd_repl(io.StringIO("\n".join(sources) + "\n"), session) == 0
    assert "(1/924)" in session.getvalue() and "(1/630)" in session.getvalue()
    held = _held_expansions()
    assert [len(x) for x in held] == [3]
    assert all(len(x) <= weyl._MEMO_WORDS for x in held)
    assert sum(map(len, held)) <= weyl._MEMO_WORDS * weyl.expand.cache_info().maxsize


def test_eval_option_like_input_is_one_error_line(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["eval", "-q"])
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: the following arguments are required: expr\n"


def test_eval_parse_error_exits_2(capsys):
    assert main(["eval", "q o p * q"]) == 2
    assert "error" in capsys.readouterr().err


def test_eval_superscript_digit_is_one_error_line(capsys):
    # "²" is a digit to str.isdigit() but not a decimal that int() reads.
    assert main(["eval", "q ²"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: 1:3: unexpected character '²'\n"


# One digit more than int() reads from a string.
INT_DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
LONG = "1" * (INT_DIGIT_LIMIT + 1)
needs_digit_limit = pytest.mark.skipif(
    not INT_DIGIT_LIMIT, reason="int() reads literals of any length here"
)


@needs_digit_limit
def test_eval_too_long_literal_is_one_error_line(capsys):
    assert main(["eval", f"q + {LONG}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    digits = f"({INT_DIGIT_LIMIT + 1} > {INT_DIGIT_LIMIT} digits)"
    assert captured.err == f"error: 1:5: integer literal too long {digits}\n"


@needs_digit_limit
def test_eval_too_long_exponent_is_one_error_line(capsys):
    assert main(["eval", f"q^{LONG}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: 1:3: integer literal too long")
    assert len(captured.err.splitlines()) == 1


# 2^15000 has 4,516 digits.
HUGE = "2^15000"


@needs_digit_limit
@pytest.mark.parametrize("fmt", ["text", "latex", "json"])
def test_eval_too_long_coefficient_is_one_error_line(capsys, fmt):
    assert main(["eval", HUGE, "--format", fmt]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    digits = f"(more than {INT_DIGIT_LIMIT} digits)"
    assert captured.err == f"error: coefficient too long to print {digits}\n"


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


def test_eval_reads_back_a_thousand_term_value():
    value = evaluate(parse("(q + p)^10"))
    code, out = run_cli(["eval", "(q + p)^10"])
    assert code == 0
    assert len(out) > 18000 and len(value) == 1024
    code, again = run_cli(["eval", out.strip()])
    assert code == 0
    assert again == out
    assert evaluate(parse(out)) == value


def test_eval_long_sum_chain():
    assert run_cli(["eval", " + ".join(["q"] * 1200)]) == (0, "1200 q\n")
    assert run_cli(["eval", " - ".join(["q"] * 1201)]) == (0, "-1199 q\n")
    assert run_cli(["eval", " o ".join(["q"] * 1200)]) == (0, "S(q^1200)\n")


def test_eval_normal_order_of_high_powers(capsys):
    assert main(["eval", "normal(p^33 q^33)"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    lines = captured.out.splitlines()
    assert len(lines) == 1
    terms = re.split(r" [+-] ", lines[0])
    assert len(terms) == 34
    assert terms[0] == "q^33 p^33"
    assert terms[1] == "1089 i hbar q^32 p^32"


def test_eval_normal_of_a_large_symmetrized_monomial_is_mccoys_form():
    code, out = run_cli(["eval", "normal(S(q^30 p^30))", "--format", "json"])
    assert code == 0
    assert out == render_json(mccoy_form(30, 30)) + "\n"


def test_eval_commutator_of_large_symmetrized_monomials():
    start = time.perf_counter()
    code, out = run_cli(["eval", "comm(S(q^12 p^10), S(q^9 p^11))"])
    assert code == 0 and time.perf_counter() - start < 2
    value = evaluate(parse(out))
    # The commutator agrees with the symmetric bracket up to hbar^2.
    gap = value - normal_form(evaluate(parse("pb(S(q^12 p^10), S(q^9 p^11))")))
    assert not gap.is_zero
    assert all(c.hbar_power >= 2 for _, c in gap.items())
    # The classical bracket: (12*11 - 10*9) q^20 p^20.
    grade_0 = [(str(word), c) for word, c in value.items() if c.hbar_power == 0]
    assert grade_0 == [(" ".join(["q"] * 20 + ["p"] * 20), HbarScalar.of(42))]


def raise_memory_error(node):
    raise MemoryError


def test_eval_memory_error_exits_2(monkeypatch, capsys):
    monkeypatch.setattr(cli, "evaluate", raise_memory_error)
    assert main(["eval", "q"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: MemoryError"]
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


def test_verify_memory_error_exits_2(monkeypatch, capsys):
    def run_suite(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(suites, "run_suite", run_suite)
    assert main(["verify", "--suite", "eq6"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: MemoryError"]
    assert "Traceback" not in captured.err


def test_verification_failure_exits_1(monkeypatch, capsys):
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
    monkeypatch.setattr(suites, "run_suite", lambda *a, **k: broken)
    assert main(["verify", "--suite", "eq6"]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out
    assert "input:      p q p" in out
    assert "difference: 1" in out


# The sha256 of `opalg verify --suite eq10 --max-degree 2 --cases 3 --seed 1`
# with `weyl_product(x, y) + x` standing in for the symmetric product, also
# in the difference `a o b - c o d` that commutativity and associativity sum
# in one term map: every check but bilinearity fails, so the digests pin each
# failure's input label and difference, byte for byte.
FAILURE_REPORT_DIGESTS = {
    "text": "46d45d4e81b0b55156c9f96c399f7ad099ac60521bff3fe541c46768656fedc2",
    "json": "213b9d09d44be9704eea6295373a0d5cf54641b829265ad360b5a50ff363a8cf",
}


@pytest.mark.parametrize("fmt", sorted(FAILURE_REPORT_DIGESTS))
def test_verify_failure_report_is_pinned(monkeypatch, fmt):
    product = suites.weyl_product

    def faulty(x, y):
        return product(x, y) + x

    monkeypatch.setattr(suites, "weyl_product", faulty)
    monkeypatch.setattr(
        suites, "_product_difference", lambda a, b, c, d: faulty(a, b) - faulty(c, d)
    )
    code, out = run_cli(
        ["verify", "--suite", "eq10", "--max-degree", "2", "--cases", "3", "--seed", "1",
         "--format", fmt]
    )
    assert code == 1
    assert out.count("input") == 27
    assert hashlib.sha256(out.encode()).hexdigest() == FAILURE_REPORT_DIGESTS[fmt]


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


def format_messages(value, capsys) -> tuple[str, str, str]:
    """render's unknown-format error, the REPL's ``:format`` usage line and
    the ``eval --format`` choice error, for the format ``xml``."""
    with pytest.raises(ValueError) as excinfo:
        render(value, "xml")
    stdout = io.StringIO()
    cmd_repl(stdin=io.StringIO(":format xml\n"), stdout=stdout)
    with pytest.raises(SystemExit) as exit_info:
        main(["eval", "q", "--format", "xml"])
    assert exit_info.value.code == 2
    return str(excinfo.value), stdout.getvalue(), capsys.readouterr().err


def test_format_names_follow_the_printing_table(monkeypatch, capsys):
    value = evaluate(parse("q p"))
    assert format_messages(value, capsys) == (
        "unknown format 'xml'; expected one of ('text', 'latex', 'json')",
        "usage: :format text|latex|json\n",
        "error: argument --format: invalid choice: 'xml' (choose from 'text', 'latex', 'json')\n",
    )
    assert "  :format FORMAT   set the output format (text, latex, json)" in cli._REPL_HELP.splitlines()
    # A format added to the table is accepted and listed everywhere.
    monkeypatch.setitem(printing._RENDERERS, "upper", lambda x: render_text(x).upper())
    assert format_messages(value, capsys) == (
        "unknown format 'xml'; expected one of ('text', 'latex', 'json', 'upper')",
        "usage: :format text|latex|json|upper\n",
        "error: argument --format: invalid choice: 'xml' (choose from 'text', 'latex', 'json', 'upper')\n",
    )
    assert run_cli(["eval", "q p", "--format", "upper"]) == (0, "Q P\n")
    stdout = io.StringIO()
    cmd_repl(stdin=io.StringIO(":format upper\nq p\n"), stdout=stdout)
    assert stdout.getvalue() == "Q P\n"
    assert render(value, "upper") == "Q P"


def test_repl_keeps_reading_after_too_deep_input():
    stdout = io.StringIO()
    assert cmd_repl(stdin=io.StringIO(f"{DEEP}\nq\n"), stdout=stdout) == 0
    lines = stdout.getvalue().splitlines()
    assert len(lines) == 2
    assert lines[0].startswith("error:")
    assert lines[1] == "q"


@needs_digit_limit
def test_repl_keeps_reading_after_too_long_literal():
    stdout = io.StringIO()
    assert cmd_repl(stdin=io.StringIO(f"{LONG}\nq^{LONG}\nq\n"), stdout=stdout) == 0
    lines = stdout.getvalue().splitlines()
    assert len(lines) == 3
    assert lines[0].startswith("error: 1:1: integer literal too long")
    assert lines[1].startswith("error: 1:3: integer literal too long")
    assert lines[2] == "q"


@needs_digit_limit
def test_repl_keeps_reading_after_too_long_coefficient():
    stdout = io.StringIO()
    session = f"{HUGE}\n:format json\n{HUGE} q\n2^10\n"
    assert cmd_repl(stdin=io.StringIO(session), stdout=stdout) == 0
    lines = stdout.getvalue().splitlines()
    assert len(lines) == 3
    assert lines[0] == lines[1] == (
        f"error: coefficient too long to print (more than {INT_DIGIT_LIMIT} digits)"
    )
    assert json.loads(lines[2])["terms"][0]["coeff"]["hbar_powers"]["0"]["re"] == "1024"


def test_repl_keeps_reading_after_memory_error(monkeypatch):
    real_evaluate = cli.evaluate
    pending = [MemoryError]

    def evaluate(node):
        if pending:
            raise pending.pop()
        return real_evaluate(node)

    monkeypatch.setattr(cli, "evaluate", evaluate)
    stdout = io.StringIO()
    assert cmd_repl(stdin=io.StringIO("q^2\nq\n"), stdout=stdout) == 0
    assert stdout.getvalue().splitlines() == ["error: MemoryError", "q"]


def test_repl_eof_terminates():
    assert cmd_repl(stdin=io.StringIO(""), stdout=io.StringIO()) == 0


@pytest.mark.parametrize(
    "source, fmt, ok",
    [
        ("q p", "text", True),
        ("q p", "latex", True),
        ("q p", "json", True),
        ("1/0", "text", False),  # ParseError
        ("q^-1", "text", False),  # EvalError
        ("S(rho)", "text", False),  # UnsupportedFragmentError, raised at the call
        (DEEP, "text", False),  # RecursionError
        pytest.param(HUGE, "json", False, marks=needs_digit_limit),  # too long to print
    ],
    ids=["text", "latex", "json", "parse", "eval", "fragment", "deep", "coefficient"],
)
def test_eval_and_repl_print_the_same_line(capsys, source, fmt, ok):
    code = cli.cmd_eval(source, fmt)
    captured = capsys.readouterr()
    shown, silent = (captured.out, captured.err) if ok else (captured.err, captured.out)
    assert code == (0 if ok else 2)
    assert silent == ""
    assert len(shown.splitlines()) == 1
    assert shown.startswith("error: ") != ok
    stdout = io.StringIO()
    assert cmd_repl(stdin=io.StringIO(f":format {fmt}\n{source}\n"), stdout=stdout) == 0
    assert stdout.getvalue() == shown


# -- the exit contract at the process boundary -------------------------------


def _child(code: str) -> subprocess.Popen:
    """A Python child running ``code`` against this checkout's package."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(opalg.__file__)))
    return subprocess.Popen(
        [sys.executable, "-c", code],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": src},
    )


_MAIN = "import sys; from opalg import cli; sys.exit(cli.main({argv!r}))"


@pytest.mark.parametrize(
    "argv, stdin", [(["eval", "(q+p)^12"], b""), (["repl"], b"(q+p)^12\n")], ids=["eval", "repl"]
)
def test_closed_output_ends_quietly(argv, stdin):
    # The text of (q+p)^12 is about 86 kB, more than a pipe holds, so the
    # child is still writing when the reader goes.
    child = _child(_MAIN.format(argv=argv))
    child.stdin.write(stdin)
    child.stdin.close()
    assert child.stdout.read(1) == b"p"
    child.stdout.close()
    err = child.stderr.read()
    child.stderr.close()
    assert child.wait(timeout=120) == cli.EXIT_OUTPUT_CLOSED == 141
    assert err == b""


def test_interrupt_ends_with_one_error_line():
    # (q+p)^18 lists 262,144 words, seconds of work; the child says when it
    # has imported the package, and is interrupted well inside the work.
    code = (
        "import sys; from opalg import cli; print('ready', file=sys.stderr, flush=True); "
        "sys.exit(cli.main(['eval', '(q+p)^18']))"
    )
    child = _child(code)
    assert child.stderr.readline() == b"ready\n"
    time.sleep(0.5)
    child.send_signal(signal.SIGINT)
    out, err = child.communicate(timeout=120)
    assert child.returncode == cli.EXIT_INTERRUPTED == 130
    assert out == b""
    assert err == b"error: interrupted\n"


def test_memory_error_under_an_address_space_limit_is_one_error_line():
    pytest.importorskip("resource")  # the child lowers its own limit
    limit = 200 * 2**20
    code = (
        "import resource; "
        f"resource.setrlimit(resource.RLIMIT_AS, ({limit}, {limit})); "
        + _MAIN.format(argv=["eval", "S(q^12 p^12) q"])
    )
    child = _child(code)
    out, err = child.communicate(timeout=120)
    assert child.returncode == 2
    assert out == b""
    assert err == b"error: MemoryError\n"


def test_memory_error_line_is_built_after_the_failed_frames_are_freed(monkeypatch):
    # The frames of an evaluation that ran out of memory hold its partial
    # term maps; they must be gone before the error line needs memory.
    class Partial:
        pass

    partials, alive_at_write = [], []

    def evaluate(node):
        partial = Partial()
        partials.append(weakref.ref(partial))
        raise MemoryError

    class Stream(io.StringIO):
        def write(self, text):
            alive_at_write.append(partials[-1]() is not None)
            return super().write(text)

    monkeypatch.setattr(cli, "evaluate", evaluate)
    monkeypatch.setattr(sys, "stderr", Stream())
    assert main(["eval", "q"]) == 2
    stdout = Stream()
    assert cmd_repl(stdin=io.StringIO("q\n"), stdout=stdout) == 0
    assert sys.stderr.getvalue() == stdout.getvalue() == "error: MemoryError\n"
    assert len(partials) == 2
    assert alive_at_write and not any(alive_at_write)


# -- exit contract under fuzzed input ----------------------------------------

_LETTERS = ("q", "p", "rho", "drho_q", "drho_p")
_NUMBERS = ("0", "1", "2", "3", "4", "-1", "-4", "1/2", "-3/4", "4/3")
_FUNCS = ("S", "dq", "dp", "normal")
_TOKENS = (
    _LETTERS
    + _NUMBERS
    + ("hbar", "i", "S", "pb", "comm", "dq", "dp", "normal")
    + ("+", "-", "*", "o", "\u2218", "^", "/", "(", ")", ",")
)
_MAX_EXPONENT = 4
# A bound on the operator degree keeps each value, its text and the parse of
# that text small enough to check hundreds of examples.
_MAX_DEGREE = 6


@st.composite
def _expr(draw, depth: int, budget: int) -> tuple[str, int]:
    """A grammar expression with at most ``depth`` nested groups or calls and
    operator degree at most ``budget``, with its degree bound."""
    terms = [draw(_term(depth, budget)) for _ in range(draw(st.integers(1, 3)))]
    text = terms[0][0]
    for term, _ in terms[1:]:
        text += draw(st.sampled_from((" + ", " - "))) + term
    return text, max(degree for _, degree in terms)


@st.composite
def _term(draw, depth: int, budget: int) -> tuple[str, int]:
    factors = []
    for _ in range(draw(st.integers(1, 3))):
        factors.append(draw(_factor(depth, budget)))
        budget -= factors[-1][1]
    separator = draw(st.sampled_from((" ", " * ", " o ")))
    return separator.join(text for text, _ in factors), sum(degree for _, degree in factors)


@st.composite
def _factor(draw, depth: int, budget: int) -> tuple[str, int]:
    exponent = draw(st.none() | st.integers(0, _MAX_EXPONENT))
    inner = budget // exponent if exponent else budget
    kinds = ["number", "scalar"] + ["letter"] * 3 * (inner > 0) + ["group", "call"] * (depth > 0)
    kind = draw(st.sampled_from(kinds))
    if kind == "number":
        text, degree = draw(st.sampled_from(_NUMBERS)), 0
    elif kind == "scalar":
        text, degree = draw(st.sampled_from(("hbar", "i", "hbar^-1"))), 0
        if text == "hbar^-1":
            return text, 0
    elif kind == "letter":
        text, degree = draw(st.sampled_from(_LETTERS)), 1
    elif kind == "group":
        text, degree = draw(_expr(depth - 1, inner))
        text = f"({text})"
    elif draw(st.booleans()):
        text, degree = draw(_expr(depth - 1, inner))
        text = f"{draw(st.sampled_from(_FUNCS))}({text})"
    else:
        first, d1 = draw(_expr(depth - 1, inner))
        second, d2 = draw(_expr(depth - 1, inner - d1))
        text, degree = f"{draw(st.sampled_from(('pb', 'comm')))}({first}, {second})", d1 + d2
    if exponent is None:
        return text, degree
    return f"{text}^{exponent}", degree * exponent


_grammar_expressions = _expr(3, _MAX_DEGREE).map(lambda pair: pair[0])
_token_strings = st.builds(
    str.join, st.sampled_from((" ", "")), st.lists(st.sampled_from(_TOKENS), max_size=16)
)


def _scalar_parts(x):
    """The grade -> coefficient map of a multiple of the identity, else None."""
    if any(key not in (IDENTITY_WORD, WeylMonomial(0, 0)) for key, _ in x.items()):
        return None
    return {c.hbar_power: c for _, c in x.items()}


def _same_value(a, b) -> bool:
    """Equal as operators: the printer writes a scalar of either basis as a
    bare number, which parses into the free basis."""
    if type(a) is type(b):
        return a == b
    parts = _scalar_parts(a)
    return parts is not None and parts == _scalar_parts(b)


@settings(max_examples=200, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(expr=_grammar_expressions | _token_strings)
def test_eval_keeps_the_exit_contract(expr, capsys):
    capsys.readouterr()
    try:
        code = main(["eval", expr])
    except SystemExit as exc:  # argparse reports usage errors this way
        code = exc.code
    captured = capsys.readouterr()
    assert code in (0, 2)
    assert "Traceback" not in captured.out + captured.err
    if code == 2:
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error:")
        return
    assert captured.err == ""
    printed = captured.out.removesuffix("\n")
    assert _same_value(evaluate(parse(printed)), evaluate(parse(expr)))
