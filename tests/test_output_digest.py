import hashlib
import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "output_digest.py"


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("output_digest", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_printed_holds_the_exit_code_and_every_line(tool):
    assert tool.printed(tool.cli.cmd_eval, "normal(p q)", "text") == "0\nq p - i hbar\n"
    assert tool.printed(tool.cli.cmd_eval, "q +", "text").startswith("2\nerror: ")


def test_digest_hashes_each_text_with_a_separator(tool):
    assert tool.digest(["a", "b"]) == hashlib.sha256(b"a\0b\0").hexdigest()
    assert tool.digest(["ab"]) != tool.digest(["a", "b"])


def test_each_part_has_one_digest_per_format(tool):
    parts = {**tool.eval_digests(1, count=20), **tool.ordering_digests(1, rounds=3)}
    parts.update(tool.verify_digests(1, suite="eq6"))
    assert list(parts) == [
        *(f"eval_stream seed 1 {fmt}" for fmt in ("text", "latex", "json")),
        *(f"ordering_large seed 1 {fmt}" for fmt in ("text", "latex", "json")),
        "verify --suite eq6 --seed 1 text",
        "verify --suite eq6 --seed 1 json",
    ]
    assert len(set(parts.values())) == len(parts)
    assert all(len(value) == 64 for value in parts.values())
    assert tool.eval_digests(1, count=20) == tool.eval_digests(1, count=20)
    assert tool.eval_digests(2, count=20) != tool.eval_digests(1, count=20)
    assert tool.ordering_digests(1, rounds=3) == tool.ordering_digests(1, rounds=3)
