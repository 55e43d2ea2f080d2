"""The package's export list: every name in ``opalg.__all__`` resolves, none
repeats, and ``from opalg import *`` binds exactly that list.  And the
package imports from the source tree when one test module runs alone."""

import os
import subprocess
import sys
from pathlib import Path

import opalg

ROOT = Path(__file__).resolve().parent.parent


def test_every_exported_name_resolves_and_none_repeats():
    assert len(set(opalg.__all__)) == len(opalg.__all__)
    assert [name for name in opalg.__all__ if not hasattr(opalg, name)] == []


def test_a_star_import_binds_exactly_the_export_list():
    namespace: dict = {}
    exec("from opalg import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(opalg.__all__)


def test_one_test_module_collects_alone_without_pythonpath():
    # pytest's own configuration puts src/ on the path: no install, no
    # PYTHONPATH and no other test directory's conftest is needed.
    env = {name: value for name, value in os.environ.items() if name != "PYTHONPATH"}
    args = ["-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider", "tests/test_exports.py"]
    child = subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )
    assert child.returncode == 0, child.stdout + child.stderr
