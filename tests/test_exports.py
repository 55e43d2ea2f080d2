"""The package's public surface: ``opalg.__all__``, which the package
derives from the names it imports, is the list pinned here; every name in
it resolves, none repeats, and ``from opalg import *`` binds exactly that
list.  And the package imports from the source tree when one test module
runs alone."""

import os
import subprocess
import sys
from pathlib import Path

import opalg

ROOT = Path(__file__).resolve().parent.parent

# The public surface, written once: a name imported into ``opalg`` by
# accident, or one dropped, changes ``opalg.__all__`` and fails the test below.
PUBLIC_NAMES = [
    "ClassicalPolynomial",
    "EqualityReport",
    "EvalError",
    "FreePolynomial",
    "HBAR",
    "HbarScalar",
    "I",
    "I_HBAR",
    "INV_I_HBAR",
    "Letter",
    "ONE",
    "ObstructionReport",
    "ParseError",
    "UnsupportedFragmentError",
    "Word",
    "WeylMonomial",
    "WeylPolynomial",
    "ZERO",
    "adjoint",
    "check_anticommutator_identity",
    "check_leibniz",
    "check_obstruction",
    "check_von_neumann_equivalence",
    "commutator_bracket",
    "evaluate",
    "expand",
    "expand_polynomial",
    "leibniz_ordinary_product_gap",
    "multiply",
    "normal_form_of_weyl",
    "normal_order",
    "oracle_equal",
    "parse",
    "partial_derivative",
    "poisson_bracket_classical",
    "quantize",
    "render",
    "render_json",
    "render_latex",
    "render_text",
    "result_to_json_dict",
    "substitute_drho",
    "symmetrize",
    "symmetrized_poisson_bracket",
    "weyl_derivative",
    "weyl_product",
]


def test_the_export_list_is_the_pinned_public_surface():
    assert opalg.__all__ == sorted(PUBLIC_NAMES)


def test_every_exported_name_resolves_and_none_repeats():
    assert len(set(opalg.__all__)) == len(opalg.__all__)
    assert [name for name in opalg.__all__ if not hasattr(opalg, name)] == []


def test_a_star_import_binds_exactly_the_export_list():
    namespace: dict = {}
    exec("from opalg import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(PUBLIC_NAMES)


def test_one_test_module_collects_alone_without_pythonpath():
    # pytest's own configuration puts src/ on the path: no install, no
    # PYTHONPATH and no other test directory's conftest is needed.
    env = {name: value for name, value in os.environ.items() if name != "PYTHONPATH"}
    args = ["-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider", "tests/test_exports.py"]
    child = subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )
    assert child.returncode == 0, child.stdout + child.stderr
