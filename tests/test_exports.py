"""The package's export list: every name in ``opalg.__all__`` resolves, none
repeats, and ``from opalg import *`` binds exactly that list."""

import opalg


def test_every_exported_name_resolves_and_none_repeats():
    assert len(set(opalg.__all__)) == len(opalg.__all__)
    assert [name for name in opalg.__all__ if not hasattr(opalg, name)] == []


def test_a_star_import_binds_exactly_the_export_list():
    namespace: dict = {}
    exec("from opalg import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(opalg.__all__)
