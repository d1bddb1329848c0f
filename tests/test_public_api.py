"""The package exports only names that exist: a deletion that leaves a
name in __all__ breaks `from contextant import *`."""

import contextant


def test_star_import_resolves_every_export():
    namespace = {}
    exec("from contextant import *", namespace)
    assert [name for name in contextant.__all__ if name not in namespace] == []
