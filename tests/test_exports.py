"""The package namespace: `__all__` lists exactly the public names `__init__` imports."""

import inspect

import mgtdispatch


def test_all_lists_every_public_name_once():
    names = mgtdispatch.__all__
    assert len(names) == len(set(names)), sorted(n for n in set(names) if names.count(n) > 1)
    missing = [n for n in names if not hasattr(mgtdispatch, n)]
    assert not missing, missing
    imported = {n for n, v in vars(mgtdispatch).items() if not n.startswith("_") and not inspect.ismodule(v)}
    assert imported <= set(names), sorted(imported - set(names))
