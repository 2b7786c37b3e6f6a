"""Every name a module lists in ``__all__`` must resolve, so a deletion that
leaves a stale entry behind fails here instead of at a user's star import."""

import importlib
import pkgutil

import pytest

import fingen

MODULES = ["fingen"] + [
    f"fingen.{info.name}" for info in pkgutil.iter_modules(fingen.__path__)
]
WITH_ALL = [name for name in MODULES if hasattr(importlib.import_module(name), "__all__")]


def test_modules_with_public_lists_are_found():
    assert {"fingen", "fingen.probvec", "fingen.typical"} <= set(WITH_ALL)


@pytest.mark.parametrize("name", WITH_ALL)
def test_star_import_resolves_every_public_name(name):
    namespace: dict = {}
    exec(f"from {name} import *", namespace)
    public = importlib.import_module(name).__all__
    assert len(set(public)) == len(public)
    assert set(public) <= set(namespace)
