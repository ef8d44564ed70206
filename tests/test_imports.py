"""Every module of ``repro`` imports, and every name it exports exists.

A module-level import of a deleted module, or an ``__all__`` entry
left behind after its definition went, fails here rather than at the
first caller that happens to import that module.
"""

from __future__ import annotations

import importlib
import pkgutil

import repro


def test_every_module_imports_and_resolves_its_exports():
    failures: list[str] = []
    walked = pkgutil.walk_packages(repro.__path__, prefix="repro.", onerror=failures.append)
    names = ["repro", *(info.name for info in walked)]
    for module_name in names:
        try:
            module = importlib.import_module(module_name)
        except Exception as error:  # noqa: BLE001 - report every broken module at once
            failures.append(f"{module_name}: {type(error).__name__}: {error}")
            continue
        for name in getattr(module, "__all__", ()):
            if not hasattr(module, name):
                failures.append(f"{module_name}.__all__ names {name!r}, which the module lacks")
    assert not failures, failures
    assert "repro.engine.tiling" in names
