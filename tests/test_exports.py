"""Every exported name resolves: each module's ``__all__`` and the names the
package re-exports."""

import importlib
import pkgutil
import types

import pytest

import fieldtriple

MODULES = sorted(info.name for info in pkgutil.iter_modules(fieldtriple.__path__)
                 if info.name != "__main__")


def _public(module):
    """The module's ``__all__``, or else the public names it defines."""
    if hasattr(module, "__all__"):
        return list(module.__all__)
    return [n for n, v in vars(module).items() if not n.startswith("_")
            and getattr(v, "__module__", None) == module.__name__]


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"fieldtriple.{name}")
    names = getattr(module, "__all__", [])
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(module, n)] == []


def test_package_exports_resolve_to_their_modules():
    # Each name the package re-exports is a public name of some module and
    # the very object that module holds, so the two cannot drift apart.
    homes = {}
    for name in MODULES:
        module = importlib.import_module(f"fieldtriple.{name}")
        for n in _public(module):
            homes[n] = getattr(module, n)
    exported = {n: v for n, v in vars(fieldtriple).items()
                if not n.startswith("_") and not isinstance(v, types.ModuleType)}
    assert "solve_dirichlet" in exported and "NoConvergenceError" in exported
    assert [n for n, v in exported.items()
            if n not in homes or homes[n] is not v] == []
