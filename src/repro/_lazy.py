"""Lazy package exports (PEP 562).

A package ``__init__`` names what each submodule exports, and nothing is
imported until one of those names is first read::

    __getattr__ = lazy_exports(__name__, engine="Simulator", rng="RngStreams")

so ``import repro.config`` (which needs ``repro.sim.timebase``) does not
drag in the event engine, and a warm-cache CLI run loads only harness
modules. A name equal to its submodule's resolves to the submodule.
"""

from __future__ import annotations

import importlib
from typing import Any, Callable


def lazy_exports(package: str, **submodules: str) -> Callable[[str], Any]:
    """A module ``__getattr__`` for ``package``.

    Each keyword names a submodule of ``package`` and the space-separated
    names it exports; a name is imported from it on first access.
    """
    owner = {name: sub for sub, names in submodules.items() for name in names.split()}

    def __getattr__(name: str) -> Any:
        sub = owner.get(name)
        if sub is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        module = importlib.import_module(f"{package}.{sub}")
        return module if sub == name else getattr(module, name)

    return __getattr__
