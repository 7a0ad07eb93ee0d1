"""Lazy package façades: a package's public names load on first use.

Every package ``__init__`` is a table of *defining submodule -> public
names* handed to :func:`lazy_exports`.  The PEP 562 ``__getattr__`` it
returns imports a name's submodule the first time the name is read and
keeps the value in the package, so ``import repro.fleet`` costs one small
module rather than the whole subtree, and ``from repro.fleet import
FleetCoordinator`` loads the coordinator but not the worker processes.
Any submodule also resolves by name (``repro.fleet.workers``), table or
not.  ``__all__`` is the table's names: ``from package import *`` and
``dir(package)`` see exactly what an eager façade exported.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Dict, List, Mapping, Sequence, Tuple


def lazy_exports(
    package: str, table: Mapping[str, Sequence[str]]
) -> Tuple[Callable[[str], object], Callable[[], List[str]], List[str]]:
    """``(__getattr__, __dir__, __all__)`` for the package named ``package``.

    ``table`` maps a module path relative to the package (``"colt"``,
    ``"core.config"`` from the root package) to the names the package
    re-exports from it.
    """
    origin: Dict[str, str] = {
        name: f"{package}.{module}" for module, names in table.items() for name in names
    }
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str) -> object:
        module = origin.get(name)
        if module is not None:
            value = getattr(importlib.import_module(module), name)
        else:
            if name.startswith("__"):  # dunder probes never name a submodule
                raise AttributeError(f"module {package!r} has no attribute {name!r}")
            try:
                value = importlib.import_module(f"{package}.{name}")
            except ModuleNotFoundError as error:
                if error.name != f"{package}.{name}":
                    raise
                raise AttributeError(
                    f"module {package!r} has no attribute {name!r}"
                ) from None
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(origin))

    return __getattr__, __dir__, sorted(origin)
