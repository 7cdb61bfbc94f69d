"""Lazy package exports (PEP 562).

A package declares each public name once, in a table from name to the
submodule that defines it, and binds what :func:`lazy_exports` returns::

    __getattr__, __dir__, __all__ = lazy_exports(globals(), {"Catalog": "catalog"})

Importing the package then imports none of its submodules.  The first
lookup of a name imports its submodule and caches the name in the package
namespace, so later lookups are plain attribute reads.  A name mapped to
itself is that submodule, and any submodule resolves as an attribute.
"""

from __future__ import annotations

from importlib import import_module
from typing import Callable, Dict, List, Tuple


def lazy_exports(
    namespace: dict, exports: Dict[str, str]
) -> Tuple[Callable[[str], object], Callable[[], List[str]], List[str]]:
    """``(__getattr__, __dir__, __all__)`` for the package whose globals
    are ``namespace``, exporting each key of ``exports`` from the
    submodule it names."""
    package = namespace["__name__"]

    def __getattr__(name: str):
        where = exports.get(name, name)
        try:
            module = import_module(f"{package}.{where}")
        except ModuleNotFoundError as exc:
            if exc.name != f"{package}.{where}":
                raise
            raise AttributeError(f"module {package!r} has no attribute {name!r}") from None
        value = module if where == name else getattr(module, name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(exports))

    return __getattr__, __dir__, list(exports)
