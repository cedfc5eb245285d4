"""Lazy package exports (PEP 562): a package imports a submodule only
when one of its names is first used.

A package ``__init__`` lists each export once, with the submodule that
defines it::

    __getattr__, __dir__, __all__ = lazy_exports(__name__, {
        "parse": "parser",                  # repro.jsonvalue.parser.parse
        "github_events": "github:events",   # a renamed export
        "avro": "avro:",                    # the submodule itself
    })

``import repro.translation`` then costs one small module, and each CLI
route loads only the submodules it calls.  The first lookup of a name
imports its submodule and caches the value on the package, so later
lookups are plain attribute reads.  Submodules keep their own names:
code that must see a replaced attribute at call time (a test hook, the
traced benchmark job) reads it from the submodule, not the package.

Shadowing names: importing a submodule for the first time rebinds the
package attribute of the same name to that submodule.  An export named
like a submodule of its own package (``repro.types.merge`` is both a
function and a module) must therefore be bound eagerly in the
``__init__``, after importing that submodule, so no later lazy import
can replace the function with the module.
"""

from __future__ import annotations

import sys
from typing import Any, Callable


def lazy_exports(
    package: str, table: dict[str, str]
) -> tuple[Callable[[str], Any], Callable[[], list[str]], list[str]]:
    """``(__getattr__, __dir__, __all__)`` for ``package`` from an export
    table: each name maps to the submodule that defines it under the same
    name, to ``"module:attr"`` for a renamed export, or to ``"module:"``
    for the submodule itself."""

    def __getattr__(name: str) -> Any:
        try:
            target = table[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        module_name, colon, attr = target.partition(":")
        # __import__ rather than importlib.import_module, so that
        # ``python -X importtime`` lists the submodule too.
        module_name = f"{package}.{module_name}"
        __import__(module_name)
        value = sys.modules[module_name]
        if not colon:
            value = getattr(value, name)
        elif attr:
            value = getattr(value, attr)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted(set(vars(sys.modules[package])) | set(table))

    return __getattr__, __dir__, list(table)
