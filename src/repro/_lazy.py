"""PEP 562 lazy re-exports for the package ``__init__`` modules.

A package ``__init__`` that re-exports names eagerly makes every importer
of any submodule pay for all of them (``import repro.transport.wire`` used
to load the batch engine and scipy; the scalar DES loaded all twelve
controllers, the flight recorder and the wire format).  With
:func:`lazy_exports` the re-exported name resolves on first attribute
access and is then cached in the package namespace, so within a tier a
process loads a submodule only when it first uses it (DESIGN.md §8,
"Start-up cost and import tiers").  Every re-exporting package in
``repro`` uses it; ``repro.obs`` keeps ``metrics`` and ``tracing`` eager,
because every engine probe reads them, and
``repro.algorithms.create_controller`` imports a controller's module with
its first instance.
"""

from __future__ import annotations

import importlib
from typing import Any, Callable, Dict, List, Mapping, Sequence, Tuple


def lazy_exports(
    namespace: Dict[str, Any], exports: Mapping[str, Sequence[str]]
) -> Tuple[Callable[[str], Any], Callable[[], List[str]]]:
    """Return ``(__getattr__, __dir__)`` for the module owning ``namespace``.

    ``exports`` maps a defining module to the names re-exported from it;
    ``namespace`` is the re-exporting module's ``globals()``.
    """
    package = namespace["__name__"]
    origin = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str) -> Any:
        module = origin.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = namespace[name] = getattr(importlib.import_module(module), name)
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(origin))

    return __getattr__, __dir__
