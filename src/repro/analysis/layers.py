"""The import DAG from docs/ARCHITECTURE.md, as checkable data.

:data:`ALLOWED_IMPORTS` declares, for every top-level member of the
``repro`` package, the set of siblings it may import. The mapping is
the machine-readable twin of the five-layer diagram: requests flow
down (api → server → core → network → sensing), utilities
(``errors``, ``units``, ``storage``, ``query``) sit below everything
that uses them, and the app tier (``cli``, ``perf``, ``parallel``)
sits on top of the facade. ``server`` holds only the per-query
:class:`~repro.server.session.QuerySession` the facade drives, so it
sits between the view tier and ``api``. ``validate_dag`` proves the
declaration is acyclic, so "the architecture is a DAG" is itself a
tested claim, not prose (``tests/test_analysis.py``).

Known deliberate exceptions in the tree — ``sensing`` reaching up to
the columnar backend and the lazy ``parallel``/``perf`` and
``scenarios``/``api`` back-edges — are *not* declared here: they carry
``# repro: allow[layer-dag]`` pragmas at the import site, so each one
stays visible, justified and greppable instead of silently blessed.
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, Iterator, List, Optional, Tuple

_FOUNDATION = frozenset({"errors", "units"})
_DATA = _FOUNDATION | {"storage", "query", "sensing"}
_SIM = _DATA | {"network"}
_ENGINE = _SIM | {"core"}
_VIEW = _ENGINE | {"gui", "scenarios"}
_FACADE = _VIEW | {"api", "server"}

#: package → the packages it may import (its own package is implicit).
ALLOWED_IMPORTS: Dict[str, FrozenSet[str]] = {
    "errors": frozenset(),
    "units": frozenset({"errors"}),
    "storage": _FOUNDATION,
    "query": _FOUNDATION,
    "sensing": _FOUNDATION | {"storage"},
    "network": _DATA,
    "core": _SIM | {"query"},
    "gui": _ENGINE,
    "scenarios": _ENGINE,
    "api": _VIEW | {"server"},
    "analysis": _FOUNDATION,
    "server": _VIEW,
    "parallel": _FACADE,
    "perf": _FACADE | {"parallel"},
    "cli": _FACADE | {"analysis", "parallel", "perf"},
    "__init__": _FACADE,
    "__main__": frozenset({"cli"}),
}


def validate_dag() -> List[str]:
    """Topological order of :data:`ALLOWED_IMPORTS`; raises on a cycle."""
    order: List[str] = []
    state: Dict[str, int] = {}  # 0 visiting, 1 done

    def visit(name: str, chain: Tuple[str, ...]) -> None:
        mark = state.get(name)
        if mark == 1:
            return
        if mark == 0:
            cycle = " -> ".join(chain + (name,))
            raise ValueError(f"layer config contains a cycle: {cycle}")
        state[name] = 0
        for dep in sorted(ALLOWED_IMPORTS.get(name, ())):
            visit(dep, chain + (name,))
        state[name] = 1
        order.append(name)

    for name in sorted(ALLOWED_IMPORTS):
        visit(name, ())
    return order


def resolve_import_targets(
        node: ast.AST,
        module_parts: Tuple[str, ...]) -> Iterator[Tuple[str, str]]:
    """The intra-``repro`` top-level packages an import statement names.

    Yields ``(target_package, imported_as)`` pairs. ``module_parts`` is
    the importing file's package chain below ``repro`` (see
    ``visitor._repro_module_parts``); relative imports resolve against
    it exactly as the interpreter would.
    """
    if isinstance(node, ast.Import):
        for alias in node.names:
            parts = alias.name.split(".")
            if parts[0] == "repro" and len(parts) > 1:
                yield parts[1], alias.name
        return
    if not isinstance(node, ast.ImportFrom):
        return
    if node.level == 0:
        parts = (node.module or "").split(".")
        if parts and parts[0] == "repro":
            if len(parts) > 1:
                yield parts[1], node.module
            else:  # ``from repro import api, errors``
                for alias in node.names:
                    yield alias.name, f"repro.{alias.name}"
        return
    # Relative: resolve against repro.<module_parts>, stripping one
    # trailing component per level (the file itself counts as one).
    base = ("repro",) + module_parts
    if node.level > len(base) - 1:
        return  # escapes the repro package; nothing to check
    base = base[:len(base) - node.level]
    target = base + tuple((node.module or "").split(".")) if node.module \
        else base
    if target[0] != "repro":
        return
    if len(target) > 1:
        yield target[1], ".".join(target)
    else:  # ``from . import x`` at the package root
        for alias in node.names:
            yield alias.name, f"repro.{alias.name}"


def package_of(module_parts: Optional[Tuple[str, ...]]) -> Optional[str]:
    return module_parts[0] if module_parts else None
