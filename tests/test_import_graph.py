"""The package's module-level import graph has no cycle.

Each ``src/nle/*.py`` is parsed with ``ast``. An edge runs from a module to
each sibling that one of its statements imports at import time: ``from .x
import ...``, ``from . import x``, ``import nle.x`` and ``from nle import
x``; a name taken from ``nle`` that is not a module is an edge to
``__init__``. Imports inside functions run later and are left out.
Importing each module alone in a fresh interpreter cannot see a cycle made
through ``from . import x``: ``nle/__init__.py`` runs first and fixes the
order in which the cycle resolves.

No module but ``__init__`` (which imports to re-export) imports a name it
never reads, anywhere in the module: such an import is code that nothing
needs, and it keeps a dependency alive that the graph above then shows.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "nle"


def _import_time_nodes(tree: ast.Module):
    """The import statements of ``tree`` outside function bodies."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        stack.extend(ast.iter_child_nodes(node))


def _edges(sources: dict) -> dict:
    """Module -> the sibling modules it imports at import time, for ``sources``
    (module name -> source text)."""
    graph = {}
    for name, text in sources.items():
        targets = set()
        for node in _import_time_nodes(ast.parse(text)):
            if isinstance(node, ast.Import):
                targets |= {a.name.split(".")[1] for a in node.names if a.name.startswith("nle.")}
                continue
            if node.level == 1:
                module = node.module
            elif node.level == 0 and (node.module or "").split(".")[0] == "nle":
                module = node.module.partition(".")[2]  # empty for ``from nle import``
            else:
                continue
            if module:
                targets.add(module.split(".")[0])
            else:  # from the package itself: a module, or a name of __init__
                targets |= {a.name if a.name in sources else "__init__" for a in node.names}
        graph[name] = targets & set(sources) - {name}
    return graph


def _cycle(graph: dict) -> list:
    """One cycle of ``graph`` as a list of modules (first repeated last), or []."""
    done, path = set(), []

    def visit(node):
        if node in path:
            return path[path.index(node):] + [node]
        if node in done:
            return []
        path.append(node)
        for target in sorted(graph[node]):
            found = visit(target)
            if found:
                return found
        path.pop()
        done.add(node)
        return []

    for node in sorted(graph):
        found = visit(node)
        if found:
            return found
    return []


def _package_sources() -> dict:
    return {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}


def test_the_package_import_graph_has_no_cycle():
    graph = _edges(_package_sources())
    # the parser sees the package's real edges, so an empty graph cannot pass
    assert {"qubits", "states"} <= graph["quantify"] and "catalog" in graph["__init__"]
    assert "reproduce" not in graph["cli"]  # imported inside a function only
    assert _cycle(graph) == []


def test_the_check_sees_each_import_form():
    sources = _package_sources()
    for line in ("from . import quantify", "from .quantify import Mode", "import nle.quantify",
                 "from nle import quantify", "from nle.quantify import Mode",
                 "try:\n    from . import quantify\nexcept ImportError:\n    pass"):
        changed = dict(sources, qubits=sources["qubits"] + "\n" + line + "\n")
        assert _cycle(_edges(changed))[:1] in (["quantify"], ["qubits"]), line
    # a name of __init__, which imports every module
    changed = dict(sources, qubits=sources["qubits"] + "\nfrom . import TOL\n")
    assert "__init__" in _cycle(_edges(changed))
    deferred = dict(sources, qubits=sources["qubits"] + "\ndef f():\n    from . import quantify\n")
    assert _cycle(_edges(deferred)) == []


def _unread_imports(text: str) -> set:
    """The names an import of ``text`` binds that no expression of it reads;
    ``from __future__`` imports bind none."""
    tree = ast.parse(text)
    bound = {(a.asname or a.name).split(".")[0] for node in ast.walk(tree)
             if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", "") != "__future__"
             for a in node.names}
    return bound - {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}


def test_no_module_imports_a_name_it_never_reads():
    sources = _package_sources()
    assert {name: _unread_imports(text) for name, text in sources.items()
            if name != "__init__" and _unread_imports(text)} == {}
    # the check sees an unread name, each import form, and a read in any scope
    assert _unread_imports("import math\nfrom .linalg import cnot_family_gather as g\n") == {"math", "g"}
    assert _unread_imports("import numpy.linalg\ndef f():\n    return numpy.linalg\n") == set()
