"""The package's modules import one another in one direction only."""

import ast
from pathlib import Path

import convattn

PACKAGE = Path(convattn.__file__).parent
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _relative_imports() -> dict[str, list[tuple[str, bool]]]:
    """Module -> [(imported module, inside a function)] for every relative
    import in ``convattn/*.py``, function bodies included."""
    modules = {p.stem for p in PACKAGE.glob("*.py")}
    graph = {}
    for path in sorted(PACKAGE.glob("*.py")):
        edges = []

        def visit(node, in_function):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.ImportFrom) and child.level:
                    targets = ([child.module.split(".")[0]] if child.module else
                               [a.name if a.name in modules else "__init__" for a in child.names])
                    edges.extend((t, in_function) for t in targets)
                visit(child, in_function or isinstance(child, FUNCTIONS))

        visit(ast.parse(path.read_text()), False)
        graph[path.stem] = edges
    return graph


def _cycle(graph: dict[str, list[str]]) -> list[str] | None:
    """One import cycle as a path of modules, or None."""
    state: dict[str, str] = {}

    def walk(node, path):
        state[node] = "open"
        for nxt in graph.get(node, ()):
            if state.get(nxt) == "open":
                return path[path.index(nxt):] + [nxt]
            if nxt not in state and (found := walk(nxt, path + [nxt])):
                return found
        state[node] = "done"
        return None

    for start in sorted(graph):
        if start not in state and (found := walk(start, [start])):
            return found
    return None


def test_cycle_finder_sees_a_cycle():
    assert _cycle({"a": ["b"], "b": ["c"], "c": ["a"], "d": ["a"]}) == ["a", "b", "c", "a"]
    assert _cycle({"a": ["b"], "b": ["c"], "d": ["a", "c"]}) is None


def test_package_imports_are_acyclic_and_at_module_level():
    graph = _relative_imports()
    assert {"config", "checkpoint", "train", "cli", "__init__"} <= graph.keys()
    local = sorted(f"{m} -> {t}" for m, edges in graph.items() for t, in_function in edges if in_function)
    cycle = _cycle({m: [t for t, _ in edges] for m, edges in graph.items()})
    assert (local, cycle) == ([], None)
