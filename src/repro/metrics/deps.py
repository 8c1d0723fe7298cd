"""Import-dependency graph over a Python package tree.

The Class Dependency Analyzer the paper uses walks Java class
dependencies; here modules are nodes and import statements are edges,
restricted to modules inside the analyzed root (external imports are
tracked separately as the Java tool tracks JDK/ jar dependencies).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path

import networkx as nx

from repro.sweep.engine import project_files


@dataclass
class DependencyGraph:
    """Module-level import graph for one package root."""

    root: Path
    graph: nx.DiGraph
    external: dict[str, set[str]] = field(default_factory=dict)

    def closure(self, module: str) -> set[str]:
        """The module plus everything it transitively imports (internal)."""
        if module not in self.graph:
            raise KeyError(f"unknown module {module!r}")
        return {module} | nx.descendants(self.graph, module)

    def dependency_count(self, module: str) -> int:
        """Internal closure size plus distinct external imports therein
        — the Table II "Dependencies" analog."""
        closure = self.closure(module)
        externals = set()
        for member in closure:
            externals |= self.external.get(member, set())
        return len(closure) + len(externals)

    def packages_in(self, modules: set[str]) -> set[str]:
        """Distinct package prefixes covered by a module set."""
        return {m.rsplit(".", 1)[0] if "." in m else m for m in modules}

    @property
    def modules(self) -> list[str]:
        return sorted(self.graph.nodes)


def _module_name(path: Path, root: Path, package: str) -> str:
    relative = path.relative_to(root).with_suffix("")
    parts = list(relative.parts)
    if parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join([package, *parts]) if parts else package


def build_dependency_graph(root: str | Path, package: str) -> DependencyGraph:
    """Scan ``root`` (the directory of ``package``) and build the graph.

    Only imports resolving inside ``package`` become edges; everything
    else is recorded as an external dependency of the importing module.
    Relative imports are resolved against the importing module's
    position.
    """
    root = Path(root)
    if not root.is_dir():
        raise NotADirectoryError(f"{root} is not a directory")
    graph = nx.DiGraph()
    external: dict[str, set[str]] = {}
    modules: dict[str, Path] = {}
    paths = project_files(root)
    for path in paths:
        name = _module_name(path, root, package)
        modules[name] = path
        graph.add_node(name)
    known = set(modules)

    for name, path in modules.items():
        try:
            tree = ast.parse(path.read_text(), filename=str(path))
        except SyntaxError:
            continue
        external.setdefault(name, set())
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    _add_edge(graph, external, known, name, alias.name, package)
            elif isinstance(node, ast.ImportFrom):
                target = _resolve_from(node, name, package)
                if target is None:
                    continue
                # `from pkg.x import y` may name a submodule y: prefer
                # the deeper module when it exists, else fall back to
                # the package itself.
                for alias in node.names:
                    deeper = f"{target}.{alias.name}"
                    if deeper in known:
                        _add_edge(graph, external, known, name, deeper, package)
                    else:
                        _add_edge(graph, external, known, name, target, package)
    return DependencyGraph(root=root, graph=graph, external=external)


def _resolve_from(node: ast.ImportFrom, importer: str, package: str) -> str | None:
    if node.level == 0:
        return node.module
    # Relative import: climb from the importer's package.
    parts = importer.split(".")
    # importer is a module; its package is parts[:-1]; each level climbs one.
    base = parts[: len(parts) - node.level]
    if not base:
        return None
    if node.module:
        return ".".join([*base, node.module])
    return ".".join(base)


def _add_edge(
    graph: nx.DiGraph,
    external: dict[str, set[str]],
    known: set[str],
    importer: str,
    imported: str | None,
    package: str,
) -> None:
    if imported is None:
        return
    if imported.startswith(package):
        # Resolve to the longest known prefix: `from repro.ml import x`
        # may name a symbol, not a module.
        candidate = imported
        while candidate and candidate not in known:
            candidate = candidate.rpartition(".")[0]
        if candidate and candidate != importer:
            graph.add_edge(importer, candidate)
    else:
        external.setdefault(importer, set()).add(imported.split(".")[0])
