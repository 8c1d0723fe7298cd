"""Transform base class, the fix context and the applied-change record."""

from __future__ import annotations

import abc
import ast
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator

from repro.semantics._astutil import child_nodes

if TYPE_CHECKING:
    from repro.semantics import SemanticModel

_SCOPE_NODES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Module)


@dataclass(frozen=True)
class AppliedChange:
    """One mechanical rewrite performed on a tree."""

    transform_id: str
    rule_id: str
    line: int
    description: str


class Transform(abc.ABC):
    """The fix builder for one analyzer rule.

    The optimizer hands :meth:`fix` each kept finding of the rule, as
    the node the detector anchored it to.  The transform does no search
    of its own: it checks its safety gates at that node and rewrites
    through the :class:`FixContext` helpers.  Rewrites must be
    *semantics-preserving under their stated preconditions*; anything
    requiring judgment stays a suggestion.
    """

    transform_id: str
    rule_id: str
    #: Bump when the rewrite logic changes; the registry fingerprint
    #: folds this in so cached optimizer sweep results are invalidated
    #: when the transform itself changes.
    version: int = 1
    #: Pipeline position (lower runs earlier).  Statement-level splices
    #: take the 10s, expression rewrites the 20s, hoists the 30s, loop
    #: restructurings the 40s, and the loop swap runs last (90).
    #: ``RuleRegistry.transform_classes`` sorts on this, and a pass
    #: applies its fixes in this order, then by source position.
    application_order: int = 50

    @abc.abstractmethod
    def fix(self, node: ast.AST, ctx: "FixContext") -> AppliedChange | None:
        """Rewrite at a finding's anchor ``node``.

        Returns the change, or None when a gate fails — and then the
        tree must be untouched.
        """

    def _change(self, node: ast.AST, description: str) -> AppliedChange:
        return AppliedChange(
            transform_id=self.transform_id,
            rule_id=self.rule_id,
            line=getattr(node, "lineno", 0),
            description=description,
        )


class FixContext:
    """One optimizer pass's view of the live tree, for its fixes.

    Carries the tree, the pass's :class:`~repro.semantics.SemanticModel`
    (built when the pass began), parent links, and a ``memo`` where the
    running transform keeps facts it shares across its fixes of the pass
    (each transform gets a fresh one).  Transforms rewrite only through
    :meth:`replace`, :meth:`insert`, :meth:`remove` and :meth:`touch`,
    which keep the links current and record each changed statement for
    :meth:`apply`.
    """

    def __init__(self, tree: ast.Module, semantics: "SemanticModel") -> None:
        self.tree = tree
        self._semantics = semantics
        self._stale = False
        self.memo: dict = {}
        self._parents: dict[ast.AST, ast.AST] = {}
        self._adopt(tree)
        self._transform: Transform | None = None
        #: statements the running transform changed
        self._touched: list[ast.AST] = []
        #: statements, and functions or modules holding code, that the
        #: transforms before the running one changed
        self._changed: set[ast.AST] = set()
        self._changed_scopes: set[ast.AST] = set()

    @property
    def semantics(self) -> "SemanticModel":
        """The pass's model of the tree as the pass began.

        Where an earlier transform of the pass changed the anchor's
        function (or module) the model is stale, and reading it makes
        the fix wait for the next pass.  Read it before rewriting.
        """
        if self._stale:
            raise _StaleModel
        return self._semantics

    # -- navigation -------------------------------------------------------

    def parent(self, node: ast.AST) -> ast.AST | None:
        return self._parents.get(node)

    def ancestors(self, node: ast.AST) -> Iterator[ast.AST]:
        """Parent, grandparent, … up to the module."""
        node = self.parent(node)
        while node is not None:
            yield node
            node = self.parent(node)

    def statement(self, node: ast.AST) -> ast.AST:
        """The innermost statement at or above ``node``."""
        return next(
            stmt
            for stmt in (node, *self.ancestors(node))
            if isinstance(stmt, (ast.stmt, ast.Module))
        )

    def body_of(self, stmt: ast.stmt) -> list[ast.stmt]:
        """The statement list that holds ``stmt``."""
        return self._field_of(stmt)[1]

    def _field_of(self, node: ast.AST) -> tuple[str, object]:
        """(name, value) of the parent's field that holds ``node``."""
        return next(
            (name, value)
            for name, value in ast.iter_fields(self.parent(node))
            if value is node
            or (isinstance(value, list) and any(item is node for item in value))
        )

    # -- rewriting --------------------------------------------------------

    def replace(self, old: ast.AST, new: ast.AST) -> ast.AST:
        """Put ``new`` (located at ``old``) where ``old`` is."""
        parent = self.parent(old)
        field, value = self._field_of(old)
        if value is old:
            setattr(parent, field, new)
        else:
            value[[id(item) for item in value].index(id(old))] = new
        ast.fix_missing_locations(ast.copy_location(new, old))
        self._parents[new] = parent
        self._adopt(new)
        self._touched += (self.statement(old), self.statement(new))
        return new

    def insert(self, stmt: ast.stmt, new: ast.stmt, *, after: bool = False) -> None:
        """Insert ``new`` just before (or after) ``stmt`` in its body."""
        body = self.body_of(stmt)
        if not hasattr(new, "lineno"):  # a moved statement keeps its own
            ast.copy_location(new, stmt)
        ast.fix_missing_locations(new)
        body.insert([id(item) for item in body].index(id(stmt)) + after, new)
        self._parents[new] = self._parents[stmt]
        self._adopt(new)
        self._touched.append(new)

    def remove(self, stmt: ast.stmt) -> None:
        """Take ``stmt`` out of its body (re-insert it to move it)."""
        body = self.body_of(stmt)
        del body[[id(item) for item in body].index(id(stmt))]
        self._touched.append(stmt)

    def touch(self, stmt: ast.stmt) -> None:
        """Record an in-place change to ``stmt`` (its direct children may
        have been swapped or renamed)."""
        self._parents.update(dict.fromkeys(child_nodes(stmt), stmt))
        self._touched.append(stmt)

    def _adopt(self, root: ast.AST) -> None:
        """Record the parent of every node below ``root``."""
        parents, children, stack = self._parents, child_nodes, [root]
        while stack:
            node = stack.pop()
            below = children(node)
            parents.update(dict.fromkeys(below, node))
            stack += below

    # -- deferral ---------------------------------------------------------

    def apply(self, transform: Transform, node: ast.AST) -> AppliedChange | None:
        """Run ``transform``'s fix at ``node``, unless it must wait.

        A pass runs each transform's fixes together.  A fix waits for
        the next pass when ``node`` has left the tree, when an earlier
        transform of the pass changed a statement at or above it, or
        when it reads :attr:`semantics` where an earlier transform
        changed the anchor's function.  Fixes of one transform never
        hold each other up; each transform keeps its own facts
        consistent (``memo``).
        """
        if transform is not self._transform:
            self._transform = transform
            self.memo = {}
            self._changed.update(self._touched)
            self._changed_scopes.update(
                scope
                for stmt in self._touched
                for scope in (stmt, *self.ancestors(stmt))
                if isinstance(scope, _SCOPE_NODES)
            )
            self._touched.clear()
        chain = [node, *self.ancestors(node)]
        if chain[-1] is not self.tree or not all(
            any(item is child for item in child_nodes(parent))
            for child, parent in zip(chain, chain[1:])
        ):
            return None
        if any(stmt in self._changed for stmt in chain if isinstance(stmt, ast.stmt)):
            return None
        self._stale = next(
            scope for scope in chain[1:] if isinstance(scope, _SCOPE_NODES)
        ) in self._changed_scopes
        try:
            return transform.fix(node, self)
        except _StaleModel:
            return None
        finally:
            self._stale = False


class _StaleModel(Exception):
    """The fix read :attr:`FixContext.semantics` where it is stale."""
