"""Shared AST micro-helpers for the semantic layers.

Every layer in :mod:`repro.semantics` walks trees; the walks dominate
cold-analysis cost, and most of *their* cost is child iteration.
``ast.iter_child_nodes`` stacks two generator frames per node
(``iter_fields`` inside ``iter_child_nodes``); :func:`child_nodes`
reads children straight out of the node's ``__dict__`` and, per node
*class*, learns which fields can hold children at all.

The learning leans on a grammar invariant: an ASDL field's type is
fixed per node class.  A field observed holding a plain value
(identifier, int, constant) can never hold a node in another instance,
so it is dropped from the class's plan outright; a field observed
holding a node is node-or-``None`` forever; a list field is homogeneous
apart from ``None`` gaps — all nodes (``stmt*``, ``expr*``) or all
strings (``identifier*``, e.g. ``Global.names``) — so its first
non-``None`` item classifies the whole field and the per-item
``isinstance`` checks disappear.  ``None`` gaps are real: ``{**d}``
leaves ``None`` in ``Dict.keys`` and bare ``*`` args leave ``None`` in
``arguments.kw_defaults``, so node lists still get a C-level ``None``
scan before the bulk extend.  Fields only ever seen as ``None``/empty
stay unclassified and are re-examined on later calls.
"""

from __future__ import annotations

from ast import AST
from contextlib import contextmanager

_UNKNOWN = 0  # only None/empty observed so far
_NODE = 1  # node-or-None scalar field
_NODE_LIST = 2  # list of nodes (possibly with None gaps)
_RAW = 3  # never holds nodes (pruned from plans at classification)

#: node class -> mutable [field_name, kind] pairs, in ``_fields`` order.
_PLANS: dict[type, list[list]] = {}

#: ``id(node) -> children`` memo, active only inside
#: :func:`memoized_children` blocks (``None`` otherwise).
_MEMO: dict[int, list] | None = None


@contextmanager
def memoized_children():
    """Memoize :func:`child_nodes` by ``id(node)`` within the block.

    The semantic layers and the engine traversal each walk the same
    tree, so a cold analysis computes every child list several times.
    Inside this scope the first computation is shared — callers never
    mutate the returned lists, so handing out the same list is safe.

    Only enter this scope while every tree touched inside it is
    immutable and stays referenced for the whole block (``id`` reuse
    after collection would alias entries).  The optimizer's rewrite
    passes mutate trees between model builds, so they must run
    *outside* any memo scope — which they do: only ``Analyzer._run``
    enters it, for one analysis of a tree, and the optimizer rewrites
    between analyses.
    """
    global _MEMO
    previous = _MEMO
    _MEMO = {}
    try:
        yield
    finally:
        _MEMO = previous


def child_nodes(node: AST) -> list[AST]:
    """Direct AST children of ``node`` in field order.

    Matches ``list(ast.iter_child_nodes(node))`` for parser-produced
    trees: fields are read in ``_fields`` order, missing optional
    fields are skipped, and list fields contribute their AST items in
    sequence.
    """
    memo = _MEMO
    if memo is not None:
        key = id(node)
        cached = memo.get(key)
        if cached is not None:
            return cached
    cls = node.__class__
    plan = _PLANS.get(cls)
    if plan is None:
        plan = [[name, _UNKNOWN] for name in cls._fields]
        _PLANS[cls] = plan
    out: list[AST] = []
    values = node.__dict__
    raw_seen = False
    for entry in plan:
        field = values.get(entry[0])
        if field is None:
            continue
        kind = entry[1]
        if kind == _UNKNOWN:
            kind = entry[1] = _classify(entry, field)
            raw_seen = raw_seen or kind == _RAW
        if kind == _NODE_LIST:
            if None in field:
                for item in field:
                    if item is not None:
                        out.append(item)
            else:
                out.extend(field)
        elif kind == _NODE:
            out.append(field)
    if raw_seen:
        # Plain-value fields (identifiers, ints, constants) can never
        # hold a node; drop them so later calls skip the dict lookup.
        plan[:] = [entry for entry in plan if entry[1] != _RAW]
    if memo is not None:
        memo[key] = out
    return out


def _classify(entry: list, field: object) -> int:
    """First non-``None``/non-empty observation decides the field kind."""
    if field.__class__ is list:
        for item in field:
            if item is not None:
                return _NODE_LIST if isinstance(item, AST) else _RAW
        return _UNKNOWN  # all-None list: nothing to learn yet
    return _NODE if isinstance(field, AST) else _RAW
