"""Mutation streams: JSONL operation records applied to a live graph.

A serving deployment receives graph updates as a stream of operations
(the `repro apply-delta` CLI command reads them from a file, one JSON
array per line).  The op vocabulary mirrors the ``KnowledgeGraph``
mutation API one-to-one, and replaying the same op sequence onto the
same starting graph always yields identical node/edge ids -- ids are
allocation-order slots and removals tombstone rather than renumber --
which is what lets the differential-oracle tests compare a mutated
graph against a from-scratch replay byte for byte.

Record shapes (positional JSON arrays)::

    ["add_node", name, type, [keyword, ...], {attr: value}]
    ["add_edge", src, dst, relation, {attr: value}]
    ["remove_node", node_id]
    ["remove_edge", edge_id]
    ["update_node_attrs", node_id, {attr: value_or_null}]
    ["update_edge", edge_id, relation_or_null, {attr: value_or_null}]

Trailing arguments may be omitted when empty (``["add_node", "Troy"]``
is valid).  ``null`` attribute values delete keys, matching the merge
semantics of the update methods.
"""

from __future__ import annotations

import json
from typing import Any, Iterable, List, Sequence

from repro.errors import DatasetError

OP_NAMES = (
    "add_node", "add_edge", "remove_node", "remove_edge",
    "update_node_attrs", "update_edge",
)


def apply_operation(graph, record: Sequence[Any]) -> Any:
    """Apply one op *record* to *graph*; returns the mutation's result.

    Raises:
        DatasetError: on a malformed record or unknown op name.
        GraphError: propagated from the graph when the op targets a
            missing node/edge.
    """
    if not isinstance(record, (list, tuple)) or not record:
        raise DatasetError(f"malformed operation record: {record!r}")
    op, *rest = record
    try:
        if op == "add_node":
            name, type_, keywords, attrs = _pad(rest, 4, ("", "", [], {}))
            return graph.add_node(name, type_, keywords=tuple(keywords),
                                  **attrs)
        if op == "add_edge":
            src, dst, relation, attrs = _pad(rest, 4, (None, None, "", {}))
            return graph.add_edge(int(src), int(dst), relation, **attrs)
        if op == "remove_node":
            (node_id,) = _pad(rest, 1, (None,))
            return graph.remove_node(int(node_id))
        if op == "remove_edge":
            (edge_id,) = _pad(rest, 1, (None,))
            return graph.remove_edge(int(edge_id))
        if op == "update_node_attrs":
            node_id, attrs = _pad(rest, 2, (None, {}))
            return graph.update_node_attrs(int(node_id), **attrs)
        if op == "update_edge":
            edge_id, relation, attrs = _pad(rest, 3, (None, None, {}))
            return graph.update_edge(int(edge_id), relation=relation, **attrs)
    except (TypeError, ValueError) as exc:
        raise DatasetError(f"malformed {op!r} record {record!r}: {exc}") from exc
    raise DatasetError(
        f"unknown operation {op!r} (expected one of {', '.join(OP_NAMES)})")


def _pad(args: Sequence[Any], size: int, defaults: Sequence[Any]) -> List[Any]:
    """Right-pad *args* with *defaults*; JSON ``null`` falls back to the
    default too, except where the default itself is ``None`` (that marks
    positions -- ids, update_edge's relation -- where null is meaningful).
    """
    if len(args) > size:
        raise ValueError(f"expected at most {size} arguments, got {len(args)}")
    padded = list(args) + list(defaults[len(args):])
    return [default if value is None and default is not None else value
            for value, default in zip(padded, defaults)]


def apply_operations(graph, records: Iterable[Sequence[Any]]) -> int:
    """Apply *records* in order; returns the number applied.

    Fails fast: a bad record raises after every earlier record has
    already been applied (callers replaying a delta file should treat
    the graph as suspect and rebuild or re-load a snapshot).
    """
    count = 0
    for record in records:
        apply_operation(graph, record)
        count += 1
    return count


def load_operations(path) -> List[List[Any]]:
    """Read a JSONL operation file (blank lines and ``#`` comments ok).

    Raises:
        DatasetError: naming the path when it cannot be opened, or the
            line that is not a JSON array.
    """
    try:
        handle = open(path, "r", encoding="utf-8")
    except OSError as exc:
        raise DatasetError(
            f"cannot read operation file {path}: {exc}") from exc
    records: List[List[Any]] = []
    with handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DatasetError(
                    f"{path}:{lineno}: invalid JSON: {exc}") from exc
            if not isinstance(record, list):
                raise DatasetError(
                    f"{path}:{lineno}: expected a JSON array, "
                    f"got {type(record).__name__}")
            records.append(record)
    return records


def save_operations(records: Iterable[Sequence[Any]], path) -> None:
    """Write op *records* as JSONL (inverse of :func:`load_operations`)."""
    with open(path, "w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(list(record), sort_keys=True,
                                    separators=(",", ":")))
            handle.write("\n")
