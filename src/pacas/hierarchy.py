"""Per-attribute generalization hierarchies.

Each attribute carries a tree of values stratified into levels: level 0 holds
the ground domain, the single root sits at the top level, and every edge
connects a node to a parent exactly one level up. Values are opaque
case-sensitive strings; interval labels for numeric attributes are just node
names like any other.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping

from .errors import LevelBelowValue, MalformedHierarchy, UnknownValue


@dataclass(frozen=True)
class Hierarchy:
    """Immutable value-generalization tree for one attribute."""

    attribute: str
    parent: Mapping[str, str | None]
    level: Mapping[str, int]
    root: str
    height: int
    _base: Mapping[str, frozenset[str]] = field(repr=False)

    def __contains__(self, value: str) -> bool:
        return value in self.level

    def require(self, value: str) -> None:
        if value not in self.level:
            raise UnknownValue(f"{self.attribute}: unknown value {value!r}")

    def level_of(self, value: str) -> int:
        self.require(value)
        return self.level[value]

    @property
    def ground_domain(self) -> frozenset[str]:
        return self._base[self.root]


def load_hierarchy(document: Mapping) -> Hierarchy:
    """Validate a hierarchy document and build the tree.

    Expected shape: {"attribute": str, "levels": int,
    "nodes": [{"value": str, "level": int, "parent": str|null}, ...]}.
    The root has parent null and level == levels - 1. Rejects forests,
    duplicate values, non-adjacent parent levels and leaves above level 0.
    """
    try:
        attribute = document["attribute"]
        declared_levels = int(document["levels"])
        nodes = document["nodes"]
    except (KeyError, TypeError) as exc:
        raise MalformedHierarchy(f"missing field: {exc}") from exc
    if declared_levels < 1 or not nodes:
        raise MalformedHierarchy("hierarchy needs at least one level and one node")

    parent: dict[str, str | None] = {}
    level: dict[str, int] = {}
    for node in nodes:
        value = node["value"]
        if value in level:
            raise MalformedHierarchy(f"duplicate value {value!r}")
        lvl = int(node["level"])
        if not 0 <= lvl < declared_levels:
            raise MalformedHierarchy(f"{value!r} at level {lvl} outside [0, {declared_levels - 1}]")
        parent[value] = node.get("parent")
        level[value] = lvl

    roots = [v for v, p in parent.items() if p is None]
    if len(roots) != 1:
        raise MalformedHierarchy(f"expected one root, found {len(roots)}")
    root = roots[0]
    height = declared_levels - 1
    if level[root] != height:
        raise MalformedHierarchy(f"root {root!r} must sit at level {height}")

    children: dict[str, list[str]] = {v: [] for v in parent}
    for value, p in parent.items():
        if p is None:
            continue
        if p not in level:
            raise MalformedHierarchy(f"{value!r} points at unknown parent {p!r}")
        if level[p] != level[value] + 1:
            raise MalformedHierarchy(
                f"edge {value!r}->{p!r} skips levels ({level[value]} -> {level[p]})"
            )
        children[p].append(value)

    base: dict[str, frozenset[str]] = {}
    for lvl in range(0, height + 1):
        for value in parent:
            if level[value] != lvl:
                continue
            kids = children[value]
            if not kids:
                if lvl != 0:
                    raise MalformedHierarchy(f"leaf {value!r} sits above the ground level")
                base[value] = frozenset({value})
            else:
                base[value] = frozenset().union(*(base[k] for k in kids))

    # adjacency already rules out cycles; unreachable nodes would be a second root
    return Hierarchy(
        attribute=attribute,
        parent=parent,
        level=level,
        root=root,
        height=height,
        _base=base,
    )


def base(h: Hierarchy, value: str) -> frozenset[str]:
    """Ground descendants of a value; base(leaf) == {leaf}."""
    h.require(value)
    return h._base[value]


def ancestors(h: Hierarchy, value: str) -> list[str]:
    """Chain from the value itself up to the root, inclusive."""
    h.require(value)
    chain = [value]
    while (p := h.parent[chain[-1]]) is not None:
        chain.append(p)
    return chain


def generalizes(h: Hierarchy, lower: str, upper: str) -> bool:
    """True iff upper lies on the path from lower to the root (reflexive).

    In a tree whose leaves all sit at level 0 that holds exactly when upper
    is no lower than lower and its ground base contains lower's, so the test
    reads the precomputed bases instead of walking the chain."""
    h.require(upper)
    h.require(lower)
    return h.level[lower] <= h.level[upper] and h._base[lower] <= h._base[upper]


def lca(h: Hierarchy, a: str, b: str) -> str:
    """Deepest common ancestor; lca(v, v) == v."""
    chain_b = set(ancestors(h, b))
    for node in ancestors(h, a):
        if node in chain_b:
            return node
    return h.root


def generalize_to(h: Hierarchy, value: str, level: int) -> str:
    """Unique ancestor of value at the requested level."""
    start = h.level_of(value)
    if level < start:
        raise LevelBelowValue(
            f"{h.attribute}: {value!r} sits at level {start}, above requested level {level}"
        )
    if level > h.height:
        raise LevelBelowValue(f"{h.attribute}: level {level} exceeds height {h.height}")
    node = value
    while h.level[node] < level:
        node = h.parent[node]  # type: ignore[assignment]
    return node


class HierarchySet(dict):
    """Mapping attribute name -> Hierarchy."""

    def for_attribute(self, attribute: str) -> Hierarchy:
        try:
            return self[attribute]
        except KeyError:
            raise UnknownValue(f"no hierarchy for attribute {attribute!r}") from None


def load_hierarchy_set(source: str | Path | Iterable[Mapping]) -> HierarchySet:
    """Load a hierarchy set from a JSON array file, a directory of JSON
    documents, or an iterable of already-parsed documents."""
    if isinstance(source, (str, Path)):
        path = Path(source)
        if path.is_dir():
            documents = [json.loads(p.read_text()) for p in sorted(path.glob("*.json"))]
        else:
            loaded = json.loads(path.read_text())
            documents = loaded if isinstance(loaded, list) else [loaded]
    else:
        documents = list(source)
    out = HierarchySet()
    for doc in documents:
        h = load_hierarchy(doc)
        if h.attribute in out:
            raise MalformedHierarchy(f"duplicate hierarchy for attribute {h.attribute!r}")
        out[h.attribute] = h
    return out
