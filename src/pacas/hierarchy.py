"""Per-attribute generalization hierarchies.

Each attribute carries a tree of values stratified into levels: level 0 holds
the ground domain, the single root sits at the top level, and every edge
connects a node to a parent exactly one level up. Values are opaque
case-sensitive strings; interval labels for numeric attributes are just node
names like any other.

The loader derives each value's ancestor chain once. Lifting a value to a
level, testing whether one value generalizes another, the lowest common
ancestor and the ground bases are all read from that one table.
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
    # each value's ancestors from itself up to the root: entry i sits at level(value) + i
    _chain: Mapping[str, tuple[str, ...]] = field(repr=False)
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


def _integer(raw: object, what: str) -> int:
    if type(raw) is not int:  # a JSON true or false decodes to a bool, an int subclass
        raise MalformedHierarchy(f"{what} must be an integer, got {raw!r}")
    return raw


def load_hierarchy(document: Mapping) -> Hierarchy:
    """Validate a hierarchy document and build the tree.

    Expected shape: {"attribute": str, "levels": int,
    "nodes": [{"value": str, "level": int, "parent": str|null}, ...]}.
    The root has parent null and level == levels - 1. Rejects any other
    shape (a bool or float is not an int), forests, duplicate values,
    non-adjacent parent levels and nodes with no ground value below them.
    """
    try:
        attribute = document["attribute"]
        declared_levels = _integer(document["levels"], "levels")
        nodes = document["nodes"]
    except (KeyError, TypeError) as exc:
        raise MalformedHierarchy(f"missing field: {exc}") from exc
    if not isinstance(attribute, str):
        raise MalformedHierarchy(f"attribute {attribute!r} is not a string")
    if declared_levels < 1 or not isinstance(nodes, list) or not nodes:
        raise MalformedHierarchy("hierarchy needs at least one level and an array of nodes")

    parent: dict[str, str | None] = {}
    level: dict[str, int] = {}
    for node in nodes:
        if not isinstance(node, dict):
            raise MalformedHierarchy(f"node {node!r} is not an object")
        value, p = node.get("value"), node.get("parent")
        if not isinstance(value, str):
            raise MalformedHierarchy(f"node {node!r} needs a string value")
        if p is not None and not isinstance(p, str):
            raise MalformedHierarchy(f"{value!r} has parent {p!r}, neither a string nor null")
        if value in level:
            raise MalformedHierarchy(f"duplicate value {value!r}")
        lvl = _integer(node.get("level"), f"level of {value!r}")
        if not 0 <= lvl < declared_levels:
            raise MalformedHierarchy(f"{value!r} at level {lvl} outside [0, {declared_levels - 1}]")
        parent[value] = p
        level[value] = lvl

    roots = [v for v, p in parent.items() if p is None]
    if len(roots) != 1:
        raise MalformedHierarchy(f"expected one root, found {len(roots)}")
    root = roots[0]
    height = declared_levels - 1
    if level[root] != height:
        raise MalformedHierarchy(f"root {root!r} must sit at level {height}")

    # top-down by level: a checked edge points one level up, whose chain is built
    chain: dict[str, tuple[str, ...]] = {}
    for value in sorted(parent, key=level.__getitem__, reverse=True):
        if (p := parent[value]) is not None:
            if p not in level:
                raise MalformedHierarchy(f"{value!r} points at unknown parent {p!r}")
            if level[p] != level[value] + 1:
                raise MalformedHierarchy(
                    f"edge {value!r}->{p!r} skips levels ({level[value]} -> {level[p]})"
                )
        chain[value] = (value, *chain.get(p, ()))
    base: dict[str, list[str]] = {value: [] for value in parent}
    for value, lvl in level.items():
        if lvl == 0:
            for node in chain[value]:
                base[node].append(value)
    if bare := [value for value, below in base.items() if not below]:
        raise MalformedHierarchy(f"{bare[0]!r} has no ground value below it")

    # adjacency already rules out cycles; unreachable nodes would be a second root
    return Hierarchy(
        attribute=attribute,
        parent=parent,
        level=level,
        root=root,
        height=height,
        _chain=chain,
        _base={value: frozenset(below) for value, below in base.items()},
    )


def base(h: Hierarchy, value: str) -> frozenset[str]:
    """Ground descendants of a value; base(leaf) == {leaf}."""
    h.require(value)
    return h._base[value]


def ancestors(h: Hierarchy, value: str) -> list[str]:
    """Chain from the value itself up to the root, inclusive."""
    h.require(value)
    return list(h._chain[value])


def generalizes(h: Hierarchy, lower: str, upper: str) -> bool:
    """True iff upper lies on the path from lower to the root (reflexive)."""
    h.require(upper)
    h.require(lower)
    steps = h.level[upper] - h.level[lower]
    return steps >= 0 and h._chain[lower][steps] == upper


def lca(h: Hierarchy, a: str, b: str) -> str:
    """Deepest common ancestor; lca(v, v) == v."""
    level_a, level_b = h.level_of(a), h.level_of(b)
    chain_a, chain_b = h._chain[a], h._chain[b]
    top = max(level_a, level_b)
    while chain_a[top - level_a] != chain_b[top - level_b]:
        top += 1
    return chain_a[top - level_a]


def generalize_to(h: Hierarchy, value: str, level: int) -> str:
    """Unique ancestor of value at the requested level."""
    start = h.level_of(value)
    if level < start:
        raise LevelBelowValue(
            f"{h.attribute}: {value!r} sits at level {start}, above requested level {level}"
        )
    if level > h.height:
        raise LevelBelowValue(f"{h.attribute}: level {level} exceeds height {h.height}")
    return h._chain[value][level - start]


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
