"""Generalized relations, dependencies, consistency and equivalence classes.

A relation may hold values from any level of the attribute hierarchies. An FD
X -> Y is violated by a tuple pair when the pair agrees on X with all-ground
values but some Y attribute carries values neither of which generalizes the
other. Equivalence classes cluster the Y-cells that must end up sharing one
value for the FDs to hold.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping

from . import hierarchy as hi
from .errors import DuplicateTupleId, StaleClass, UnknownAttribute, UnknownValue


@dataclass(frozen=True)
class Schema:
    attributes: tuple[str, ...]
    qi: tuple[str, ...] = ()
    sensitive: tuple[str, ...] = ()
    key: str = "ID"

    def __post_init__(self):
        if len(set(self.attributes)) != len(self.attributes):
            raise UnknownAttribute("duplicate attribute names in schema")
        if set(self.qi) & set(self.sensitive):
            raise UnknownAttribute("qi and sensitive attribute sets overlap")

    def require(self, attribute: str) -> None:
        if attribute not in self.attributes:
            raise UnknownAttribute(f"unknown attribute {attribute!r}")


@dataclass(frozen=True)
class FD:
    lhs: tuple[str, ...]
    rhs: tuple[str, ...]

    def __post_init__(self):
        if not self.lhs or not self.rhs or set(self.lhs) & set(self.rhs):
            raise UnknownAttribute("FD sides must be nonempty and disjoint")


@dataclass(frozen=True)
class MD:
    """Match clauses are (client attr, provider attr) pairs; the target names
    the attribute whose values transfer once every clause matches."""

    match: tuple[tuple[str, str], ...]
    target: tuple[str, str]

    def __post_init__(self):
        if not self.match:
            raise UnknownAttribute("MD needs at least one match clause")


@dataclass
class Row:
    tid: str
    values: dict[str, str]


@dataclass
class GeneralizedRelation:
    schema: Schema
    rows: list[Row]
    hierarchies: hi.HierarchySet

    def __post_init__(self):
        self._by_tid = {row.tid: row for row in self.rows}
        if len(self._by_tid) != len(self.rows):
            raise DuplicateTupleId("tuple ids are not unique")

    def row(self, tid: str) -> Row:
        try:
            return self._by_tid[tid]
        except KeyError:
            raise StaleClass(f"tuple {tid!r} no longer exists") from None

    def is_ground(self) -> bool:
        return all(
            self.hierarchies.for_attribute(a).level_of(row.values[a]) == 0
            for row in self.rows
            for a in self.schema.attributes
        )

    def copy(self) -> "GeneralizedRelation":
        return GeneralizedRelation(
            schema=self.schema,
            rows=[Row(r.tid, dict(r.values)) for r in self.rows],
            hierarchies=self.hierarchies,
        )

    def to_csv(self) -> str:
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow((self.schema.key,) + self.schema.attributes)
        for row in self.rows:
            writer.writerow([row.tid] + [row.values[a] for a in self.schema.attributes])
        return out.getvalue()


def load_relation(
    source: str | Path,
    hierarchies: hi.HierarchySet,
    qi: Iterable[str] = (),
    sensitive: Iterable[str] = (),
) -> GeneralizedRelation:
    """Load a CSV relation (header row, first column is the tuple id) and
    resolve every cell against the attribute hierarchies."""
    if "\n" in str(source):
        text = str(source)
    else:
        text = Path(source).read_text()
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise UnknownAttribute("relation CSV has no header row") from None
    key, attributes = header[0], tuple(header[1:])
    schema = Schema(
        attributes=attributes,
        qi=tuple(a for a in qi if a in attributes),
        sensitive=tuple(a for a in sensitive if a in attributes),
        key=key,
    )
    rows: list[Row] = []
    seen: set[str] = set()
    for record in reader:
        if not record:
            continue
        tid, cells = record[0], record[1:]
        if tid in seen:
            raise DuplicateTupleId(f"duplicate tuple id {tid!r}")
        seen.add(tid)
        values: dict[str, str] = {}
        for attr, cell in zip(attributes, cells):
            h = hierarchies.for_attribute(attr)
            if cell not in h:
                raise UnknownValue(f"cell {tid}[{attr}]={cell!r} is absent from the hierarchy")
            values[attr] = cell
        rows.append(Row(tid, values))
    return GeneralizedRelation(schema=schema, rows=rows, hierarchies=hierarchies)


@dataclass
class DependencyConfig:
    qi: tuple[str, ...]
    sensitive: tuple[str, ...]
    fds: tuple[FD, ...]
    mds: tuple[MD, ...]

    @classmethod
    def from_json(cls, source: str | Path | Mapping) -> "DependencyConfig":
        if isinstance(source, Mapping):
            doc = source
        else:
            doc = json.loads(Path(source).read_text())
        fds = tuple(FD(tuple(f["lhs"]), tuple(f["rhs"])) for f in doc.get("fds", ()))
        mds = tuple(
            MD(
                match=tuple((c[0], c[1]) for c in m["match"]),
                target=(m["target"][0], m["target"][1]),
            )
            for m in doc.get("mds", ())
        )
        return cls(
            qi=tuple(doc.get("qi", ())),
            sensitive=tuple(doc.get("sensitive", ())),
            fds=fds,
            mds=mds,
        )


def _ground_lhs_key(relation: GeneralizedRelation, row: Row, lhs: tuple[str, ...]):
    """LHS vector as a grouping key, or None when any component is general."""
    key = []
    for attr in lhs:
        value = row.values[attr]
        if relation.hierarchies.for_attribute(attr).level_of(value) != 0:
            return None
        key.append(value)
    return tuple(key)


def _lhs_groups(relation: GeneralizedRelation, fd: FD):
    """Rows sharing one all-ground LHS vector, grouped in row order."""
    groups: dict[tuple, list[Row]] = {}
    for row in relation.rows:
        key = _ground_lhs_key(relation, row, fd.lhs)
        if key is not None:
            groups.setdefault(key, []).append(row)
    return groups.values()


def _rhs_comparable(relation: GeneralizedRelation, a: Row, b: Row, rhs: tuple[str, ...]) -> bool:
    for attr in rhs:
        h = relation.hierarchies.for_attribute(attr)
        va, vb = a.values[attr], b.values[attr]
        if not (hi.generalizes(h, va, vb) or hi.generalizes(h, vb, va)):
            return False
    return True


def violations(relation: GeneralizedRelation, fds: Iterable[FD]) -> list[tuple[FD, str, str]]:
    """Every violating tuple pair per FD, as (fd, tid_low, tid_high)."""
    out: list[tuple[FD, str, str]] = []
    for fd in fds:
        for attr in fd.lhs + fd.rhs:
            relation.schema.require(attr)
        for members in _lhs_groups(relation, fd):
            for i, a in enumerate(members):
                for b in members[i + 1 :]:
                    if not _rhs_comparable(relation, a, b, fd.rhs):
                        pair = tuple(sorted((a.tid, b.tid)))
                        out.append((fd, pair[0], pair[1]))
    return out


def is_consistent(relation: GeneralizedRelation, fds: Iterable[FD]) -> tuple[bool, list[tuple[FD, str, str]]]:
    found = violations(relation, fds)
    return (not found, found)


@dataclass
class EquivalenceClass:
    eq_id: int
    cells: frozenset[tuple[str, str]]
    error_count: int = 0

    def attributes(self) -> set[str]:
        return {attr for _, attr in self.cells}


class _UnionFind:
    def __init__(self):
        self.parent: dict = {}

    def add(self, x):
        self.parent.setdefault(x, x)

    def find(self, x):
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


def generate_eqs(relation: GeneralizedRelation, fds: Iterable[FD]) -> list[EquivalenceClass]:
    """Cluster RHS cells whose tuples agree on ground LHS values, closing the
    merge transitively across all FDs. Singleton classes are kept; callers
    filter the resolved ones."""
    fds = tuple(fds)
    uf = _UnionFind()
    for fd in fds:
        for row in relation.rows:
            for attr in fd.rhs:
                uf.add((row.tid, attr))
    for fd in fds:
        for members in _lhs_groups(relation, fd):
            anchor = members[0]
            for other in members[1:]:
                for attr in fd.rhs:
                    uf.union((anchor.tid, attr), (other.tid, attr))

    clusters: dict[tuple, set[tuple[str, str]]] = {}
    for cell in uf.parent:
        clusters.setdefault(uf.find(cell), set()).add(cell)

    order = {row.tid: i for i, row in enumerate(relation.rows)}
    sorted_clusters = sorted(
        clusters.values(), key=lambda cells: min((order[t], a) for t, a in cells)
    )
    return [
        EquivalenceClass(eq_id=i + 1, cells=frozenset(cells))
        for i, cells in enumerate(sorted_clusters)
    ]


def refresh_error_counts(
    relation: GeneralizedRelation, fds: Iterable[FD], eqs: Iterable[EquivalenceClass]
) -> None:
    """Set each class's error count: the distinct violating tuple pairs that
    any cell of the class participates in, unioned over all FDs, in one scan."""
    eqs = list(eqs)
    if not eqs:
        return
    owners: dict[tuple[str, str], list[int]] = {}  # a cell may sit in several classes
    for i, eq in enumerate(eqs):
        for cell in eq.cells:
            relation.row(cell[0])  # raises StaleClass when the tuple is gone
            owners.setdefault(cell, []).append(i)
    pairs: list[set[tuple[str, str]]] = [set() for _ in eqs]
    for fd, t1, t2 in violations(relation, fds):
        for t in (t1, t2):
            for a in fd.lhs + fd.rhs:
                for i in owners.get((t, a), ()):
                    pairs[i].add((t1, t2))
    for eq, found in zip(eqs, pairs):
        eq.error_count = len(found)


def resolved(relation: GeneralizedRelation, eq: EquivalenceClass) -> bool:
    """A class is resolved when all its cells already share one value."""
    values = {relation.row(tid).values[attr] for tid, attr in eq.cells}
    return len(values) <= 1
