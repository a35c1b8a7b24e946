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
from .errors import DuplicateTupleId, SchemaMismatch, StaleClass, UnknownAttribute, UnknownValue


@dataclass(frozen=True)
class Schema:
    attributes: tuple[str, ...]
    # read by nothing, DependencyConfig owns X and Y; kept for callers that set them
    qi: tuple[str, ...] = ()
    sensitive: tuple[str, ...] = ()
    key: str = "ID"

    def __post_init__(self):
        if len(set(self.attributes)) != len(self.attributes):
            raise UnknownAttribute("duplicate attribute names in schema")

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
            seen: set[str] = set()
            for row in self.rows:
                if row.tid in seen:
                    raise DuplicateTupleId(f"duplicate tuple id {row.tid!r}")
                seen.add(row.tid)

    def row(self, tid: str) -> Row:
        try:
            return self._by_tid[tid]
        except KeyError:
            raise StaleClass(f"tuple {tid!r} no longer exists") from None

    def is_ground(self) -> bool:
        if not self.rows:
            return True
        levels = _levels(self, self.schema.attributes)
        for row in self.rows:
            for attr, level in levels:
                at = level.get(row.values[attr])
                if at != 0:
                    if at is None:
                        raise UnknownValue(f"{attr}: unknown value {row.values[attr]!r}")
                    return False
        return True

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


def load_relation(source: str | Path, hierarchies: hi.HierarchySet) -> GeneralizedRelation:
    """Load a CSV relation (header row, first column is the tuple id) and
    resolve every cell against the attribute hierarchies. Every record holds
    one cell per header column; blank lines are skipped."""
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
    schema = Schema(attributes=attributes, key=key)
    rows: list[Row] = []
    for record in reader:
        if not record:
            continue
        tid, cells = record[0], record[1:]
        if len(record) != len(header):
            raise SchemaMismatch(
                f"tuple {tid!r} has {len(record)} cells; the header has {len(header)} columns")
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
    """The QI set X, the sensitive set Y, the FDs and the MDs; X and Y are
    disjoint."""

    qi: tuple[str, ...]
    sensitive: tuple[str, ...]
    fds: tuple[FD, ...]
    mds: tuple[MD, ...]

    def __post_init__(self):
        if set(self.qi) & set(self.sensitive):
            raise UnknownAttribute("qi and sensitive attribute sets overlap")

    @classmethod
    def from_json(cls, source: str | Path | Mapping) -> "DependencyConfig":
        if isinstance(source, Mapping):
            doc = source
        else:
            doc = json.loads(Path(source).read_text())
        if not isinstance(doc, Mapping):
            raise ValueError("config must be a JSON object")
        if unknown := sorted(set(doc) - {"qi", "sensitive", "fds", "mds"}):
            raise ValueError(f"unknown config keys {unknown}")
        fds = tuple(
            FD(_array(f.get("lhs"), "an FD's lhs"), _array(f.get("rhs"), "an FD's rhs"))
            for f in _array(doc.get("fds", []), "fds", dict)
        )
        mds = tuple(
            MD(
                match=tuple(_array(c, "an MD match clause", str, 2)
                            for c in _array(m.get("match"), "an MD's match", list)),
                target=_array(m.get("target"), "an MD's target", str, 2),
            )
            for m in _array(doc.get("mds", []), "mds", dict)
        )
        return cls(
            qi=_array(doc.get("qi", []), "qi"),
            sensitive=_array(doc.get("sensitive", []), "sensitive"),
            fds=fds,
            mds=mds,
        )


_ITEMS = {str: "strings", list: "arrays", dict: "objects"}


def _array(raw: object, what: str, item: type = str, length: int | None = None) -> tuple:
    """A config field that must be a JSON array of `item`s, `length` of them
    if given; a string is never read as the array of its characters."""
    if (not isinstance(raw, list) or not all(isinstance(x, item) for x in raw)
            or length not in (None, len(raw))):
        count = "" if length is None else f"{length} "
        raise ValueError(f"{what} must be an array of {count}{_ITEMS[item]}, got {raw!r}")
    return tuple(raw)


def _levels(relation: GeneralizedRelation, attrs: tuple[str, ...]):
    """(attribute, value -> level map) per attribute, for the key readers."""
    return [(a, relation.hierarchies.for_attribute(a).level) for a in attrs]


def _ground_lhs_key(row: Row, levels) -> tuple | None:
    """LHS vector as a grouping key, or None when any component is general."""
    key = []
    for attr, level in levels:
        value = row.values[attr]
        at = level.get(value)
        if at is None:
            raise UnknownValue(f"{attr}: unknown value {value!r}")
        if at != 0:
            return None
        key.append(value)
    return tuple(key)


def _violating_pairs(
    relation: GeneralizedRelation, members: list[Row], rhs: tuple[str, ...]
) -> list[tuple[str, str]]:
    """(tid_low, tid_high) for each pair of group members whose RHS vectors
    are incomparable, in the order of a pairwise scan of the members. Only
    distinct RHS vectors are compared."""
    at: dict[tuple, list[int]] = {}
    for i, row in enumerate(members):
        at.setdefault(tuple(row.values[a] for a in rhs), []).append(i)
    if len(at) < 2:
        return []
    hs = [relation.hierarchies.for_attribute(a) for a in rhs]
    vectors = list(at)
    found: list[tuple[int, int]] = []
    for x, u in enumerate(vectors):
        for w in vectors[x + 1 :]:
            if not all(
                hi.generalizes(h, a, b) or hi.generalizes(h, b, a) for h, a, b in zip(hs, u, w)
            ):
                found += [(min(i, j), max(i, j)) for i in at[u] for j in at[w]]
    found.sort()
    tids = [row.tid for row in members]
    return [(tids[i], tids[j]) if tids[i] <= tids[j] else (tids[j], tids[i]) for i, j in found]


def violations(relation: GeneralizedRelation, fds: Iterable[FD]) -> list[tuple[FD, str, str]]:
    """Every violating tuple pair per FD, as (fd, tid_low, tid_high), ordered
    by FD, then by LHS group in order of first row, then as a pairwise scan
    of the group's rows would meet them: the pairs of a fresh `FDIndex`."""
    index = FDIndex(relation, fds)
    return [(fd, *pair) for fd, pairs in zip(index.fds, index._pairs)
            for found in pairs.values() for pair in found]


class FDIndex:
    """Each FD's LHS groups over one relation and the violating pairs inside
    each group, kept current while the relation's cells change: the only
    code that groups rows by their ground LHS vector.

    Building is one grouping pass per FD; groups and pairs start in order of
    first row. Inside a group only the distinct RHS vectors are compared.
    After the cells (t, a), t in tids and a in attrs, are rewritten, `update`
    regroups those tuples under each FD whose LHS holds a rewritten attribute
    and rescans only the groups that hold them before or after, so a step
    costs O(|tids|) plus the size of those groups, not O(n)."""

    def __init__(self, relation: GeneralizedRelation, fds: Iterable[FD]):
        self.relation = relation
        self.fds = tuple(fds)
        self.count = 0  # violating pairs over all FDs, as len(violations(...))
        self.order = {row.tid: i for i, row in enumerate(relation.rows)}  # row positions
        self._keys: list[dict[str, tuple]] = []  # per FD: tid -> LHS key of a grouped tuple
        self.groups: list[dict[tuple, list[Row]]] = []  # per FD: LHS key -> rows
        self._pairs: list[dict[tuple, list[tuple[str, str]]]] = []  # per FD: key -> pairs
        for i, fd in enumerate(self.fds):
            for attr in fd.lhs + fd.rhs:
                relation.schema.require(attr)
            levels = _levels(relation, fd.lhs)
            groups: dict[tuple, list[Row]] = {}
            for row in relation.rows:
                if (key := _ground_lhs_key(row, levels)) is not None:
                    groups.setdefault(key, []).append(row)
            self._keys.append({row.tid: key for key, rows in groups.items() for row in rows})
            self.groups.append(groups)
            self._pairs.append({})
            for key in groups:
                self._rescan(i, key)

    def _rescan(self, i: int, key: tuple) -> None:
        pairs = self._pairs[i]
        self.count -= len(pairs.pop(key, ()))
        members = self.groups[i].get(key, ())
        if len(members) > 1:
            found = _violating_pairs(self.relation, members, self.fds[i].rhs)
            if found:
                pairs[key] = found
                self.count += len(found)

    def update(self, tids: set[str], attrs: set[str]) -> set[str]:
        """Bring the groups and pairs up to date after the cells (t, a), t in
        tids and a in attrs, were rewritten. Returns the tuples whose
        violating pairs may have changed: tids and every rescanned group."""
        touched = set(tids)
        for i, fd in enumerate(self.fds):
            if attrs.isdisjoint(fd.lhs + fd.rhs):
                continue
            keys, groups = self._keys[i], self.groups[i]
            if attrs.isdisjoint(fd.lhs):
                stale = {keys[t] for t in tids if t in keys}
            else:
                stale = set()
                levels = _levels(self.relation, fd.lhs)
                for tid in tids:
                    row = self.relation.row(tid)
                    old, new = keys.pop(tid, None), _ground_lhs_key(row, levels)
                    if old is not None:
                        groups[old].remove(row)
                        stale.add(old)
                    if new is not None:
                        groups.setdefault(new, []).append(row)
                        keys[tid] = new
                        stale.add(new)
            for key in stale:
                if not groups[key]:
                    del groups[key]
                else:
                    touched.update(row.tid for row in groups[key])
                self._rescan(i, key)
        return touched

    def error_count(self, cells: Iterable[tuple[str, str]]) -> int:
        """Distinct violating pairs that any of the cells participates in,
        unioned over all FDs: what `refresh_error_counts` gives a class with
        these cells. Costs O(|cells| + the pairs of their groups)."""
        cells = tuple(cells)
        found: set[tuple[str, str]] = set()
        for fd, keys, pairs in zip(self.fds, self._keys, self._pairs):
            attrs = fd.lhs + fd.rhs
            tids = {t for t, a in cells if a in attrs}
            for key in {keys[t] for t in tids if t in keys}:
                found.update(p for p in pairs.get(key, ()) if p[0] in tids or p[1] in tids)
        return len(found)

    def classes(self) -> list["EquivalenceClass"]:
        """Each RHS attribute's cells, clustered over the LHS groups of every
        FD with the attribute on its right, merged transitively; singletons
        kept. Numbered in order of first row, then attribute. Each group is
        merged once per attribute, so this costs O(n) per RHS attribute."""
        attrs = sorted({a for fd in self.fds for a in fd.rhs})
        placed = {attr: set() for attr in attrs}  # tids whose cell on attr has a class
        merged = set()  # (attr, FD, LHS key) of the groups already merged
        out: list[EquivalenceClass] = []
        for row in self.relation.rows:
            for attr in (a for a in attrs if row.tid not in placed[a]):
                placed[attr].add(row.tid)
                cells, stack = [], [row.tid]
                while stack:
                    tid = stack.pop()
                    cells.append((tid, attr))
                    for i, fd in enumerate(self.fds):
                        key = self._keys[i].get(tid) if attr in fd.rhs else None
                        if key is None or (attr, i, key) in merged:
                            continue
                        merged.add((attr, i, key))
                        fresh = [r.tid for r in self.groups[i][key] if r.tid not in placed[attr]]
                        placed[attr].update(fresh)
                        stack += fresh
                out.append(EquivalenceClass(len(out) + 1, frozenset(cells)))
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


def generate_eqs(relation: GeneralizedRelation, fds: Iterable[FD]) -> list[EquivalenceClass]:
    """Cluster RHS cells whose tuples agree on ground LHS values, closing the
    merge transitively across all FDs. Singleton classes are kept; callers
    filter the resolved ones."""
    return FDIndex(relation, fds).classes()


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
