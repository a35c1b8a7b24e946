"""Support-set construction and safe query pricing.

The buyer's knowledge about the provider relation is modeled by a finite
support set of neighbor instances, each stored as a one-delta edit of the
reference. A query's price is the total weight of members whose answer
disagrees with the true answer; a sale permanently removes those members.
Before quoting a finite price, the gate checks that every tuple's X-group
keeps at least k ground Y-candidates across the agreeing members, so a paid
answer never narrows a sensitive linkage below k.

A quote reads only the support set and evaluates rows, not instances: one
selection test and one lift give the truth, the lifted values of the
reference rows the query selects with their counts, and each member's
answer, those rows less the tuple it edits plus its edited rows the query
selects. The gate groups the survivors' instances in one pass over their
union. Each survivor's instance is the reference without the tuple it edits
plus its edited rows, so the union is the reference minus that tuple if
every survivor edits the same one, plus every survivor's edited rows.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping

from .anonymity import AnonymitySpec, xgroups
from .errors import EmptyRelation, MalformedSnapshot, PacasError, StalePartition
from .gquery import GeneralizedQuery, eval_gq
from .hierarchy import generalize_to
from .relation import GeneralizedRelation, Row
from .rng import child_rng


class Infinite:
    """Sentinel for unsafe quotes; deliberately supports no arithmetic."""

    def __repr__(self) -> str:
        return "INFINITE"


INFINITE = Infinite()


def is_infinite(amount) -> bool:
    return isinstance(amount, Infinite)


@dataclass(frozen=True)
class Member:
    """One neighbor instance, stored as a delta against the reference."""

    kind: str  # update | insert | delete
    tid: str
    attr: str | None = None
    value: str | None = None
    payload: tuple[tuple[str, str], ...] | None = None
    weight: int = 1

    def to_json(self) -> dict:
        doc: dict = {"kind": self.kind, "tuple_id": self.tid, "weight": self.weight}
        if self.kind == "update":
            doc["attr"] = self.attr
            doc["value"] = self.value
        elif self.kind == "insert":
            doc["values"] = dict(self.payload or ())
        return doc

    @classmethod
    def from_json(cls, doc: dict) -> "Member":
        kind, weight = doc["kind"], doc.get("weight", 1)
        # a negative weight would make a price negative and refund the buyer
        if type(weight) is not int or weight < 1:
            raise MalformedSnapshot(f"member weight {weight!r} is not an integer >= 1")
        if kind == "update":
            return cls(kind, doc["tuple_id"], attr=doc["attr"], value=doc["value"],
                       weight=weight)
        if kind == "insert":
            return cls(kind, doc["tuple_id"],
                       payload=tuple(sorted(doc["values"].items())), weight=weight)
        if kind == "delete":
            return cls(kind, doc["tuple_id"], weight=weight)
        raise MalformedSnapshot(f"unknown member kind {kind!r}")


@dataclass(frozen=True)
class PriceQuote:
    amount: object  # int or INFINITE
    query_fingerprint: str
    # the true answer: lifted value -> selected reference rows lifting to it
    answer: Mapping[tuple[str, ...], int] = field(hash=False)

    @property
    def infinite(self) -> bool:
        return is_infinite(self.amount)


@dataclass(frozen=True)
class Partition:
    """Result of splitting the support set by agreement with a query answer."""

    survivors: tuple[Member, ...]
    conflicts: tuple[Member, ...]
    snapshot: tuple[Member, ...]


class SupportSet:
    def __init__(self, reference: GeneralizedRelation, members: Iterable[Member], seed: int = 0):
        self.reference = reference
        self.members: list[Member] = list(members)
        self.seed = seed

    def __len__(self) -> int:
        return len(self.members)

    @property
    def total_weight(self) -> int:
        return sum(m.weight for m in self.members)

    def materialize(self, member: Member) -> GeneralizedRelation:
        """The member's full instance; an oracle, never on the pricing path."""
        return _apply_delta(self.reference, member)

    def to_json(self) -> dict:
        return {"seed": self.seed, "members": [m.to_json() for m in self.members]}

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_json(), indent=2) + "\n")

    @classmethod
    def from_json(cls, doc: dict, reference: GeneralizedRelation) -> "SupportSet":
        """Parse a snapshot, rejecting every member the reference cannot
        hold, so every quote can apply every member."""
        try:
            members = [Member.from_json(m) for m in doc["members"]]
            seed = int(doc.get("seed", 0))
        except (KeyError, TypeError, AttributeError, ValueError) as exc:
            raise MalformedSnapshot(f"malformed support snapshot: {exc!r}") from None
        for member in members:
            _check_member(reference, member)
        return cls(reference, members, seed=seed)

    @classmethod
    def load(cls, path: str | Path, reference: GeneralizedRelation) -> "SupportSet":
        return cls.from_json(json.loads(Path(path).read_text()), reference)


def _check_member(reference: GeneralizedRelation, member: Member) -> None:
    """Reject an update or delete of a tuple the reference lacks, an insert
    reusing a tuple id it holds, an edit naming an attribute outside the
    schema, an insert that does not fill exactly the schema's attributes, and
    non-ground values."""
    attrs = reference.schema.attributes
    held = member.tid in reference._by_tid
    if held == (member.kind == "insert"):
        raise MalformedSnapshot(f"{member.kind} {member.tid!r}: the reference "
                                f"{'holds' if held else 'lacks'} that tuple")
    if member.kind == "update":
        if member.attr not in attrs:
            raise MalformedSnapshot(f"update of {member.tid!r} names unknown attribute "
                                    f"{member.attr!r}")
        values = {member.attr: member.value}
    elif member.kind == "insert":
        values = dict(member.payload)
        if sorted(values) != sorted(attrs):
            raise MalformedSnapshot(f"insert {member.tid!r} sets {sorted(values)}, "
                                    f"not the schema's {sorted(attrs)}")
    else:
        return
    for attr, value in values.items():
        h = reference.hierarchies.for_attribute(attr)
        if not isinstance(value, str) or h.level.get(value) != 0:
            raise MalformedSnapshot(f"{member.kind} {member.tid!r}: {attr}={value!r} "
                                    f"is not a ground value")


def _edited_rows(reference: GeneralizedRelation, member: Member) -> list[Row]:
    """The rows the member puts in place of the reference's row `member.tid`:
    the updated row, the inserted row, or none for a delete."""
    if member.kind == "update":
        row = reference._by_tid[member.tid]
        return [Row(row.tid, {**row.values, member.attr: member.value})]
    if member.kind == "insert":
        return [Row(member.tid, dict(member.payload))]
    return []


def _apply_delta(reference: GeneralizedRelation, member: Member) -> GeneralizedRelation:
    rows = [r for r in reference.rows if r.tid != member.tid] + _edited_rows(reference, member)
    return GeneralizedRelation(schema=reference.schema, rows=rows,
                               hierarchies=reference.hierarchies)


# probability of a single-cell update, a tuple insert and a tuple delete
_MEMBER_MIX = (0.7, 0.15, 0.15)


def build_support_set(reference: GeneralizedRelation, size: int, seed: int) -> SupportSet:
    """Sample `size` distinct seeded neighbors of the reference relation.

    Members are drawn by `_MEMBER_MIX`; replacement values come from the
    ground domain observed in the reference column.
    """
    if not reference.rows:
        raise EmptyRelation("cannot build a support set over an empty relation")
    if size < 1:
        raise ValueError("support set size must be at least 1")
    rng = child_rng(seed, "support")
    attrs = reference.schema.attributes
    domains = {
        a: sorted({row.values[a] for row in reference.rows}) for a in attrs
    }
    members: list[Member] = []
    seen: set = set()
    insert_counter = 0
    attempts = 0
    while len(members) < size:
        attempts += 1
        if attempts > 200 * size:
            raise PacasError("exhausted distinct neighbors for the requested support size")
        roll = rng.random()
        if roll < _MEMBER_MIX[0]:
            row = rng.choice(reference.rows)
            attr = rng.choice(attrs)
            choices = [v for v in domains[attr] if v != row.values[attr]]
            if not choices:
                continue
            member = Member("update", row.tid, attr=attr, value=rng.choice(choices))
            signature = ("update", member.tid, member.attr, member.value)
        elif roll < _MEMBER_MIX[0] + _MEMBER_MIX[1]:
            insert_counter += 1
            payload = tuple(sorted((a, rng.choice(domains[a])) for a in attrs))
            member = Member("insert", f"+{insert_counter}", payload=payload)
            signature = ("insert", payload)
        else:
            row = rng.choice(reference.rows)
            member = Member("delete", row.tid)
            signature = ("delete", row.tid)
        if signature in seen:
            continue
        seen.add(signature)
        members.append(member)
    return SupportSet(reference, members, seed=seed)


def baseline_price(q: GeneralizedQuery, relation: GeneralizedRelation, support: SupportSet) -> int:
    """Weighted-cover price: total weight of members answering differently."""
    truth = eval_gq(q, relation)
    return sum(m.weight for m in support.members if eval_gq(q, support.materialize(m)) != truth)


def safe_price(
    q: GeneralizedQuery,
    support: SupportSet,
    spec: AnonymitySpec,
) -> tuple[PriceQuote, Partition]:
    """Price a query and gate it on the buyer's residual uncertainty.

    A quote evaluates rows and builds no instance: the truth is the query's
    answer over the reference, counted per lifted value, and members
    disagreeing with it form the conflict set and sum to the price. A finite
    quote also requires, for every reference tuple, at least k ground
    Y-candidates for its X-group across the agreeing members.
    INFINITE quotes are values, not errors, and must stay side-effect free.
    """
    ref = support.reference
    for attr in (*q.projection, *(a for a, _ in q.selection)):
        ref.schema.require(attr)

    def selects(row: Row) -> bool:
        return all(row.values[a] == v for a, v in q.selection)

    def lift(row: Row) -> tuple[str, ...]:
        return tuple(generalize_to(ref.hierarchies.for_attribute(a), row.values[a], level)
                     for a, level in zip(q.projection, q.levels))

    selected = [(r.tid, lift(r)) for r in ref.rows if selects(r)]
    answer = Counter(value for _, value in selected)
    edits = {member: _edited_rows(ref, member) for member in support.members}
    survivors: list[Member] = []
    conflicts: list[Member] = []
    for member in support.members:
        # an instance differs from the reference only in the tuple its member edits
        values = {value for tid, value in selected if tid != member.tid}
        values.update(lift(r) for r in edits[member] if selects(r))
        (survivors if values == answer.keys() else conflicts).append(member)
    partition = Partition(tuple(survivors), tuple(conflicts), tuple(support.members))
    fingerprint = q.fingerprint()
    price = sum(m.weight for m in conflicts)
    # a reference tuple is missing from the union only if every survivor edits it
    tids = {m.tid for m in survivors}
    dropped = tids if len(tids) == 1 else ()
    union = [r for r in ref.rows if r.tid not in dropped] if survivors else []
    candidates = xgroups(union + [r for m in survivors for r in edits[m]], spec.x, spec.y)
    for row in ref.rows:
        if len(candidates.get(tuple(row.values[a] for a in spec.x), ())) < spec.k:
            return PriceQuote(INFINITE, fingerprint, answer), partition
    return PriceQuote(price, fingerprint, answer), partition


def commit_sale(support: SupportSet, partition: Partition) -> SupportSet:
    """Remove the conflict members after a paid query; survivors remain."""
    if partition.snapshot != tuple(support.members):
        raise StalePartition("support set changed since this quote was issued")
    support.members = list(partition.survivors)
    return support
