"""Anonymity validators over single relations and over instance sets.

A relation is (X,Y)-anonymous at k when every tuple's X-vector co-occurs with
at least k distinct Y-values; the leveled variant counts distinctness after
lifting Y to the policy levels L. Query safety quantifies the same guarantee
over the set of instances a buyer still considers possible after seeing a
query answer: for every tuple, the ground Y-candidates of its X-group across
the agreeing instances must number at least k.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import EmptyInstanceSet, UnknownAttribute
from .gquery import GeneralizedQuery, eval_gq, eval_ground, xgroup_query
from .hierarchy import generalize_to
from .relation import GeneralizedRelation, Row


@dataclass(frozen=True)
class AnonymitySpec:
    x: tuple[str, ...]
    y: tuple[str, ...]
    levels: tuple[int, ...]
    k: int = 1

    def __post_init__(self):
        if len(self.levels) != len(self.y):
            raise UnknownAttribute("levels must align with the Y attributes")
        if self.k < 1:
            raise ValueError("k must be at least 1")


def xgroups(rows: Iterable[Row], x: Sequence[str], y: Sequence[str]) -> dict[tuple, set[tuple]]:
    """X-vector -> set of Y-vectors co-occurring with it, in one pass."""
    groups: dict[tuple, set[tuple]] = {}
    for row in rows:
        xvec = tuple(row.values[a] for a in x)
        groups.setdefault(xvec, set()).add(tuple(row.values[a] for a in y))
    return groups


def group_sizes(
    relation: GeneralizedRelation,
    x: Sequence[str],
    y: Sequence[str],
    levels: Sequence[int] | None = None,
) -> list[tuple[str, int]]:
    """Per-tuple count of distinct Y-values (at the given levels) sharing the
    tuple's X-vector."""
    for attr in (*y, *x):
        relation.schema.require(attr)
    groups = xgroups(relation.rows, x, y)
    if levels:
        hs = [relation.hierarchies.for_attribute(a) for a, _ in zip(y, levels, strict=True)]
        for xvec, yvecs in groups.items():
            groups[xvec] = {tuple(map(generalize_to, hs, yvec, levels)) for yvec in yvecs}
    return [(row.tid, len(groups[tuple(row.values[a] for a in x)])) for row in relation.rows]


def is_xy_anonymous(
    relation: GeneralizedRelation, x: Sequence[str], y: Sequence[str], k: int
) -> bool:
    return all(size >= k for _, size in group_sizes(relation, x, y))


def is_xyl_anonymous(relation: GeneralizedRelation, spec: AnonymitySpec) -> bool:
    sizes = group_sizes(relation, spec.x, spec.y, spec.levels)
    return all(size >= spec.k for _, size in sizes)


def ground_candidates(
    relation_tuples: Iterable[GeneralizedRelation], row, spec: AnonymitySpec
) -> frozenset[tuple[str, ...]]:
    """Ground Y-candidates for the row's X-group across a set of instances."""
    probe = xgroup_query(row, spec.x, spec.y, (0,) * len(spec.y))
    union: set[tuple[str, ...]] = set()
    for inst in relation_tuples:
        union |= eval_ground(probe, inst)
    return frozenset(union)


def is_safe_query(
    q: GeneralizedQuery,
    relation: GeneralizedRelation,
    instances: Sequence[GeneralizedRelation],
    spec: AnonymitySpec,
) -> bool:
    """True when, among the instances agreeing with the query's answer on the
    true relation, every tuple's X-group keeps at least k ground Y-candidates."""
    if not instances:
        raise EmptyInstanceSet("safety is undefined over an empty instance set")
    truth = eval_gq(q, relation)
    agreeing = [inst for inst in instances if eval_gq(q, inst) == truth]
    for row in relation.rows:
        if len(ground_candidates(agreeing, row, spec)) < spec.k:
            return False
    return True
