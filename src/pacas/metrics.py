"""Entropy-based information-loss penalty and the semantic distance delta.

The penalty of a value v is E(v) = P(X in base(v)) * H(X | X in base(v)),
with X drawn empirically from a reference ground relation and entropy in
bits. The distance between two values is routed through their least common
ancestor; for comparable values that is their penalty difference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

from . import hierarchy as hi
from .errors import AlignmentMismatch, SchemaMismatch, UnknownValue

BUCKETS = ("0-0.25", "0.25-0.5", "0.5-0.75", "0.75-1")


@dataclass(frozen=True)
class Distribution:
    """Empirical counts of ground values for one attribute."""

    attribute: str
    counts: Mapping[str, int]
    total: int

    @classmethod
    def from_column(cls, attribute: str, values: list[str], h: hi.Hierarchy) -> "Distribution":
        counts: dict[str, int] = {}
        for v in values:
            if h.level_of(v) != 0:
                raise UnknownValue(f"{attribute}: reference value {v!r} is not ground")
            counts[v] = counts.get(v, 0) + 1
        return cls(attribute=attribute, counts=counts, total=len(values))

    @classmethod
    def from_relation(cls, relation, attribute: str) -> "Distribution":
        h = relation.hierarchies.for_attribute(attribute)
        return cls.from_column(attribute, [row.values[attribute] for row in relation.rows], h)


class PenaltyTable:
    """Memoized E(v) for every node of one (distribution, hierarchy) pair."""

    def __init__(self, dist: Distribution, h: hi.Hierarchy):
        if dist.total <= 0:
            raise UnknownValue(f"{dist.attribute}: empty reference distribution")
        self.dist = dist
        self.hierarchy = h
        self._table: dict[str, float] = {}
        for value in h.level:
            self._table[value] = self._compute(value)

    def _compute(self, value: str) -> float:
        ground = hi.base(self.hierarchy, value)
        mass = sum(self.dist.counts.get(g, 0) for g in ground)
        if mass == 0:
            return 0.0
        p = mass / self.dist.total
        entropy = 0.0
        for g in sorted(ground):  # a fixed order keeps the float sum reproducible
            c = self.dist.counts.get(g, 0)
            if c:
                q = c / mass
                entropy -= q * math.log2(q)
        return p * entropy

    def penalty(self, value: str) -> float:
        self.hierarchy.require(value)
        return self._table[value]

    def distance(self, a: str, b: str) -> float:
        """Semantic distance delta(a, b), routed through the LCA; symmetric and
        non-negative. For comparable values the LCA is the upper one, whose
        term is 0.0, so this is their penalty difference."""
        anc = self._table[hi.lca(self.hierarchy, a, b)]
        return abs(anc - self._table[a]) + abs(anc - self._table[b])

    def bucket(self, v_true: str, v_repair: str) -> str:
        """Bucket of delta(true, repair) / delta(true, root); 0/0 lands in the
        first bucket and ratios above 1 are clamped into the last."""
        if self.hierarchy.level_of(v_true) != 0:
            raise UnknownValue(f"{self.hierarchy.attribute}: {v_true!r} is not a ground value")
        num = self.distance(v_true, v_repair)
        den = self.distance(v_true, self.hierarchy.root)
        if den == 0:
            return BUCKETS[0]
        ratio = min(num / den, 1.0)
        if ratio <= 0.25:
            return BUCKETS[0]
        if ratio <= 0.5:
            return BUCKETS[1]
        if ratio <= 0.75:
            return BUCKETS[2]
        return BUCKETS[3]


def penalty(dist: Distribution, h: hi.Hierarchy, value: str) -> float:
    """E(v); zero for ground values and for values with no empirical mass."""
    return PenaltyTable(dist, h).penalty(value)


def distance(dist: Distribution, h: hi.Hierarchy, a: str, b: str) -> float:
    """Semantic distance delta(a, b); symmetric and non-negative."""
    return PenaltyTable(dist, h).distance(a, b)


def normalized_bucket(dist: Distribution, h: hi.Hierarchy, v_true: str, v_repair: str) -> str:
    """Bucket of delta(true, repair) / delta(true, root)."""
    return PenaltyTable(dist, h).bucket(v_true, v_repair)


class MetricContext:
    """Penalty tables for every attribute, built from one reference relation."""

    def __init__(self, reference) -> None:
        self.tables: dict[str, PenaltyTable] = {}
        for attr in reference.schema.attributes:
            dist = Distribution.from_relation(reference, attr)
            self.tables[attr] = PenaltyTable(dist, reference.hierarchies.for_attribute(attr))

    def cell_distance(self, attribute: str, a: str, b: str) -> float:
        return self.tables[attribute].distance(a, b)


def tuple_distance(ctx: MetricContext, row_a, row_b, attributes: tuple[str, ...]) -> float:
    """Sum of per-cell distances between two aligned rows."""
    if row_a.tid != row_b.tid:
        raise AlignmentMismatch(f"rows {row_a.tid!r} and {row_b.tid!r} are not aligned")
    return sum(ctx.cell_distance(a, row_a.values[a], row_b.values[a]) for a in attributes)


def relation_distance(ctx: MetricContext, rel_a, rel_b) -> float:
    """Sum of per-cell distances over two relations with identical schemas."""
    if rel_a.schema.attributes != rel_b.schema.attributes:
        raise SchemaMismatch("relations have different attribute lists")
    if [r.tid for r in rel_a.rows] != [r.tid for r in rel_b.rows]:
        raise AlignmentMismatch("relations have different tuple-id sequences")
    attrs = rel_a.schema.attributes
    return sum(
        tuple_distance(ctx, ra, rb, attrs) for ra, rb in zip(rel_a.rows, rel_b.rows)
    )

