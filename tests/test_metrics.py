"""Penalty and semantic-distance metrics against the worked age example."""

import math
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pacas.errors import UnknownValue
from pacas.hierarchy import ancestors, generalizes, lca, load_hierarchy
from pacas.metrics import (
    BUCKETS,
    Distribution,
    MetricContext,
    PenaltyTable,
    distance,
    normalized_bucket,
    penalty,
    relation_distance,
    tuple_distance,
)


def age(hierarchies):
    return hierarchies["AGE"]


class TestPenalty:
    def test_interval_penalty_golden(self, age_distribution, hierarchies):
        # three of six reference ages fall under [31,60], each once
        e = penalty(age_distribution, age(hierarchies), "[31,60]")
        assert e == pytest.approx(0.5 * math.log2(3), abs=1e-9)
        assert e == pytest.approx(0.79, abs=0.005)

    def test_ground_penalty_zero(self, age_distribution, hierarchies):
        assert penalty(age_distribution, age(hierarchies), "51") == 0.0

    def test_root_penalty_is_full_entropy(self, age_distribution, hierarchies):
        e = penalty(age_distribution, age(hierarchies), "*")
        assert e == pytest.approx(math.log2(6), abs=1e-9)

    def test_zero_mass_value_has_zero_penalty(self, age_distribution, hierarchies):
        # [1,30] holds only the age 25, which never occurs in the reference
        assert penalty(age_distribution, age(hierarchies), "[1,30]") == 0.0

    def test_unknown_value(self, age_distribution, hierarchies):
        with pytest.raises(UnknownValue):
            penalty(age_distribution, age(hierarchies), "102")


class TestDistance:
    def test_child_to_interval_golden(self, age_distribution, hierarchies):
        d = distance(age_distribution, age(hierarchies), "[31,60]", "51")
        assert d == pytest.approx(0.79, abs=0.005)

    def test_siblings_through_lca_golden(self, age_distribution, hierarchies):
        d = distance(age_distribution, age(hierarchies), "45", "51")
        assert d == pytest.approx(1.58, abs=0.01)

    def test_self_distance_zero(self, age_distribution, hierarchies):
        assert distance(age_distribution, age(hierarchies), "67", "67") == 0.0

    def test_symmetry(self, age_distribution, hierarchies):
        h = age(hierarchies)
        assert distance(age_distribution, h, "45", "[61,90]") == pytest.approx(
            distance(age_distribution, h, "[61,90]", "45")
        )


class TestRelationDistance:
    def test_identical_relations(self, master):
        ctx = MetricContext(master)
        assert relation_distance(ctx, master, master) == 0.0

    def test_one_cell_differs(self, master):
        ctx = MetricContext(master)
        other = master.copy()
        other.row("m1").values["AGE"] = "45"
        assert relation_distance(ctx, master, other) == pytest.approx(1.585, abs=0.01)

    def test_sum_matches_cellwise_oracle(self, master):
        ctx = MetricContext(master)
        other = master.copy()
        other.row("m1").values["AGE"] = "32"
        other.row("m4").values["MED"] = "dolex"
        other.row("m5").values["GEN"] = "female"
        expected = sum(
            ctx.cell_distance(a, ra.values[a], rb.values[a])
            for ra, rb in zip(master.rows, other.rows)
            for a in master.schema.attributes
        )
        assert relation_distance(ctx, master, other) == pytest.approx(expected)

    def test_tuple_distance_alignment(self, master):
        ctx = MetricContext(master)
        from pacas.errors import AlignmentMismatch
        with pytest.raises(AlignmentMismatch):
            tuple_distance(ctx, master.rows[0], master.rows[1], master.schema.attributes)


class TestBuckets:
    def test_exact_repair_first_bucket(self, age_distribution, hierarchies):
        b = normalized_bucket(age_distribution, age(hierarchies), "51", "51")
        assert b == BUCKETS[0]

    def test_root_repair_last_bucket(self, age_distribution, hierarchies):
        b = normalized_bucket(age_distribution, age(hierarchies), "51", "*")
        assert b == BUCKETS[3]

    def test_mid_tree_ratio(self, age_distribution, hierarchies):
        h = age(hierarchies)
        num = distance(age_distribution, h, "51", "[31,60]")
        den = distance(age_distribution, h, "51", "*")
        ratio = num / den
        b = normalized_bucket(age_distribution, h, "51", "[31,60]")
        index = min(int(ratio // 0.25), 3) if ratio > 0.25 else 0
        assert b == BUCKETS[index]


# ---------------------------------------------------------------------------
# invariants over random trees and distributions

@st.composite
def tree_and_counts(draw):
    fanout = draw(st.integers(min_value=2, max_value=3))
    depth = draw(st.integers(min_value=1, max_value=3))
    nodes = [{"value": "*", "level": depth, "parent": None}]
    previous = ["*"]
    for level in range(depth - 1, -1, -1):
        current = []
        for parent in previous:
            for i in range(fanout):
                value = f"{parent}/{i}"
                nodes.append({"value": value, "level": level, "parent": parent})
                current.append(value)
        previous = current
    doc = {"attribute": "A", "levels": depth + 1, "nodes": nodes}
    leaves = previous
    counts = {
        leaf: draw(st.integers(min_value=0, max_value=5)) for leaf in leaves
    }
    if sum(counts.values()) == 0:
        counts[leaves[0]] = 1
    return doc, counts


@settings(max_examples=40, deadline=None)
@given(payload=tree_and_counts())
def test_penalty_monotone_along_chains(payload):
    doc, counts = payload
    h = load_hierarchy(doc)
    dist = Distribution(attribute="A", counts=counts, total=sum(counts.values()))
    table = PenaltyTable(dist, h)
    for value in h.level:
        chain = ancestors(h, value)
        penalties = [table.penalty(n) for n in chain]
        assert all(a <= b + 1e-12 for a, b in zip(penalties, penalties[1:]))
        assert penalties[-1] <= math.log2(max(len(h.ground_domain), 2)) + 1e-12


@settings(max_examples=40, deadline=None)
@given(payload=tree_and_counts(), data=st.data())
def test_path_additivity_and_comparable_difference(payload, data):
    doc, counts = payload
    h = load_hierarchy(doc)
    dist = Distribution(attribute="A", counts=counts, total=sum(counts.values()))
    table = PenaltyTable(dist, h)
    values = sorted(h.level)
    u = data.draw(st.sampled_from(values))
    chain = ancestors(h, u)
    w = data.draw(st.sampled_from(chain))
    v = data.draw(st.sampled_from(ancestors(h, w)))
    # u <= w <= v along one chain
    d_uv = table.distance(u, v)
    d_uw = table.distance(u, w)
    d_wv = table.distance(w, v)
    assert d_uv == pytest.approx(d_uw + d_wv, abs=1e-9)
    assert d_uv == pytest.approx(table.penalty(v) - table.penalty(u), abs=1e-9)


def two_branch_distance(table, a, b):
    """The rule `distance` followed before it routed every pair through the
    LCA: the penalty difference for comparable values, the LCA route otherwise."""
    h = table.hierarchy
    if generalizes(h, a, b) or generalizes(h, b, a):
        return abs(table.penalty(b) - table.penalty(a))
    anc = lca(h, a, b)
    return abs(table.penalty(anc) - table.penalty(a)) + abs(table.penalty(anc) - table.penalty(b))


@settings(max_examples=60, deadline=None)
@given(payload=tree_and_counts())
def test_distance_equals_two_branch_rule_bit_for_bit(payload):
    doc, counts = payload
    h = load_hierarchy(doc)
    dist = Distribution(attribute="A", counts=counts, total=sum(counts.values()))
    table = PenaltyTable(dist, h)
    values = sorted(h.level)
    for a in values:
        for b in values:
            assert table.distance(a, b) == two_branch_distance(table, a, b), (a, b)
    assert distance(dist, h, values[0], values[-1]) == \
        two_branch_distance(table, values[0], values[-1])


_FLAT_PENALTY = """
from pacas.hierarchy import load_hierarchy
from pacas.metrics import Distribution, PenaltyTable
leaves = [f"v{i:02d}" for i in range(40)]
h = load_hierarchy({"attribute": "A", "levels": 2, "nodes":
    [{"value": "*", "level": 1, "parent": None}]
    + [{"value": v, "level": 0, "parent": "*"} for v in leaves]})
values = [v for i, v in enumerate(leaves) for _ in range(i % 7 + 1)]
print(repr(PenaltyTable(Distribution.from_column("A", values, h), h).penalty("*")))
"""


def test_penalty_independent_of_string_hashing():
    """The entropy sum over a node's ground values runs in a fixed order, so
    the same reference gives the same float in every process."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    seen = set()
    for hash_seed in range(8):
        env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=str(hash_seed))
        result = subprocess.run([sys.executable, "-c", _FLAT_PENALTY], env=env,
                                capture_output=True, text=True, check=True, timeout=60)
        seen.add(result.stdout.strip())
    assert len(seen) == 1, seen
