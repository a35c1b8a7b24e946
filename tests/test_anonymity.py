"""Anonymity validators against brute-force oracles and the public table."""

import itertools
import random

import pytest

from pacas.anonymity import (
    AnonymitySpec,
    group_sizes,
    is_safe_query,
    is_xy_anonymous,
    is_xyl_anonymous,
)
from pacas.errors import EmptyInstanceSet
from pacas.gquery import GeneralizedQuery, eval_gq, eval_ground, xgroup_query
from pacas.hierarchy import HierarchySet, generalize_to, load_hierarchy
from pacas.relation import GeneralizedRelation, Row, Schema

X = ("GEN", "AGE", "ZIP")
Y = ("MED",)


class TestXYAnonymity:
    def test_public_table_anonymous_at_three(self, public):
        assert is_xy_anonymous(public, X, Y, 3)

    def test_diag_linkage_breaks_it(self, public):
        assert not is_xy_anonymous(public, ("DIAG",), Y, 3)

    def test_k_one_always_holds(self, public):
        assert is_xy_anonymous(public, ("DIAG",), Y, 1)


class TestXYLAnonymity:
    def test_family_level_linkage_fails(self, public):
        spec = AnonymitySpec(x=X, y=Y, levels=(1,), k=3)
        assert not is_xyl_anonymous(public, spec)

    def test_ground_levels_reduce_to_xy(self, public):
        spec = AnonymitySpec(x=X, y=Y, levels=(0,), k=3)
        assert is_xyl_anonymous(public, spec) == is_xy_anonymous(public, X, Y, 3)


# ---------------------------------------------------------------------------
# random corpus shared with the acceptance suite

def fanout2_hierarchies(depth=2):
    hs = HierarchySet()
    for attr in ("P", "Q", "S"):
        nodes = [{"value": f"{attr}*", "level": depth, "parent": None}]
        previous = [f"{attr}*"]
        for level in range(depth - 1, -1, -1):
            current = []
            for parent in previous:
                for i in range(2):
                    v = f"{parent}.{i}"
                    nodes.append({"value": v, "level": level, "parent": parent})
                    current.append(v)
            previous = current
        hs[attr] = load_hierarchy({"attribute": attr, "levels": depth + 1, "nodes": nodes})
    return hs


def random_ground_relation(rng, hs, n_rows):
    attrs = ("P", "Q", "S")
    rows = []
    for i in range(n_rows):
        values = {
            a: rng.choice(sorted(v for v, l in hs[a].level.items() if l == 0))
            for a in attrs
        }
        rows.append(Row(f"t{i}", values))
    return GeneralizedRelation(Schema(attributes=attrs), rows, hs)


def brute_force_xy(relation, x, y, k):
    for row in relation.rows:
        xvec = tuple(row.values[a] for a in x)
        linked = {
            tuple(other.values[a] for a in y)
            for other in relation.rows
            if tuple(other.values[a] for a in x) == xvec
        }
        if len(linked) < k:
            return False
    return True


def brute_force_xyl(relation, x, y, levels, k):
    hs = relation.hierarchies
    for row in relation.rows:
        xvec = tuple(row.values[a] for a in x)
        linked = set()
        for other in relation.rows:
            if tuple(other.values[a] for a in x) == xvec:
                linked.add(tuple(
                    generalize_to(hs[a], other.values[a], lvl)
                    for a, lvl in zip(y, levels)
                ))
        if len(linked) < k:
            return False
    return True


def corpus(seed=1234, size=200):
    rng = random.Random(seed)
    hs = fanout2_hierarchies()
    out = []
    for _ in range(size):
        rel = random_ground_relation(rng, hs, rng.randint(1, 8))
        x = tuple(rng.sample(("P", "Q"), rng.randint(1, 2)))
        y = ("S",)
        k = rng.randint(1, 4)
        levels = (rng.randint(0, hs["S"].height),)
        out.append((rel, x, y, levels, k))
    return out


def test_validators_match_brute_force_oracles():
    disagreements = 0
    for rel, x, y, levels, k in corpus():
        spec = AnonymitySpec(x=x, y=y, levels=levels, k=k)
        if is_xy_anonymous(rel, x, y, k) != brute_force_xy(rel, x, y, k):
            disagreements += 1
        if is_xyl_anonymous(rel, spec) != brute_force_xyl(rel, x, y, levels, k):
            disagreements += 1
    assert disagreements == 0


def per_row_group_sizes(relation, x, y, levels=None):
    """Reference rule, one selection query per tuple: distinct Y-values (at
    the given levels) among the rows matching the tuple's X-vector."""
    out = []
    for row in relation.rows:
        probe = xgroup_query(row, tuple(x), tuple(y), tuple(levels or (0,) * len(y)))
        answers = eval_gq(probe, relation) if levels else eval_ground(probe, relation)
        out.append((row.tid, len(answers)))
    return out


def test_group_sizes_match_per_row_rule():
    for rel, x, _, _, _ in corpus():
        hs = rel.hierarchies
        for y in (("S",), tuple(a for a in ("Q", "S") if a not in x)):
            every_level = itertools.product(*(range(hs[a].height + 1) for a in y))
            for levels in (None, *every_level):
                assert group_sizes(rel, x, y, levels) == per_row_group_sizes(rel, x, y, levels)


def test_theorem_level_monotonicity():
    # higher output levels only strengthen the guarantee
    for rel, x, y, _, k in corpus(seed=99, size=100):
        h = rel.hierarchies["S"]
        for l2 in range(h.height + 1):
            for l1 in range(l2 + 1):
                if brute_force_xyl(rel, x, y, (l2,), k):
                    assert brute_force_xyl(rel, x, y, (l1,), k)
                    spec1 = AnonymitySpec(x=x, y=y, levels=(l1,), k=k)
                    assert is_xyl_anonymous(rel, spec1)


def test_theorem_xyl_implies_xy():
    for rel, x, y, levels, k in corpus(seed=77, size=100):
        spec = AnonymitySpec(x=x, y=y, levels=levels, k=k)
        if is_xyl_anonymous(rel, spec):
            assert is_xy_anonymous(rel, x, y, k)


class TestSafeQuery:
    def test_single_instance_of_anonymous_relation(self, public):
        spec = AnonymitySpec(x=X, y=Y, levels=(0,), k=3)
        q = GeneralizedQuery(("MED",), (("DIAG", "ulcer"),), (0,))
        assert is_safe_query(q, public, [public], spec)

    def test_pinned_single_value_unsafe(self):
        hs = fanout2_hierarchies()
        ground_p = sorted(v for v, l in hs["P"].level.items() if l == 0)
        ground_q = sorted(v for v, l in hs["Q"].level.items() if l == 0)
        rows = [
            Row("t0", {"P": ground_p[0], "Q": ground_q[0], "S": "S*.0.0"}),
            Row("t1", {"P": ground_p[0], "Q": ground_q[1], "S": "S*.0.0"}),
        ]
        rel = GeneralizedRelation(Schema(attributes=("P", "Q", "S")), rows, hs)
        spec = AnonymitySpec(x=("P",), y=("S",), levels=(0,), k=2)
        # three instances agreeing with the query, all linking the P-group to
        # the same single S value; the union never reaches k=2
        instances = []
        for i in range(3):
            inst = rel.copy()
            inst.rows[0].values["Q"] = ground_q[i % len(ground_q)]
            instances.append(inst)
        q = GeneralizedQuery(("S",), (), (0,))
        assert not is_safe_query(q, rel, instances, spec)

    def test_empty_answers_leave_union_check(self):
        hs = fanout2_hierarchies()
        rng = random.Random(6)
        rel = random_ground_relation(rng, hs, 5)
        spec = AnonymitySpec(x=("P",), y=("S",), levels=(0,), k=1)
        # selection matches nothing anywhere: I_G is every instance
        q = GeneralizedQuery(("S",), (("Q", "Q*.0.0"), ("Q", "Q*.1.1")), (0,))
        variants = []
        for i in range(3):
            inst = rel.copy()
            inst.rows[0].values["S"] = sorted(hs["S"].ground_domain)[i % 4]
            variants.append(inst)
        assert is_safe_query(q, rel, variants, spec)

    def test_enumerated_universe_matches_definition(self):
        hs = fanout2_hierarchies()
        rng = random.Random(7)
        rel = random_ground_relation(rng, hs, 3)
        spec = AnonymitySpec(x=("P",), y=("S",), levels=(0,), k=2)
        grounds = sorted(hs["S"].ground_domain)
        universe = []
        for a in grounds:
            for b in grounds:
                inst = rel.copy()
                inst.rows[0].values["S"] = a
                inst.rows[-1].values["S"] = b
                universe.append(inst)
        q = GeneralizedQuery(("S",), (("P", rel.rows[0].values["P"]),), (1,))
        got = is_safe_query(q, rel, universe, spec)
        # oracle straight from the definition
        from pacas.gquery import eval_gq, eval_ground, xgroup_query
        truth_answer = eval_gq(q, rel)
        agreeing = [inst for inst in universe if eval_gq(q, inst) == truth_answer]
        expected = True
        for row in rel.rows:
            probe = xgroup_query(row, spec.x, spec.y, (0,))
            union = set()
            for inst in agreeing:
                union |= eval_ground(probe, inst)
            if len(union) < spec.k:
                expected = False
        assert got == expected

    def test_empty_instance_set(self, public):
        spec = AnonymitySpec(x=X, y=Y, levels=(0,), k=1)
        q = GeneralizedQuery(("MED",), (), (0,))
        with pytest.raises(EmptyInstanceSet):
            is_safe_query(q, public, [], spec)

    def test_monotone_in_k(self):
        hs = fanout2_hierarchies()
        rng = random.Random(8)
        rel = random_ground_relation(rng, hs, 6)
        instances = []
        for i in range(4):
            inst = rel.copy()
            inst.rows[i % len(inst.rows)].values["S"] = sorted(hs["S"].ground_domain)[i]
            instances.append(inst)
        q = GeneralizedQuery(("S",), (), (2,))
        safe_at = [
            k for k in range(1, 5)
            if is_safe_query(q, rel, instances,
                             AnonymitySpec(x=("P",), y=("S",), levels=(0,), k=k))
        ]
        assert safe_at == sorted(safe_at)
        if safe_at:
            assert safe_at == list(range(1, max(safe_at) + 1))
