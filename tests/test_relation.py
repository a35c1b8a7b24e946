"""Relation loading, generalized consistency, equivalence classes."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pacas.errors import DuplicateTupleId, StaleClass, UnknownValue
from pacas.hierarchy import HierarchySet, generalizes, load_hierarchy
from pacas.relation import (
    FD,
    EquivalenceClass,
    GeneralizedRelation,
    Row,
    Schema,
    generate_eqs,
    is_consistent,
    load_relation,
    refresh_error_counts,
    resolved,
    violations,
)

PHI = FD(lhs=("GEN", "DIAG"), rhs=("MED",))


def error_count(relation, fds, eq):
    """Reference rule, one violation scan per class: distinct violating tuple
    pairs that any cell of the class participates in, unioned over all FDs."""
    for tid, _ in eq.cells:
        relation.row(tid)  # raises StaleClass when the tuple is gone
    pairs = set()
    for fd, t1, t2 in violations(relation, fds):
        involved = {(t, a) for t in (t1, t2) for a in fd.lhs + fd.rhs}
        if involved & eq.cells:
            pairs.add((t1, t2))
    return len(pairs)


class TestLoading:
    def test_golden_dirty_table(self, dirty):
        assert len(dirty.rows) == 8
        assert dirty.row("t2").values["MED"] == "intropes"

    def test_empty_body(self, hierarchies):
        rel = load_relation("ID,GEN,AGE,DIAG,MED\n", hierarchies)
        assert rel.rows == []

    def test_unknown_cell_value(self, hierarchies):
        csv_text = "ID,GEN,MED\nt1,male,ibuprofenn\n"
        with pytest.raises(UnknownValue):
            load_relation(csv_text, hierarchies)

    def test_duplicate_tuple_id(self, hierarchies):
        csv_text = "ID,GEN\nt1,male\nt1,female\n"
        with pytest.raises(DuplicateTupleId):
            load_relation(csv_text, hierarchies)


class TestConsistency:
    def test_golden_violations(self, dirty):
        ok, pairs = is_consistent(dirty, [PHI])
        assert not ok
        got = {(a, b) for _, a, b in pairs}
        assert got == {("t1", "t2"), ("t1", "t3"), ("t2", "t3"), ("t4", "t5")}

    def test_general_repair_resolves_pair(self, dirty):
        dirty.row("t2").values["MED"] = "NSAID"
        _, pairs = is_consistent(dirty, [PHI])
        assert ("t1", "t2") not in {(a, b) for _, a, b in pairs}

    def test_incomparable_general_value_still_violates(self, dirty):
        dirty.row("t2").values["MED"] = "vasodilators"
        _, pairs = is_consistent(dirty, [PHI])
        assert ("t1", "t2") in {(a, b) for _, a, b in pairs}

    def test_general_lhs_never_triggers(self, dirty):
        dirty.row("t1").values["DIAG"] = "musculoskeletal"
        _, pairs = is_consistent(dirty, [PHI])
        got = {(a, b) for _, a, b in pairs}
        assert ("t1", "t2") not in got and ("t1", "t3") not in got


class TestEquivalenceClasses:
    def test_golden_partition(self, dirty):
        eqs = [eq for eq in generate_eqs(dirty, [PHI]) if not resolved(dirty, eq)]
        cells = sorted(sorted(eq.cells) for eq in eqs)
        assert cells == [
            [("t1", "MED"), ("t2", "MED"), ("t3", "MED")],
            [("t4", "MED"), ("t5", "MED")],
        ]

    def test_golden_error_counts_and_ids(self, dirty):
        eqs = [eq for eq in generate_eqs(dirty, [PHI]) if not resolved(dirty, eq)]
        counts = {tuple(sorted(eq.cells))[0][0]: error_count(dirty, [PHI], eq) for eq in eqs}
        assert counts[("t1")] == 3
        assert counts[("t4")] == 1

    def test_all_distinct_lhs_gives_singletons(self, hierarchies):
        csv_text = (
            "ID,GEN,DIAG,MED\n"
            "t1,male,ulcer,dolex\n"
            "t2,female,migraine,tylenol\n"
        )
        rel = load_relation(csv_text, hierarchies)
        eqs = generate_eqs(rel, [PHI])
        assert all(len(eq.cells) == 1 for eq in eqs)

    def test_transitive_merge_across_two_fds(self, hierarchies):
        fds = [FD(lhs=("GEN",), rhs=("MED",)), FD(lhs=("DIAG",), rhs=("MED",))]
        csv_text = (
            "ID,GEN,DIAG,MED\n"
            "t1,male,ulcer,dolex\n"
            "t2,male,migraine,tylenol\n"
            "t3,female,migraine,ibuprofen\n"
        )
        rel = load_relation(csv_text, hierarchies)
        eqs = generate_eqs(rel, fds)
        assert len(eqs) == 1
        assert eqs[0].cells == {("t1", "MED"), ("t2", "MED"), ("t3", "MED")}

    def test_every_cell_in_exactly_one_class(self, dirty):
        eqs = generate_eqs(dirty, [PHI])
        seen = [c for eq in eqs for c in eq.cells]
        assert len(seen) == len(set(seen)) == len(dirty.rows)

    def test_consistent_relation_zero_errors(self, truth):
        for eq in generate_eqs(truth, [PHI]):
            assert error_count(truth, [PHI], eq) == 0

    def test_stale_class(self, dirty):
        eqs = generate_eqs(dirty, [PHI])
        dirty.rows[:] = [r for r in dirty.rows if r.tid != "t1"]
        dirty.__post_init__()
        target = next(eq for eq in eqs if ("t1", "MED") in eq.cells)
        with pytest.raises(StaleClass):
            error_count(dirty, [PHI], target)

    def test_refresh_stale_class(self, dirty):
        eqs = generate_eqs(dirty, [PHI])
        dirty.rows[:] = [r for r in dirty.rows if r.tid != "t1"]
        dirty.__post_init__()
        with pytest.raises(StaleClass):
            refresh_error_counts(dirty, [PHI], eqs)


# ---------------------------------------------------------------------------
# randomized cross-checks

def _tiny_hierarchies() -> HierarchySet:
    hs = HierarchySet()
    for attr in ("A", "B", "C", "D"):
        nodes = [{"value": "*", "level": 2, "parent": None}]
        for g in range(2):
            nodes.append({"value": f"{attr}g{g}", "level": 1, "parent": "*"})
            for v in range(2):
                nodes.append({"value": f"{attr}v{g}{v}", "level": 0, "parent": f"{attr}g{g}"})
        hs[attr] = load_hierarchy({"attribute": attr, "levels": 3, "nodes": nodes})
    return hs


def _random_relation(rng, hs, n_attrs, n_rows, allow_general):
    attrs = ("A", "B", "C", "D")[:n_attrs]
    rows = []
    for i in range(n_rows):
        values = {}
        for a in attrs:
            pool = [v for v, lvl in hs[a].level.items()
                    if lvl == 0 or (allow_general and lvl == 1)]
            values[a] = rng.choice(sorted(pool))
        rows.append(Row(f"t{i}", values))
    return GeneralizedRelation(Schema(attributes=attrs), rows, hs)


def _classical_violations(rel, fd):
    bad = set()
    rows = rel.rows
    for i in range(len(rows)):
        for j in range(i + 1, len(rows)):
            a, b = rows[i], rows[j]
            if all(a.values[x] == b.values[x] for x in fd.lhs):
                if any(a.values[y] != b.values[y] for y in fd.rhs):
                    bad.add(tuple(sorted((a.tid, b.tid))))
    return bad


def _comparability_violations(rel, fd):
    bad = set()
    hs = rel.hierarchies
    rows = rel.rows
    for i in range(len(rows)):
        for j in range(i + 1, len(rows)):
            a, b = rows[i], rows[j]
            lhs_ground = all(hs[x].level_of(a.values[x]) == 0
                             and hs[x].level_of(b.values[x]) == 0 for x in fd.lhs)
            if not lhs_ground or any(a.values[x] != b.values[x] for x in fd.lhs):
                continue
            for y in fd.rhs:
                va, vb = a.values[y], b.values[y]
                if not (generalizes(hs[y], va, vb) or generalizes(hs[y], vb, va)):
                    bad.add(tuple(sorted((a.tid, b.tid))))
                    break
    return bad


def test_ground_consistency_matches_classical_checker():
    hs = _tiny_hierarchies()
    rng = random.Random(42)
    for trial in range(200):
        n_attrs = rng.randint(2, 4)
        rel = _random_relation(rng, hs, n_attrs, rng.randint(1, 8), allow_general=False)
        attrs = list(rel.schema.attributes)
        rng.shuffle(attrs)
        fd = FD(lhs=tuple(attrs[:1]), rhs=tuple(attrs[1:2]))
        got = {(a, b) for _, a, b in violations(rel, [fd])}
        assert got == _classical_violations(rel, fd)


def test_generalized_consistency_matches_comparability_oracle():
    hs = _tiny_hierarchies()
    rng = random.Random(43)
    for trial in range(200):
        rel = _random_relation(rng, hs, rng.randint(2, 4), rng.randint(1, 8),
                               allow_general=True)
        attrs = list(rel.schema.attributes)
        rng.shuffle(attrs)
        fd = FD(lhs=tuple(attrs[:2]) if len(attrs) > 2 else tuple(attrs[:1]),
                rhs=tuple(attrs[-1:]))
        got = {(a, b) for _, a, b in violations(rel, [fd])}
        assert got == _comparability_violations(rel, fd)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_generate_eqs_order_independent(seed):
    hs = _tiny_hierarchies()
    rng = random.Random(seed)
    rel = _random_relation(rng, hs, 3, rng.randint(2, 8), allow_general=False)
    fd = FD(lhs=("A",), rhs=("B",))
    baseline = {frozenset(eq.cells) for eq in generate_eqs(rel, [fd])}
    shuffled_rows = list(rel.rows)
    rng.shuffle(shuffled_rows)
    shuffled = GeneralizedRelation(rel.schema, shuffled_rows, hs)
    assert {frozenset(eq.cells) for eq in generate_eqs(shuffled, [fd])} == baseline


def _random_fds(rng, attrs):
    fds = []
    for _ in range(rng.randint(1, 2)):
        shuffled = list(attrs)
        rng.shuffle(shuffled)
        cut = rng.randint(1, len(shuffled) - 1)
        fds.append(FD(lhs=tuple(shuffled[:cut]), rhs=tuple(shuffled[cut:cut + rng.randint(1, 2)])))
    return fds


def _assert_counts_match_rule(rel, fds, eqs):
    refresh_error_counts(rel, fds, eqs)
    assert [eq.error_count for eq in eqs] == [error_count(rel, fds, eq) for eq in eqs]


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_refresh_error_counts_matches_per_class_rule(seed):
    hs = _tiny_hierarchies()
    rng = random.Random(seed)
    rel = _random_relation(rng, hs, rng.randint(2, 4), rng.randint(2, 10),
                           allow_general=rng.random() < 0.5)
    fds = _random_fds(rng, rel.schema.attributes)
    eqs = generate_eqs(rel, fds)
    _assert_counts_match_rule(rel, fds, eqs)
    # any caller's classes count as before, even ones that share cells
    cells = [(row.tid, a) for row in rel.rows for a in rel.schema.attributes]
    _assert_counts_match_rule(rel, fds, [
        EquivalenceClass(i, frozenset(rng.sample(cells, rng.randint(1, 4)))) for i in range(4)
    ])
    for _ in range(rng.randint(1, 4)):
        if not eqs:
            break
        # as apply_repair does: one value into every cell of a class, which
        # then leaves the list
        eq = rng.choice(eqs)
        attr = sorted(eq.attributes())[0]
        value = rng.choice(sorted(v for v, lvl in hs[attr].level.items() if lvl <= 1))
        for tid, a in eq.cells:
            rel.row(tid).values[a] = value
        eqs = [e for e in eqs if e is not eq]
        _assert_counts_match_rule(rel, fds, eqs)
    # rewrites outside the classes, LHS cells included, move the counts too
    for _ in range(rng.randint(1, 3)):
        row = rng.choice(rel.rows)
        attr = rng.choice(rel.schema.attributes)
        row.values[attr] = rng.choice(sorted(v for v, lvl in hs[attr].level.items() if lvl == 0))
    _assert_counts_match_rule(rel, fds, eqs)
