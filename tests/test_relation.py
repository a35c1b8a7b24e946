"""Relation loading, generalized consistency, equivalence classes."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pacas.cleaner import start_session
from pacas.errors import (
    DuplicateTupleId,
    SchemaMismatch,
    StaleClass,
    UnknownAttribute,
    UnknownValue,
)
from pacas.hierarchy import HierarchySet, ancestors, generalizes, load_hierarchy
from pacas.relation import (
    FD,
    DependencyConfig,
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
        with pytest.raises(DuplicateTupleId, match="duplicate tuple id 't1'"):
            load_relation(csv_text, hierarchies)

    def test_short_row(self, hierarchies):
        csv_text = "ID,GEN,AGE,DIAG,MED\nt1,male,79,osteoarthritis\n"
        with pytest.raises(SchemaMismatch, match=r"'t1' has 4 cells.* 5 columns"):
            load_relation(csv_text, hierarchies)

    def test_long_row(self, hierarchies):
        csv_text = "ID,GEN,AGE,DIAG,MED\nt1,male,79,osteoarthritis,ibuprofen,dolex\n"
        with pytest.raises(SchemaMismatch, match=r"'t1' has 6 cells.* 5 columns"):
            load_relation(csv_text, hierarchies)

    def test_blank_lines_skipped(self, hierarchies):
        csv_text = "ID,GEN,AGE,DIAG,MED\n\nt1,male,79,osteoarthritis,ibuprofen\n\n"
        assert [row.tid for row in load_relation(csv_text, hierarchies).rows] == ["t1"]


class TestDependencyConfig:
    DOC = {"qi": ["GEN", "AGE"], "sensitive": ["MED"],
           "fds": [{"lhs": ["GEN", "DIAG"], "rhs": ["MED"]}],
           "mds": [{"match": [["GEN", "GEN"]], "target": ["MED", "MED"]}]}

    def test_loads(self):
        config = DependencyConfig.from_json(self.DOC)
        assert (config.qi, config.sensitive) == (("GEN", "AGE"), ("MED",))

    def test_unknown_key_rejected(self):
        # a misspelt "sensitive" would otherwise load with no sensitive attribute
        doc = {k: v for k, v in self.DOC.items() if k != "sensitive"}
        with pytest.raises(ValueError, match="sensitve"):
            DependencyConfig.from_json({**doc, "sensitve": ["MED"]})

    def test_overlapping_qi_and_sensitive_rejected(self):
        with pytest.raises(UnknownAttribute, match="overlap"):
            DependencyConfig.from_json({**self.DOC, "sensitive": ["MED", "AGE"]})

    # DependencyConfig owns these shapes: none escapes as a KeyError, IndexError
    # or TypeError, and no string is read as the tuple of its characters
    @pytest.mark.parametrize("key, value", [
        ("qi", "GEN"),
        ("sensitive", "MED"),
        ("sensitive", [1]),
        ("fds", "x"),
        ("fds", [["GEN", "MED"]]),
        ("fds", [{"lhs": ["GEN", "DIAG"]}]),
        ("fds", [{"lhs": "GEN", "rhs": ["MED"]}]),
        ("mds", [{"match": [["GEN"]], "target": ["MED", "MED"]}]),
        ("mds", [{"match": "GG", "target": ["MED", "MED"]}]),
        ("mds", [{"match": [["GEN", "GEN"]], "target": "MED"}]),
        ("mds", [{"match": [["GEN", "GEN"]], "target": ["MED", "MED", "MED"]}]),
        ("mds", [{"target": ["MED", "MED"]}]),
    ], ids=["string-qi", "string-sensitive", "int-sensitive", "string-fds", "array-fd",
            "fd-without-rhs", "string-lhs", "one-element-match", "string-match",
            "string-target", "three-element-target", "md-without-match"])
    def test_malformed_shape_rejected(self, key, value):
        with pytest.raises(ValueError):
            DependencyConfig.from_json({**self.DOC, key: value})


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


# ---------------------------------------------------------------------------
# the index's clustering against the union-find it replaced

def union_find_eqs(relation, fds):
    """Reference rule: union every RHS cell with the same attribute's cell of
    its LHS group's first row, per FD, then number the clusters in order of
    (first row, attribute)."""
    parent = {}

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    hs = relation.hierarchies
    for fd in fds:
        for row in relation.rows:
            for attr in fd.rhs:
                parent.setdefault((row.tid, attr), (row.tid, attr))
    for fd in fds:
        groups = {}
        for row in relation.rows:
            if all(hs[a].level_of(row.values[a]) == 0 for a in fd.lhs):
                groups.setdefault(tuple(row.values[a] for a in fd.lhs), []).append(row)
        for members in groups.values():
            for other in members[1:]:
                for attr in fd.rhs:
                    ra, rb = find((members[0].tid, attr)), find((other.tid, attr))
                    if ra != rb:
                        parent[rb] = ra
    clusters = {}
    for cell in parent:
        clusters.setdefault(find(cell), set()).add(cell)
    order = {row.tid: i for i, row in enumerate(relation.rows)}
    ranked = sorted(clusters.values(), key=lambda cells: min((order[t], a) for t, a in cells))
    return [EquivalenceClass(i + 1, frozenset(cells)) for i, cells in enumerate(ranked)]


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_generate_eqs_matches_union_find(seed):
    hs = _tiny_hierarchies()
    rng = random.Random(seed)
    rel = _random_relation(rng, hs, rng.randint(2, 4), rng.randint(1, 12), allow_general=True)
    attrs = rel.schema.attributes
    fds = (_random_fds(rng, attrs) + _random_fds(rng, attrs))[:rng.randint(1, 3)]
    expected = [(eq.eq_id, eq.cells) for eq in union_find_eqs(rel, fds)]
    assert [(eq.eq_id, eq.cells) for eq in generate_eqs(rel, fds)] == expected
    session = start_session(rel, tuple(fds), Fraction(1), 0)
    assert [(eq.eq_id, eq.cells) for eq in session.eqs] == [
        (eq.eq_id, eq.cells) for eq in union_find_eqs(rel, fds) if not resolved(rel, eq)
    ]


# ---------------------------------------------------------------------------
# the grouped scan against the pairwise rule it replaced

def pairwise_violations(relation, fds):
    """Reference rule: group rows by all-ground LHS vector in order of first
    row, then compare every pair of rows of a group, walking ancestor chains."""
    hs = relation.hierarchies
    out = []
    for fd in fds:
        groups = {}
        for row in relation.rows:
            if all(hs[a].level_of(row.values[a]) == 0 for a in fd.lhs):
                groups.setdefault(tuple(row.values[a] for a in fd.lhs), []).append(row)
        for members in groups.values():
            for i, a in enumerate(members):
                for b in members[i + 1:]:
                    if not all(b.values[y] in ancestors(hs[y], a.values[y])
                               or a.values[y] in ancestors(hs[y], b.values[y])
                               for y in fd.rhs):
                        out.append((fd, *sorted((a.tid, b.tid))))
    return out


_TINY = _tiny_hierarchies()
_ALL_VALUES = {a: sorted(_TINY[a].level) for a in ("A", "B", "C", "D")}


@st.composite
def relations_and_fds(draw):
    """Rows over A..D with values from every level (LHS values mostly
    ground, so groups form) and one to three FDs, RHS of one or two
    attributes."""
    attrs = ("A", "B", "C", "D")
    rows = []
    for i in range(draw(st.integers(0, 14))):
        values = {}
        for a in attrs:
            if draw(st.integers(0, 3)):
                values[a] = draw(st.sampled_from([v for v in _ALL_VALUES[a]
                                                  if _TINY[a].level[v] == 0]))
            else:
                values[a] = draw(st.sampled_from(_ALL_VALUES[a]))
        rows.append(Row(f"t{draw(st.integers(0, 99)):02d}-{i}", values))
    fds = []
    for _ in range(draw(st.integers(1, 3))):
        order = draw(st.permutations(attrs))
        cut = draw(st.integers(1, 2))
        fds.append(FD(lhs=tuple(order[:cut]), rhs=tuple(order[cut:cut + draw(st.integers(1, 2))])))
    return GeneralizedRelation(Schema(attributes=attrs), rows, _TINY), fds


@settings(max_examples=300, deadline=None)
@given(world=relations_and_fds())
def test_violations_match_pairwise_rule_in_order(world):
    rel, fds = world
    assert violations(rel, fds) == pairwise_violations(rel, fds)


class TestUnknownValues:
    """The table lookups that replaced the checked walks still reject values
    missing from the hierarchy."""

    def _relation(self, hierarchies, **cells):
        values = {"GEN": "male", "DIAG": "ulcer", "MED": "dolex", **cells}
        rows = [Row("t1", values), Row("t2", dict(values))]
        return GeneralizedRelation(Schema(attributes=("GEN", "DIAG", "MED")), rows, hierarchies)

    def test_generalizes_rejects_unknown_lower_and_upper(self, hierarchies):
        h = hierarchies.for_attribute("MED")
        with pytest.raises(UnknownValue):
            generalizes(h, "ibuprofenn", "NSAID")
        with pytest.raises(UnknownValue):
            generalizes(h, "ibuprofen", "NSAIDD")

    def test_is_ground_rejects_unknown_value(self, hierarchies):
        with pytest.raises(UnknownValue):
            self._relation(hierarchies, MED="dolexx").is_ground()

    def test_lhs_key_rejects_unknown_value(self, hierarchies):
        with pytest.raises(UnknownValue):
            violations(self._relation(hierarchies, DIAG="ulcerr"), [PHI])
