"""Hierarchy algebra: loading, base, generalizes, lca, generalize_to."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pacas.errors import LevelBelowValue, MalformedHierarchy, UnknownValue
from pacas.hierarchy import (
    ancestors,
    base,
    generalize_to,
    generalizes,
    lca,
    load_hierarchy,
)


def med(hierarchies):
    return hierarchies["MED"]


class TestLoading:
    def test_golden_med_tree(self, hierarchies):
        h = med(hierarchies)
        assert h.root == "*"
        assert h.height == 3
        assert h.level_of("NSAID") == 1
        assert h.parent["ibuprofen"] == "NSAID"

    def test_single_node_document(self):
        h = load_hierarchy(
            {"attribute": "A", "levels": 1,
             "nodes": [{"value": "*", "level": 0, "parent": None}]}
        )
        assert h.height == 0
        assert base(h, "*") == {"*"}

    def test_two_roots_rejected(self):
        doc = {"attribute": "A", "levels": 2, "nodes": [
            {"value": "r1", "level": 1, "parent": None},
            {"value": "r2", "level": 1, "parent": None},
            {"value": "x", "level": 0, "parent": "r1"},
        ]}
        with pytest.raises(MalformedHierarchy):
            load_hierarchy(doc)

    def test_level_skipping_edge_rejected(self):
        doc = {"attribute": "A", "levels": 3, "nodes": [
            {"value": "*", "level": 2, "parent": None},
            {"value": "x", "level": 0, "parent": "*"},
        ]}
        with pytest.raises(MalformedHierarchy):
            load_hierarchy(doc)

    def test_duplicate_value_rejected(self):
        doc = {"attribute": "A", "levels": 2, "nodes": [
            {"value": "*", "level": 1, "parent": None},
            {"value": "x", "level": 0, "parent": "*"},
            {"value": "x", "level": 0, "parent": "*"},
        ]}
        with pytest.raises(MalformedHierarchy):
            load_hierarchy(doc)

    def test_leaf_above_ground_rejected(self):
        doc = {"attribute": "A", "levels": 3, "nodes": [
            {"value": "*", "level": 2, "parent": None},
            {"value": "mid", "level": 1, "parent": "*"},
            {"value": "stub", "level": 1, "parent": "*"},
            {"value": "x", "level": 0, "parent": "mid"},
        ]}
        with pytest.raises(MalformedHierarchy):
            load_hierarchy(doc)

    def test_unknown_parent_rejected(self):
        doc = {"attribute": "A", "levels": 2, "nodes": [
            {"value": "*", "level": 1, "parent": None},
            {"value": "x", "level": 0, "parent": "ghost"},
        ]}
        with pytest.raises(MalformedHierarchy):
            load_hierarchy(doc)

    # the loader owns node shapes: none escapes as a KeyError or TypeError, nor loads
    @pytest.mark.parametrize("node, levels", [
        ("x", 2),
        ({"level": 0, "parent": "*"}, 2),
        ({"value": "x", "parent": "*"}, 2),
        ({"value": ["x"], "level": 0, "parent": "*"}, 2),
        ({"value": 5, "level": 0, "parent": "*"}, 2),
        ({"value": "x", "level": 0, "parent": ["*"]}, 2),
        ({"value": "x", "level": 0.9, "parent": "*"}, 2),
        ({"value": "x", "level": "0", "parent": "*"}, 2),
        ({"value": "x", "level": False, "parent": "*"}, 2),
        ({"value": "x", "level": 0, "parent": "*"}, 2.0),
    ], ids=["string-node", "no-value", "no-level", "list-value", "int-value", "list-parent",
            "float-level", "string-level", "bool-level", "float-levels"])
    def test_malformed_node_rejected(self, node, levels):
        doc = {"attribute": "A", "levels": levels,
               "nodes": [{"value": "*", "level": 1, "parent": None}, node]}
        with pytest.raises(MalformedHierarchy):
            load_hierarchy(doc)

    def test_bool_levels_rejected(self):
        with pytest.raises(MalformedHierarchy):
            load_hierarchy({"attribute": "A", "levels": True,
                            "nodes": [{"value": "*", "level": 0, "parent": None}]})

    def test_duplicate_attribute_in_set_rejected(self):
        from pacas.hierarchy import load_hierarchy_set
        doc = {"attribute": "A", "levels": 1,
               "nodes": [{"value": "*", "level": 0, "parent": None}]}
        with pytest.raises(MalformedHierarchy):
            load_hierarchy_set([doc, doc])


class TestBase:
    def test_nsaid_base(self, hierarchies):
        assert base(med(hierarchies), "NSAID") == {"ibuprofen", "addaprin", "naproxen"}

    def test_ground_base_is_self(self, hierarchies):
        assert base(med(hierarchies), "ibuprofen") == {"ibuprofen"}

    def test_root_base_is_whole_ground_domain(self, hierarchies):
        h = med(hierarchies)
        leaves = {v for v, lvl in h.level.items() if lvl == 0}
        assert base(h, "*") == leaves

    def test_unknown_value(self, hierarchies):
        with pytest.raises(UnknownValue):
            base(med(hierarchies), "ibuprofenn")


class TestGeneralizes:
    def test_ibuprofen_under_nsaid(self, hierarchies):
        assert generalizes(med(hierarchies), "ibuprofen", "NSAID")

    def test_reflexive(self, hierarchies):
        assert generalizes(med(hierarchies), "NSAID", "NSAID")

    def test_not_downward(self, hierarchies):
        assert not generalizes(med(hierarchies), "NSAID", "ibuprofen")


class TestLca:
    def test_ages_meet_at_interval(self, hierarchies):
        assert lca(hierarchies["AGE"], "45", "51") == "[31,60]"

    def test_lca_with_root(self, hierarchies):
        assert lca(med(hierarchies), "ibuprofen", "*") == "*"

    def test_disjoint_subtrees_meet_at_root(self, hierarchies):
        assert lca(med(hierarchies), "ibuprofen", "intropes") == "*"

    def test_self_lca(self, hierarchies):
        assert lca(med(hierarchies), "tylenol", "tylenol") == "tylenol"


class TestGeneralizeTo:
    def test_naproxen_to_family(self, hierarchies):
        assert generalize_to(med(hierarchies), "naproxen", 1) == "NSAID"

    def test_dolex_to_family(self, hierarchies):
        assert generalize_to(med(hierarchies), "dolex", 1) == "acetaminophen"

    def test_identity_at_own_level(self, hierarchies):
        assert generalize_to(med(hierarchies), "NSAID", 1) == "NSAID"

    def test_level_below_value(self, hierarchies):
        with pytest.raises(LevelBelowValue):
            generalize_to(med(hierarchies), "NSAID", 0)


# ---------------------------------------------------------------------------
# property tests over random trees

@st.composite
def tree_documents(draw):
    depth = draw(st.integers(min_value=1, max_value=3))
    widths = [draw(st.integers(min_value=1, max_value=4)) for _ in range(depth)]
    nodes = [{"value": "*", "level": depth, "parent": None}]
    previous = ["*"]
    for level in range(depth - 1, -1, -1):
        width = max(widths[level], len(previous))
        current = [f"n{level}_{i}" for i in range(width)]
        for i, value in enumerate(current):
            # guarantee every upper node keeps at least one child
            parent = previous[i] if i < len(previous) else draw(st.sampled_from(previous))
            nodes.append({"value": value, "level": level, "parent": parent})
        previous = current
    return {"attribute": "A", "levels": depth + 1, "nodes": nodes}


@settings(max_examples=60, deadline=None)
@given(doc=tree_documents(), data=st.data())
def test_partial_order_properties(doc, data):
    h = load_hierarchy(doc)
    values = sorted(h.level)
    u = data.draw(st.sampled_from(values))
    v = data.draw(st.sampled_from(values))
    w = data.draw(st.sampled_from(values))
    assert generalizes(h, u, u)
    if generalizes(h, u, v) and generalizes(h, v, u):
        assert u == v
    if generalizes(h, u, v) and generalizes(h, v, w):
        assert generalizes(h, u, w)


@settings(max_examples=60, deadline=None)
@given(doc=tree_documents())
def test_base_is_union_of_children_bases(doc):
    h = load_hierarchy(doc)
    for value in h.level:
        kids = [child for child, parent in h.parent.items() if parent == value]
        assert len(base(h, value)) >= 1
        if kids:
            assert base(h, value) == frozenset().union(*(base(h, k) for k in kids))


@settings(max_examples=60, deadline=None)
@given(doc=tree_documents(), data=st.data())
def test_ancestor_readers_match_parent_walk(doc, data):
    h = load_hierarchy(doc)
    values = sorted(h.level)
    u = data.draw(st.sampled_from(values))
    w = data.draw(st.sampled_from(values))
    walk = [u]
    while h.parent[walk[-1]] is not None:
        walk.append(h.parent[walk[-1]])
    assert ancestors(h, u) == walk
    at_level = {h.level[node]: node for node in walk}
    for level in range(h.level[u], h.height + 1):
        assert generalize_to(h, u, level) == at_level[level]
    assert generalizes(h, u, w) == (w in walk)


@settings(max_examples=60, deadline=None)
@given(doc=tree_documents(), data=st.data())
def test_lca_matches_path_intersection(doc, data):
    h = load_hierarchy(doc)
    values = sorted(h.level)
    u = data.draw(st.sampled_from(values))
    v = data.draw(st.sampled_from(values))
    got = lca(h, u, v)
    common = [n for n in ancestors(h, u) if n in set(ancestors(h, v))]
    brute = min(common, key=lambda n: h.level[n])
    assert got == brute
    assert generalizes(h, u, got) and generalizes(h, v, got)


@settings(max_examples=60, deadline=None)
@given(doc=tree_documents(), data=st.data())
def test_generalize_to_dominates(doc, data):
    h = load_hierarchy(doc)
    values = sorted(h.level)
    v = data.draw(st.sampled_from(values))
    level = data.draw(st.integers(min_value=h.level[v], max_value=h.height))
    up = generalize_to(h, v, level)
    assert h.level[up] == level
    assert generalizes(h, v, up)
