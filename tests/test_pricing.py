"""Support sets, weighted-cover pricing and the safety gate."""

import json
import random

import pytest

from pacas import pricing
from pacas.anonymity import AnonymitySpec, is_safe_query, xgroups
from pacas.errors import (
    EmptyRelation,
    MalformedSnapshot,
    StalePartition,
    UnknownAttribute,
)
from pacas.gquery import GeneralizedQuery, eval_gq
from pacas.pricing import (
    INFINITE,
    Member,
    SupportSet,
    baseline_price,
    build_support_set,
    commit_sale,
    is_infinite,
    safe_price,
)
from pacas.provider import ProviderSession, ValueRequest
from pacas.relation import MD, GeneralizedRelation, Row, Schema

from conftest import FIXTURES
from test_anonymity import fanout2_hierarchies

SPEC = AnonymitySpec(x=("GEN", "AGE", "ZIP"), y=("MED",), levels=(0,), k=1)


class TestBuildSupportSet:
    def test_members_are_distinct_instances(self, master):
        support = build_support_set(master, 10, seed=3)
        rendered = [support.materialize(m).to_csv() for m in support.members]
        assert len(set(rendered)) == 10

    def test_singleton(self, master):
        support = build_support_set(master, 1, seed=3)
        assert len(support) == 1

    def test_seed_determinism(self, master):
        a = build_support_set(master, 12, seed=9)
        b = build_support_set(master, 12, seed=9)
        assert a.members == b.members

    def test_empty_relation_rejected(self, master, hierarchies):
        empty = GeneralizedRelation(master.schema, [], hierarchies)
        with pytest.raises(EmptyRelation):
            build_support_set(empty, 5, seed=0)

    def test_snapshot_roundtrip(self, master, tmp_path):
        support = build_support_set(master, 8, seed=4)
        path = tmp_path / "snapshot.json"
        support.save(path)
        loaded = SupportSet.load(path, master.copy())
        assert loaded.members == support.members
        assert loaded.seed == support.seed


class TestBaselinePrice:
    def test_unanimous_query_is_free(self, master, golden_support):
        # ulcer tuples are untouched by every golden member
        q = GeneralizedQuery(("DIAG",), (("GEN", "female"), ("AGE", "67")), (0,))
        assert baseline_price(q, master, golden_support) == 0

    def test_brute_force_conflict_enumeration(self, master):
        support = build_support_set(master, 10, seed=11)
        q = GeneralizedQuery(("MED",), (("GEN", "male"),), (0,))
        truth = eval_gq(q, master)
        expected = sum(
            m.weight for m in support.members
            if eval_gq(q, support.materialize(m)) != truth
        )
        assert baseline_price(q, master, support) == expected

    def test_full_relation_query(self, master):
        support = build_support_set(master, 10, seed=12)
        q = GeneralizedQuery(tuple(master.schema.attributes), (), (0, 0, 0, 0, 0))
        truth = eval_gq(q, master)
        expected = sum(
            m.weight for m in support.members
            if eval_gq(q, support.materialize(m)) != truth
        )
        assert baseline_price(q, master, support) == expected


class TestSafePrice:
    def test_k_above_candidate_union_is_infinite(self, master, golden_support):
        # at ground policy levels the union bound is exactly the distinct
        # ground candidates visible across the agreeing members
        spec = AnonymitySpec(x=("GEN", "AGE", "ZIP"), y=("MED",), levels=(0,), k=4)
        q = GeneralizedQuery(("MED",), (("GEN", "male"), ("AGE", "51")), (1,))
        quote, _ = safe_price(q, golden_support, spec)
        assert quote.infinite

    def test_agreeing_members_price_zero(self, master, golden_support):
        spec = AnonymitySpec(x=("GEN", "AGE", "ZIP"), y=("MED",), levels=(0,), k=3)
        q = GeneralizedQuery(("MED",), (("GEN", "male"), ("AGE", "51")), (1,))
        quote, partition = safe_price(q, golden_support, spec)
        assert quote.amount == 0
        assert len(partition.survivors) == len(golden_support)

    def test_split_prices_conflict_weight(self, master, golden_support):
        q = GeneralizedQuery(("MED",), (("GEN", "male"), ("AGE", "51")), (0,))
        quote, partition = safe_price(q, golden_support, SPEC)
        assert quote.amount == 2  # the two m1 MED variants disagree at ground
        assert len(partition.conflicts) == 2

    def test_anonymous_relation_with_agreeing_members_is_free(self, public):
        # the public table's X-groups each link three distinct medications, so
        # its own structure carries the gate even without support diversity
        spec = AnonymitySpec(x=("GEN", "AGE", "ZIP"), y=("MED",), levels=(0,), k=3)
        assert len({tuple(r.values[a] for a in spec.x) for r in public.rows}) == 2
        members = [
            Member("update", f"g{i}", attr="DIAG", value="tendinitis")
            for i in (1, 4, 5)
        ]
        support = SupportSet(public, members)
        q = GeneralizedQuery(("MED",), (("ZIP", "P*"),), (0,))
        quote, partition = safe_price(q, support, spec)
        assert quote.amount == 0
        assert len(partition.conflicts) == 0

    def test_ten_member_four_way_split_prices_four(self, public):
        # four members disagree on the probed answer, six agree; the gate holds
        # through the relation's own group diversity, so the price is exactly 4
        spec = AnonymitySpec(x=("GEN", "AGE", "ZIP"), y=("MED",), levels=(0,), k=3)
        disagree = [
            Member("update", "g1", attr="MED", value=v)
            for v in ("tylenol", "dolex", "intropes", "hydralazine")
        ]
        agree = [
            Member("update", f"g{i}", attr="DIAG", value=v)
            for i, v in zip((2, 3, 4, 5, 6, 6), ("ulcer", "ulcer", "migraine",
                                                 "ulcer", "tendinitis", "ulcer"))
        ]
        support = SupportSet(public, disagree + agree)
        assert len(support) == 10
        q = GeneralizedQuery(("MED",), (("DIAG", "osteoarthritis"),), (0,))
        quote, partition = safe_price(q, support, spec)
        assert quote.amount == 4
        assert len(partition.conflicts) == 4

    def test_finite_branch_equals_baseline(self, master):
        support = build_support_set(master, 12, seed=21)
        q = GeneralizedQuery(("MED",), (("GEN", "female"),), (1,))
        quote, _ = safe_price(q, support, SPEC)
        if not quote.infinite:
            assert quote.amount == baseline_price(q, master, support)

    @pytest.mark.parametrize("q", [
        GeneralizedQuery(("MED",), (("GEN", "male"), ("GENDER", "male")), (0,)),
        GeneralizedQuery(("MEDICATION",), (("GEN", "male"),), (0,)),
    ], ids=["selection", "projection"])
    def test_unknown_attribute_raises(self, golden_support, q):
        with pytest.raises(UnknownAttribute):
            safe_price(q, golden_support, SPEC)

    def test_never_under_gates(self, master):
        rng = random.Random(0)
        for seed in range(10):
            support = build_support_set(master, 10, seed=seed)
            spec = AnonymitySpec(x=("GEN", "AGE", "ZIP"), y=("MED",),
                                 levels=(0,), k=rng.randint(1, 3))
            row = master.rows[rng.randrange(len(master.rows))]
            q = GeneralizedQuery(("MED",), (("GEN", row.values["GEN"]),),
                                 (rng.randint(0, 3),))
            quote, partition = safe_price(q, support, spec)
            if quote.infinite:
                continue
            for t in master.rows:
                xvec = tuple(t.values[a] for a in spec.x)
                union = set()
                for member in partition.survivors:
                    union |= xgroups(support.materialize(member).rows,
                                     spec.x, spec.y).get(xvec, set())
                assert len(union) >= spec.k


class TestGateUnion:
    """The gate groups the union of the survivors' instances. A reference
    tuple is missing from that union only when every survivor edits it."""

    SPEC = AnonymitySpec(x=("P",), y=("S",), levels=(0,), k=3)
    # group P*.0.0 holds S values a, b and c (S*.0.0, S*.0.1, S*.1.0), and c sits
    # only on t3; group P*.1.1 holds three S values no member touches
    ROWS = [("t1", "P*.0.0", "S*.0.0"), ("t2", "P*.0.0", "S*.0.1"),
            ("t3", "P*.0.0", "S*.1.0"), ("t4", "P*.1.1", "S*.0.0"),
            ("t5", "P*.1.1", "S*.0.1"), ("t6", "P*.1.1", "S*.1.0")]
    QUERY = GeneralizedQuery(("S",), (("P", "P*.1.1"),), (0,))

    def quote(self, members):
        """(quote, survivor count, is_safe_query over the members' instances)"""
        relation = GeneralizedRelation(
            Schema(attributes=("P", "Q", "S")),
            [Row(tid, {"P": p, "Q": "Q*.0.0", "S": s}) for tid, p, s in self.ROWS],
            fanout2_hierarchies(),
        )
        support = SupportSet(relation, members)
        quote, partition = safe_price(self.QUERY, support, self.SPEC)
        safe = is_safe_query(self.QUERY, relation,
                             [support.materialize(m) for m in members], self.SPEC)
        return quote, len(partition.survivors), safe

    def test_tuple_every_survivor_edits_leaves_the_union(self):
        # both survivors drop c: one deletes t3, the other rewrites it to a
        quote, survivors, safe = self.quote([Member("delete", "t3"),
                                             Member("update", "t3", attr="S", value="S*.0.0")])
        assert survivors == 2
        assert quote.infinite
        assert safe is False

    def test_tuple_kept_by_some_survivor_stays_in_the_union(self):
        quote, survivors, safe = self.quote([Member("delete", "t3"),
                                             Member("update", "t3", attr="S", value="S*.0.0"),
                                             Member("delete", "t1")])
        assert survivors == 3
        assert quote.amount == 0
        assert safe is True

    def test_no_survivors_leave_an_empty_union(self):
        # the one member changes the answer, so no instance is left to hide in
        quote, survivors, safe = self.quote([Member("update", "t4", attr="S", value="S*.1.1")])
        assert survivors == 0
        assert quote.infinite
        assert safe is False


class TestSnapshotChecks:
    """A snapshot member the reference cannot hold is rejected when the
    snapshot is read, before any quote: its schema, its hierarchies and its
    tuple ids."""

    GROUND = {"GEN": "male", "AGE": "51", "ZIP": "P0T2T0", "DIAG": "ulcer",
              "MED": "dolex"}

    @pytest.mark.parametrize("bad", [
        {"kind": "update", "tuple_id": "m1", "attr": "MED"},
        {"kind": "update", "attr": "MED", "value": "dolex"},
        {"tuple_id": "m1"},
        {"kind": "insert", "tuple_id": "+1"},
        {"kind": "update", "tuple_id": "m1", "attr": "ZZZ", "value": "dolex"},
        {"kind": "insert", "tuple_id": "+1", "values": {**GROUND, "ZZZ": "x"}},
        {"kind": "insert", "tuple_id": "+1",
         "values": {a: v for a, v in GROUND.items() if a != "ZIP"}},
        {"kind": "update", "tuple_id": "m1", "attr": "MED", "value": "NSAID"},
        {"kind": "update", "tuple_id": "m1", "attr": "MED", "value": "zzz"},
        {"kind": "update", "tuple_id": "m1", "attr": "AGE", "value": 51},
        {"kind": "insert", "tuple_id": "+1", "values": {**GROUND, "AGE": "[31,60]"}},
        {"kind": "delete", "tuple_id": "m1", "weight": 0},
        {"kind": "delete", "tuple_id": "m1", "weight": -2},
        {"kind": "delete", "tuple_id": "m1", "weight": "2"},
        {"kind": "delete", "tuple_id": "m1", "weight": 1.5},
        {"kind": "delete", "tuple_id": "m1", "weight": True},
        {"kind": "move", "tuple_id": "m1"},
        {"kind": "update", "tuple_id": "m99", "attr": "MED", "value": "dolex"},
        {"kind": "insert", "tuple_id": "m3", "values": GROUND},
        {"kind": "delete", "tuple_id": "m99"},
    ], ids=["update_lacks_value", "update_lacks_tuple_id", "lacks_kind",
            "insert_lacks_values", "update_unknown_attr", "insert_extra_attr",
            "insert_missing_attr", "update_generalized_value", "update_unknown_value",
            "update_non_string_value", "insert_generalized_value", "weight_zero",
            "weight_negative", "weight_string", "weight_float", "weight_bool",
            "unknown_kind", "update_missing_tuple", "insert_reused_id",
            "delete_missing_tuple"])
    def test_rejected_at_load(self, master, bad):
        doc = json.loads((FIXTURES / "golden_support.json").read_text())
        doc["members"].insert(3, bad)
        with pytest.raises(MalformedSnapshot):
            SupportSet.from_json(doc, master)

    @pytest.mark.parametrize("doc", [{"seed": 0}, [], {"members": [], "seed": "x"}],
                             ids=["lacks_members", "not_an_object", "seed_not_int"])
    def test_bad_document_rejected(self, master, doc):
        with pytest.raises(MalformedSnapshot):
            SupportSet.from_json(doc, master)

    def test_valid_members_load(self, master):
        doc = {"members": [
            {"kind": "update", "tuple_id": "m1", "attr": "MED", "value": "dolex"},
            {"kind": "insert", "tuple_id": "+1", "values": self.GROUND, "weight": 3},
            {"kind": "delete", "tuple_id": "m2", "weight": 2},
        ]}
        support = SupportSet.from_json(doc, master)
        assert [m.weight for m in support.members] == [1, 3, 2]


class TestCommitSale:
    def test_repurchase_is_free(self, master, golden_support):
        q = GeneralizedQuery(("MED",), (("GEN", "male"), ("AGE", "51")), (0,))
        quote, partition = safe_price(q, golden_support, SPEC)
        assert quote.amount == 2
        commit_sale(golden_support, partition)
        quote2, _ = safe_price(q, golden_support, SPEC)
        assert quote2.amount == 0

    def test_sequential_sales_shrink_support(self, master, golden_support):
        q1 = GeneralizedQuery(("MED",), (("GEN", "male"), ("AGE", "51")), (0,))
        q2 = GeneralizedQuery(("MED",), (("GEN", "male"), ("AGE", "79")), (0,))
        _, p1 = safe_price(q1, golden_support, SPEC)
        commit_sale(golden_support, p1)
        remaining = len(golden_support)
        quote2, p2 = safe_price(q2, golden_support, SPEC)
        assert len(p2.survivors) + len(p2.conflicts) == remaining
        assert quote2.amount == 2  # m6 variants still present, priced now
        commit_sale(golden_support, p2)
        assert len(golden_support) == remaining - 2

    def test_commit_on_empty_conflict_is_noop(self, master, golden_support):
        q = GeneralizedQuery(("DIAG",), (("GEN", "female"), ("AGE", "67")), (0,))
        quote, partition = safe_price(q, golden_support, SPEC)
        assert quote.amount == 0
        before = list(golden_support.members)
        commit_sale(golden_support, partition)
        assert golden_support.members == before

    def test_stale_partition_rejected(self, master, golden_support):
        q1 = GeneralizedQuery(("MED",), (("GEN", "male"), ("AGE", "51")), (0,))
        q2 = GeneralizedQuery(("MED",), (("GEN", "male"), ("AGE", "79")), (0,))
        _, p1 = safe_price(q1, golden_support, SPEC)
        _, p2 = safe_price(q2, golden_support, SPEC)
        commit_sale(golden_support, p1)
        with pytest.raises(StalePartition):
            commit_sale(golden_support, p2)

    def test_kept_partition_stale_after_a_sale_outside_the_session(self, master,
                                                                    golden_support):
        """A session's kept partition is refused by its own set once a sale
        made outside the session has replaced the members, and the session
        then prices afresh."""
        md = MD(match=(("GEN", "GEN"), ("AGE", "AGE")), target=("MED", "MED"))
        session = ProviderSession(master=master, support=golden_support, spec=SPEC,
                                  mds=(md,))
        request, client = ValueRequest("t2", "MED", 0), {"GEN": "male", "AGE": "79"}
        _, (_, kept) = session.quote(request, client)
        q = GeneralizedQuery(("MED",), (("GEN", "male"), ("AGE", "51")), (0,))
        commit_sale(golden_support, safe_price(q, golden_support, SPEC)[1])
        with pytest.raises(StalePartition):
            commit_sale(golden_support, kept)
        price = session.ask_price(request, client)
        assert session.pay(price, request, client)[1] == 0

    def test_partition_of_a_twin_set_rejected(self, master, golden_support):
        """A partition belongs to the set whose member list it split, even
        where another set holds equal members."""
        twin = SupportSet(golden_support.reference, golden_support.members)
        q = GeneralizedQuery(("MED",), (("GEN", "male"), ("AGE", "51")), (0,))
        _, partition = safe_price(q, golden_support, SPEC)
        assert twin.members == golden_support.members
        with pytest.raises(StalePartition):
            commit_sale(twin, partition)
        assert len(twin) == len(golden_support)

    def test_prices_non_increasing_across_commits(self, master):
        support = build_support_set(master, 14, seed=31)
        probe = GeneralizedQuery(("MED",), (("GEN", "male"),), (0,))
        sales = [
            GeneralizedQuery(("MED",), (("GEN", "female"),), (0,)),
            GeneralizedQuery(("DIAG",), (("GEN", "male"),), (0,)),
        ]
        last = baseline_price(probe, master, support)
        sizes = [len(support)]
        for q in sales:
            quote, partition = safe_price(q, support, SPEC)
            if not quote.infinite:
                commit_sale(support, partition)
            now = baseline_price(probe, master, support)
            assert now <= last
            last = now
            sizes.append(len(support))
        assert sizes == sorted(sizes, reverse=True)


def test_member_edits_derived_once(master, monkeypatch):
    """A support set derives each member's edited rows when it is built;
    quotes, the sale and the instance oracle only read them."""
    calls = []
    edited_rows = pricing._edited_rows

    def counting(reference, member):
        calls.append(member)
        return edited_rows(reference, member)

    monkeypatch.setattr(pricing, "_edited_rows", counting)
    support = build_support_set(master, 8, seed=5)
    members = list(support.members)
    queries = [GeneralizedQuery(("MED",), (("GEN", gen),), (level,))
               for gen in ("male", "female") for level in (0, 1)]
    for q in queries:
        safe_price(q, support, SPEC)
    quote, partition = safe_price(queries[0], support, SPEC)
    assert not quote.infinite
    commit_sale(support, partition)
    for q in queries:
        safe_price(q, support, SPEC)
    baseline_price(queries[0], master, support)
    assert len(calls) == 8 and set(calls) == set(members)


def test_infinite_is_a_value_not_an_error():
    assert is_infinite(INFINITE)
    assert repr(INFINITE) == "INFINITE"
    with pytest.raises(TypeError):
        INFINITE + 1
