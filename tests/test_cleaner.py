"""Repair loop: class selection, budget allocation, request generation,
repair application and the end-to-end golden scenarios."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pacas.anonymity import AnonymitySpec
from pacas.cleaner import (
    allocate,
    apply_repair,
    generate_request,
    safe_clean,
    select_eq,
    start_session,
)
from pacas.errors import LevelCapViolation, NoClasses
from pacas.protocol import EmbeddedProvider
from pacas.provider import ProviderSession
from pacas.relation import (
    FD,
    EquivalenceClass,
    GeneralizedRelation,
    Row,
    Schema,
    is_consistent,
    refresh_error_counts,
    violations,
)

from test_relation import _tiny_hierarchies

PHI = (FD(lhs=("GEN", "DIAG"), rhs=("MED",)),)


def embedded(master, support, dep_config, k=1, levels=(0,)):
    spec = AnonymitySpec(x=("GEN", "AGE", "ZIP"), y=("MED",), levels=levels, k=k)
    session = ProviderSession(master=master, support=support, spec=spec,
                              mds=dep_config.mds)
    return EmbeddedProvider(session)


class TestSelectAndAllocate:
    def test_selects_class_with_most_errors(self, dirty):
        session = start_session(dirty, PHI, Fraction(1), 0)
        eq = select_eq(session)
        assert eq.error_count == 3
        assert ("t1", "MED") in eq.cells

    def test_tie_breaks_by_smallest_id(self, dirty):
        session = start_session(dirty, PHI, Fraction(1), 0)
        for eq in session.eqs:
            eq.error_count = 1
        assert select_eq(session).eq_id == min(e.eq_id for e in session.eqs)

    def test_no_classes(self, truth):
        session = start_session(truth, PHI, Fraction(1), 0)
        with pytest.raises(NoClasses):
            select_eq(session)

    def test_proportional_allocation(self, dirty):
        session = start_session(dirty, PHI, Fraction(1), 0)
        eq1 = select_eq(session)
        assert allocate(session, eq1) == Fraction(3, 4)

    def test_single_class_takes_everything(self, dirty):
        session = start_session(dirty, PHI, Fraction(1), 0)
        eq1 = select_eq(session)
        session.eqs = [eq1]
        assert allocate(session, eq1) == Fraction(1)

    def test_zero_error_class_gets_nothing(self, dirty):
        session = start_session(dirty, PHI, Fraction(1), 0)
        eq1 = select_eq(session)
        eq2 = next(e for e in session.eqs if e is not eq1)
        eq2.error_count = 0
        assert allocate(session, eq2) == 0

    def test_zero_denominator_degenerates_to_full_budget(self, dirty):
        session = start_session(dirty, PHI, Fraction(2), 0)
        for eq in session.eqs:
            eq.error_count = 0
        assert allocate(session, session.eqs[0]) == Fraction(2)


class TestGenerateRequest:
    def test_ample_budget_prefers_ground_level(self, dirty, master, golden_support, dep_config):
        provider = embedded(master, golden_support, dep_config)
        session = start_session(dirty, PHI, Fraction(12), 1)
        eq1 = select_eq(session)
        request, price = generate_request(session, eq1, Fraction(12), provider)
        assert request.level == 0

    def test_gate_pushes_to_level_one(self, dirty, master, golden_support, dep_config):
        provider = embedded(master, golden_support, dep_config, k=3, levels=(1,))
        session = start_session(dirty, PHI, Fraction(12), 1)
        eq1 = select_eq(session)
        # exclude t3, whose empty-match probe quotes finite at ground
        request, price = generate_request(
            session, eq1, Fraction(12), provider, skip={("t3", "MED")}
        )
        assert request.level == 1
        assert price == 0

    def test_budget_staging_pushes_to_cheaper_level(self, dirty, master, golden_support,
                                                    dep_config):
        # level-0 quotes for t1/t2 cost 2 but the level-1 quotes are free, so a
        # budget of 1 forces the request one level up
        provider = embedded(master, golden_support, dep_config)
        session = start_session(dirty, PHI, Fraction(1), 1)
        eq1 = select_eq(session)
        request, price = generate_request(
            session, eq1, Fraction(1), provider, skip={("t3", "MED")}
        )
        assert request.level == 1
        assert price == 0

    def test_zero_budget_with_positive_prices(self, dirty, master, golden_support, dep_config):
        provider = embedded(master, golden_support, dep_config)
        session = start_session(dirty, PHI, Fraction(0), 0)
        eq1 = select_eq(session)
        # skip the free empty-match probe so every candidate costs money
        assert generate_request(session, eq1, Fraction(0), provider,
                                skip={("t3", "MED")}) is None


class TestApplyRepair:
    def test_repair_resolves_class_pairs(self, dirty):
        session = start_session(dirty, PHI, Fraction(1), 1)
        eq1 = select_eq(session)
        apply_repair(session, eq1, "NSAID", 1)
        for tid in ("t1", "t2", "t3"):
            assert session.relation.row(tid).values["MED"] == "NSAID"
        _, pairs = is_consistent(session.relation, PHI)
        got = {(a, b) for _, a, b in pairs}
        assert got == {("t4", "t5")}

    def test_violation_count_drops(self, dirty):
        session = start_session(dirty, PHI, Fraction(1), 0)
        before = len(is_consistent(session.relation, PHI)[1])
        eq1 = select_eq(session)
        apply_repair(session, eq1, "ibuprofen", 0)
        after = len(is_consistent(session.relation, PHI)[1])
        assert after < before

    def test_error_counts_refresh(self, dirty):
        session = start_session(dirty, PHI, Fraction(1), 0)
        eq1 = select_eq(session)
        apply_repair(session, eq1, "ibuprofen", 0)
        assert [e.error_count for e in session.eqs] == [1]

    def test_level_cap_enforced(self, dirty):
        session = start_session(dirty, PHI, Fraction(1), 0)
        eq1 = select_eq(session)
        with pytest.raises(LevelCapViolation):
            apply_repair(session, eq1, "NSAID", 1)


class TestSafeClean:
    def test_golden_ground_repair(self, dirty, master, golden_support, dep_config, truth):
        provider = embedded(master, golden_support, dep_config, k=1)
        budget = Fraction(1) * golden_support.total_weight
        repaired, report = safe_clean(dirty, provider, PHI, budget, l_max=0, truth=truth)
        assert repaired.row("t2").values["MED"] == "ibuprofen"
        assert repaired.row("t3").values["MED"] == "ibuprofen"
        assert report.violations_after == 0
        assert report.budget_spent <= budget

    def test_golden_generalized_repair(self, dirty, master, golden_support, dep_config):
        provider = embedded(master, golden_support, dep_config, k=3, levels=(1,))
        budget = Fraction(1) * golden_support.total_weight
        repaired, report = safe_clean(dirty, provider, PHI, budget, l_max=1)
        for tid in ("t1", "t2", "t3"):
            assert repaired.row(tid).values["MED"] == "NSAID"

    def test_zero_budget_returns_input(self, dirty, master, golden_support, dep_config):
        provider = embedded(master, golden_support, dep_config)
        repaired, report = safe_clean(dirty, provider, PHI, Fraction(0), l_max=0)
        assert repaired.to_csv() == dirty.to_csv()
        assert report.budget_spent == 0
        assert not report.iterations

    def test_budget_never_overspent(self, dirty, master, golden_support, dep_config):
        provider = embedded(master, golden_support, dep_config)
        budget = Fraction(2)
        _, report = safe_clean(dirty, provider, PHI, budget, l_max=0)
        assert 0 <= report.budget_spent <= budget

    def test_iterations_bounded_by_class_count(self, dirty, master, golden_support, dep_config):
        provider = embedded(master, golden_support, dep_config)
        _, report = safe_clean(dirty, provider, PHI,
                               Fraction(12), l_max=0)
        assert len(report.iterations) <= 2

    def test_level_cap_respected_everywhere(self, dirty, master, golden_support, dep_config):
        provider = embedded(master, golden_support, dep_config, k=3, levels=(1,))
        repaired, report = safe_clean(dirty, provider, PHI,
                                      Fraction(12), l_max=1)
        med = repaired.hierarchies["MED"]
        for it in report.iterations:
            if it.get("outcome") == "repaired":
                assert med.level_of(it["purchase"]["value"]) <= 1

    def test_report_carries_repair_error(self, dirty, master, golden_support, dep_config, truth):
        provider = embedded(master, golden_support, dep_config, k=1)
        _, report = safe_clean(dirty, provider, PHI,
                               Fraction(12), l_max=0, truth=truth)
        assert report.repair_error is not None
        assert report.buckets is not None
        assert abs(sum(report.buckets.values()) - 1.0) < 1e-9


# ---------------------------------------------------------------------------
# kept counts against a full recount after every repair

TINY = _tiny_hierarchies()
# B is the RHS of one FD and the LHS of another, so a B class's repair moves
# tuples between the second FD's groups; the last FD has a two-attribute RHS
CHAIN_FDS = (FD(("A",), ("B",)), FD(("B",), ("C",)), FD(("A", "C"), ("D",)),
             FD(("D",), ("B", "C")))


def _values(attr, max_level):
    return sorted(v for v, lvl in TINY[attr].level.items() if lvl <= max_level)


@st.composite
def repair_runs(draw):
    fds = draw(st.lists(st.sampled_from(CHAIN_FDS), min_size=1, max_size=4, unique=True))
    rows = [
        Row(f"t{i}", {a: draw(st.sampled_from(_values(a, draw(st.sampled_from((0, 0, 0, 1))))))
                      for a in "ABCD"})
        for i in range(draw(st.integers(2, 14)))
    ]
    relation = GeneralizedRelation(Schema(attributes=("A", "B", "C", "D")), rows, TINY)
    steps = draw(st.lists(st.tuples(st.integers(0, 99), st.integers(0, 99), st.booleans()),
                          max_size=8))
    return relation, fds, steps


def _assert_kept_counts_are_current(session):
    fresh = [EquivalenceClass(e.eq_id, e.cells) for e in session.eqs]
    refresh_error_counts(session.relation, session.fds, fresh)
    assert [e.error_count for e in session.eqs] == [e.error_count for e in fresh]
    assert session.index.count == len(violations(session.relation, session.fds))


@settings(max_examples=200, deadline=None)
@given(run=repair_runs())
def test_kept_counts_match_full_recount_after_every_repair(run):
    relation, fds, steps = run
    session = start_session(relation, tuple(fds), Fraction(1), 2)
    _assert_kept_counts_are_current(session)
    for pick, value_pick, repair in steps:
        if not session.eqs:
            break
        eq = session.eqs[pick % len(session.eqs)]
        if repair:
            attr = sorted(eq.attributes())[0]
            values = _values(attr, 2)
            value = values[value_pick % len(values)]
            apply_repair(session, eq, value, TINY[attr].level[value])
        else:  # as safe_clean drops a class it could not repair
            session.eqs = [e for e in session.eqs if e is not eq]
        _assert_kept_counts_are_current(session)


def test_report_counts_match_recount(dirty, master, golden_support, dep_config, truth):
    provider = embedded(master, golden_support, dep_config, k=1)
    repaired, report = safe_clean(dirty, provider, PHI, Fraction(1), l_max=0)
    assert report.violations_before == len(violations(dirty, PHI)) == 4
    assert report.violations_after == len(violations(repaired, PHI))
