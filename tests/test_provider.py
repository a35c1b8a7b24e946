"""Provider sessions: translation, quoting, paying, ledger replay."""

import pytest

from pacas import pricing, provider
from pacas.anonymity import AnonymitySpec, is_safe_query
from pacas.errors import (
    NoApplicableMD,
    NoMatch,
    QuoteMismatch,
    UnknownAttribute,
    UnknownValue,
    UnsafeRequest,
)
from pacas.gquery import GeneralizedQuery, eval_ground
from pacas.harness import generate_master
from pacas.hierarchy import generalize_to
from pacas.pricing import INFINITE, SupportSet, build_support_set, is_infinite
from pacas.provider import ProviderSession, ValueRequest, translate_request
from pacas.relation import MD

from conftest import FIXTURES


def make_session(master, support, k=1, levels=(0,), mds=None):
    spec = AnonymitySpec(x=("GEN", "AGE", "ZIP"), y=("MED",), levels=levels, k=k)
    mds = mds or (MD(match=(("GEN", "GEN"), ("AGE", "AGE")), target=("MED", "MED")),)
    return ProviderSession(master=master, support=support, spec=spec, mds=mds)


T2 = {"GEN": "male", "AGE": "79", "DIAG": "osteoarthritis", "MED": "intropes"}


class TestCuratedRelationMustBeGround:
    def test_general_value_rejected(self, master, golden_support):
        general = master.copy()
        general.rows[0].values["MED"] = "NSAID"
        with pytest.raises(UnknownValue):
            make_session(general, golden_support)

    def test_value_missing_from_hierarchy_rejected(self, master, golden_support):
        unknown = master.copy()
        unknown.rows[0].values["MED"] = "ibuprofenn"
        with pytest.raises(UnknownValue):
            make_session(unknown, golden_support)


class TestSessionAttributes:
    """Every attribute of the spec's X and Y and every provider-side MD
    attribute is checked against the master once, when the session is built."""

    @pytest.mark.parametrize("x, y, md", [
        (("GEN", "AGE", "FOO"), ("MED",), None),
        (("GEN", "AGE", "ZIP"), ("FOO",), None),
        (("GEN", "AGE", "ZIP"), ("MED",), MD(match=(("GEN", "GEN"),), target=("MED", "FOO"))),
        (("GEN", "AGE", "ZIP"), ("MED",), MD(match=(("GEN", "FOO"),), target=("MED", "MED"))),
    ], ids=["x", "y", "md_target", "md_match"])
    def test_attribute_outside_schema_rejected(self, master, golden_support, x, y, md):
        spec = AnonymitySpec(x=x, y=y, levels=(0,), k=1)
        mds = (MD(match=(("GEN", "GEN"),), target=("MED", "MED")),) + ((md,) if md else ())
        with pytest.raises(UnknownAttribute, match="FOO"):
            ProviderSession(master=master, support=golden_support, spec=spec, mds=mds)

    def test_client_side_md_attributes_unchecked(self, master, golden_support):
        md = MD(match=(("CLIENT_GEN", "GEN"),), target=("CLIENT_MED", "MED"))
        make_session(master, golden_support, mds=(md,))


class TestTranslateRequest:
    def test_gender_age_selection(self, dep_config):
        r = ValueRequest("t2", "MED", 1)
        q = translate_request(r, T2, dep_config.mds)
        assert q.projection == ("MED",)
        assert set(q.selection) == {("GEN", "male"), ("AGE", "79")}
        assert q.levels == (1,)

    def test_no_applicable_md(self, dep_config):
        with pytest.raises(NoApplicableMD):
            translate_request(ValueRequest("t2", "DIAG", 0), T2, dep_config.mds)

    def test_single_clause_md(self):
        md = MD(match=(("GEN", "GEN"),), target=("MED", "MED"))
        q = translate_request(ValueRequest("t1", "MED", 0), T2, (md,))
        assert q.selection == (("GEN", "male"),)

    def test_deterministic_and_stateless(self, dep_config):
        r = ValueRequest("t2", "MED", 1)
        assert translate_request(r, T2, dep_config.mds) == translate_request(
            r, dict(T2), dep_config.mds
        )


class TestAskPrice:
    def test_unsafe_request_quotes_infinite(self, master, golden_support):
        session = make_session(master, golden_support, k=3, levels=(1,))
        price = session.ask_price(ValueRequest("t2", "MED", 0), T2)
        assert is_infinite(price)
        assert session.ledger[-1]["price"] == "infinite"

    def test_quote_is_side_effect_free(self, master, golden_support):
        session = make_session(master, golden_support)
        before = list(golden_support.members)
        session.ask_price(ValueRequest("t2", "MED", 0), T2)
        session.ask_price(ValueRequest("t2", "MED", 0), T2)
        assert golden_support.members == before

    def test_fresh_request_priced_by_conflicts(self, master, golden_support):
        session = make_session(master, golden_support)
        price = session.ask_price(ValueRequest("t2", "MED", 0), T2)
        assert price == 2  # the two m6 MED variants disagree


class TestPay:
    def test_golden_nsaid_disclosure(self, master, golden_support):
        session = make_session(master, golden_support, k=3, levels=(1,))
        request = ValueRequest("t2", "MED", 1)
        price = session.ask_price(request, T2)
        assert price == 0
        value, level = session.pay(price, request, T2)
        assert (value, level) == ("NSAID", 1)

    def test_ground_purchase_returns_ground_value(self, master, golden_support):
        session = make_session(master, golden_support)
        request = ValueRequest("t2", "MED", 0)
        price = session.ask_price(request, T2)
        value, level = session.pay(price, request, T2)
        assert (value, level) == ("ibuprofen", 0)

    def test_no_match(self, master, golden_support):
        session = make_session(master, golden_support)
        t3 = {"GEN": "male", "AGE": "45", "DIAG": "osteoarthritis", "MED": "addaprin"}
        request = ValueRequest("t3", "MED", 0)
        price = session.ask_price(request, t3)
        before = list(golden_support.members)
        with pytest.raises(NoMatch):
            session.pay(price, request, t3)
        assert golden_support.members == before  # failed purchases commit nothing

    def test_quote_mismatch(self, master, golden_support):
        session = make_session(master, golden_support)
        request = ValueRequest("t2", "MED", 0)
        session.ask_price(request, T2)
        with pytest.raises(QuoteMismatch):
            session.pay(99, request, T2)

    def test_paying_infinite_is_refused(self, master, golden_support):
        session = make_session(master, golden_support, k=3, levels=(1,))
        request = ValueRequest("t2", "MED", 0)
        with pytest.raises(UnsafeRequest):
            session.pay(INFINITE, request, T2)

    def test_exactly_once_semantics(self, master, golden_support):
        session = make_session(master, golden_support)
        request = ValueRequest("t2", "MED", 0)
        price = session.ask_price(request, T2)
        value, level = session.pay(price, request, T2)
        assert price == 2
        price2 = session.ask_price(request, T2)
        assert price2 == 0
        value2, level2 = session.pay(price2, request, T2)
        assert (value2, level2) == (value, level)

    def test_multi_match_selection_prefers_largest_support(self, hierarchies):
        from pacas.relation import load_relation
        csv_text = (
            "ID,GEN,AGE,ZIP,DIAG,MED\n"
            "m1,male,51,P0T2T0,migraine,dolex\n"
            "m2,male,51,P2Y9L8,ulcer,tylenol\n"
            "m3,male,51,P8R2S8,tendinitis,tylenol\n"
        )
        master = load_relation(csv_text, hierarchies)
        support = build_support_set(master, 4, seed=2)
        session = make_session(master, support)
        request = ValueRequest("c1", "MED", 0)
        probe = {"GEN": "male", "AGE": "51"}
        price = session.ask_price(request, probe)
        value, _ = session.pay(price, request, probe)
        assert value == "tylenol"  # two supporting tuples beat one

    def test_multi_match_tie_breaks_lexicographically(self, hierarchies):
        from pacas.relation import load_relation
        csv_text = (
            "ID,GEN,AGE,ZIP,DIAG,MED\n"
            "m1,male,51,P0T2T0,migraine,dolex\n"
            "m2,male,51,P2Y9L8,ulcer,addaprin\n"
        )
        master = load_relation(csv_text, hierarchies)
        support = build_support_set(master, 4, seed=2)
        session = make_session(master, support)
        request = ValueRequest("c1", "MED", 0)
        probe = {"GEN": "male", "AGE": "51"}
        price = session.ask_price(request, probe)
        value, _ = session.pay(price, request, probe)
        assert value == "addaprin"


class TestQuoteMemo:
    """A session prices a request once until its next sale: `pay` sells at
    the quote just given."""

    @pytest.fixture()
    def calls(self, monkeypatch):
        made = []
        price = provider.safe_price

        def counting(*args):
            made.append(args[0])
            return price(*args)

        monkeypatch.setattr(provider, "safe_price", counting)
        return made

    def test_ask_then_pay_prices_once(self, master, golden_support, calls):
        session = make_session(master, golden_support)
        request = ValueRequest("t2", "MED", 0)
        price = session.ask_price(request, T2)
        session.pay(price, request, T2)
        assert len(calls) == 1

    def test_asking_again_prices_nothing(self, master, golden_support, calls):
        session = make_session(master, golden_support)
        request = ValueRequest("t2", "MED", 0)
        assert session.ask_price(request, T2) == session.ask_price(request, T2) == 2
        assert len(calls) == 1

    def test_first_quote_after_a_sale_prices_afresh(self, master, golden_support, calls):
        session = make_session(master, golden_support)
        request = ValueRequest("t2", "MED", 0)
        session.pay(session.ask_price(request, T2), request, T2)
        assert session.ask_price(request, T2) == 0
        assert len(calls) == 2

    def test_pay_without_ask_prices_once(self, master, golden_support, calls):
        session = make_session(master, golden_support)
        session.pay(2, ValueRequest("t2", "MED", 0), T2)
        assert len(calls) == 1


class TestSaleFromQuote:
    """A quote evaluates rows, and a sale answers from its quote's answer:
    neither builds an instance for the oracle evaluator."""

    @pytest.mark.parametrize("k, level, price, value", [
        (3, 1, 0, "NSAID"),
        (1, 0, 2, "ibuprofen"),
    ])
    def test_ask_and_pay_without_eval_gq(self, master, golden_support, monkeypatch,
                                         k, level, price, value):
        def refuse(*args):
            raise AssertionError("eval_gq called on the pricing path")

        monkeypatch.setattr(pricing, "eval_gq", refuse)
        session = make_session(master, golden_support, k=k, levels=(1,))
        request = ValueRequest("t2", "MED", level)
        assert session.ask_price(request, T2) == price
        assert session.pay(price, request, T2) == (value, level)


def rescan_answer(master, q, level):
    """Reference for pay's answer: the ground answer first, then one master
    rescan per matched value counting the rows that lift to its ancestor.
    Returns the answer and whether several ground values lifted together."""
    attr = q.projection[0]
    h = master.hierarchies.for_attribute(attr)
    matches = eval_ground(GeneralizedQuery(q.projection, q.selection, (0,)), master)
    counts = {}
    for (ground_value,) in matches:
        lifted = generalize_to(h, ground_value, level)
        counts[lifted] = sum(
            1
            for row in master.rows
            if all(row.values[a] == v for a, v in q.selection)
            and generalize_to(h, row.values[attr], level) == lifted
        )
    return max(sorted(counts), key=lambda v: counts[v]), len(counts) < len(matches)


class TestPayAgainstRescan:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_every_group_and_level(self, seed):
        bundle = generate_master(seed)
        master = bundle.master
        md = MD(match=(("GEN", "GEN"), ("AGE", "AGE")), target=("MED", "MED"))
        spec = AnonymitySpec(x=bundle.spec_x, y=bundle.spec_y, levels=(0,), k=1)
        session = ProviderSession(master=master, spec=spec, mds=(md,),
                                  support=build_support_set(master.copy(), 10, seed))
        height = master.hierarchies.for_attribute("MED").height
        groups = sorted({(r.values["GEN"], r.values["AGE"]) for r in master.rows})
        sold = merged = 0
        for gen, age in groups:
            probe = {"GEN": gen, "AGE": age}
            for level in range(height + 1):
                request = ValueRequest("c1", "MED", level)
                price = session.ask_price(request, probe)
                if is_infinite(price):
                    continue
                q = translate_request(request, probe, session.mds)
                expected, several = rescan_answer(master, q, level)
                assert session.pay(price, request, probe) == (expected, level)
                sold += 1
                merged += several
        assert sold == len(groups) * (height + 1)
        assert merged > 0  # the lifted counts, not only ground ones, were exercised


class TestPolicyLevels:
    def test_gate_ignores_spec_levels(self, master, dirty):
        """The gate counts ground Y-candidates at k: a spec with L=1 quotes
        every request exactly as one with L=0."""
        height = master.hierarchies.for_attribute("MED").height
        sessions = [
            make_session(master, SupportSet.load(FIXTURES / "golden_support.json",
                                                 master.copy()), k=3, levels=levels)
            for levels in ((0,), (1,))
        ]
        quotes = [
            [session.ask_price(ValueRequest(row.tid, "MED", level), row.values)
             for row in dirty.rows for level in range(height + 1)]
            for session in sessions
        ]
        assert quotes[0] == quotes[1]
        assert any(is_infinite(price) for price in quotes[0])
        assert any(not is_infinite(price) for price in quotes[0])


class TestLedgerReplay:
    def test_paid_transcript_stays_safe(self, master, golden_support):
        session = make_session(master, golden_support, k=3, levels=(1,))
        sold = []
        for tid, tup, level in (
            ("t2", T2, 1),
            ("t5", {"GEN": "female", "AGE": "67"}, 1),
        ):
            request = ValueRequest(tid, "MED", level)
            price = session.ask_price(request, tup)
            if is_infinite(price):
                continue
            session.pay(price, request, tup)
            sold.append(translate_request(request, tup, session.mds))
        assert sold, "expected at least one finite sale"
        surviving = [
            session.support.materialize(m) for m in session.support.members
        ]
        for q in sold:
            assert is_safe_query(q, master, surviving, session.spec)
