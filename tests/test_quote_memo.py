"""Stateful check of the quotes a session keeps between sales.

Worlds and requests as in the gate machine, with random interleavings of
`ask_price`, `pay` and `info`, plus sales committed outside the session and
floods of distinct quotes. After every step each request seen so far must
quote exactly as a fresh `safe_price` on the current support set does, and
a finite quote must equal `baseline_price`. A sale with and without a quote
before it must end alike, and its value must equal a count over every
master row.
"""

from collections import Counter

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
    run_state_machine_as_test,
)

from pacas.anonymity import AnonymitySpec
from pacas.hierarchy import generalize_to
from pacas.pricing import Member, SupportSet, baseline_price, commit_sale, safe_price
from pacas.protocol import handle_message
from pacas.provider import _QUOTE_MEMO_CAP, ProviderSession, ValueRequest, translate_request

from test_gate_machine import GROUND, MDS, requests, worlds

# pay outcomes seen across every run of the machine
SEEN: set = set()


def brute_force_sale(master, q, level):
    """pay's answer from a scan of every master row, or None for no match."""
    attr = q.projection[0]
    h = master.hierarchies.for_attribute(attr)
    counts = Counter(
        generalize_to(h, row.values[attr], level)
        for row in master.rows
        if all(row.values[a] == v for a, v in q.selection)
    )
    return max(sorted(counts), key=counts.__getitem__) if counts else None


class QuoteMemoMachine(RuleBasedStateMachine):
    @initialize(world=worlds())
    def start(self, world):
        self.master, members, k = world
        self.spec = AnonymitySpec(x=("P",), y=("S",), levels=(0,), k=k)
        self.session = self.new_session(members)
        self.seen: list[tuple[ValueRequest, dict]] = []

    def new_session(self, members) -> ProviderSession:
        return ProviderSession(master=self.master, spec=self.spec, mds=MDS,
                               support=SupportSet(self.master.copy(), members))

    def see(self, req) -> tuple[ValueRequest, dict]:
        attr, level, client = req
        request = (ValueRequest("c", attr, level), client)
        if request not in self.seen:
            self.seen.append(request)
        return request

    @rule(req=requests)
    def ask_price(self, req):
        self.session.ask_price(*self.see(req))

    @rule(req=requests, ask_first=st.booleans())
    def pay(self, req, ask_first):
        self.pay_both(req, ask_first)

    @rule(row=st.integers(0, 99),
          expected=st.sampled_from(("sold", "no_match", "unsafe_request")))
    def pay_with_a_known_outcome(self, row, expected):
        """Rebuild the support set so that a pay's outcome is known, then ask
        and pay, so every run can meet each outcome whatever the world.

        sold, no_match: pad the set with inserts that give every X-group
        every ground Y-value, so every group keeps k candidates among the
        instances that answer as the master does; buy S at the root level
        for a master row's tuple, or for a P value no master row holds.
        unsafe_request: the only member inserts, next to a master row, a Q
        value that row's (P, S) never has, so no member answers that row's Q
        request as the master does and the quote is infinite."""
        r = self.master.rows[row % len(self.master.rows)].values
        if expected == "unsafe_request":
            qs = {t.values["Q"] for t in self.master.rows
                  if (t.values["P"], t.values["S"]) == (r["P"], r["S"])}
            odd = next(q for q in GROUND["Q"] if q not in qs)
            members = [Member("insert", "+odd", payload=(("P", r["P"]), ("Q", odd), ("S", r["S"])))]
            req = ("Q", 0, dict(r))
        else:
            members = list(self.session.support.members)
            # worlds hold at most two of the four ground P values
            held = sorted({t.values["P"] for t in self.master.rows})
            padding = (
                Member("insert", f"+pad:{p}:{s}",
                       payload=(("P", p), ("Q", GROUND["Q"][0]), ("S", s)))
                for p in held
                for s in GROUND["S"]
            )
            members += [m for m in padding if m not in members]
            if expected == "sold":
                req = ("S", 2, dict(r))
            else:
                absent = next(p for p in GROUND["P"] if p not in held)
                req = ("S", 2, {"P": absent, "Q": GROUND["Q"][0], "S": GROUND["S"][0]})
        self.session = self.new_session(members)
        assert self.pay_both(req, ask_first=True) == expected

    def pay_both(self, req, ask_first) -> str:
        """One session pays with a quote just asked, a fresh twin without;
        returns the outcome, "sold" or the error."""
        request, client = self.see(req)
        twin = self.new_session(self.session.support.members)
        q, (quote, _) = self.fresh(request, client)
        price = "infinite" if quote.infinite else quote.amount
        outcomes, sales = [], []
        for session, ask in ((self.session, ask_first), (twin, not ask_first)):
            if ask:
                session.ask_price(request, client)
            ledger = len(session.ledger)
            message = {"op": "pay", "price": price, "request": request.to_json(),
                       "tuple": client}
            outcomes.append(handle_message(session, message))
            sales.append(session.ledger[ledger:])
        assert outcomes[0] == outcomes[1]
        outcome = outcomes[0].get("error", "sold")
        SEEN.add(outcome)
        assert sales[0] == sales[1]
        assert self.session.support.members == twin.support.members
        if outcomes[0]["ok"]:
            assert outcomes[0]["value"] == brute_force_sale(self.master, q, request.level)
            assert self.session._quotes == {}
        return outcome

    @rule()
    def info(self):
        weight = sum(m.weight for m in self.session.support.members)
        assert handle_message(self.session, {"op": "info"}) == \
            {"ok": True, "total_weight": weight}

    @rule(req=requests)
    def sale_outside_the_session(self, req):
        """The support set shrinks without the session's `pay`: kept quotes
        made before must not be served."""
        request, client = self.see(req)
        q, (quote, partition) = self.fresh(request, client)
        if not quote.infinite:
            commit_sale(self.session.support, partition)

    @rule(base=st.integers(0, 10**6))
    def flood(self, base):
        """Distinct quotes with no sale fill the memo to its cap, no further."""
        for i in range(_QUOTE_MEMO_CAP + 3):
            self.session.ask_price(ValueRequest("c", "S", 0),
                                   {"P": f"flood{base + i}", "Q": "q", "S": "s"})
        assert len(self.session._quotes) == _QUOTE_MEMO_CAP

    def fresh(self, request, client):
        """(query, safe_price) on the current support set, memo bypassed."""
        q = translate_request(request, client, MDS)
        return q, safe_price(q, self.session.support, self.spec)

    @invariant()
    def kept_quotes_match_fresh_ones(self):
        for request, client in self.seen:
            q, kept = self.session.quote(request, client)
            assert kept == self.fresh(request, client)[1]
            quote, _ = kept
            if not quote.infinite:
                assert quote.amount == baseline_price(q, self.master, self.session.support)
        assert len(self.session._quotes) <= _QUOTE_MEMO_CAP


def test_kept_quotes_match_fresh_pricing():
    SEEN.clear()
    run_state_machine_as_test(
        QuoteMemoMachine,
        settings=settings(max_examples=60, stateful_step_count=10, deadline=None),
    )
    assert {"sold", "unsafe_request", "no_match"} <= SEEN
