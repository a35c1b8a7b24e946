"""Stateful check of quoting and selling against materializing oracles.

Small relations whose X-groups hold k-1 to k+1 ground candidates, support
sets mixing updates, inserts and deletes, and random sequences of
`ask_price` and `pay`. After every step the quote must equal the oracle
price, its verdict must equal `is_safe_query` over the members' instances,
and the support set may shrink only on a sale, to the agreeing members.
The instances come from a copy of the rule that materializes a member by
copying the whole reference, so the oracle shares no code with the
edited-row pricing path.
"""

from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, rule, run_state_machine_as_test

from pacas.anonymity import AnonymitySpec, is_safe_query
from pacas.errors import NoMatch, PacasError, UnsafeRequest
from pacas.gquery import eval_gq
from pacas.hierarchy import generalize_to
from pacas.pricing import Member, SupportSet, baseline_price, is_infinite, safe_price
from pacas.provider import ProviderSession, ValueRequest, translate_request
from pacas.relation import MD, GeneralizedRelation, Row, Schema

from test_anonymity import fanout2_hierarchies

ATTRS = ("P", "Q", "S")
HS = fanout2_hierarchies()
GROUND = {a: sorted(v for v, level in HS[a].level.items() if level == 0) for a in ATTRS}
MDS = (
    MD(match=(("P", "P"),), target=("S", "S")),
    MD(match=(("P", "P"), ("S", "S")), target=("Q", "Q")),
)

# verdicts and member kinds seen across every run of the machine
SEEN: set = set()


def copying_instance(reference: GeneralizedRelation, member: Member) -> GeneralizedRelation:
    """A member's instance, built by copying every reference row and then
    applying the member's edit."""
    rows = [Row(r.tid, dict(r.values)) for r in reference.rows]
    if member.kind == "update":
        for row in rows:
            if row.tid == member.tid:
                row.values[member.attr] = member.value
                break
        else:
            raise PacasError(f"update targets missing tuple {member.tid!r}")
    elif member.kind == "delete":
        rows = [r for r in rows if r.tid != member.tid]
    elif member.kind == "insert":
        rows.append(Row(member.tid, dict(member.payload or ())))
    else:
        raise PacasError(f"unknown member kind {member.kind!r}")
    return GeneralizedRelation(schema=reference.schema, rows=rows,
                               hierarchies=reference.hierarchies)


@st.composite
def worlds(draw):
    """(master, members, k): each X-group holds k-1 to k+1 ground Y-values."""
    k = draw(st.integers(2, 3))
    rows: list[Row] = []
    for p in draw(st.lists(st.sampled_from(GROUND["P"]), min_size=1, max_size=2, unique=True)):
        spread = draw(st.integers(k - 1, k + 1))
        meds = draw(st.permutations(GROUND["S"]))[:spread]
        for s in meds + draw(st.lists(st.sampled_from(meds), max_size=2)):
            q = draw(st.sampled_from(GROUND["Q"]))
            rows.append(Row(f"t{len(rows)}", {"P": p, "Q": q, "S": s}))
    master = GeneralizedRelation(Schema(attributes=ATTRS), rows, HS)
    tids = [r.tid for r in rows]
    updates = st.builds(
        lambda tid, attr, data: Member("update", tid, attr=attr,
                                       value=data.draw(st.sampled_from(GROUND[attr]))),
        st.sampled_from(tids), st.sampled_from(ATTRS), st.data(),
    )
    inserts = st.builds(
        lambda i, values: Member("insert", f"+{i}", payload=tuple(zip(ATTRS, values))),
        st.integers(1, 3), st.tuples(*(st.sampled_from(GROUND[a]) for a in ATTRS)),
    )
    deletes = st.builds(lambda tid: Member("delete", tid), st.sampled_from(tids + ["t99"]))
    members = draw(st.lists(st.one_of(updates, inserts, deletes),
                            min_size=1, max_size=6, unique=True))
    return master, members, k


requests = st.tuples(
    st.sampled_from(("S", "Q")),
    st.integers(0, 2),
    st.fixed_dictionaries({a: st.sampled_from(GROUND[a]) for a in ATTRS}),
)


class GateMachine(RuleBasedStateMachine):
    @initialize(world=worlds())
    def start(self, world):
        self.master, members, k = world
        self.session = ProviderSession(
            master=self.master,
            support=SupportSet(self.master.copy(), members),
            spec=AnonymitySpec(x=("P",), y=("S",), levels=(0,), k=k),
            mds=MDS,
        )
        SEEN.update(m.kind for m in members)

    def oracle(self, request: ValueRequest, client: dict):
        """(query, price, safe, agreeing members) over copied instances."""
        q = translate_request(request, client, MDS)
        members = self.session.support.members
        instances = [copying_instance(self.master, m) for m in members]
        truth = eval_gq(q, self.master)
        agree = [eval_gq(q, inst) == truth for inst in instances]
        price = sum(m.weight for m, ok in zip(members, agree) if not ok)
        safe = is_safe_query(q, self.master, instances, self.session.spec)
        SEEN.add(safe)
        assert baseline_price(q, self.master, self.session.support) == price
        return q, price, safe, [m for m, ok in zip(members, agree) if ok]

    @rule(req=requests)
    def ask_price(self, req):
        attr, level, client = req
        request = ValueRequest("c", attr, level)
        _, price, safe, _ = self.oracle(request, client)
        before = list(self.session.support.members)
        quoted = self.session.ask_price(request, client)
        assert is_infinite(quoted) == (not safe)
        if safe:
            assert quoted == price
        assert self.session.support.members == before

    @rule(req=requests)
    def pay(self, req):
        attr, level, client = req
        request = ValueRequest("c", attr, level)
        q, price, safe, agreeing = self.oracle(request, client)
        before = list(self.session.support.members)
        if not safe:
            expected, after = UnsafeRequest, before
        elif not eval_gq(q, self.master):
            expected, after = NoMatch, before
        else:
            expected, after = None, agreeing
        try:
            self.session.pay(price, request, client)
        except (UnsafeRequest, NoMatch) as exc:
            assert type(exc) is expected
        else:
            assert expected is None
        assert self.session.support.members == after


def test_gate_matches_oracles_and_sees_both_verdicts():
    SEEN.clear()
    run_state_machine_as_test(
        GateMachine,
        settings=settings(max_examples=80, stateful_step_count=8, deadline=None),
    )
    assert {True, False, "update", "insert", "delete"} <= SEEN


@settings(max_examples=150, deadline=None)
@given(world=worlds(), req=requests)
def test_quote_answer_counts_the_selected_reference_rows(world, req):
    """A quote's answer is the oracle's answer over the reference, and each
    lifted value counts the selected reference rows that lift to it."""
    master, members, k = world
    attr, level, client = req
    support = SupportSet(master.copy(), members)
    q = translate_request(ValueRequest("c", attr, level), client, MDS)
    quote, _ = safe_price(q, support, AnonymitySpec(x=("P",), y=("S",), levels=(0,), k=k))
    assert frozenset(quote.answer) == eval_gq(q, support.reference)
    h = HS[attr]
    for (value,), count in quote.answer.items():
        assert count == sum(1 for r in support.reference.rows
                            if all(r.values[a] == v for a, v in q.selection)
                            and generalize_to(h, r.values[attr], level) == value)
