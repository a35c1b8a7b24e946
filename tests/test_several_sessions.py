"""Sales spread over several sessions of one buyer, against one session
that makes them all.

Each session holds its own support set, so a buyer who opens several
learns the answers of every session while each gate sees only its own
sales. The property: every sale made on any session is also quoted finite
by one session that has replayed every earlier sale, from any session, in
order. Where it fails, the answers bought across sessions narrow an X-group
below k, which no single session would have sold.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pacas.anonymity import AnonymitySpec
from pacas.errors import NoMatch
from pacas.pricing import Member, SupportSet, is_infinite
from pacas.provider import ProviderSession, ValueRequest
from pacas.relation import GeneralizedRelation, Row, Schema

from test_gate_machine import ATTRS, HS, MDS, requests, worlds


def session(master: GeneralizedRelation, members, k: int) -> ProviderSession:
    return ProviderSession(
        master=master,
        support=SupportSet(master.copy(), members),
        spec=AnonymitySpec(x=("P",), y=("S",), levels=(0,), k=k),
        mds=MDS,
    )


def buy(seller: ProviderSession, request: ValueRequest, client: dict) -> bool:
    """Buy at the seller's quote; False when it is infinite or matches no row."""
    price = seller.ask_price(request, client)
    if is_infinite(price):
        return False
    try:
        seller.pay(price, request, client)
    except NoMatch:
        return False
    return True


def _row(tid, p, q, s):
    return Row(tid, {"P": p, "Q": q, "S": s})


# the shrunk case, at k=2: the X-group P*.1.0 holds exactly two S-values,
# and each member edits one of its two tuples. A sale of S on that group
# contradicts the update of t1 and one of Q at (P*.1.0, S*.0.0) the update
# of t0. Each session keeps one member, whose instance still holds two
# S-values; a session holding both sales keeps none.
SHRUNK_WORLD = (
    GeneralizedRelation(Schema(attributes=ATTRS), [_row("t0", "P*.1.0", "Q*.0.1", "S*.0.0"),
                                                   _row("t1", "P*.1.0", "Q*.0.0", "S*.0.1")], HS),
    [Member("update", "t0", attr="Q", value="Q*.0.0"),
     Member("update", "t1", attr="S", value="S*.1.0")],
    2,
)
SHRUNK_CLIENT = {"P": "P*.1.0", "Q": "Q*.0.0", "S": "S*.0.0"}
SHRUNK_SALES = [(0, ("S", 0, SHRUNK_CLIENT)), (1, ("Q", 0, SHRUNK_CLIENT))]


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="a buyer's sessions each gate only their own sales")
@settings(max_examples=150, deadline=None)
@given(
    world=worlds(),
    n_sessions=st.integers(2, 3),
    sales=st.lists(st.tuples(st.integers(0, 2), requests), min_size=1, max_size=6),
)
@example(world=SHRUNK_WORLD, n_sessions=2, sales=SHRUNK_SALES)
def test_sales_across_sessions_are_sold_by_one_session(world, n_sessions, sales):
    master, members, k = world
    sessions = [session(master, members, k) for _ in range(n_sessions)]
    replay = session(master, members, k)
    for pick, (attr, level, client) in sales:
        request = ValueRequest("c", attr, level)
        if buy(sessions[pick % n_sessions], request, client):
            assert buy(replay, request, client), (
                f"sold on session {pick % n_sessions}, refused after the earlier sales")
