"""NDJSON wire protocol: framing, error codes, concurrent sessions."""

import json
import socket
import socketserver
import threading
import time
from contextlib import contextmanager

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pacas.anonymity import AnonymitySpec
from pacas.pricing import SupportSet, build_support_set
from pacas.protocol import (
    _MAX_LINE,
    EmbeddedProvider,
    RemoteProvider,
    _ProviderHandler,
    handle_message,
    start_server,
)
from pacas.provider import _LEDGER_CAP, ProviderSession, ValueRequest, translate_request
from pacas.errors import NoMatch, ProtocolError, QuoteMismatch

from conftest import FIXTURES


def make_factory(master, dep_config, k=1, levels=(0,), support_path=None, seed=0):
    spec = AnonymitySpec(x=("GEN", "AGE", "ZIP"), y=("MED",), levels=levels, k=k)

    def factory():
        if support_path:
            support = SupportSet.load(support_path, master.copy())
        else:
            support = build_support_set(master.copy(), 10, seed)
        return ProviderSession(master=master, support=support, spec=spec,
                               mds=dep_config.mds)

    return factory


T2 = {"GEN": "male", "AGE": "79", "DIAG": "osteoarthritis", "MED": "intropes"}


ILL_TYPED_REQUESTS = [
    {"tuple_id": "t2", "attr": "MED", "level": 1.7},
    {"tuple_id": "t2", "attr": "MED", "level": True},
    {"tuple_id": "t2", "attr": "MED", "level": "2"},
    {"tuple_id": 5, "attr": "MED", "level": 1},
    {"tuple_id": "t2", "attr": ["MED"], "level": 1},
]
ILL_TYPED_IDS = ["float_level", "bool_level", "string_level", "int_tuple_id", "list_attr"]

F45 = {"GEN": "female", "AGE": "45"}  # MED at level 1 quotes 1; T2's quotes 0

# (price, tuple) for a level-1 MED request: the first four equal the quote
# by value, so nothing but their type keeps them from buying
ILL_TYPED_PRICES = [(False, T2), (0.0, T2), (True, F45), (1.0, F45), ("1", F45), (None, F45)]
ILL_TYPED_PRICE_IDS = ["false", "zero_float", "true", "one_float", "string", "null"]

ILL_TYPED_TUPLES = [
    {"GEN": ["male"], "AGE": "79"},
    {"GEN": "male", "AGE": 79},
    {"GEN": "male", "AGE": None},
    ["male", "79"],
    "male",
    None,
]
ILL_TYPED_TUPLE_IDS = ["list_value", "number_value", "null_value", "list", "string", "null"]


def recording_factory(factory):
    """The factory, plus the list of sessions it has made."""
    sessions = []

    def make():
        sessions.append(factory())
        return sessions[-1]

    return make, sessions


class TestHandleMessage:
    def test_ask_price_roundtrip(self, master, dep_config, golden_support):
        session = make_factory(master, dep_config,
                               support_path=FIXTURES / "golden_support.json")()
        response = handle_message(session, {
            "op": "ask_price",
            "request": {"tuple_id": "t2", "attr": "MED", "level": 0},
            "tuple": T2,
        })
        assert response == {"ok": True, "price": 2}

    def test_infinite_price_serialization(self, master, dep_config):
        session = make_factory(master, dep_config, k=3, levels=(1,),
                               support_path=FIXTURES / "golden_support.json")()
        response = handle_message(session, {
            "op": "ask_price",
            "request": {"tuple_id": "t2", "attr": "MED", "level": 0},
            "tuple": T2,
        })
        assert response["price"] == "infinite"

    def test_unknown_fields_ignored(self, master, dep_config):
        session = make_factory(master, dep_config,
                               support_path=FIXTURES / "golden_support.json")()
        response = handle_message(session, {
            "op": "ask_price",
            "request": {"tuple_id": "t2", "attr": "MED", "level": 0, "extra": 1},
            "tuple": T2,
            "client_version": "9.9",
        })
        assert response["ok"]

    def test_unknown_op(self, master, dep_config):
        session = make_factory(master, dep_config)()
        assert handle_message(session, {"op": "negotiate"}) == \
            {"ok": False, "error": "unknown_op"}

    def test_error_codes_on_wire(self, master, dep_config):
        session = make_factory(master, dep_config,
                               support_path=FIXTURES / "golden_support.json")()
        response = handle_message(session, {
            "op": "pay", "price": 999,
            "request": {"tuple_id": "t2", "attr": "MED", "level": 0},
            "tuple": T2,
        })
        assert response["ok"] is False
        assert response["error"] == "quote_mismatch"

    @pytest.mark.parametrize("message", [[1], 3, "x", None])
    def test_non_object_is_invalid_request(self, master, dep_config, message):
        session = make_factory(master, dep_config)()
        assert handle_message(session, message)["error"] == "invalid_request"

    @pytest.mark.parametrize("op", ["ask_price", "pay"])
    @pytest.mark.parametrize("request_doc", ILL_TYPED_REQUESTS, ids=ILL_TYPED_IDS)
    def test_ill_typed_request_is_invalid(self, master, dep_config, op, request_doc):
        """Request fields are taken as sent: nothing is quoted or sold at a
        level or for a tuple the buyer did not name."""
        factory = make_factory(master, dep_config,
                               support_path=FIXTURES / "golden_support.json")
        price = factory().ask_price(ValueRequest("t2", "MED", 1), T2)
        session = factory()
        response = handle_message(session, {"op": op, "price": price,
                                            "request": request_doc, "tuple": T2})
        assert (response["ok"], response["error"]) == (False, "invalid_request")
        assert session.ledger == []
        assert session.total_weight == 12

    @pytest.mark.parametrize("price, tup", ILL_TYPED_PRICES, ids=ILL_TYPED_PRICE_IDS)
    def test_ill_typed_price_is_invalid(self, master, dep_config, price, tup):
        """Only an int or "infinite" is a price: a bool or float equal to the
        quote buys nothing."""
        session = make_factory(master, dep_config,
                               support_path=FIXTURES / "golden_support.json")()
        request = {"tuple_id": "c1", "attr": "MED", "level": 1}
        quoted = handle_message(session, {"op": "ask_price", "request": request,
                                          "tuple": tup})
        assert quoted == {"ok": True, "price": 0 if tup is T2 else 1}
        ledger = list(session.ledger)
        response = handle_message(session, {"op": "pay", "price": price,
                                            "request": request, "tuple": tup})
        assert (response["ok"], response["error"]) == (False, "invalid_request")
        assert session.ledger == ledger
        assert session.total_weight == 12

    @pytest.mark.parametrize("op", ["ask_price", "pay"])
    @pytest.mark.parametrize("tup", ILL_TYPED_TUPLES, ids=ILL_TYPED_TUPLE_IDS)
    def test_ill_typed_tuple_is_invalid(self, master, dep_config, op, tup):
        """A `tuple` is an object of strings: nothing is quoted or sold for
        values the buyer's tuple cannot hold."""
        session = make_factory(master, dep_config,
                               support_path=FIXTURES / "golden_support.json")()
        response = handle_message(session, {
            "op": op, "price": 0,
            "request": {"tuple_id": "t2", "attr": "MED", "level": 1}, "tuple": tup,
        })
        assert (response["ok"], response["error"]) == (False, "invalid_request")
        assert session.ledger == []
        assert session.total_weight == 12

    def test_info_reports_total_weight(self, master, dep_config):
        session = make_factory(master, dep_config,
                               support_path=FIXTURES / "golden_support.json")()
        assert handle_message(session, {"op": "info"}) == \
            {"ok": True, "total_weight": 12}

    def test_quote_flood_keeps_the_latest_ledger_entries(self, master, dep_config):
        """A connection's ledger holds the latest `_LEDGER_CAP` entries, so a
        buyer who floods distinct quotes does not grow it without bound."""
        session = make_factory(master, dep_config,
                               support_path=FIXTURES / "golden_support.json")()
        request = ValueRequest("c1", "MED", 1)
        tuples = [{"GEN": "male", "AGE": str(i)} for i in range(_LEDGER_CAP + 10)]
        for tup in tuples:
            response = handle_message(session, {"op": "ask_price", "tuple": tup,
                                                "request": request.to_json()})
            assert response["ok"]
        assert len(session.ledger) == _LEDGER_CAP
        fingerprints = [translate_request(request, tup, dep_config.mds).fingerprint()
                        for tup in (tuples[10], tuples[-1])]
        assert [e["fingerprint"] for e in (session.ledger[0], session.ledger[-1])] == \
            fingerprints


class TestSocketTransport:
    def test_remote_matches_embedded(self, master, dep_config):
        factory = make_factory(master, dep_config,
                               support_path=FIXTURES / "golden_support.json")
        server, port = start_server(factory)
        try:
            remote = RemoteProvider("127.0.0.1", port)
            embedded = EmbeddedProvider(factory())
            request = ValueRequest("t2", "MED", 0)
            assert remote.total_weight() == embedded.total_weight() == 12
            assert remote.ask_price(request, T2) == embedded.ask_price(request, T2)
            assert remote.pay(2, request, T2) == embedded.pay(2, request, T2)
            assert remote.ask_price(request, T2) == 0
            remote.close()
        finally:
            server.shutdown()
            server.server_close()

    def test_remote_error_mapping(self, master, dep_config):
        factory = make_factory(master, dep_config,
                               support_path=FIXTURES / "golden_support.json")
        server, port = start_server(factory)
        try:
            remote = RemoteProvider("127.0.0.1", port)
            request = ValueRequest("t2", "MED", 0)
            with pytest.raises(QuoteMismatch):
                remote.pay(999, request, T2)
            t3 = {"GEN": "male", "AGE": "45"}
            price = remote.ask_price(ValueRequest("t3", "MED", 0), t3)
            with pytest.raises(NoMatch):
                remote.pay(price, ValueRequest("t3", "MED", 0), t3)
            remote.close()
        finally:
            server.shutdown()
            server.server_close()

    def test_concurrent_clients_have_independent_ledgers(self, master, dep_config):
        factory = make_factory(master, dep_config,
                               support_path=FIXTURES / "golden_support.json")
        server, port = start_server(factory)
        try:
            a = RemoteProvider("127.0.0.1", port)
            b = RemoteProvider("127.0.0.1", port)
            request = ValueRequest("t2", "MED", 0)
            price_a = a.ask_price(request, T2)
            a.pay(price_a, request, T2)
            # client b's session never saw client a's purchase
            assert b.ask_price(request, T2) == 2
            assert a.ask_price(request, T2) == 0
            a.close()
            b.close()
        finally:
            server.shutdown()
            server.server_close()

    def test_bad_json_line(self, master, dep_config):
        factory = make_factory(master, dep_config,
                               support_path=FIXTURES / "golden_support.json")
        server, port = start_server(factory)
        try:
            with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
                f = sock.makefile("rwb")
                f.write(b"this is not json\n")
                f.flush()
                response = json.loads(f.readline())
                assert response == {"ok": False, "error": "bad_json"}
        finally:
            server.shutdown()
            server.server_close()

    def test_non_object_line_keeps_connection(self, master, dep_config):
        factory = make_factory(master, dep_config,
                               support_path=FIXTURES / "golden_support.json")
        server, port = start_server(factory)
        try:
            with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
                f = sock.makefile("rwb")
                f.write(b'[1]\n{"op":"info"}\n')
                f.flush()
                first = json.loads(f.readline())
                second = json.loads(f.readline())
                assert (first["ok"], first["error"]) == (False, "invalid_request")
                assert second == {"ok": True, "total_weight": 12}
        finally:
            server.shutdown()
            server.server_close()

    @pytest.mark.parametrize("line, error", [
        (b"\xff\xfe", "bad_json"),
        (b"[" * 100_000, "bad_json"),
        (b'{"op":"ask_price","request":{"tuple_id":"t2","attr":"MED","level":1e999},'
         b'"tuple":{}}', "invalid_request"),
    ], ids=["invalid_utf8", "deep_nesting", "infinite_level"])
    def test_hostile_line_gets_one_reply_and_keeps_connection(self, master, dep_config,
                                                              line, error):
        factory = make_factory(master, dep_config,
                               support_path=FIXTURES / "golden_support.json")
        server, port = start_server(factory)
        try:
            with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
                f = sock.makefile("rwb")
                f.write(line + b'\n{"op":"info"}\n')
                f.flush()
                first = json.loads(f.readline())
                second = json.loads(f.readline())
                assert (first["ok"], first["error"]) == (False, error)
                assert second == {"ok": True, "total_weight": 12}
        finally:
            server.shutdown()
            server.server_close()

    @pytest.mark.parametrize("line, reply", [
        (b"x" * (4 * _MAX_LINE - 1), {"ok": False, "error": "bad_json"}),
        (b'{"op":"info"' + b" " * (_MAX_LINE - 13) + b"}", {"ok": False, "error": "bad_json"}),
        (b'{"op":"info"' + b" " * (_MAX_LINE - 14) + b"}", {"ok": True, "total_weight": 12}),
        (b"[" * 10_000, {"ok": False, "error": "bad_json"}),
    ], ids=["four_caps", "one_byte_over", "at_the_cap", "deep_nesting_under_the_cap"])
    def test_line_cap(self, master, dep_config, line, reply):
        """A line over the cap, newline included, is dropped with one bad_json
        reply and the connection stays open; a line at the cap is served."""
        factory = make_factory(master, dep_config,
                               support_path=FIXTURES / "golden_support.json")
        server, port = start_server(factory)
        try:
            with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
                f = sock.makefile("rwb")
                f.write(line + b'\n{"op":"info"}\n')
                f.flush()
                assert json.loads(f.readline()) == reply
                assert json.loads(f.readline()) == {"ok": True, "total_weight": 12}
        finally:
            server.shutdown()
            server.server_close()

    @pytest.mark.parametrize("request_doc", ILL_TYPED_REQUESTS, ids=ILL_TYPED_IDS)
    def test_ill_typed_request_keeps_connection(self, master, dep_config, request_doc):
        factory = make_factory(master, dep_config,
                               support_path=FIXTURES / "golden_support.json")
        server, port = start_server(factory)
        try:
            with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
                f = sock.makefile("rwb")
                line = json.dumps({"op": "ask_price", "request": request_doc, "tuple": T2})
                f.write(line.encode() + b'\n{"op":"info"}\n')
                f.flush()
                first = json.loads(f.readline())
                second = json.loads(f.readline())
                assert (first["ok"], first["error"]) == (False, "invalid_request")
                assert second == {"ok": True, "total_weight": 12}
        finally:
            server.shutdown()
            server.server_close()

    @pytest.mark.parametrize("message", [
        *({"op": op, "price": 0, "request": {"tuple_id": "t2", "attr": "MED", "level": 1},
           "tuple": tup} for op in ("ask_price", "pay") for tup in ILL_TYPED_TUPLES),
        *({"op": "pay", "price": price, "request": {"tuple_id": "c1", "attr": "MED",
                                                    "level": 1}, "tuple": tup}
          for price, tup in ILL_TYPED_PRICES),
    ], ids=[*(f"{op}-{i}" for op in ("ask_price", "pay") for i in ILL_TYPED_TUPLE_IDS),
            *(f"pay-price-{i}" for i in ILL_TYPED_PRICE_IDS)])
    def test_ill_typed_tuple_or_price_keeps_connection(self, master, dep_config, message):
        factory, sessions = recording_factory(
            make_factory(master, dep_config, support_path=FIXTURES / "golden_support.json"))
        server, port = start_server(factory)
        try:
            with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
                f = sock.makefile("rwb")
                f.write(json.dumps(message).encode() + b'\n{"op":"info"}\n')
                f.flush()
                first = json.loads(f.readline())
                second = json.loads(f.readline())
                assert (first["ok"], first["error"]) == (False, "invalid_request")
                assert second == {"ok": True, "total_weight": 12}
            assert [s.ledger for s in sessions] == [[]]
        finally:
            server.shutdown()
            server.server_close()


class TestIdleTimeout:
    def test_idle_connection_closed_busy_one_served(self, master, dep_config, monkeypatch):
        """A connection that sends nothing for `timeout` seconds is closed
        quietly; one that keeps asking is served throughout, and the server
        takes new connections afterwards."""
        monkeypatch.setattr(_ProviderHandler, "timeout", 0.2)
        server, port = start_server(make_factory(
            master, dep_config, support_path=FIXTURES / "golden_support.json"))
        errors = []
        server.handle_error = lambda request, address: errors.append(address)
        info, ok = b'{"op":"info"}\n', {"ok": True, "total_weight": 12}
        try:
            with socket.create_connection(("127.0.0.1", port), timeout=2) as idle, \
                    socket.create_connection(("127.0.0.1", port), timeout=2) as busy:
                f = busy.makefile("rwb")
                for _ in range(6):  # 0.6 s, three idle timeouts' worth
                    f.write(info)
                    f.flush()
                    assert json.loads(f.readline()) == ok
                    time.sleep(0.1)
                assert idle.recv(1) == b""  # closed by the server, not timed out here
            with socket.create_connection(("127.0.0.1", port), timeout=2) as fresh:
                fresh.sendall(info)
                assert json.loads(fresh.makefile("rb").readline()) == ok
        finally:
            server.shutdown()
            server.server_close()
        assert errors == []


# any JSON value, and request-shaped objects whose fields are now well and now
# ill typed
JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=6), inner,
                                                                 max_size=3),
    max_leaves=8,
)
REQUEST_SHAPED = st.fixed_dictionaries({
    "op": st.sampled_from(["ask_price", "pay", "info"]) | JSON,
    "request": st.fixed_dictionaries({
        "tuple_id": st.sampled_from(["t2", "c1"]) | JSON,
        "attr": st.sampled_from(["MED", "DIAG"]) | JSON,
        "level": st.integers(-1, 4) | JSON,
    }) | JSON,
    "tuple": st.dictionaries(st.sampled_from(["GEN", "AGE", "ZIP", "MED"]),
                             st.sampled_from(["male", "female", "79", "51"]) | JSON,
                             max_size=4) | JSON,
    "price": st.integers(-1, 13) | st.just("infinite") | JSON,
})
MESSAGES = JSON | REQUEST_SHAPED


def _is_blank(line: bytes) -> bool:
    try:
        return not line.decode("utf-8").strip()
    except UnicodeDecodeError:
        return False


# a request line as a client might send it, newline excluded: any message
# encoded, or raw bytes; a blank line is skipped without a reply
LINES = (MESSAGES.map(lambda m: json.dumps(m).encode())
         | st.binary(max_size=40).map(lambda b: b.replace(b"\n", b""))).filter(
    lambda line: not _is_blank(line))


class TestWireProperties:
    @settings(max_examples=75, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(message=MESSAGES)
    def test_handle_message_always_replies(self, master, dep_config, message):
        factory = make_factory(master, dep_config, support_path=FIXTURES / "golden_support.json")
        reply = handle_message(factory(), message)
        assert isinstance(reply, dict) and "ok" in reply
        json.dumps(reply, allow_nan=False)

    def test_every_line_gets_one_reply(self, master, dep_config):
        server, port = start_server(make_factory(
            master, dep_config, support_path=FIXTURES / "golden_support.json"))

        @settings(max_examples=30, deadline=None)
        @given(lines=st.lists(LINES, max_size=8))
        def check(lines):
            with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
                sock.sendall(b"".join(line + b"\n" for line in lines))
                sock.shutdown(socket.SHUT_WR)
                replies = sock.makefile("rb").read().splitlines()
            assert len(replies) == len(lines)
            assert all("ok" in json.loads(reply) for reply in replies)

        try:
            check()
        finally:
            server.shutdown()
            server.server_close()


@contextmanager
def stub_provider(reply: bytes):
    """A provider stand-in that answers every request line with `reply`."""

    class Handler(socketserver.StreamRequestHandler):
        def handle(self):
            for _ in self.rfile:
                self.wfile.write(reply + b"\n")
                self.wfile.flush()

    server = socketserver.ThreadingTCPServer(("127.0.0.1", 0), Handler)
    server.daemon_threads = True
    threading.Thread(target=server.serve_forever, kwargs={"poll_interval": 0.05},
                     daemon=True).start()
    try:
        yield server.server_address[1]
    finally:
        server.shutdown()
        server.server_close()


class TestBadProviderReplies:
    """Every malformed reply surfaces as ProtocolError, whatever call made it."""

    @pytest.mark.parametrize("reply", [
        b"\xff\xfe", b"[1]", b"3", b'{"ok": true}',
        b'{"ok": true, "total_weight": "abc", "price": "cheap", "value": 5, "level": 0}',
        b'{"ok": true, "total_weight": true, "price": false, "value": "x", "level": true}',
        b'{"ok": true, "total_weight": 1.5, "price": 2.5, "value": "x", "level": "0"}',
        b'{"ok": true, "total_weight": null, "price": null, "value": null, "level": 0}',
    ], ids=["not_utf8", "json_list", "json_number", "ok_missing_field",
            "ill_typed_strings", "ill_typed_bools", "ill_typed_floats", "ill_typed_nulls"])
    def test_reply_raises_protocol_error(self, reply):
        request = ValueRequest("t2", "MED", 0)
        with stub_provider(reply) as port:
            remote = RemoteProvider("127.0.0.1", port)
            try:
                with pytest.raises(ProtocolError):
                    remote.total_weight()
                with pytest.raises(ProtocolError):
                    remote.ask_price(request, T2)
                with pytest.raises(ProtocolError):
                    remote.pay(2, request, T2)
            finally:
                remote.close()


class TestReconnect:
    """Support sets live per connection, not per buyer: a buyer who reconnects
    starts from a fresh support set identical to the first one, and so pays
    the full price again for what it already bought."""

    def test_reconnected_buyer_rebuys_at_full_price(self, master, dep_config):
        factory = make_factory(master, dep_config, seed=3)
        assert factory().support.members == factory().support.members
        server, port = start_server(factory)
        request = ValueRequest("t2", "MED", 0)
        try:
            first = RemoteProvider("127.0.0.1", port)
            weight = first.total_weight()
            price = first.ask_price(request, T2)
            assert price > 0
            bought = first.pay(price, request, T2)
            assert first.ask_price(request, T2) == 0
            assert first.total_weight() < weight
            first.close()

            again = RemoteProvider("127.0.0.1", port)
            assert again.total_weight() == weight
            assert again.ask_price(request, T2) == price
            assert again.pay(price, request, T2) == bought
            again.close()
        finally:
            server.shutdown()
            server.server_close()
