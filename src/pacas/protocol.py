"""Newline-delimited JSON transport for the provider endpoints.

One JSON object per line, UTF-8, unknown fields ignored. A line longer
than _MAX_LINE bytes, its newline included, is read through, dropped and
answered with one bad_json reply. The server closes a connection that sends
nothing for _TIMEOUT_S seconds. A `request`, `tuple` or `price` field of
another type than shown (a bool is not an int) gets invalid_request. Ops:

  -> {"op":"ask_price","request":{"tuple_id":str,"attr":str,"level":int},"tuple":{str:str}}
  <- {"ok":true,"price":int|"infinite"}
  -> {"op":"pay","price":int|"infinite","request":{...},"tuple":{...}}
  <- {"ok":true,"value":str,"level":int} | {"ok":false,"error":code}
  -> {"op":"info"}
  <- {"ok":true,"total_weight":int}

The embedded handle and the socket handle expose the same three calls so the
cleaner cannot observe the transport.
"""

from __future__ import annotations

import json
import socket
import socketserver
import threading
from typing import Callable

from .errors import (
    NoApplicableMD,
    NoMatch,
    PacasError,
    ProtocolError,
    QuoteMismatch,
    UnsafeRequest,
)
from .pricing import INFINITE, is_infinite
from .provider import ProviderSession, ValueRequest

_ERROR_CODES = {
    NoApplicableMD: "no_applicable_md",
    QuoteMismatch: "quote_mismatch",
    UnsafeRequest: "unsafe_request",
    NoMatch: "no_match",
}

_CODE_ERRORS = {code: exc for exc, code in _ERROR_CODES.items()}

_TIMEOUT_S = 30.0  # seconds a connect or a reply may take, and a connection may idle
_MAX_LINE = 65_536  # bytes a request line may hold, its newline included


def encode_price(amount) -> object:
    return "infinite" if is_infinite(amount) else amount


def decode_price(value) -> object:
    return INFINITE if value == "infinite" else value


def _is_int(value) -> bool:
    return type(value) is int  # a JSON true or false decodes to a bool, an int subclass


def _is_price(value) -> bool:
    return value == "infinite" or _is_int(value)


def _client_tuple(doc) -> dict:
    """A request's `tuple` as sent: an object of string values."""
    if not (isinstance(doc, dict) and all(isinstance(v, str) for v in doc.values())):
        raise ValueError(f"ill-typed tuple {doc!r:.120}")
    return doc


def handle_message(session: ProviderSession, message: object) -> dict:
    """Dispatch one parsed request against a session; anything but a JSON
    object is an invalid request."""
    if not isinstance(message, dict):
        return {"ok": False, "error": "invalid_request", "detail": "request is not an object"}
    op = message.get("op")
    try:
        if op == "ask_price":
            request = ValueRequest.from_json(message["request"])
            price = session.ask_price(request, _client_tuple(message["tuple"]))
            return {"ok": True, "price": encode_price(price)}
        if op == "pay":
            request = ValueRequest.from_json(message["request"])
            client_tuple = _client_tuple(message["tuple"])
            price = message["price"]
            if not _is_price(price):
                raise ValueError(f"ill-typed price {price!r:.80}")
            value, level = session.pay(decode_price(price), request, client_tuple)
            return {"ok": True, "value": value, "level": level}
        if op == "info":
            return {"ok": True, "total_weight": session.total_weight}
        return {"ok": False, "error": "unknown_op"}
    except tuple(_ERROR_CODES) as exc:
        return {"ok": False, "error": _ERROR_CODES[type(exc)], "detail": str(exc)}
    except (KeyError, TypeError, ValueError, OverflowError, PacasError) as exc:
        return {"ok": False, "error": "invalid_request", "detail": str(exc)}


class ProviderServer(socketserver.ThreadingTCPServer):
    """One ProviderSession per connection; sessions never share support sets."""

    allow_reuse_address = True
    daemon_threads = True

    def __init__(self, address, session_factory: Callable[[], ProviderSession]):
        self.session_factory = session_factory
        super().__init__(address, _ProviderHandler)


class _ProviderHandler(socketserver.StreamRequestHandler):
    timeout = _TIMEOUT_S  # `setup` applies it to the connection's socket

    def handle(self):
        session = self.server.session_factory()
        try:
            while raw := self.rfile.readline(_MAX_LINE + 1):
                try:
                    if len(raw) > _MAX_LINE:
                        while raw and not raw.endswith(b"\n"):  # drop the rest in bounded chunks
                            raw = self.rfile.readline(_MAX_LINE)
                        raise ValueError("request line over the cap")
                    line = raw.decode("utf-8").strip()
                    if not line:
                        continue
                    message = json.loads(line)
                except (ValueError, RecursionError):
                    # an overlong line, bad UTF-8 and bad JSON raise ValueError, deep
                    # nesting RecursionError
                    response = {"ok": False, "error": "bad_json"}
                else:
                    response = handle_message(session, message)
                self.wfile.write((json.dumps(response) + "\n").encode("utf-8"))
                self.wfile.flush()
        except TimeoutError:  # the client sent nothing, or read nothing, for `timeout` s
            return


def start_server(session_factory, host: str = "127.0.0.1", port: int = 0):
    """Start a provider server on a background thread; returns (server, port)."""
    server = ProviderServer((host, port), session_factory)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    return server, server.server_address[1]


class EmbeddedProvider:
    """In-process handle over a session; mirrors the wire semantics exactly."""

    def __init__(self, session: ProviderSession):
        self.session = session

    def ask_price(self, request: ValueRequest, client_tuple: dict):
        return self.session.ask_price(request, client_tuple)

    def pay(self, price, request: ValueRequest, client_tuple: dict):
        return self.session.pay(price, request, client_tuple)

    def total_weight(self) -> int:
        return self.session.total_weight

    def close(self) -> None:
        pass


class RemoteProvider:
    """Socket handle speaking the NDJSON protocol."""

    def __init__(self, host: str, port: int):
        self._sock = socket.create_connection((host, port), timeout=_TIMEOUT_S)
        self._file = self._sock.makefile("rwb")

    def _call(self, message: dict, **checks: Callable[[object], bool]) -> list:
        """Send one request and return the named fields of its `ok` reply,
        each of which must pass its check."""
        self._file.write((json.dumps(message) + "\n").encode("utf-8"))
        self._file.flush()
        raw = self._file.readline()
        if not raw:
            raise ProtocolError("connection closed by provider")
        try:
            response = json.loads(raw.decode("utf-8"))
        except (ValueError, RecursionError) as exc:
            raise ProtocolError(f"undecodable provider response: {exc}") from exc
        if not isinstance(response, dict):
            raise ProtocolError(f"provider response is not an object: {raw[:80]!r}")
        if response.get("ok"):
            try:
                values = [response[name] for name in checks]
            except KeyError as exc:
                raise ProtocolError(f"provider reply lacks field {exc}") from None
            for (name, check), value in zip(checks.items(), values):
                if not check(value):
                    raise ProtocolError(
                        f"provider reply field {name!r} is ill-typed: {value!r:.80}")
            return values
        code = response.get("error", "protocol_error")
        exc_type = _CODE_ERRORS.get(code, ProtocolError)
        raise exc_type(response.get("detail", code))

    def ask_price(self, request: ValueRequest, client_tuple: dict):
        (price,) = self._call(
            {"op": "ask_price", "request": request.to_json(), "tuple": dict(client_tuple)},
            price=_is_price,
        )
        return decode_price(price)

    def pay(self, price, request: ValueRequest, client_tuple: dict):
        value, level = self._call(
            {
                "op": "pay",
                "price": encode_price(price),
                "request": request.to_json(),
                "tuple": dict(client_tuple),
            },
            value=lambda v: isinstance(v, str), level=_is_int,
        )
        return value, level

    def total_weight(self) -> int:
        (weight,) = self._call({"op": "info"}, total_weight=_is_int)
        return weight

    def close(self) -> None:
        try:
            self._file.close()
            self._sock.close()
        except OSError:
            pass
