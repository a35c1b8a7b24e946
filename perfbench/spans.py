"""In-memory span recorder that instruments pacas from outside.

`install` rebinds the public functions and methods listed in SPANS, TIMED and
COUNTS to thin wrappers: every pacas module that imported a function by name
gets the wrapper too, so call sites need no change. A span records its name,
start, end, its own id, its parent's id and the cycle it belongs to. The
inner loops of a layer (TIMED) only add their calls and seconds to a
per-cycle total, so their time stays in the self time of the span that
called them; COUNTS only count calls, as they run too often to time.
`aggregate` turns spans into per-name call counts, inclusive seconds and self
seconds (duration minus the time the direct child spans cover).
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
from time import perf_counter

# (module, attribute or Class.method, span name)
SPANS = (
    ("pacas.cleaner", "safe_clean", "cleaner.safe_clean"),
    ("pacas.cleaner", "repair_buckets", "metrics.buckets"),
    ("pacas.metrics", "relation_distance", "metrics.relation_distance"),
    ("pacas.metrics", "MetricContext.__init__", "metrics.context"),
    ("pacas.harness", "inject_errors", "harness.inject_errors"),
    ("pacas.relation", "generate_eqs", "relation.generate_eqs"),
    ("pacas.relation", "refresh_error_counts", "relation.refresh_error_counts"),
    ("pacas.protocol", "RemoteProvider.ask_price", "protocol.client"),
    ("pacas.protocol", "RemoteProvider.pay", "protocol.client"),
    ("pacas.protocol", "handle_message", "protocol.server"),
    ("pacas.provider", "ProviderSession.ask_price", "provider.ask_price"),
    ("pacas.provider", "ProviderSession.pay", "provider.pay"),
    ("pacas.pricing", "build_support_set", "pricing.build_support_set"),
    ("pacas.pricing", "safe_price", "pricing.safe_price"),
    ("pacas.pricing", "commit_sale", "pricing.commit_sale"),
)

TIMED = (
    ("pacas.relation", "violations", "relation.violations"),
    ("pacas.gquery", "eval_gq", "gquery.eval_gq"),
)

COUNTS = (
    ("pacas.pricing", "SupportSet.materialize", "pricing.materialize"),
    ("pacas.hierarchy", "generalize_to", "hierarchy.generalize_to"),
    ("pacas.hierarchy", "generalizes", "hierarchy.generalizes"),
)


class Recorder:
    """Spans and counters of one process. The cycle label is per thread: the
    server handles each connection on its own thread."""

    def __init__(self):
        self.spans: list[tuple] = []  # (name, start, end, id, parent id, cycle)
        self.counts: dict[tuple, list] = {}  # (name, cycle) -> [calls, seconds]
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._restore: list[tuple] = []

    @property
    def cycle(self):
        return getattr(self._local, "cycle", None)

    @cycle.setter
    def cycle(self, label) -> None:
        self._local.cycle = label

    def span(self, name: str, fn):
        local = self._local

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = local.__dict__.setdefault("stack", [])
            parent = stack[-1] if stack else 0
            sid = next(self._ids)
            stack.append(sid)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                self.spans.append((name, start, end, sid, parent, getattr(local, "cycle", None)))

        return wrapper

    def timed(self, name: str, fn):
        local, counts = self._local, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                total = counts.setdefault((name, getattr(local, "cycle", None)), [0, 0.0])
                total[0] += 1
                total[1] += perf_counter() - start

        return wrapper

    def counter(self, name: str, fn):
        local, counts = self._local, self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts.setdefault((name, getattr(local, "cycle", None)), [0, 0.0])[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Wrap every SPANS, TIMED and COUNTS target; `uninstall` puts them back."""
        for table, make in ((SPANS, self.span), (TIMED, self.timed), (COUNTS, self.counter)):
            for module_name, attr, name in table:
                module = importlib.import_module(module_name)
                owner_name, _, member = attr.rpartition(".")
                if owner_name:
                    owner = getattr(module, owner_name)
                    self._rebind(owner, member, make(name, owner.__dict__[member]))
                else:
                    original = getattr(module, member)
                    wrapped = make(name, original)
                    for mod in list(sys.modules.values()):
                        if mod is not None and mod.__name__.split(".")[0] == "pacas":
                            for key, value in list(vars(mod).items()):
                                if value is original:
                                    self._rebind(mod, key, wrapped)

    def _rebind(self, owner, key: str, value) -> None:
        self._restore.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        while self._restore:
            owner, key, value = self._restore.pop()
            setattr(owner, key, value)

    def label_connections(self) -> None:
        """Label each server connection's spans with its ordinal: the session
        factory runs once per connection, on that connection's thread."""
        from pacas.protocol import ProviderServer

        ordinals = itertools.count()
        init = ProviderServer.__init__

        def __init__(server, address, session_factory):
            def factory():
                self.cycle = next(ordinals)
                return session_factory()

            init(server, address, factory)

        self._rebind(ProviderServer, "__init__", __init__)

    def dump(self) -> dict:
        return {"spans": self.spans,
                "counts": [[name, cycle, n, s] for (name, cycle), (n, s) in self.counts.items()]}


def aggregate(spans, keep) -> dict[str, dict[str, float]]:
    """Per span name: calls, inclusive seconds and self seconds, over the
    spans whose cycle label passes `keep`."""
    child_time: dict[int, float] = {}
    for name, start, end, sid, parent, cycle in spans:
        child_time[parent] = child_time.get(parent, 0.0) + (end - start)
    out: dict[str, dict[str, float]] = {}
    for name, start, end, sid, parent, cycle in spans:
        if not keep(cycle):
            continue
        agg = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        agg["calls"] += 1
        agg["s"] += end - start
        agg["self_s"] += end - start - child_time.get(sid, 0.0)
    return out


def count_totals(counts, keep) -> dict[str, list]:
    """Per counted name: [calls, seconds] over the cycles that pass `keep`."""
    out: dict[str, list] = {}
    for name, cycle, n, s in counts:
        if keep(cycle):
            total = out.setdefault(name, [0, 0.0])
            total[0] += n
            total[1] += s
    return out
