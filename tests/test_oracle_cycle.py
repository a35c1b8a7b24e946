"""Whole clean cycles checked against the materializing oracles.

`OracleProvider` answers the cleaner's two provider calls without the
pricing path: it gates a quote with `is_safe_query` over every current
member's materialized instance, prices it with `baseline_price`, and sells
from a brute-force count of the reference rows the query selects. A clean
run against it must report exactly what a run against `ProviderSession`
reports, on harness relations injected as `run_point` injects them, and
the cleaner must have been told the same at every quote and sale on the
way: on these relations an INFINITE quote and a finite one above the
budget lead the cleaner to the same report.
"""

from collections import Counter
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from pacas.anonymity import AnonymitySpec, is_safe_query
from pacas.cleaner import safe_clean
from pacas.errors import NoMatch, PacasError, QuoteMismatch, UnsafeRequest
from pacas.gquery import eval_gq
from pacas.harness import InjectionPlan, generate_master, inject_errors
from pacas.hierarchy import generalize_to
from pacas.metrics import MetricContext
from pacas.pricing import (
    INFINITE,
    SupportSet,
    baseline_price,
    build_support_set,
    encode_price,
    is_infinite,
)
from pacas.provider import ProviderSession, ValueRequest, translate_request
from pacas.relation import MD

# outcomes and verdicts met across every example
SEEN: set = set()


class OracleProvider:
    """`ask_price` and `pay` over materialized instances of the support set."""

    def __init__(self, support: SupportSet, spec: AnonymitySpec, mds: tuple[MD, ...]):
        self.support = support
        self.spec = spec
        self.mds = mds

    def ask_price(self, request: ValueRequest, client_tuple: dict):
        q = translate_request(request, client_tuple, self.mds)
        ref = self.support.reference
        instances = [self.support.materialize(m) for m in self.support.members]
        if not is_safe_query(q, ref, instances, self.spec):
            SEEN.add("infinite")
            return INFINITE
        return baseline_price(q, ref, self.support)

    def pay(self, price, request: ValueRequest, client_tuple: dict):
        quoted = self.ask_price(request, client_tuple)
        if is_infinite(quoted):
            raise UnsafeRequest(f"request {request} cannot be answered safely")
        if is_infinite(price) or price != quoted:
            raise QuoteMismatch(f"offered {price!r}, current quote is {quoted!r}")
        q = translate_request(request, client_tuple, self.mds)
        ref = self.support.reference
        (attr,), (level,) = q.projection, q.levels
        h = ref.hierarchies.for_attribute(attr)
        counts = Counter(
            generalize_to(h, row.values[attr], level)
            for row in ref.rows
            if all(row.values[a] == v for a, v in q.selection)
        )
        if not counts:
            raise NoMatch(f"no curated tuple matches request {request}")
        best = min(counts, key=lambda value: (-counts[value], value))
        truth = eval_gq(q, ref)
        self.support.members = [m for m in self.support.members
                                if eval_gq(q, self.support.materialize(m)) == truth]
        return best, level


class Recorded:
    """A provider that logs what each of its calls told the cleaner."""

    def __init__(self, provider):
        self.provider = provider
        self.calls: list[tuple] = []

    def ask_price(self, request: ValueRequest, client_tuple: dict):
        price = self.provider.ask_price(request, client_tuple)
        self.calls.append(("quote", request, encode_price(price)))
        return price

    def pay(self, price, request: ValueRequest, client_tuple: dict):
        try:
            answer = self.provider.pay(price, request, client_tuple)
        except PacasError as exc:
            self.calls.append(("pay", request, type(exc).__name__))
            raise
        self.calls.append(("pay", request, answer))
        return answer


def clean_report(seed, support_size, k, l_max, share, provider_of) -> tuple[dict, list]:
    """A `run_point` cycle against the provider `provider_of(support, spec,
    mds)` builds: its report without the wall time, and its provider calls."""
    bundle = generate_master(seed=seed)
    plan = InjectionPlan(rate=0.1, mix=(0.8, 0.2), seed=seed)
    dirty, _ = inject_errors(bundle.truth, plan, bundle.config.fds)
    support = build_support_set(bundle.master, support_size, seed)
    spec = AnonymitySpec(x=bundle.config.qi, y=bundle.config.sensitive, levels=(0,), k=k)
    provider = Recorded(provider_of(support, spec, bundle.config.mds))
    _, report = safe_clean(
        dirty,
        provider,
        bundle.config.fds,
        share * support.total_weight,
        l_max=l_max,
        truth=bundle.truth,
        metric_ctx=MetricContext(bundle.master),
    )
    doc = report.to_json()
    del doc["wall_time_s"]
    return doc, provider.calls


def session_of(support, spec, mds):
    return ProviderSession(master=support.reference, support=support, spec=spec, mds=mds)


def test_clean_reports_match_the_oracle_provider():
    SEEN.clear()

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        support_size=st.integers(1, 6),
        k=st.integers(1, 3),
        l_max=st.integers(0, 2),
        share=st.integers(4, 10).map(lambda tenths: Fraction(tenths, 10)),
    )
    def check(seed, support_size, k, l_max, share):
        served = clean_report(seed, support_size, k, l_max, share, session_of)
        oracle = clean_report(seed, support_size, k, l_max, share, OracleProvider)
        assert served == oracle
        SEEN.update(it["outcome"] for it in served[0]["iterations"])

    check()
    assert {"repaired", "infinite"} <= SEEN
