"""Service-provider session: request translation, quoting and query answering.

A value request (tuple, attribute, level) is translated through a matching
dependency into a generalized query against the curated relation. Quotes are
free and side-effect free; paying commits the sale, shrinks the support set
and returns a single value at the requested level.

A session keeps each quote it makes, with its partition of the support set,
until its next sale, at most `_QUOTE_MEMO_CAP` of them; `pay` sells at the
kept quote instead of pricing the query again. A kept quote is used only
while the support set it was made on is unchanged. A sale answers from its
quote's answer: the lifted value most curated rows hold.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

from .anonymity import AnonymitySpec
from .errors import NoApplicableMD, NoMatch, QuoteMismatch, UnsafeRequest, UnknownValue
from .gquery import GeneralizedQuery
from .pricing import SupportSet, commit_sale, is_infinite, safe_price
from .relation import MD, GeneralizedRelation

# quotes a session keeps between sales, and ledger entries it keeps; a buyer
# who floods distinct quotes evicts the oldest instead of growing the session
_QUOTE_MEMO_CAP = 64
_LEDGER_CAP = 1024


@dataclass(frozen=True)
class ValueRequest:
    tuple_id: str
    attribute: str
    level: int

    def to_json(self) -> dict:
        return {"tuple_id": self.tuple_id, "attr": self.attribute, "level": self.level}

    @classmethod
    def from_json(cls, doc: Mapping) -> "ValueRequest":
        """Parse a request as sent: `tuple_id` and `attr` str, `level` int."""
        tid, attr, level = doc["tuple_id"], doc["attr"], doc["level"]
        if not (isinstance(tid, str) and isinstance(attr, str) and type(level) is int):
            raise ValueError(f"ill-typed request {doc!r:.120}")
        return cls(tid, attr, level)


def translate_request(
    request: ValueRequest, client_tuple: Mapping[str, str], mds: Sequence[MD]
) -> GeneralizedQuery:
    """Build the provider-side query for a request using the first MD whose
    target covers the requested attribute."""
    for md in mds:
        client_attr, provider_attr = md.target
        if client_attr != request.attribute:
            continue
        try:
            selection = tuple(
                (sp_attr, client_tuple[cl_attr]) for cl_attr, sp_attr in md.match
            )
        except KeyError as exc:
            raise UnknownValue(f"client tuple lacks match attribute {exc}") from exc
        return GeneralizedQuery(
            projection=(provider_attr,),
            selection=selection,
            levels=(request.level,),
        )
    raise NoApplicableMD(f"no matching dependency targets {request.attribute!r}")


@dataclass
class ProviderSession:
    """Per-client pricing and answering state over one curated relation.

    `master` and `support.reference` hold the same rows in every caller; a
    quote, and so a sale, reads only the support set's reference. A session
    is built only over a ground master whose schema holds every attribute of
    the spec's X and Y and every provider-side attribute of the MDs."""

    master: GeneralizedRelation
    support: SupportSet
    spec: AnonymitySpec
    mds: tuple[MD, ...]
    # the latest `_LEDGER_CAP` quotes and sales, oldest first
    ledger: list[dict] = field(default_factory=list)
    # query -> (support set, quote, partition), emptied by every sale
    _quotes: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.master.is_ground():
            raise UnknownValue("the curated relation must be ground")
        md_attrs = [a for md in self.mds for a in (md.target[1], *(p for _, p in md.match))]
        for attr in (*self.spec.x, *self.spec.y, *md_attrs):
            self.master.schema.require(attr)

    @property
    def total_weight(self) -> int:
        return self.support.total_weight

    def quote(self, request: ValueRequest, client_tuple: Mapping[str, str]):
        """(query, (quote, partition)) for a request. A quote kept since the
        last sale is reused while its support set is unchanged."""
        q = translate_request(request, client_tuple, self.mds)
        height = self.master.hierarchies.for_attribute(q.projection[0]).height
        if not 0 <= request.level <= height:
            raise UnknownValue(
                f"level {request.level} outside [0, {height}] for {q.projection[0]!r}"
            )
        support = self.support
        kept = self._quotes.get(q)
        if (kept is not None and kept[0] is support
                and kept[2].snapshot == tuple(support.members)):
            return q, kept[1:]
        quote, partition = safe_price(q, support, self.spec)
        self._quotes.pop(q, None)
        if len(self._quotes) >= _QUOTE_MEMO_CAP:
            del self._quotes[next(iter(self._quotes))]
        self._quotes[q] = (support, quote, partition)
        return q, (quote, partition)

    def ask_price(self, request: ValueRequest, client_tuple: Mapping[str, str]):
        """Quote a request; records the quote, never mutates the support set."""
        q, (quote, _) = self.quote(request, client_tuple)
        self._record(
            {
                "op": "quote",
                "request": request.to_json(),
                "fingerprint": quote.query_fingerprint,
                "price": "infinite" if quote.infinite else quote.amount,
            }
        )
        return quote.amount

    def pay(self, price, request: ValueRequest, client_tuple: Mapping[str, str]):
        """Execute a purchase at the currently quoted price.

        The sale is made at the quote this session last gave for the request,
        if no sale came between; otherwise the request is quoted afresh.
        Returns (value, level). The answer is the lifted value the quote
        counted in the most curated rows, ties broken lexicographically. The
        sale is committed only after a non-empty answer is found, so failed
        purchases cost nothing and leave no trace in the support set.
        """
        _, (quote, partition) = self.quote(request, client_tuple)
        if quote.infinite:
            raise UnsafeRequest(f"request {request} cannot be answered safely")
        if is_infinite(price) or price != quote.amount:
            raise QuoteMismatch(f"offered {price!r}, current quote is {quote.amount!r}")
        if not quote.answer:
            raise NoMatch(f"no curated tuple matches request {request}")
        (best,) = max(sorted(quote.answer), key=quote.answer.__getitem__)
        commit_sale(self.support, partition)
        self._quotes.clear()
        self._record(
            {
                "op": "sale",
                "request": request.to_json(),
                "fingerprint": quote.query_fingerprint,
                "price": quote.amount,
                "value": best,
                "level": request.level,
            }
        )
        return best, request.level

    def _record(self, entry: dict) -> None:
        self.ledger.append(entry)
        del self.ledger[:-_LEDGER_CAP]
