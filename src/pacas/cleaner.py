"""Client-side repair loop: buy trusted values and apply them per class.

The loop clusters RHS cells into equivalence classes once, then repeatedly
selects the class with the most violations, allocates a budget share
proportional to its error count, finds the cheapest lowest-level affordable
request among its cells, purchases it and writes the answer into every cell
of the class. Purchased general values are kept as-is; nothing is grounded.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from . import metrics
from .errors import (
    LevelCapViolation,
    NoApplicableMD,
    NoClasses,
    NoMatch,
    PacasError,
    ProtocolError,
    UnknownValue,
)
from .pricing import is_infinite
from .provider import ValueRequest
from .relation import (
    FD,
    EquivalenceClass,
    FDIndex,
    GeneralizedRelation,
    resolved,
)


@dataclass
class RepairSession:
    """The working copy and what the repair loop keeps about it.

    `index` holds each FD's LHS groups, violating pairs and each tuple's row
    position, and `eqs_of` the classes with a cell on each tuple, all for the
    whole session. A repair rescans only the groups that hold the repaired
    tuples and recounts only the classes on those groups' tuples;
    `refresh_error_counts` stays the full-recount oracle."""

    relation: GeneralizedRelation
    fds: tuple[FD, ...]
    budget_total: Fraction
    budget_remaining: Fraction
    l_max: Mapping[str, int]
    eqs: list[EquivalenceClass]
    index: FDIndex
    eqs_of: dict[str, list[EquivalenceClass]]


def start_session(
    relation: GeneralizedRelation,
    fds: tuple[FD, ...],
    budget: Fraction,
    l_max: int | Mapping[str, int],
) -> RepairSession:
    """Copy the relation and cluster its classes. Attributes a cap map omits
    get cap 0; a cap on an unknown attribute or below 0 is rejected."""
    attrs = relation.schema.attributes
    wanted = dict.fromkeys(attrs, l_max) if isinstance(l_max, int) else l_max
    caps = {}
    for attr, cap in {**dict.fromkeys(attrs, 0), **wanted}.items():
        relation.schema.require(attr)
        if int(cap) < 0:
            raise LevelCapViolation(f"level cap {cap} on {attr!r} is negative")
        caps[attr] = min(int(cap), relation.hierarchies.for_attribute(attr).height)
    working = relation.copy()
    index = FDIndex(working, fds)
    eqs = [eq for eq in index.classes() if not resolved(working, eq)]
    eqs_of: dict[str, list[EquivalenceClass]] = {}
    for eq in eqs:
        eq.error_count = index.error_count(eq.cells)
        for tid in {t for t, _ in eq.cells}:
            eqs_of.setdefault(tid, []).append(eq)
    return RepairSession(
        relation=working,
        fds=fds,
        budget_total=budget,
        budget_remaining=budget,
        l_max=caps,
        eqs=eqs,
        index=index,
        eqs_of=eqs_of,
    )


def select_eq(session: RepairSession) -> EquivalenceClass:
    """Class with the largest error count; ties go to the smallest id."""
    if not session.eqs:
        raise NoClasses("no equivalence classes left to repair")
    return max(session.eqs, key=lambda eq: (eq.error_count, -eq.eq_id))


def allocate(session: RepairSession, eq: EquivalenceClass) -> Fraction:
    """Budget share proportional to the class's error count over the
    surviving classes; a zero denominator degenerates to the full budget."""
    denominator = sum(e.error_count for e in session.eqs)
    if denominator == 0:
        return session.budget_remaining
    return Fraction(eq.error_count, denominator) * session.budget_remaining


def _cell_order(session: RepairSession, eq: EquivalenceClass) -> list[tuple[str, str]]:
    order = session.index.order
    return sorted(eq.cells, key=lambda cell: (order[cell[0]], cell[1]))


def lowest_affordable_level(
    session: RepairSession, provider, cell: tuple[str, str], budget: Fraction
):
    """Scan levels upward and return (level, price) for the first finite quote
    within budget, or None. Quotes are free, one per level."""
    tid, attr = cell
    host = session.relation.row(tid)
    for level in range(0, session.l_max[attr] + 1):
        request = ValueRequest(tid, attr, level)
        try:
            price = provider.ask_price(request, host.values)
        except NoApplicableMD:
            return None
        if is_infinite(price):
            continue
        if price <= budget:
            return level, price
    return None


def generate_request(
    session: RepairSession,
    eq: EquivalenceClass,
    budget: Fraction,
    provider,
    skip: set[tuple[str, str]] = frozenset(),
):
    """Best affordable request over the class's cells: minimal level first,
    then price, later cells winning exact ties."""
    best = None
    for cell in _cell_order(session, eq):
        if cell in skip:
            continue
        found = lowest_affordable_level(session, provider, cell, budget)
        if found is None:
            continue
        level, price = found
        if best is None or level < best[1] or (level == best[1] and price <= best[2]):
            best = (cell, level, price)
    if best is None:
        return None
    cell, level, price = best
    return ValueRequest(cell[0], cell[1], level), price


def apply_repair(session: RepairSession, eq: EquivalenceClass, value: str, level: int) -> None:
    """Write the purchased value into every cell of the class, drop the class
    and recount the surviving classes whose violating pairs may have moved."""
    attrs = eq.attributes()
    for attr in attrs:
        if level > session.l_max[attr]:
            raise LevelCapViolation(f"level {level} exceeds cap {session.l_max[attr]} on {attr!r}")
        h = session.relation.hierarchies.for_attribute(attr)
        if value not in h:
            raise UnknownValue(f"repair value {value!r} missing from {attr!r} hierarchy")
    for tid, attr in eq.cells:
        session.relation.row(tid).values[attr] = value
    session.eqs = [e for e in session.eqs if e.eq_id != eq.eq_id]
    touched = session.index.update({tid for tid, _ in eq.cells}, attrs)
    stale = {e.eq_id for tid in touched for e in session.eqs_of.get(tid, ())}
    for e in session.eqs:
        if e.eq_id in stale:
            e.error_count = session.index.error_count(e.cells)


@dataclass
class CleanReport:
    iterations: list[dict]
    violations_before: int
    violations_after: int
    budget_total: Fraction
    budget_spent: Fraction
    repair_error: float | None = None
    buckets: dict[str, float] | None = None
    wall_time_s: float = 0.0

    def to_json(self) -> dict:
        doc = {
            "iterations": self.iterations,
            "violations_before": self.violations_before,
            "violations_after": self.violations_after,
            "budget_total": float(self.budget_total),
            "budget_spent": float(self.budget_spent),
            "wall_time_s": self.wall_time_s,
        }
        if self.repair_error is not None:
            doc["repair_error"] = self.repair_error
            doc["buckets"] = self.buckets
        return doc


def safe_clean(
    relation: GeneralizedRelation,
    provider,
    fds: tuple[FD, ...],
    budget: Fraction,
    l_max: int | Mapping[str, int] = 0,
    truth: GeneralizedRelation | None = None,
    metric_ctx: metrics.MetricContext | None = None,
) -> tuple[GeneralizedRelation, CleanReport]:
    """Run the repair loop until the budget or the class list is exhausted."""
    started = time.perf_counter()
    session = start_session(relation, fds, budget, l_max)
    before = session.index.count
    iterations: list[dict] = []
    while session.budget_remaining > 0 and session.eqs:
        eq = select_eq(session)
        share = allocate(session, eq)
        entry: dict = {"eq_id": eq.eq_id, "errors": eq.error_count, "allocated": float(share)}
        skip: set[tuple[str, str]] = set()
        purchase = None
        while True:
            found = generate_request(session, eq, share, provider, skip=skip)
            if found is None:
                break
            request, price = found
            try:
                value, level = provider.pay(
                    price, request, session.relation.row(request.tuple_id).values
                )
            except NoMatch:
                skip.add((request.tuple_id, request.attribute))
                continue
            except ProtocolError:
                raise  # transport death aborts the run; not a repair failure
            except PacasError as exc:
                entry["failure"] = type(exc).__name__
                break
            purchase = {
                "request": request.to_json(),
                "price": price,
                "value": value,
                "level": level,
                "cells": [list(c) for c in _cell_order(session, eq)],
            }
            break
        if purchase is None:
            entry["outcome"] = "unrepaired"
            session.eqs = [e for e in session.eqs if e.eq_id != eq.eq_id]
        else:
            session.budget_remaining -= purchase["price"]
            old_values = sorted(
                {session.relation.row(t).values[a] for t, a in eq.cells}
            )
            apply_repair(session, eq, purchase["value"], purchase["level"])
            entry["outcome"] = "repaired"
            entry["purchase"] = purchase
            entry["replaced"] = old_values
        iterations.append(entry)
    after = session.index.count
    report = CleanReport(
        iterations=iterations,
        violations_before=before,
        violations_after=after,
        budget_total=session.budget_total,
        budget_spent=session.budget_total - session.budget_remaining,
    )
    if truth is not None:
        ctx = metric_ctx or metrics.MetricContext(truth)
        report.repair_error = metrics.relation_distance(ctx, truth, session.relation)
        report.buckets = repair_buckets(iterations, truth, ctx)
    report.wall_time_s = time.perf_counter() - started
    return session.relation, report


def repair_buckets(
    iterations: list[dict], truth: GeneralizedRelation, ctx: metrics.MetricContext
) -> dict[str, float]:
    """Histogram of normalized true-vs-repaired distances over purchased cells."""
    counts = {b: 0 for b in metrics.BUCKETS}
    total = 0
    for purchase in (it["purchase"] for it in iterations if "purchase" in it):
        value = purchase["value"]
        for tid, attr in purchase["cells"]:
            counts[ctx.tables[attr].bucket(truth.row(tid).values[attr], value)] += 1
            total += 1
    if total == 0:
        return {b: 0.0 for b in metrics.BUCKETS}
    return {b: counts[b] / total for b in metrics.BUCKETS}
