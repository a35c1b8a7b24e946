"""Synthetic data, error injection and parameter sweeps.

The generator produces a curated relation whose (GEN, AGE) groups carry a
controlled spread of sensitive-value diversity, a consistent FD mapping of
(GEN, DIAG) to MED, and bushy value hierarchies, so pricing, privacy gating
and repair quality all have room to move across the sweep grids.
"""

from __future__ import annotations

import csv
import io
import json
import time
from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Sequence

from . import metrics
from .anonymity import AnonymitySpec
from .cleaner import safe_clean
from .errors import RateInfeasible, UnknownValue
from .hierarchy import HierarchySet, load_hierarchy_set
from .pricing import build_support_set
from .protocol import EmbeddedProvider
from .provider import ProviderSession
from .relation import FD, MD, DependencyConfig, FDIndex, GeneralizedRelation, Row, Schema
from .rng import child_rng

# ---------------------------------------------------------------------------
# synthetic master generation

_MED_MAP = (0, 1, 2, 0, 1, 2, 3, 4, 3, 4)  # diag index -> med index (per gender)
_AGES = ("21", "22", "23", "24")
_N_DIAGS = 10
_GROUP_SIZE = 6  # tuples per (GEN, AGE) group, a window of the diagnoses


def _tree(attribute: str, *tiers: dict[str, str]) -> dict:
    """Hierarchy document under the root "*" from child -> parent maps, one
    per level, the level just below the root first."""
    nodes = [{"value": "*", "level": len(tiers), "parent": None}]
    for level, tier in zip(range(len(tiers) - 1, -1, -1), tiers):
        nodes += [{"value": v, "level": level, "parent": p} for v, p in tier.items()]
    return {"attribute": attribute, "levels": len(tiers) + 1, "nodes": nodes}


_HIERARCHIES = (
    _tree("GEN", {"male": "*", "female": "*"}),
    _tree("AGE", {"[21,22]": "*", "[23,24]": "*"},
          {a: "[21,22]" if a in ("21", "22") else "[23,24]" for a in _AGES}),
    _tree("DIAG", {"dgrpA": "*", "dgrpB": "*"},
          {f"diag{d}": "dgrpA" if d < 5 else "dgrpB" for d in range(_N_DIAGS)}),
    _tree("MED", {f"br{b}": "*" for b in range(2)},
          {f"cls{c}": f"br{c // 2}" for c in range(4)},
          {f"sub{s}": f"cls{s // 2}" for s in range(8)},
          {f"med{m:02d}": f"sub{m // 2}" for m in range(16)}),
)


@dataclass
class SyntheticBundle:
    master: GeneralizedRelation
    truth: GeneralizedRelation
    hierarchies: HierarchySet
    config: DependencyConfig
    spec_x: tuple[str, ...] = ("GEN", "AGE")
    spec_y: tuple[str, ...] = ("MED",)


def generate_master(seed: int = 0) -> SyntheticBundle:
    """Deterministic curated relation of 2 genders x 4 age groups x 6 tuples.

    Each (GEN, AGE) group samples a window of diagnoses whose FD-mapped
    medications give per-group sensitive diversities of 3 to 5 distinct
    values, keeping the relation FD-consistent and (X,Y)-anonymous at k=3.
    """
    hierarchies = load_hierarchy_set(_HIERARCHIES)
    rng = child_rng(seed, "master")
    schema = Schema(
        attributes=("GEN", "AGE", "DIAG", "MED"),
        qi=("GEN", "AGE"),
        sensitive=("MED",),
        key="ID",
    )
    rows: list[Row] = []
    n = 0
    for g, gender in enumerate(("male", "female")):
        for a, age in enumerate(_AGES):
            window = [(2 * a + i) % _N_DIAGS for i in range(_GROUP_SIZE)]
            rng.shuffle(window)
            for j in window:
                n += 1
                med = f"med{_MED_MAP[j] + 8 * g:02d}"
                rows.append(
                    Row(f"m{n}", {"GEN": gender, "AGE": age, "DIAG": f"diag{j}", "MED": med})
                )
    master = GeneralizedRelation(schema=schema, rows=rows, hierarchies=hierarchies)
    truth = GeneralizedRelation(
        schema=schema,
        rows=[Row(f"t{i + 1}", dict(r.values)) for i, r in enumerate(rows)],
        hierarchies=hierarchies,
    )
    config = DependencyConfig(
        qi=("GEN", "AGE"),
        sensitive=("MED",),
        fds=(FD(lhs=("GEN", "DIAG"), rhs=("MED",)),),
        mds=(MD(match=(("GEN", "GEN"), ("AGE", "AGE"), ("DIAG", "DIAG")), target=("MED", "MED")),),
    )
    return SyntheticBundle(master=master, truth=truth, hierarchies=hierarchies, config=config)


# ---------------------------------------------------------------------------
# error injection

@dataclass(frozen=True)
class InjectionPlan:
    rate: float
    mix: tuple[float, float] = (0.5, 0.5)  # (constraint_induced, random)
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.rate <= 1:
            raise RateInfeasible(f"error rate {self.rate} outside (0, 1]")
        if not all(0 <= share <= 1 for share in self.mix):
            raise RateInfeasible(f"error mix {self.mix} has a share outside [0, 1]")
        if abs(sum(self.mix) - 1.0) > 1e-9:
            raise RateInfeasible("error mix must sum to 1")


def inject_errors(
    truth: GeneralizedRelation, plan: InjectionPlan, fds: Sequence[FD]
) -> tuple[GeneralizedRelation, dict]:
    """Corrupt a seeded fraction of tuples inside the FD attributes.

    Constraint-induced errors perturb one RHS cell of a tuple pair sharing an
    FD LHS; random errors redraw any FD-attribute cell. At most one error per
    tuple; the manifest round-trips the dirty relation from the truth.

    One `FDIndex` over the truth checks it and groups each FD's rows. The
    call keeps, per FD, the sorted LHS vectors that at least two unused
    tuples share and each vector's unused tuples in row order, and it keeps
    all unused tuples in row order. Corrupting a tuple updates them with
    binary searches and list deletions, so no error makes a pass over every
    row or sorts every group key. The draws, and so the dirty relation and
    manifest, are those of regrouping every unused row before each error.
    """
    fds = tuple(fds)
    if not fds:
        raise RateInfeasible("error injection needs at least one FD")
    if not truth.is_ground():
        raise UnknownValue("truth relation must be ground before injection")
    index = FDIndex(truth, fds)
    if index.count:
        raise UnknownValue("truth relation must satisfy the FDs before injection")
    rng = child_rng(plan.seed, "inject")
    n_total = max(1, round(plan.rate * len(truth.rows)))
    dirty = truth.copy()
    entries: list[dict] = []

    fd_attrs = sorted({a for fd in fds for a in fd.lhs + fd.rhs})
    domains = {a: sorted({row.values[a] for row in truth.rows}) for a in fd_attrs}
    rank = {a: {v: i for i, v in enumerate(domain)} for a, domain in domains.items()}
    unused = list(range(len(truth.rows)))  # row positions of untouched tuples
    # per FD: LHS vector -> its unused tuples in row order, and the sorted
    # vectors at least two unused tuples share
    members = [{key: [row.tid for row in rows] for key, rows in groups.items()}
               for groups in index.groups]
    shared = [sorted(k for k, tids in groups.items() if len(tids) >= 2) for groups in members]

    def corrupt(tid: str, attr: str, kind: str) -> None:
        row = dirty.row(tid)
        old = row.values[attr]
        domain = domains[attr]
        if len(domain) < 2:
            raise RateInfeasible(f"attribute {attr!r} has a single-value domain")
        # the draw a choice among the other domain values makes
        i = rng.choice(range(len(domain) - 1))
        new = domain[i + (i >= rank[attr][old])]
        row.values[attr] = new
        entries.append({"tuple_id": tid, "attr": attr, "old": old, "new": new, "kind": kind})
        del unused[bisect_left(unused, index.order[tid])]
        values = truth.row(tid).values
        for fd, groups, keys in zip(fds, members, shared):
            key = tuple(values[a] for a in fd.lhs)
            groups[key].remove(tid)
            if len(groups[key]) == 1:
                del keys[bisect_left(keys, key)]

    # interleave the two kinds deterministically so a higher rate corrupts a
    # superset of what a lower rate corrupts under the same seed
    ci_done = 0
    for i in range(n_total):
        if round(plan.mix[0] * (i + 1)) > ci_done:
            ci_done += 1
            f = rng.randrange(len(fds))
            if not shared[f]:
                raise RateInfeasible(
                    "not enough LHS-sharing pairs left for constraint-induced errors"
                )
            key = shared[f][rng.randrange(len(shared[f]))]
            tid = rng.choice(members[f][key])
            corrupt(tid, rng.choice(fds[f].rhs), "constraint_induced")
        else:
            if not unused:
                raise RateInfeasible("fewer tuples than requested errors")
            tid = truth.rows[rng.choice(unused)].tid
            corrupt(tid, rng.choice(fd_attrs), "random")

    manifest = {"seed": plan.seed, "rate": plan.rate, "entries": entries}
    return dirty, manifest


def apply_manifest(truth: GeneralizedRelation, manifest: dict) -> GeneralizedRelation:
    dirty = truth.copy()
    for entry in manifest["entries"]:
        dirty.row(entry["tuple_id"]).values[entry["attr"]] = entry["new"]
    return dirty


# ---------------------------------------------------------------------------
# parameter sweeps

@dataclass
class SweepConfig:
    budget_grid: tuple[float, ...] = (0.2, 0.4, 0.6, 0.8)
    support_grid: tuple[int, ...] = (6, 8, 10, 12, 14)
    level_grid: tuple[int, ...] = (0, 1, 2, 3, 4)
    k_grid: tuple[int, ...] = (1, 2, 3, 4, 5)
    error_grid: tuple[float, ...] = (0.05, 0.1, 0.15, 0.2, 0.25)
    default_budget: float = 0.8
    default_support: int = 10
    default_level: int = 2
    default_k: int = 3
    default_error: float = 0.1
    repetitions: int = 3
    base_seed: int = 7
    error_mix: tuple[float, float] = (0.8, 0.2)

    @classmethod
    def from_json(cls, source: str | Path | dict) -> "SweepConfig":
        doc = source if isinstance(source, dict) else json.loads(Path(source).read_text())
        kwargs = {}
        for name in cls.__dataclass_fields__:
            if name in doc:
                value = doc[name]
                kwargs[name] = tuple(value) if isinstance(value, list) else value
        return cls(**kwargs)


def run_point(
    budget_frac: float,
    support_size: int,
    l_max: int,
    k: int,
    error_rate: float,
    seed: int,
    error_mix: tuple[float, float] = (0.8, 0.2),
) -> dict:
    """One full inject + clean cycle against an embedded provider."""
    bundle = generate_master(seed=seed)
    plan = InjectionPlan(rate=error_rate, mix=error_mix, seed=seed)
    dirty, _ = inject_errors(bundle.truth, plan, bundle.config.fds)
    support = build_support_set(bundle.master, support_size, seed)
    spec = AnonymitySpec(x=bundle.spec_x, y=bundle.spec_y, levels=(0,), k=k)
    session = ProviderSession(
        master=bundle.master, support=support, spec=spec, mds=bundle.config.mds
    )
    budget = Fraction(str(budget_frac)) * support.total_weight
    started = time.perf_counter()
    repaired, report = safe_clean(
        dirty,
        EmbeddedProvider(session),
        bundle.config.fds,
        budget,
        l_max=l_max,
        truth=bundle.truth,
        metric_ctx=metrics.MetricContext(bundle.master),
    )
    wall = time.perf_counter() - started
    return {
        "repair_error": report.repair_error,
        "violations_before": report.violations_before,
        "violations_after": report.violations_after,
        "repairs": len(report.iterations),
        "purchases": sum(1 for it in report.iterations if it.get("outcome") == "repaired"),
        "buckets": report.buckets,
        "wall_time_s": wall,
    }


# each axis names a SweepConfig grid `<axis>_grid` and its default `default_<axis>`
AXES = ("budget", "support", "level", "k", "error")


def run_axis(config: SweepConfig, axis: str) -> tuple[list[dict], list[dict]]:
    """Averaged rows plus per-repetition timing rows for one sweep axis."""
    rows: list[dict] = []
    timing: list[dict] = []
    for value in getattr(config, f"{axis}_grid"):
        params = {a: getattr(config, f"default_{a}") for a in AXES}
        params[axis] = value
        reps = []
        for rep in range(config.repetitions):
            # one seed per repetition, shared across the axis values, so grid
            # points compare paired datasets and support sets
            seed = child_rng(config.base_seed, f"{axis}:{rep}").getrandbits(31)
            point = run_point(
                budget_frac=params["budget"],
                support_size=int(params["support"]),
                l_max=int(params["level"]),
                k=int(params["k"]),
                error_rate=params["error"],
                seed=seed,
                error_mix=config.error_mix,
            )
            reps.append(point)
            timing.append({"axis": axis, "value": value, "rep": rep,
                           "wall_time_s": point["wall_time_s"]})
        row = {
            "axis": axis,
            "value": value,
            "repair_error": sum(p["repair_error"] for p in reps) / len(reps),
            "violations_before": sum(p["violations_before"] for p in reps) / len(reps),
            "violations_after": sum(p["violations_after"] for p in reps) / len(reps),
            "purchases": sum(p["purchases"] for p in reps) / len(reps),
        }
        for bucket in metrics.BUCKETS:
            row[f"bucket_{bucket}"] = sum(p["buckets"][bucket] for p in reps) / len(reps)
        rows.append(row)
    return rows, timing


def run_sweep(config: SweepConfig, outdir: str | Path, axes: Iterable[str] = AXES) -> dict:
    """Write one CSV per axis plus a timing file; results are seed-determined
    and byte-identical across reruns (timings live in their own file)."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    all_rows: dict[str, list[dict]] = {}
    all_timing: list[dict] = []
    for axis in axes:
        rows, timing = run_axis(config, axis)
        all_rows[axis] = rows
        all_timing.extend(timing)
        _write_csv(outdir / f"{axis}.csv", rows)
    _write_csv(outdir / "timing.csv", all_timing)
    summary = {axis: rows for axis, rows in all_rows.items()}
    (outdir / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    return summary


def _write_csv(path: Path, rows: list[dict]) -> None:
    if not rows:
        path.write_text("")
        return
    out = io.StringIO()
    writer = csv.DictWriter(out, fieldnames=list(rows[0]), lineterminator="\n")
    writer.writeheader()
    for row in rows:
        writer.writerow({k: _fmt(v) for k, v in row.items()})
    path.write_text(out.getvalue())


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.6f}"
    return str(value)
