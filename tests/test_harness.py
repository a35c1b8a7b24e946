"""Synthetic data generation, error injection and sweep plumbing."""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pacas.anonymity import is_xy_anonymous
from pacas.errors import RateInfeasible
from pacas.harness import (
    InjectionPlan,
    SweepConfig,
    apply_manifest,
    generate_master,
    inject_errors,
    run_point,
    run_sweep,
)
from pacas.hierarchy import HierarchySet, load_hierarchy
from pacas.relation import FD, GeneralizedRelation, Row, Schema, is_consistent, violations
from pacas.rng import child_rng


class TestGenerateMaster:
    def test_master_is_consistent_and_ground(self):
        bundle = generate_master(seed=1)
        assert bundle.master.is_ground()
        ok, _ = is_consistent(bundle.master, bundle.config.fds)
        assert ok

    def test_groups_are_diverse(self):
        bundle = generate_master(seed=1)
        assert is_xy_anonymous(bundle.master, ("GEN", "AGE"), ("MED",), 3)

    def test_truth_mirrors_master_values(self):
        bundle = generate_master(seed=2)
        for m_row, t_row in zip(bundle.master.rows, bundle.truth.rows):
            assert m_row.values == t_row.values
            assert t_row.tid.startswith("t")

    def test_deterministic(self):
        a = generate_master(seed=5)
        b = generate_master(seed=5)
        assert a.master.to_csv() == b.master.to_csv()


class TestInjection:
    def test_single_tuple_rate(self):
        bundle = generate_master(seed=3)
        n = len(bundle.truth.rows)
        dirty, manifest = inject_errors(
            bundle.truth, InjectionPlan(rate=1 / n, seed=3), bundle.config.fds
        )
        assert len(manifest["entries"]) == 1

    def test_rate_zero_rejected(self):
        with pytest.raises(RateInfeasible):
            InjectionPlan(rate=0.0)

    def test_constraint_induced_creates_violations(self):
        bundle = generate_master(seed=4)
        dirty, manifest = inject_errors(
            bundle.truth,
            InjectionPlan(rate=0.1, mix=(1.0, 0.0), seed=4),
            bundle.config.fds,
        )
        assert violations(dirty, bundle.config.fds)
        assert all(e["kind"] == "constraint_induced" for e in manifest["entries"])

    def test_manifest_round_trip(self):
        bundle = generate_master(seed=6)
        dirty, manifest = inject_errors(
            bundle.truth, InjectionPlan(rate=0.2, seed=6), bundle.config.fds
        )
        assert apply_manifest(bundle.truth, manifest).to_csv() == dirty.to_csv()

    def test_seed_determinism(self):
        bundle = generate_master(seed=7)
        _, m1 = inject_errors(bundle.truth, InjectionPlan(rate=0.15, seed=7),
                              bundle.config.fds)
        _, m2 = inject_errors(bundle.truth, InjectionPlan(rate=0.15, seed=7),
                              bundle.config.fds)
        assert m1 == m2

    def test_at_most_one_error_per_tuple(self):
        bundle = generate_master(seed=8)
        _, manifest = inject_errors(bundle.truth, InjectionPlan(rate=0.25, seed=8),
                                    bundle.config.fds)
        touched = [e["tuple_id"] for e in manifest["entries"]]
        assert len(touched) == len(set(touched))

    def test_errors_stay_inside_fd_attributes(self):
        bundle = generate_master(seed=9)
        fd_attrs = {a for fd in bundle.config.fds for a in fd.lhs + fd.rhs}
        _, manifest = inject_errors(bundle.truth, InjectionPlan(rate=0.25, seed=9),
                                    bundle.config.fds)
        assert all(e["attr"] in fd_attrs for e in manifest["entries"])


    def test_empty_fd_list_rejected(self):
        bundle = generate_master(seed=3)
        for mix in ((0.0, 1.0), (1.0, 0.0)):
            with pytest.raises(RateInfeasible):
                inject_errors(bundle.truth, InjectionPlan(rate=0.1, mix=mix, seed=3), [])

    @pytest.mark.parametrize("mix", [(1.5, -0.5), (-0.5, 1.5), (2.0, -1.0)])
    def test_mix_share_outside_unit_interval_rejected(self, mix):
        with pytest.raises(RateInfeasible):
            InjectionPlan(rate=0.1, mix=mix)


# ---------------------------------------------------------------------------
# injection against the rule that regroups every unused row before each error

def regrouping_inject(truth, plan, fds):
    """Reference rule: before each constraint-induced error, group every
    unused truth row by the drawn FD's LHS and sort the shared vectors; list
    the unused rows before each random error and the other domain values
    before each redraw."""
    rng = child_rng(plan.seed, "inject")
    n_total = max(1, round(plan.rate * len(truth.rows)))
    dirty = truth.copy()
    used, entries = set(), []
    domains = {a: sorted({row.values[a] for row in truth.rows}) for a in truth.schema.attributes}

    def corrupt(tid, attr, kind):
        row = dirty.row(tid)
        old = row.values[attr]
        choices = [v for v in domains[attr] if v != old]
        if not choices:
            raise RateInfeasible(f"attribute {attr!r} has a single-value domain")
        new = rng.choice(choices)
        row.values[attr] = new
        used.add(tid)
        entries.append({"tuple_id": tid, "attr": attr, "old": old, "new": new, "kind": kind})

    fd_attrs = sorted({a for fd in fds for a in fd.lhs + fd.rhs})
    ci_done = 0
    for i in range(n_total):
        if round(plan.mix[0] * (i + 1)) > ci_done:
            ci_done += 1
            fd = fds[rng.randrange(len(fds))]
            groups = {}
            for row in truth.rows:
                if row.tid not in used:
                    groups.setdefault(tuple(row.values[a] for a in fd.lhs), []).append(row.tid)
            pairs = sorted(k for k, tids in groups.items() if len(tids) >= 2)
            if not pairs:
                raise RateInfeasible(
                    "not enough LHS-sharing pairs left for constraint-induced errors"
                )
            key = pairs[rng.randrange(len(pairs))]
            corrupt(rng.choice(groups[key]), rng.choice(fd.rhs), "constraint_induced")
        else:
            candidates = [row.tid for row in truth.rows if row.tid not in used]
            if not candidates:
                raise RateInfeasible("fewer tuples than requested errors")
            corrupt(rng.choice(candidates), rng.choice(fd_attrs), "random")
    return dirty, {"seed": plan.seed, "rate": plan.rate, "entries": entries}


_ATTRS = ("A", "B", "C", "D", "E")
_GROUND = {a: [f"{a}{i}" for i in range(4)] for a in _ATTRS}
_HS = HierarchySet({
    a: load_hierarchy({"attribute": a, "levels": 2, "nodes": [
        {"value": "*", "level": 1, "parent": None},
        *({"value": v, "level": 0, "parent": "*"} for v in _GROUND[a]),
    ]})
    for a in _ATTRS
})
# different and overlapping LHS; C is the RHS of one FD and in the LHS of another
_FDS = (FD(("A", "B"), ("C",)), FD(("A",), ("D", "E")), FD(("B", "C"), ("E",)),
        FD(("D",), ("B",)))


@st.composite
def consistent_truths(draw):
    """A ground relation over A..E and two or more of _FDS that it satisfies:
    every FD's RHS is a drawn function of its LHS, applied in dependency order."""
    fds = draw(st.lists(st.sampled_from(_FDS), min_size=2, max_size=4))
    n = draw(st.integers(1, 24))
    rows = []
    for i in range(n):
        values = {a: draw(st.sampled_from(_GROUND[a])) for a in _ATTRS}
        rows.append(Row(f"t{i}", values))
    truth = GeneralizedRelation(Schema(attributes=_ATTRS), rows, _HS)
    # rewrite each FD's RHS as a function of its LHS until every FD holds;
    # the rare draw that has not settled after a few rounds is discarded
    for _ in range(10):
        if not violations(truth, fds):
            break
        for fd in fds:
            image = {}
            for row in truth.rows:
                key = tuple(row.values[a] for a in fd.lhs)
                image.setdefault(key, tuple(row.values[a] for a in fd.rhs))
                row.values.update(zip(fd.rhs, image[key]))
    assume(not violations(truth, fds))
    return truth, fds


def _outcome(inject, truth, plan, fds):
    try:
        dirty, manifest = inject(truth, plan, fds)
    except RateInfeasible as exc:
        return "RateInfeasible", str(exc)
    return dirty.to_csv(), manifest


@settings(max_examples=250, deadline=None)
@given(
    world=consistent_truths(),
    rate=st.one_of(st.sampled_from([1.0, 0.5]), st.floats(0.01, 1.0)),
    mix=st.sampled_from([(1.0, 0.0), (0.0, 1.0), (0.5, 0.5), (0.8, 0.2), (0.3, 0.7)]),
    seed=st.integers(0, 2**31 - 1),
)
def test_inject_matches_regrouping_rule(world, rate, mix, seed):
    truth, fds = world
    plan = InjectionPlan(rate=rate, mix=mix, seed=seed)
    assert _outcome(inject_errors, truth, plan, fds) == \
        _outcome(regrouping_inject, truth, plan, fds)


class TestSweep:
    def test_run_point_repairs_at_default_k(self):
        point = run_point(budget_frac=0.8, support_size=10, l_max=2, k=3,
                          error_rate=0.1, seed=11)
        assert point["purchases"] > 0
        assert point["violations_after"] <= point["violations_before"]

    def test_sweep_outputs_are_byte_identical(self, tmp_path):
        config = SweepConfig(budget_grid=(0.4, 0.8), repetitions=1, base_seed=3)
        run_sweep(config, tmp_path / "a", axes=("budget",))
        run_sweep(config, tmp_path / "b", axes=("budget",))
        assert (tmp_path / "a" / "budget.csv").read_bytes() == \
            (tmp_path / "b" / "budget.csv").read_bytes()

    def test_sweep_writes_axis_and_timing_files(self, tmp_path):
        config = SweepConfig(k_grid=(1, 3), repetitions=1, base_seed=5)
        summary = run_sweep(config, tmp_path / "out", axes=("k",))
        assert (tmp_path / "out" / "k.csv").exists()
        assert (tmp_path / "out" / "timing.csv").exists()
        assert (tmp_path / "out" / "summary.json").exists()
        assert [row["value"] for row in summary["k"]] == [1, 3]

    def test_config_from_json(self, tmp_path):
        doc = {"budget_grid": [0.2, 0.6], "repetitions": 2, "base_seed": 9}
        path = tmp_path / "sweep.json"
        import json
        path.write_text(json.dumps(doc))
        config = SweepConfig.from_json(path)
        assert config.budget_grid == (0.2, 0.6)
        assert config.repetitions == 2
