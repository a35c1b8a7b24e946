"""Golden digests of outputs that refactors must leave byte-identical.

A change that moves a sweep result or a clean report fails here, not in a
manual comparison. When an output is meant to change, recompute the digest
and say why in the change log.
"""

import hashlib
import json
from pathlib import Path

import pytest

from pacas.cli import main
from pacas.harness import SweepConfig, run_sweep

from conftest import FIXTURES

TINY_SWEEP = SweepConfig(
    budget_grid=(0.4, 0.8),
    support_grid=(6, 10),
    level_grid=(0, 2),
    k_grid=(3, 4),
    error_grid=(0.1, 0.2),
    repetitions=1,
)


def test_tiny_sweep_digest(tmp_path):
    run_sweep(TINY_SWEEP, tmp_path)
    digest = hashlib.sha256()
    for path in sorted(tmp_path.iterdir()):
        if path.name != "timing.csv":
            digest.update(path.name.encode())
            digest.update(path.read_bytes())
    assert digest.hexdigest() == \
        "143b451ca7029d1d7f860bdebf98bf3036a9abb35a8ca62ffe9d53d3b802d786"


@pytest.mark.parametrize("k, lmax, support, expected", [
    ("1", "0", None, "86a2b6a2a7546781e2caea6dcbf14b677fdf77240183c0655114ba3987121eb8"),
    ("3", "2", None, "67b1eec9deaf0371b9263cb8ace62886e767ebd730fb86447a98183b108b9ecc"),
    ("3", "1", "golden_support.json",
     "b1cd907456945d6e1cad3ca184f479a7593a4f27f063261d9e48781a4df5b733"),
    ("1", "0", "golden_support.json",
     "6d50f8c74b3820c0591c1eb0604b313384e6ff021b98603f123dc83d280acc3d"),
], ids=["k1-built", "k3-built-infinite", "k3-golden", "k1-golden-paid"])
def test_fixture_clean_report_digest(tmp_path, capsys, k, lmax, support, expected):
    extra = ["--support", str(FIXTURES / support)] if support else []
    rc = main(["clean", "--input", str(FIXTURES / "dirty.csv"),
               "--master", str(FIXTURES / "master.csv"),
               "--hierarchies", str(FIXTURES / "hierarchies.json"),
               "--config", str(FIXTURES / "config.json"),
               "--budget", "0.8", "--lmax", lmax, "--k", k, "--seed", "7", *extra,
               "--truth", str(FIXTURES / "truth.csv"),
               "--out", str(tmp_path / "repaired.csv"),
               "--report", str(tmp_path / "report.json")])
    assert rc == 0
    report = json.loads((tmp_path / "report.json").read_text())
    report.pop("wall_time_s", None)
    body = json.dumps(report, sort_keys=True).encode()
    assert hashlib.sha256(body).hexdigest() == expected


def test_clean_pricing_benchmark_digest(tmp_path, monkeypatch):
    """The benchmark's clean-pricing pool at seed 1, n=288 and |S|=60: a size
    and support set that the fixture digests above never reach."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "perfbench"))
    import run

    setup = run.set_up(run.WORKLOADS["clean-pricing"], 1, tmp_path)
    loop = run.timed_loop(setup, 0.0, float("inf"))
    assert loop.problems == [] and loop.tally.errors == []
    assert loop.digest(setup.wl.pool) == \
        "2cbafcbab6c021cfb502ca386e1fdde118b871e2bfa76f5c483dece821d33fbd"
