"""CLI subcommands, exit codes and the serve/clean subprocess path."""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from pacas import cli
from pacas.cli import build_parser, main
from pacas.provider import ValueRequest

from conftest import FIXTURES
from test_protocol import T2, stub_provider


def fixture_args():
    return [
        "--hierarchies", str(FIXTURES / "hierarchies.json"),
        "--config", str(FIXTURES / "config.json"),
    ]


class TestSessionFactory:
    """The support set is built or loaded once per process; every session
    starts from its members and sells from its own copy."""

    @pytest.mark.parametrize("support", [
        ["--support", str(FIXTURES / "golden_support.json")],
        ["--support-size", "10", "--seed", "3"],
    ], ids=["snapshot", "built"])
    def test_sessions_are_independent(self, support):
        args = build_parser().parse_args(["serve", "--master", str(FIXTURES / "master.csv"),
                                          *fixture_args(), *support])
        factory, master = cli._session_factory(args, *cli._load_inputs(args))
        rows = master.to_csv()
        first, second = factory(), factory()
        assert first.support.members == second.support.members
        request = ValueRequest("t2", "MED", 0)
        weight, price = second.total_weight, second.ask_price(request, T2)
        assert price > 0
        first.pay(first.ask_price(request, T2), request, T2)
        assert first.total_weight < weight
        assert second.total_weight == weight
        assert second.ask_price(request, T2) == price
        assert factory().total_weight == weight
        assert master.to_csv() == rows


class TestCheckAnon:
    def test_public_table_verdicts(self, capsys):
        rc = main(["check-anon", "--relation", str(FIXTURES / "public.csv"),
                   *fixture_args(), "--k", "3"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["anonymous"] is True
        assert doc["min_group_size"] == 3
        assert len(doc["per_tuple"]) == 6

    def test_family_level_fails(self, capsys):
        rc = main(["check-anon", "--relation", str(FIXTURES / "public.csv"),
                   *fixture_args(), "--k", "3", "--levels", "1"])
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["anonymous"] is False

    # a malformed node or attribute is a validation error (exit 2), never a traceback
    @pytest.mark.parametrize("malform", [
        lambda doc: doc["nodes"][-1].pop("level"),
        lambda doc: doc["nodes"][-1].pop("value"),
        lambda doc: doc["nodes"].append("NSAID"),
        lambda doc: doc["nodes"][-1].update(value=["ibuprofen"]),
        lambda doc: doc.update(attribute=[doc["attribute"]]),
    ], ids=["no-level", "no-value", "string-node", "list-value", "list-attribute"])
    def test_malformed_hierarchy_node_exit_code(self, capsys, tmp_path, malform):
        docs = json.loads((FIXTURES / "hierarchies.json").read_text())
        malform(docs[-1])
        (tmp_path / "h.json").write_text(json.dumps(docs))
        rc = main(["check-anon", "--relation", str(FIXTURES / "public.csv"),
                   "--hierarchies", str(tmp_path / "h.json"),
                   "--config", str(FIXTURES / "config.json"), "--k", "3"])
        assert rc == 2
        assert json.loads(capsys.readouterr().err)["error"] == "MalformedHierarchy"

    def test_missing_file_exit_code(self, capsys):
        rc = main(["check-anon", "--relation", "/nonexistent.csv", *fixture_args()])
        assert rc == 2

    def test_unknown_x_attribute_exit_code(self, capsys):
        rc = main(["check-anon", "--relation", str(FIXTURES / "public.csv"),
                   *fixture_args(), "--x", "ZZZ"])
        assert rc == 2
        assert json.loads(capsys.readouterr().err)["error"] == "UnknownAttribute"


class TestPrice:
    def test_repeat_purchase_quotes_zero(self, capsys, tmp_path):
        requests = tmp_path / "requests.ndjson"
        t2 = {"GEN": "male", "AGE": "79", "DIAG": "osteoarthritis", "MED": "intropes"}
        lines = [
            {"op": "ask_price", "request": {"tuple_id": "t2", "attr": "MED", "level": 0},
             "tuple": t2},
            {"op": "pay", "price": 2,
             "request": {"tuple_id": "t2", "attr": "MED", "level": 0}, "tuple": t2},
            {"op": "ask_price", "request": {"tuple_id": "t2", "attr": "MED", "level": 0},
             "tuple": t2},
        ]
        requests.write_text("\n".join(json.dumps(l) for l in lines) + "\n")
        rc = main(["price", "--master", str(FIXTURES / "master.csv"), *fixture_args(),
                   "--support", str(FIXTURES / "golden_support.json"),
                   "--requests", str(requests)])
        assert rc == 0
        out = [json.loads(l) for l in capsys.readouterr().out.splitlines()]
        assert out[0] == {"ok": True, "price": 2}
        assert out[1]["value"] == "ibuprofen"
        assert out[2] == {"ok": True, "price": 0}


class TestNoPolicyLevels:
    """The provider's gate uses no L, so its commands take no --levels."""

    @pytest.mark.parametrize("command", [
        ["serve"],
        ["price", "--requests", "requests.ndjson"],
        ["clean", "--input", str(FIXTURES / "dirty.csv"), "--budget", "1",
         "--out", "repaired.csv"],
    ])
    def test_levels_rejected(self, capsys, command):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([*command, "--master", str(FIXTURES / "master.csv"),
                                       *fixture_args(), "--levels", "1"])
        assert exc.value.code == 2
        assert "--levels" in capsys.readouterr().err


class TestInject:
    def test_writes_dirty_and_manifest(self, capsys, tmp_path):
        rc = main(["inject", "--truth", str(FIXTURES / "truth.csv"), *fixture_args(),
                   "--rate", "0.25", "--seed", "3",
                   "--out", str(tmp_path / "dirty.csv"),
                   "--manifest", str(tmp_path / "manifest.json")])
        assert rc == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["entries"]
        assert (tmp_path / "dirty.csv").exists()

    def test_bad_rate_exit_code(self, capsys, tmp_path):
        rc = main(["inject", "--truth", str(FIXTURES / "truth.csv"), *fixture_args(),
                   "--rate", "0", "--out", str(tmp_path / "d.csv"),
                   "--manifest", str(tmp_path / "m.json")])
        assert rc == 2

    def _inject(self, tmp_path, config, frac):
        return main(["inject", "--truth", str(FIXTURES / "truth.csv"),
                     "--hierarchies", str(FIXTURES / "hierarchies.json"),
                     "--config", str(config), "--rate", "0.25",
                     "--constraint-frac", frac, "--out", str(tmp_path / "d.csv"),
                     "--manifest", str(tmp_path / "m.json")])

    @pytest.mark.parametrize("frac", ["0", "1"])
    def test_empty_fd_list_exit_code(self, capsys, tmp_path, frac):
        doc = json.loads((FIXTURES / "config.json").read_text())
        doc["fds"] = []
        config = tmp_path / "config.json"
        config.write_text(json.dumps(doc))
        assert self._inject(tmp_path, config, frac) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "RateInfeasible"
        assert not (tmp_path / "d.csv").exists()

    @pytest.mark.parametrize("frac", ["1.5", "-0.5"])
    def test_constraint_frac_outside_unit_interval_exit_code(self, capsys, tmp_path, frac):
        assert self._inject(tmp_path, FIXTURES / "config.json", frac) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "RateInfeasible"
        assert not (tmp_path / "d.csv").exists()


def ragged_copy(tmp_path, name):
    """The fixture CSV with its last record cut to four cells."""
    lines = (FIXTURES / name).read_text().splitlines()
    lines[-1] = lines[-1].rsplit(",", 1)[0]
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n")
    return path


class TestRaggedCsv:
    """A record with fewer or more cells than the header is an input error."""

    def test_clean_exit_code(self, capsys, tmp_path):
        rc = main(["clean", "--input", str(ragged_copy(tmp_path, "dirty.csv")),
                   "--master", str(FIXTURES / "master.csv"), *fixture_args(),
                   "--budget", "1", "--support", str(FIXTURES / "golden_support.json"),
                   "--out", str(tmp_path / "repaired.csv")])
        assert rc == 2
        assert json.loads(capsys.readouterr().err)["error"] == "SchemaMismatch"
        assert not (tmp_path / "repaired.csv").exists()

    def test_inject_exit_code(self, capsys, tmp_path):
        rc = main(["inject", "--truth", str(ragged_copy(tmp_path, "truth.csv")),
                   *fixture_args(), "--rate", "0.25",
                   "--out", str(tmp_path / "d.csv"), "--manifest", str(tmp_path / "m.json")])
        assert rc == 2
        assert json.loads(capsys.readouterr().err)["error"] == "SchemaMismatch"
        assert not (tmp_path / "d.csv").exists()


class TestClean:
    def test_golden_embedded_clean(self, capsys, tmp_path):
        rc = main(["clean", "--input", str(FIXTURES / "dirty.csv"),
                   "--master", str(FIXTURES / "master.csv"), *fixture_args(),
                   "--budget", "1", "--lmax", "0", "--k", "1",
                   "--support", str(FIXTURES / "golden_support.json"),
                   "--truth", str(FIXTURES / "truth.csv"),
                   "--out", str(tmp_path / "repaired.csv"),
                   "--report", str(tmp_path / "report.json")])
        assert rc == 0
        rows = (tmp_path / "repaired.csv").read_text().splitlines()
        t2 = rows[2].split(",")
        t3 = rows[3].split(",")
        assert t2[-1] == "ibuprofen" and t3[-1] == "ibuprofen"
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["violations_after"] == 0
        assert "repair_error" in report

    def test_generalized_clean(self, capsys, tmp_path):
        rc = main(["clean", "--input", str(FIXTURES / "dirty.csv"),
                   "--master", str(FIXTURES / "master.csv"), *fixture_args(),
                   "--budget", "1", "--lmax", "1", "--k", "3",
                   "--support", str(FIXTURES / "golden_support.json"),
                   "--out", str(tmp_path / "repaired.csv")])
        assert rc == 0
        rows = (tmp_path / "repaired.csv").read_text().splitlines()
        assert rows[1].split(",")[-1] == "NSAID"

    @pytest.mark.parametrize("lmax, error", [
        ("MEDX=1", "UnknownAttribute"),
        ("MED=1,MEDX=0", "UnknownAttribute"),
        ("MED=-3", "LevelCapViolation"),
        ("-1", "LevelCapViolation"),
    ], ids=["unknown_attribute", "unknown_beside_known", "negative_attribute_cap",
            "negative_global_cap"])
    def test_unusable_level_cap_exit_code(self, capsys, tmp_path, lmax, error):
        """A cap the session cannot apply is an input error, not ignored."""
        rc = main(["clean", "--input", str(FIXTURES / "dirty.csv"),
                   "--master", str(FIXTURES / "master.csv"), *fixture_args(),
                   "--budget", "1", "--lmax", lmax, "--k", "3",
                   "--support", str(FIXTURES / "golden_support.json"),
                   "--out", str(tmp_path / "repaired.csv")])
        assert rc == 2
        assert json.loads(capsys.readouterr().err)["error"] == error
        assert not (tmp_path / "repaired.csv").exists()

    def test_per_attribute_level_cap(self, capsys, tmp_path):
        rc = main(["clean", "--input", str(FIXTURES / "dirty.csv"),
                   "--master", str(FIXTURES / "master.csv"), *fixture_args(),
                   "--budget", "1", "--lmax", "MED=1", "--k", "3",
                   "--support", str(FIXTURES / "golden_support.json"),
                   "--out", str(tmp_path / "repaired.csv")])
        assert rc == 0
        rows = (tmp_path / "repaired.csv").read_text().splitlines()
        assert rows[1].split(",")[-1] == "NSAID"

    @pytest.mark.parametrize("lmax, error", [
        ("MEDX=1", "UnknownAttribute"),
        ("MED=1,MEDX=0", "UnknownAttribute"),
        ("MED=-3", "LevelCapViolation"),
        ("-1", "LevelCapViolation"),
    ], ids=["unknown_attribute", "unknown_beside_known", "negative_attribute_cap",
            "negative_global_cap"])
    def test_unusable_level_cap_exit_code(self, capsys, tmp_path, lmax, error):
        """A cap the session cannot apply is an input error, not ignored."""
        rc = main(["clean", "--input", str(FIXTURES / "dirty.csv"),
                   "--master", str(FIXTURES / "master.csv"), *fixture_args(),
                   "--budget", "1", "--lmax", lmax, "--k", "3",
                   "--support", str(FIXTURES / "golden_support.json"),
                   "--out", str(tmp_path / "repaired.csv")])
        assert rc == 2
        assert json.loads(capsys.readouterr().err)["error"] == error
        assert not (tmp_path / "repaired.csv").exists()


class TestEval:
    def test_tiny_sweep(self, capsys, tmp_path):
        config = tmp_path / "sweep.json"
        config.write_text(json.dumps({
            "budget_grid": [0.4, 0.8], "repetitions": 1, "base_seed": 2,
        }))
        rc = main(["eval", "--config", str(config), "--axes", "budget",
                   "--outdir", str(tmp_path / "results")])
        assert rc == 0
        assert (tmp_path / "results" / "budget.csv").exists()
        assert (tmp_path / "results" / "timing.csv").exists()

    def test_unknown_axis_exit_code(self, capsys, tmp_path):
        rc = main(["eval", "--axes", "budget,nonsense",
                   "--outdir", str(tmp_path / "results")])
        assert rc == 2

    def test_unknown_config_key_exit_code(self, capsys, tmp_path):
        config = tmp_path / "sweep.json"
        config.write_text(json.dumps({"repetition": 1}))
        rc = main(["eval", "--config", str(config), "--axes", "budget",
                   "--outdir", str(tmp_path / "results")])
        assert rc == 2
        assert json.loads(capsys.readouterr().err)["error"] == "ValueError"
        assert not (tmp_path / "results").exists()


class TestServe:
    def test_serve_and_remote_clean(self, tmp_path):
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).parent.parent / "src"))
        proc = subprocess.Popen(
            [sys.executable, "-m", "pacas.cli", "serve",
             "--master", str(FIXTURES / "master.csv"), *fixture_args(),
             "--support", str(FIXTURES / "golden_support.json"),
             "--port", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, text=True,
        )
        try:
            banner = json.loads(proc.stdout.readline())
            assert banner["ready"] is True
            assert len(banner["dataset_fingerprint"]) == 12
            port = banner["port"]
            rc = main(["clean", "--input", str(FIXTURES / "dirty.csv"),
                       "--master", f"127.0.0.1:{port}",
                       *fixture_args(),
                       "--budget", "1", "--lmax", "0", "--k", "1",
                       "--out", str(tmp_path / "repaired.csv")])
            assert rc == 0
            rows = (tmp_path / "repaired.csv").read_text().splitlines()
            assert rows[2].split(",")[-1] == "ibuprofen"
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=10) == 0  # graceful shutdown
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=10)

    def test_garbled_provider_exits_protocol_error(self, tmp_path):
        import socketserver
        import threading

        class GarbageHandler(socketserver.StreamRequestHandler):
            def handle(self):
                if self.rfile.readline():
                    self.wfile.write(b"not json at all\n")

        server = socketserver.TCPServer(("127.0.0.1", 0), GarbageHandler)
        port = server.server_address[1]
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            rc = main(["clean", "--input", str(FIXTURES / "dirty.csv"),
                       "--master", f"127.0.0.1:{port}", *fixture_args(),
                       "--budget", "1", "--lmax", "0",
                       "--out", str(tmp_path / "r.csv")])
            assert rc == 3
        finally:
            server.shutdown()
            server.server_close()

    def test_undecodable_provider_reply_exits_protocol_error(self, tmp_path):
        with stub_provider(b"\xff\xfe") as port:
            rc = main(["clean", "--input", str(FIXTURES / "dirty.csv"),
                       "--master", f"127.0.0.1:{port}", *fixture_args(),
                       "--budget", "1", "--lmax", "0",
                       "--out", str(tmp_path / "r.csv")])
        assert rc == 3

    def test_ill_typed_provider_reply_exits_protocol_error(self, tmp_path):
        with stub_provider(b'{"ok": true, "total_weight": "abc"}') as port:
            rc = main(["clean", "--input", str(FIXTURES / "dirty.csv"),
                       "--master", f"127.0.0.1:{port}", *fixture_args(),
                       "--budget", "1", "--lmax", "0",
                       "--out", str(tmp_path / "r.csv")])
        assert rc == 3

    @staticmethod
    def serve_fails(tmp_path, bad) -> str:
        """Run `serve` over the fixtures with one input broken as `bad` says;
        assert it exits 2 before its ready line and return the error name."""
        doc = json.loads((FIXTURES / "golden_support.json").read_text())
        if "member" in bad:
            doc["members"].append(bad["member"])
        snapshot = tmp_path / "support.json"
        snapshot.write_text(json.dumps(doc))
        config = {**json.loads((FIXTURES / "config.json").read_text()), **bad.get("config", {})}
        (tmp_path / "config.json").write_text(json.dumps(config))
        support = [] if "master" in bad else ["--support", str(snapshot)]
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).parent.parent / "src"))
        proc = subprocess.run(
            [sys.executable, "-m", "pacas.cli", "serve",
             "--master", str(FIXTURES / bad.get("master", "master.csv")),
             "--hierarchies", str(FIXTURES / "hierarchies.json"),
             "--config", str(tmp_path / "config.json"), *support, "--port", "0"],
            capture_output=True, env=env, text=True, timeout=30,
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        return json.loads(proc.stderr)["error"]

    def test_bad_snapshot_exits_before_ready_line(self, tmp_path):
        bad = {"member": {"kind": "update", "tuple_id": "m1", "attr": "ZZZ", "value": "dolex"}}
        assert self.serve_fails(tmp_path, bad) == "MalformedSnapshot"

    # every input no session could answer over is refused before the ready
    # line, not on each connection
    @pytest.mark.parametrize("bad, error", [
        ({"member": {"kind": "update", "tuple_id": "m99", "attr": "MED", "value": "dolex"}},
         "MalformedSnapshot"),
        ({"member": {"kind": "insert", "tuple_id": "m3", "values": {
            "GEN": "male", "AGE": "51", "ZIP": "P0T2T0", "DIAG": "ulcer", "MED": "dolex"}}},
         "MalformedSnapshot"),
        ({"master": "public.csv"}, "UnknownValue"),
        ({"config": {"qi": ["GEN", "AGE", "ZIP", "FOO"]}}, "UnknownAttribute"),
        ({"config": {"sensitive": ["MED", "FOO"]}}, "UnknownAttribute"),
        ({"config": {"mds": [{"match": [["GEN", "GEN"]], "target": ["MED", "MEDX"]}]}},
         "UnknownAttribute"),
        ({"config": {"mds": [{"match": [["GEN", "GENX"]], "target": ["MED", "MED"]}]}},
         "UnknownAttribute"),
        ({"config": {"sensitve": ["MED"]}}, "ValueError"),
        ({"config": {"sensitive": ["MED", "ZIP"]}}, "UnknownAttribute"),
    ], ids=["snapshot_missing_tuple", "snapshot_reused_id", "non_ground_master",
            "qi_missing", "sensitive_missing", "md_target_missing", "md_match_missing",
            "unknown_config_key", "qi_sensitive_overlap"])
    def test_bad_input_exits_before_ready_line(self, tmp_path, bad, error):
        assert self.serve_fails(tmp_path, bad) == error

    def test_signal_handlers_installed_before_ready_line(self, monkeypatch, capsys):
        # a client may send SIGTERM the moment it reads the ready line
        recorded = []

        def record_print(*args, **kwargs):
            recorded.append(signal.getsignal(signal.SIGTERM))
            print(*args, **kwargs)

        monkeypatch.setattr(cli.ProviderServer, "serve_forever", lambda self: None)
        monkeypatch.setattr(cli, "print", record_print, raising=False)
        saved = signal.getsignal(signal.SIGINT), signal.getsignal(signal.SIGTERM)
        signal.signal(signal.SIGTERM, signal.SIG_DFL)
        try:
            rc = main(["serve", "--master", str(FIXTURES / "master.csv"), *fixture_args(),
                       "--support", str(FIXTURES / "golden_support.json"), "--port", "0"])
        finally:
            signal.signal(signal.SIGINT, saved[0])
            signal.signal(signal.SIGTERM, saved[1])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["ready"] is True
        assert recorded and recorded[0] not in (signal.SIG_DFL, None)

    def test_malformed_hierarchy_exits_nonzero(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps([{
            "attribute": "GEN", "levels": 2,
            "nodes": [{"value": "a", "level": 0, "parent": None},
                      {"value": "b", "level": 0, "parent": None}],
        }]))
        rc = main(["serve", "--master", str(FIXTURES / "master.csv"),
                   "--hierarchies", str(bad),
                   "--config", str(FIXTURES / "config.json")])
        assert rc == 2
