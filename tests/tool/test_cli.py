"""Tests for the orm-validate CLI."""

import json

import pytest

from repro.io import write_schema
from repro.tool.cli import main
from repro.workloads.figures import build_figure


@pytest.fixture
def unsat_file(tmp_path):
    path = tmp_path / "fig1.orm"
    path.write_text(write_schema(build_figure("fig1_phd_student")))
    return path


@pytest.fixture
def sat_file(tmp_path):
    path = tmp_path / "fig11.orm"
    path.write_text(write_schema(build_figure("fig11_sister_of")))
    return path


class TestExitCodes:
    def test_unsat_schema_exits_1(self, unsat_file, capsys):
        assert main([str(unsat_file)]) == 1
        out = capsys.readouterr().out
        assert "PhDStudent" in out

    def test_sat_schema_exits_0(self, sat_file, capsys):
        assert main([str(sat_file)]) == 0
        assert "No unsatisfiability" in capsys.readouterr().out

    def test_missing_file_exits_2(self, tmp_path, capsys):
        assert main([str(tmp_path / "nope.orm")]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_parse_error_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.orm"
        bad.write_text("wibble wobble\n")
        assert main([str(bad)]) == 2
        assert "error" in capsys.readouterr().err

    def test_unknown_pattern_exits_2(self, sat_file, capsys):
        assert main([str(sat_file), "--patterns", "P77"]) == 2


class TestOptions:
    def test_pattern_subset_changes_verdict(self, unsat_file):
        assert main([str(unsat_file), "--patterns", "P1,P9"]) == 0

    def test_json_format(self, unsat_file, capsys):
        assert main([str(unsat_file), "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["satisfiable_by_patterns"] is False
        assert payload["violations"][0]["pattern"] == "P2"

    def test_verbalize(self, sat_file, capsys):
        main([str(sat_file), "--verbalize"])
        out = capsys.readouterr().out
        assert "Schema verbalization:" in out
        assert "irreflexive" in out

    def test_formation_rules_flag(self, tmp_path, capsys):
        path = tmp_path / "fig14.orm"
        path.write_text(write_schema(build_figure("fig14_rule6_satisfiable")))
        main([str(path), "--formation-rules"])
        assert "FR6" in capsys.readouterr().out

    def test_complete_check(self, sat_file, capsys):
        assert main([str(sat_file), "--complete", "2"]) == 0
        out = capsys.readouterr().out
        assert "Complete bounded check" in out
        assert "sat" in out

    def test_complete_check_json(self, unsat_file, capsys):
        main([str(unsat_file), "--format", "json", "--complete", "2"])
        payload = json.loads(capsys.readouterr().out)
        assert payload["complete_check"]["status"] in ("sat", "unsat", "unknown")


class TestAnalysisToggles:
    """The Fig. 15 analysis-family toggles, reachable from the CLI."""

    @pytest.fixture
    def lonely_file(self, tmp_path):
        from repro.orm import SchemaBuilder

        path = tmp_path / "lonely.orm"
        path.write_text(write_schema(SchemaBuilder().entities("Lonely").build()))
        return path

    def test_advisories_run_by_default(self, lonely_file, capsys):
        assert main([str(lonely_file)]) == 0
        assert "W07" in capsys.readouterr().out

    def test_no_advisories_silences_them(self, lonely_file, capsys):
        assert main([str(lonely_file), "--no-advisories"]) == 0
        assert "W07" not in capsys.readouterr().out

    def test_no_wellformedness_alias_still_works(self, lonely_file, capsys):
        assert main([str(lonely_file), "--no-wellformedness"]) == 0
        assert "W07" not in capsys.readouterr().out

    def test_no_incremental_is_deprecated_but_harmless(self, unsat_file, capsys):
        """The retired flag still parses, warns, and changes nothing."""
        assert main([str(unsat_file)]) == 1
        default_out = capsys.readouterr().out
        assert main([str(unsat_file), "--no-incremental"]) == 1
        captured = capsys.readouterr()
        assert "deprecated" in captured.err
        assert default_out.count("[P2]") == captured.out.count("[P2]")

    def test_formation_rules_with_deprecated_flag(self, tmp_path, capsys):
        path = tmp_path / "fig14.orm"
        path.write_text(write_schema(build_figure("fig14_rule6_satisfiable")))
        main([str(path), "--formation-rules", "--no-incremental"])
        captured = capsys.readouterr()
        assert "FR6" in captured.out
        assert "deprecated" in captured.err

    def test_propagate_reports_through_settings(self, unsat_file, capsys):
        main([str(unsat_file), "--propagate"])
        assert "Propagation:" in capsys.readouterr().out


class TestRemoteBatch:
    """--batch --server URL: validation through a live wire server."""

    def test_batch_against_a_live_server(self, unsat_file, sat_file, capsys):
        from repro.server import ServerThread

        with ServerThread(drain_interval=None) as server:
            code = main(
                ["--batch", "--server", server.base_url, str(unsat_file), str(sat_file)]
            )
        out = capsys.readouterr().out
        assert code == 1  # fig1 is unsatisfiable
        assert "validated remotely" in out
        assert "PhDStudent" in out
        assert "No unsatisfiability" in out

    def test_batch_json_against_a_live_server(self, unsat_file, capsys):
        import json as json_module

        from repro.server import ServerThread

        with ServerThread(drain_interval=None) as server:
            code = main(
                ["--batch", "--server", server.base_url, "--format", "json", str(unsat_file)]
            )
        payload = json_module.loads(capsys.readouterr().out)
        assert code == 1
        assert payload["unsatisfiable"] == 1
        assert payload["schemas"][0]["violations"][0]["pattern"] == "P2"

    def test_server_implies_batch(self, sat_file, capsys):
        """--server without --batch must still go remote, not silently
        validate in-process."""
        from repro.server import ServerThread

        with ServerThread(drain_interval=None) as server:
            code = main(["--server", server.base_url, str(sat_file)])
        assert code == 0
        assert "validated remotely" in capsys.readouterr().out

    def test_unreachable_server_exits_2(self, sat_file, capsys):
        code = main(["--batch", "--server", "http://127.0.0.1:9", str(sat_file)])
        assert code == 2
        assert "remote validation" in capsys.readouterr().err

    def test_token_travels_to_an_authed_server(self, sat_file, capsys, monkeypatch):
        from repro.server import ServerThread

        monkeypatch.delenv("ORM_VALIDATE_TOKEN", raising=False)
        with ServerThread(drain_interval=None, token="hunter2") as server:
            denied = main(["--batch", "--server", server.base_url, str(sat_file)])
            err = capsys.readouterr().err
            assert denied == 2
            assert "unauthorized" in err or "bearer" in err
            code = main(
                [
                    "--batch",
                    "--server",
                    server.base_url,
                    "--token",
                    "hunter2",
                    str(sat_file),
                ]
            )
        assert code == 0
        assert "validated remotely" in capsys.readouterr().out

    def test_token_env_var_is_the_fallback(self, sat_file, capsys, monkeypatch):
        from repro.server import ServerThread

        monkeypatch.setenv("ORM_VALIDATE_TOKEN", "hunter2")
        with ServerThread(drain_interval=None, token="hunter2") as server:
            code = main(["--batch", "--server", server.base_url, str(sat_file)])
        assert code == 0
        assert "validated remotely" in capsys.readouterr().out


class TestServeGuardrails:
    """orm-validate serve: loopback-only unless a token (or an explicit
    opt-out) is given — non-loopback binds are no longer silently open."""

    def test_non_loopback_bind_without_token_refuses_to_start(self, capsys, monkeypatch):
        monkeypatch.delenv("ORM_VALIDATE_TOKEN", raising=False)
        assert main(["serve", "--host", "0.0.0.0", "--port", "0"]) == 2
        err = capsys.readouterr().err
        assert "refusing to bind" in err
        assert "--token" in err

    def test_loopback_classification(self):
        from repro.tool.cli import _bind_is_loopback

        assert _bind_is_loopback("127.0.0.1")
        assert _bind_is_loopback("127.1.2.3")
        assert _bind_is_loopback("::1")
        assert _bind_is_loopback("localhost")
        assert not _bind_is_loopback("0.0.0.0")
        assert not _bind_is_loopback("::")
        assert not _bind_is_loopback("")
        assert not _bind_is_loopback("192.168.1.4")
        assert not _bind_is_loopback("example.internal")
