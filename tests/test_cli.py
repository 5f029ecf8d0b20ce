"""Tests for the command-line interface."""

import pytest

from repro.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


class TestFamilies:
    def test_lists_all(self, capsys):
        code, out = run(capsys, "families")
        assert code == 0
        for tag in ("MS", "complete-RS", "IS", "MIS"):
            assert tag in out


class TestProperties:
    def test_ms(self, capsys):
        code, out = run(capsys, "properties", "MS", "--l", "2", "--n", "2")
        assert code == 0
        assert "MS(2,2)" in out
        assert "diameter" in out and ": 8" in out
        assert "sdc_slowdown  : 3" in out

    def test_is_by_k(self, capsys):
        code, out = run(capsys, "properties", "IS", "--k", "4")
        assert code == 0
        assert "IS(4)" in out

    def test_skips_diameter_when_large(self, capsys):
        code, out = run(
            capsys, "properties", "MS", "--l", "2", "--n", "2",
            "--max-exact-nodes", "10",
        )
        assert code == 0
        assert "diameter skipped" in out

    def test_rotator_nucleus_reports_na(self, capsys):
        code, out = run(capsys, "properties", "MR", "--l", "2", "--n", "2")
        assert code == 0
        assert "n/a" in out

    def test_missing_params(self):
        with pytest.raises(SystemExit):
            main(["properties", "MS", "--l", "2"])
        with pytest.raises(SystemExit):
            main(["properties", "IS"])


class TestRoute:
    def test_route_to_identity(self, capsys):
        code, out = run(
            capsys, "route", "MS", "--l", "2", "--n", "2",
            "--source", "34251",
        )
        assert code == 0
        assert "route" in out

    def test_route_with_trace_and_target(self, capsys):
        code, out = run(
            capsys, "route", "MS", "--l", "2", "--n", "2",
            "--source", "21345", "--target", "12345", "--trace",
        )
        assert code == 0
        assert "-->" in out

    def test_comma_separated_permutation(self, capsys):
        code, out = run(
            capsys, "route", "MS", "--l", "2", "--n", "2",
            "--source", "2,1,3,4,5",
        )
        assert code == 0

    def test_wrong_length_rejected(self):
        with pytest.raises(SystemExit):
            main(["route", "MS", "--l", "2", "--n", "2", "--source", "21"])

    def test_rotator_family_route(self, capsys):
        code, out = run(
            capsys, "route", "MR", "--l", "2", "--n", "2",
            "--source", "34251", "--trace",
        )
        assert code == 0
        assert "route" in out


class TestSchedule:
    def test_figure1a(self, capsys):
        code, out = run(capsys, "schedule", "MS", "--l", "4", "--n", "3")
        assert code == 0
        assert "makespan   : 6" in out
        assert "j=13" in out


class TestEmbed:
    def test_star_guest(self, capsys):
        code, out = run(capsys, "embed", "star", "MS", "--l", "2", "--n", "2")
        assert code == 0
        assert "dilation   : 3" in out

    def test_tn_guest(self, capsys):
        code, out = run(capsys, "embed", "tn", "IS", "--k", "4")
        assert code == 0
        assert "dilation" in out

    def test_unknown_guest(self):
        with pytest.raises(SystemExit):
            main(["embed", "mesh", "MS", "--l", "2", "--n", "2"])


class TestGame:
    def test_solves(self, capsys):
        code, out = run(
            capsys, "game", "MS", "--l", "2", "--n", "2",
            "--start", "31542",
        )
        assert code == 0
        assert "solved in" in out


class TestGirth:
    def test_ms(self, capsys):
        code, out = run(capsys, "girth", "MS", "--l", "2", "--n", "2")
        assert code == 0
        assert "girth    : 6" in out

    def test_bipartite_reported(self, capsys):
        code, out = run(capsys, "girth", "MS", "--l", "2", "--n", "3")
        assert code == 0
        assert "bipartite: True" in out


class TestConnectivity:
    def test_ms(self, capsys):
        code, out = run(capsys, "connectivity", "MS", "--l", "2", "--n", "2")
        assert code == 0
        assert "vertex connectivity: 3" in out
        assert "maximally fault-tolerant" in out


class TestReport:
    def test_report_passes(self, capsys):
        code, out = run(capsys, "report")
        assert code == 0
        assert "checks passed" in out
        assert "FAIL" not in out


class TestMnb:
    def test_star4(self, capsys):
        code, out = run(capsys, "mnb", "star", "--k", "4")
        assert code == 0
        assert "23 rounds" in out

    def test_non_star_rejected(self):
        with pytest.raises(SystemExit):
            main(["mnb", "MS", "--k", "4"])


class TestRouteJson:
    def test_json_payload_matches_serve_engine(self, capsys):
        """`repro route --json` emits byte-for-byte the payload the
        serve engine's route op (algorithm "algorithmic") returns."""
        import json

        from repro.serve import QueryEngine

        code, out = run(
            capsys, "route", "MS", "--l", "2", "--n", "2",
            "--source", "34251", "--json",
        )
        assert code == 0
        cli_payload = json.loads(out)
        response = QueryEngine().execute({
            "op": "route", "network": {"family": "MS", "l": 2, "n": 2},
            "pairs": [["34251", "12345"]], "algorithm": "algorithmic",
        })
        assert response["ok"], response
        assert cli_payload == response["result"]["routes"][0]

    def test_json_reports_optimal_from_tables(self, capsys):
        import json

        code, out = run(
            capsys, "route", "IS", "--k", "4",
            "--source", "4321", "--target", "1234", "--json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["algorithm"] == "algorithmic"
        assert payload["hops"] >= payload["optimal"] >= 1

    def test_json_uncompilable_network(self, capsys):
        """Beyond compile range (k = 11) there is no table to read
        ``optimal`` from, and labels take the comma form."""
        import json

        code, out = run(
            capsys, "route", "MS", "--l", "5", "--n", "2",
            "--source", "2,1,3,4,5,6,7,8,9,10,11", "--json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["source"] == "2,1,3,4,5,6,7,8,9,10,11"
        assert payload["target"] == "1,2,3,4,5,6,7,8,9,10,11"
        assert payload["star_distance"] == 1
        assert payload["optimal"] is None
        assert payload["hops"] == len(payload["word"]) >= 1


class TestLoadgen:
    def test_self_serve_smoke_accounting_closes(self, capsys):
        """e2e CLI smoke: loadgen against an in-process server must
        answer every request (exit 1 if accounting does not close)."""
        import json

        code, out = run(
            capsys, "loadgen", "MS", "--l", "2", "--n", "2",
            "--self-serve", "--count", "24", "--batch", "4",
            "--concurrency", "2", "--json",
        )
        assert code == 0
        summary = json.loads(out)
        assert summary["closed"] is True
        assert summary["ok"] == summary["sent"] == 6
        assert summary["errors"] == 0 and summary["timeouts"] == 0
        assert summary["p99_ms"] is not None

    def test_trace_save_then_replay(self, capsys, tmp_path):
        import json

        trace = tmp_path / "workload.jsonl"
        code, _out = run(
            capsys, "loadgen", "IS", "--k", "4",
            "--workload", "transpose", "--count", "10", "--batch", "2",
            "--save-trace", str(trace),
        )
        assert code == 0 and trace.exists()
        assert len(trace.read_text().splitlines()) == 5
        code, out = run(
            capsys, "loadgen", "IS", "--k", "4", "--self-serve",
            "--replay", str(trace), "--json",
        )
        assert code == 0
        assert json.loads(out)["ok"] == 5

    def test_needs_host_or_self_serve(self):
        with pytest.raises(SystemExit):
            main(["loadgen", "IS", "--k", "4", "--count", "4"])


class TestFrontier:
    ARGS = ("frontier", "MS", "--l", "2", "--n", "2",
            "--memory-budget", "16K")

    def test_resume_errors_are_clean(self, capsys, tmp_path):
        """User errors around ``--resume`` and ``--keep-run-dir`` end in
        one ``error:`` line, not a traceback or a silent no-op."""
        run_dir = str(tmp_path / "run")
        code, _out = run(capsys, *self.ARGS, "--spill-dir", run_dir,
                         "--keep-run-dir")
        assert code == 0
        cases = [
            ("--resume",),
            ("--resume", "--spill-dir", str(tmp_path / "empty")),
            ("--resume", "--spill-dir", run_dir),
            ("--keep-run-dir",),
        ]
        for extra in cases:
            with pytest.raises(SystemExit) as info:
                main([*self.ARGS, *extra])
            assert str(info.value.code).startswith("error:"), extra

    def test_json_profile_and_spill(self, capsys, tmp_path):
        import json

        from repro.networks import make_network

        run_dir = tmp_path / "run"
        argv = ["frontier", "MS", "--l", "2", "--n", "3",
                "--memory-budget", "16K", "--spill-dir", str(run_dir),
                "--json"]
        code, out = run(capsys, *argv)
        assert code == 0
        payload = json.loads(out)
        net = make_network("MS", l=2, n=3)
        assert payload["layer_sizes"] == list(
            net.compiled().distance_distribution()
        )
        assert payload["spill"]["segments"] > 0
        assert payload["spill"]["resumed_layer"] is None
        assert not {"workers", "exchange", "truncated"} & set(payload)
        assert not run_dir.exists()

        code, _out = run(capsys, *argv, "--keep-run-dir")
        assert code == 0
        journal = json.loads((run_dir / "journal.json").read_text())
        assert journal["complete"] is True
