"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main


class TestDemo:
    def test_demo_runs(self, capsys):
        assert main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "personalized view:" in out
        assert "rule addSpatiality" in out

    def test_seed_changes_world(self, capsys):
        main(["--seed", "7", "demo"])
        out_a = capsys.readouterr().out
        main(["--seed", "8", "demo"])
        out_b = capsys.readouterr().out
        assert out_a != out_b


class TestRules:
    def test_paper_rules_check_clean(self, capsys):
        assert main(["rules", "--paper"]) == 0
        out = capsys.readouterr().out
        assert out.count("[OK ]") == 5

    def test_print_canonical(self, capsys):
        main(["rules", "--paper", "--print"])
        out = capsys.readouterr().out
        assert "Rule:addSpatiality When SessionStart do" in out

    def test_bad_rule_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.prml"
        bad.write_text("Rule:x When SessionStart do AddLayer('A' POINT) endWhen")
        assert main(["rules", str(bad)]) == 1
        assert "syntax error" in capsys.readouterr().err

    def test_a_missing_rule_file_is_one_error_line(self, tmp_path, capsys):
        missing = tmp_path / "absent.prml"
        assert main(["rules", str(missing)]) == 1
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            f"error: cannot read {missing}: No such file or directory"
        ]
        assert "Traceback" not in captured.err
        assert captured.out == ""

    def test_a_rule_file_that_is_not_utf8_is_one_error_line(self, tmp_path, capsys):
        undecodable = tmp_path / "bom.prml"
        undecodable.write_bytes(b"\xff\xfe")
        assert main(["rules", str(undecodable)]) == 1
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"error: cannot read {undecodable}: ")
        assert "can't decode byte 0xff" in lines[0]
        assert "Traceback" not in captured.err
        assert captured.out == ""

    def test_a_deeply_nested_rule_is_a_syntax_error(self, tmp_path, capsys):
        rule = tmp_path / "deep.prml"
        condition = "(" * 200 + "1" + ")" * 200
        rule.write_text(
            f"Rule:x When SessionStart do If ({condition} = 1) then "
            "AddLayer('A', POINT) endIf endWhen"
        )
        assert main(["rules", str(rule)]) == 1
        captured = capsys.readouterr()
        assert "syntax error: nesting deeper than" in captured.err
        assert "Traceback" not in captured.err
        assert captured.out == ""

    def test_semantic_issue_reported(self, tmp_path, capsys):
        rule = tmp_path / "r.prml"
        rule.write_text(
            "Rule:x When SessionStart do "
            "BecomeSpatial(MD.Sales.Galaxy.geometry, POINT) endWhen"
        )
        assert main(["rules", str(rule)]) == 1
        out = capsys.readouterr().out
        assert "[ERR]" in out


class TestDDL:
    @pytest.mark.parametrize("dialect", ["generic", "postgis"])
    def test_ddl_contains_personalized_layers(self, dialect, capsys):
        assert main(["ddl", "--dialect", dialect]) == 0
        out = capsys.readouterr().out
        assert "CREATE TABLE sales" in out
        assert "layer_airport" in out


class TestMap:
    def test_map_written(self, tmp_path, capsys):
        target = tmp_path / "m.svg"
        assert main(["map", "-o", str(target)]) == 0
        assert target.read_text().startswith("<svg")


class TestQuery:
    def test_query_over_personalized_view(self, capsys):
        assert main(["query", "SELECT COUNT(*) FROM Sales"]) == 0
        out = capsys.readouterr().out
        assert "COUNT(*)" in out

    def test_bad_query(self, capsys):
        assert main(["query", "SELEKT"]) == 1
        assert "query error" in capsys.readouterr().err


class TestWorkload:
    def test_generate_describe_and_replay(self, tmp_path, capsys):
        stream = str(tmp_path / "smoke.jsonl")
        generate = ["workload", "generate", "--tier", "smoke", "-o", stream]
        assert main(generate) == 0
        generated = json.loads(capsys.readouterr().out)
        assert generated["wrote"] == stream
        assert generated["fact_rows"] == 2000
        assert main(["workload", "describe", stream]) == 0
        described = json.loads(capsys.readouterr().out)
        assert described["events"] == generated["events"] > 0
        for options in (
            ["--mode", "serial"],
            ["--mode", "closed", "--actors", "4", "--workers", "2"],
        ):
            assert main(["workload", "replay", stream, *options]) == 0
            report = json.loads(capsys.readouterr().out)["report"]
            assert report["mode"] == options[1]
            assert report["requests"] == described["events"]
            assert report["errors"] == 0
            by_kind = report["latency_by_kind"]
            assert {kind: stats["count"] for kind, stats in by_kind.items()} == (
                report["by_kind"]
            )
            for stats in by_kind.values():
                assert set(stats) == {"count", "p50_ms", "p95_ms"}
