"""End-to-end tests of the ``repro plan`` CLI subcommand."""

import json

import pytest

from repro.api.scenario import SCHEMA_VERSION
from repro.api.service import validate_result_payload
from repro.runner.cli import main


def _reduced_scenario(**solver_extra) -> str:
    solver = {"scheme": "temp", "engine": "tcme", "max_candidates": 4}
    solver.update(solver_extra)
    return json.dumps({
        "schema_version": SCHEMA_VERSION,
        "workload": {"model": "gpt3-6.7b"},
        "solver": solver,
    })


class TestPlanCommand:
    def test_evaluates_a_scenario_end_to_end(self, capsys):
        assert main(["plan", _reduced_scenario(), "--validate"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert validate_result_payload(payload) == []
        assert payload["model"] == "gpt3-6.7b"
        assert payload["kind"] == "single_wafer"
        assert payload["oom"] is False
        assert payload["step_time"] > 0

    def test_reads_scenario_from_file(self, tmp_path, capsys):
        path = tmp_path / "scenario.json"
        path.write_text(_reduced_scenario())
        assert main(["plan", "--file", str(path)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema_version"] == SCHEMA_VERSION

    def test_reads_scenario_from_stdin(self, monkeypatch, capsys):
        import io
        monkeypatch.setattr("sys.stdin", io.StringIO(_reduced_scenario()))
        assert main(["plan", "-"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["model"] == "gpt3-6.7b"

    def test_solve_emits_solver_outcome(self, capsys):
        assert main(["plan", _reduced_scenario(ga_generations=4),
                     "--solve"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["model"] == "gpt3-6.7b"
        assert payload["candidates_considered"] > 0
        assert payload["oom"] is False

    def test_invalid_document_exits_2(self, capsys):
        assert main(["plan", "{\"schema_version\": 99}"]) == 2
        assert "not supported" in capsys.readouterr().err

    def test_invalid_json_exits_2(self, capsys):
        assert main(["plan", "{broken"]) == 2
        assert "invalid scenario JSON" in capsys.readouterr().err

    def test_missing_file_exits_2(self, capsys):
        assert main(["plan", "--file", "/does/not/exist.json"]) == 2
        assert "cannot read" in capsys.readouterr().err

    def test_validate_with_solve_is_rejected(self, capsys):
        assert main(["plan", _reduced_scenario(), "--solve",
                     "--validate"]) == 2
        assert "--validate only applies" in capsys.readouterr().err

    def test_invalid_fixed_spec_degree_exits_2(self, capsys):
        document = json.dumps({
            "schema_version": SCHEMA_VERSION,
            "workload": {"model": "gpt3-6.7b"},
            "solver": {"fixed_spec": {"dp": 0}},
        })
        assert main(["plan", document]) == 2
        assert "invalid fixed_spec" in capsys.readouterr().err


class TestPlanBatchMode:
    """`repro plan` with a JSON array: the offline twin of /v1/plan/batch."""

    def test_array_in_array_out(self, capsys):
        batch = json.dumps([json.loads(_reduced_scenario()),
                            json.loads(_reduced_scenario(max_candidates=2))])
        assert main(["plan", batch, "--validate"]) == 0
        payloads = json.loads(capsys.readouterr().out)
        assert isinstance(payloads, list) and len(payloads) == 2
        for payload in payloads:
            assert validate_result_payload(payload) == []
            assert payload["model"] == "gpt3-6.7b"

    def test_empty_array(self, capsys):
        assert main(["plan", "[]", "--validate"]) == 0
        assert json.loads(capsys.readouterr().out) == []

    def test_batch_shares_one_plan_service(self, capsys):
        # The same scenario twice: the second evaluation must hit the
        # shared PlanCache, which --stats surfaces on stderr.
        batch = json.dumps([json.loads(_reduced_scenario())] * 2)
        assert main(["plan", batch, "--stats"]) == 0
        captured = capsys.readouterr()
        payloads = json.loads(captured.out)
        assert payloads[0] == payloads[1]
        stats = json.loads(captured.err.strip().splitlines()[-1])
        assert stats["plan_cache"]["hits"] > 0

    def test_invalid_item_exits_2(self, capsys):
        batch = json.dumps([json.loads(_reduced_scenario()),
                            {"schema_version": 99}])
        assert main(["plan", batch]) == 2
        assert "not supported" in capsys.readouterr().err

    def test_solve_batch(self, capsys):
        batch = json.dumps(
            [json.loads(_reduced_scenario(ga_generations=2))])
        assert main(["plan", batch, "--solve"]) == 0
        payloads = json.loads(capsys.readouterr().out)
        assert len(payloads) == 1
        assert payloads[0]["candidates_considered"] > 0


def test_plan_stats_flag_reports_plan_cache_counters(capsys):
    assert main(["plan", _reduced_scenario(), "--stats"]) == 0
    captured = capsys.readouterr()
    stats = json.loads(captured.err.strip().splitlines()[-1])
    assert set(stats) == {"plan_cache", "wafers_cached", "memos"}
    assert stats["plan_cache"]["misses"] > 0
    assert set(stats["memos"]) == {"wafers", "tables"}
    assert stats["memos"]["wafers"] == {"hits": 0, "misses": 1,
                                        "entries": 1, "evictions": 0}


@pytest.mark.parametrize("fixture_kind", ["fault", "multiwafer"])
def test_plan_covers_non_default_paths(fixture_kind, capsys):
    if fixture_kind == "fault":
        document = {
            "schema_version": SCHEMA_VERSION,
            "workload": {"model": "gpt3-6.7b"},
            "hardware": {"core_fault_rate": 0.25},
            "solver": {"seed": 3, "fixed_spec": {"dp": 4, "tatp": 8}},
        }
        expected_kind = "fault"
    else:
        document = {
            "schema_version": SCHEMA_VERSION,
            "workload": {"model": "gpt3-175b"},
            "hardware": {"num_wafers": 2, "num_microbatches": 8},
            "solver": {"scheme": "temp", "engine": "tcme"},
        }
        expected_kind = "multi_wafer"
    assert main(["plan", json.dumps(document), "--validate"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["kind"] == expected_kind
