"""Tests of the portfolio sweep engine, its HTTP job API, and ``repro sweep``.

The acceptance contract of the sweep backbone lives here: a registered
portfolio swept through the scheduler (locally or via a live server) emits
a manifest whose rows are bit-identical to the orchestrator path
(``repro run <figure> --reduced``), duplicates are evaluated once, bad
points become failed cells instead of failed sweeps, and the polled HTTP
job reports incremental progress.
"""

import asyncio
import json

import pytest

from repro.api.portfolio import (
    Portfolio,
    PortfolioAxis,
    get_portfolio,
    portfolio_from_scenarios,
)
from repro.api.scenario import Scenario
from repro.runner import orchestrator
from repro.runner.cli import main
from repro.runner.manifest import validate_manifest
from repro.runner.registry import get_experiment
from repro.server.client import PlanClient, PlanServerError
from repro.server.portfolio import (
    build_sweep_manifest,
    run_portfolio_local,
    sweep_portfolio,
)
from repro.server.scheduler import PlanScheduler

pytestmark = pytest.mark.slow  # sweeps evaluate real (reduced) grids


def _fast_scenario(max_candidates=4, **workload_overrides):
    workload = {"model": "gpt3-6.7b", "num_layers": 2, "batch_size": 8,
                "seq_length": 512}
    workload.update(workload_overrides)
    return Scenario.from_dict({
        "schema_version": 1,
        "workload": workload,
        "solver": {"scheme": "temp", "engine": "tcme",
                   "max_candidates": max_candidates},
    })


def _fast_portfolio(name="fast", candidates=(2, 3)):
    """A tiny portfolio over the solver candidate cap (fast to evaluate)."""
    return Portfolio(
        name=name,
        base=_fast_scenario(),
        axes=(
            PortfolioAxis(name="max_candidates",
                          path="solver.max_candidates",
                          values=tuple(candidates)),
        ),
    )


class TestEngine:
    def test_outcomes_in_point_order_with_dedup(self):
        # Two distinct points plus one duplicate of the first.
        portfolio = Portfolio(
            name="dedup",
            base=_fast_scenario(),
            expansion="zip",
            axes=(
                PortfolioAxis(name="max_candidates",
                              path="solver.max_candidates",
                              values=(2, 3, 2)),
                PortfolioAxis(name="step", values=(0, 1, 2)),
            ),
        )

        async def scenario():
            async with PlanScheduler(batch_window=0.001) as scheduler:
                outcomes = await sweep_portfolio(scheduler, portfolio)
                return outcomes, dict(scheduler.counters)

        outcomes, counters = asyncio.run(scenario())
        assert [outcome.index for outcome in outcomes] == [0, 1, 2]
        assert counters["evaluations"] == 2  # the duplicate never ran
        assert outcomes[0].payload == outcomes[2].payload
        assert outcomes[2].source == "duplicate"
        assert outcomes[0].source == "evaluated"
        # The shared evaluation's wall time is accounted to the first
        # point only; a duplicate cell costs nothing.
        assert outcomes[2].wall_seconds == 0.0
        assert outcomes[0].wall_seconds > 0.0

    def test_bad_point_is_an_error_payload_not_a_failed_sweep(self):
        # A fault study without a fixed_spec passes document validation but
        # fails in the evaluation path.
        bad = Scenario.from_dict({
            "schema_version": 1,
            "workload": {"model": "gpt3-6.7b", "num_layers": 2,
                         "batch_size": 8, "seq_length": 512},
            "hardware": {"link_fault_rate": 0.1},
        })
        portfolio = portfolio_from_scenarios(
            "mixed", [_fast_scenario(), bad])
        outcomes = run_portfolio_local(portfolio)
        assert "error" not in outcomes[0].payload
        assert outcomes[1].payload["error"]["status"] == 422

    def test_on_unique_reports_incremental_progress(self):
        seen = []
        run_portfolio_local(
            _fast_portfolio(),
            on_unique=lambda done, total, outcome: seen.append((done, total)))
        assert seen == [(1, 2), (2, 2)]


class TestManifest:
    def test_adhoc_manifest_is_valid_and_rows_carry_payloads(self):
        portfolio = _fast_portfolio()
        outcomes = run_portfolio_local(portfolio)
        manifest = build_sweep_manifest(portfolio, outcomes,
                                        total_seconds=1.0)
        assert validate_manifest(manifest) == []
        assert len(manifest["rows"]) == 2
        assert manifest["rows"][0]["max_candidates"] == 2
        assert manifest["rows"][0]["model"] == "gpt3-6.7b"
        assert manifest["sweep"]["unique"] == 2
        # Strict JSON end to end.
        json.dumps(manifest, allow_nan=False)

    def test_failed_point_becomes_a_failed_cell(self):
        bad = Scenario.from_dict({
            "schema_version": 1,
            "workload": {"model": "gpt3-6.7b", "num_layers": 2,
                         "batch_size": 8, "seq_length": 512},
            "hardware": {"link_fault_rate": 0.1},
        })
        portfolio = portfolio_from_scenarios("failing", [bad])
        outcomes = run_portfolio_local(portfolio)
        manifest = build_sweep_manifest(portfolio, outcomes)
        assert manifest["cells"][0]["error"]
        assert manifest["cells"][0]["num_rows"] == 0
        assert manifest["rows"] == []
        problems = validate_manifest(manifest)
        assert any("failed" in problem for problem in problems)


@pytest.mark.parametrize("figure", ["fig13", "fig19", "fabric_zoo"])
class TestOrchestratorParity:
    def test_local_sweep_rows_identical_to_orchestrator(self, figure):
        template = get_portfolio(figure)
        experiment = get_experiment(figure)
        portfolio = template.build(True)
        outcomes = run_portfolio_local(portfolio)
        manifest = build_sweep_manifest(
            portfolio, outcomes, reduced=True, experiment=experiment,
            row_builder=template.row)
        assert validate_manifest(manifest, experiment) == []
        reference = orchestrator.run_experiment(figure, reduced=True)
        assert manifest["rows"] == reference["rows"]
        assert manifest["schema"] == reference["schema"]


class TestHttpJobs:
    def test_job_runs_to_done_with_results_in_point_order(self, client):
        portfolio = _fast_portfolio(name="http", candidates=(4, 5))
        status = client.sweep(portfolio, poll_interval=0.05, timeout=60)
        assert status["status"] == "done"
        assert status["points"] == 2
        assert status["unique"] == 2
        assert status["completed"] == 2
        assert status["errors"] == 0
        assert [params["max_candidates"] for params in status["params"]] \
            == [4, 5]
        assert len(status["results"]) == 2
        assert all("error" not in payload for payload in status["results"])
        assert len(status["sources"]) == len(status["wall_seconds"]) == 2

    def test_jobs_listing_and_metrics(self, client):
        client.sweep(_fast_portfolio(name="listed", candidates=(6,)),
                     poll_interval=0.05, timeout=60)
        jobs = client.portfolio_jobs()["jobs"]
        assert any(job["portfolio"] == "listed" for job in jobs)
        metrics = client.metrics()
        assert metrics["portfolios"]["jobs"] >= 1

    def test_malformed_portfolio_is_a_structured_400(self, client):
        with pytest.raises(PlanServerError) as excinfo:
            client.portfolio_start({"schema_version": 1, "bogus": True})
        assert excinfo.value.status == 400
        error = excinfo.value.payload["error"]
        assert error["type"] == "PortfolioError"
        assert "Traceback" not in error["message"]

    def test_unknown_job_is_a_404(self, client):
        with pytest.raises(PlanServerError) as excinfo:
            client.portfolio_status("sweep-999999")
        assert excinfo.value.status == 404

    def test_wrong_method_is_a_405(self, client):
        status, headers, _ = client._request("DELETE", "/v1/portfolio")
        assert status == 405
        assert "POST" in headers.get("allow", "")


class TestSweepCli:
    def test_sweep_list(self, capsys):
        assert main(["sweep", "--list"]) == 0
        out = capsys.readouterr().out
        for name in ("fig13", "fig17", "fig19"):
            assert name in out

    def test_sweep_requires_exactly_one_source(self, capsys):
        assert main(["sweep"]) == 2
        assert main(["sweep", "fig13", "--file", "x.json"]) == 2

    def test_sweep_unknown_portfolio_exits_2(self, capsys):
        assert main(["sweep", "not-a-portfolio"]) == 2
        assert "unknown portfolio" in capsys.readouterr().err

    def test_sweep_malformed_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "portfolio.json"
        path.write_text('{"schema_version": 1, "bogus": true}')
        assert main(["sweep", "--file", str(path)]) == 2
        assert "unknown portfolio keys" in capsys.readouterr().err

    def test_sweep_file_with_bad_base_exits_2_without_traceback(
            self, tmp_path, capsys):
        path = tmp_path / "portfolio.json"
        path.write_text(json.dumps({
            "schema_version": 1, "name": "bad",
            "base": {"schema_version": 1, "workload": {"modle": "typo"}},
            "axes": [{"name": "rows", "path": "hardware.rows",
                      "values": [2, 4]}],
        }))
        assert main(["sweep", "--file", str(path)]) == 2
        err = capsys.readouterr().err
        assert "invalid portfolio base" in err
        assert "Traceback" not in err

    def test_sweep_malformed_server_url_exits_2(self, capsys):
        assert main(["sweep", "fig13", "--reduced", "--server", "://",
                     "--no-write"]) == 2
        assert "malformed --server" in capsys.readouterr().err

    def test_adhoc_file_sweep_writes_a_valid_manifest(self, tmp_path,
                                                      capsys):
        path = tmp_path / "portfolio.json"
        path.write_text(_fast_portfolio(name="cli-adhoc").to_json())
        assert main(["sweep", "--file", str(path),
                     "--output-dir", str(tmp_path / "results")]) == 0
        manifest = json.loads(
            (tmp_path / "results" / "cli-adhoc.json").read_text())
        assert validate_manifest(manifest) == []
        assert len(manifest["rows"]) == 2

    # Acceptance criterion: `repro sweep` over the registered fig13 reduced
    # portfolio emits a manifest row-identical to `repro run fig13
    # --reduced`, via both local and --server modes.
    def test_fig13_sweep_local_mode_row_identical_to_repro_run(
            self, tmp_path, capsys):
        reference = orchestrator.run_experiment("fig13", reduced=True)
        assert main(["sweep", "fig13", "--reduced",
                     "--output-dir", str(tmp_path)]) == 0
        manifest = json.loads((tmp_path / "fig13.json").read_text())
        assert manifest["rows"] == json.loads(
            json.dumps(reference["rows"], allow_nan=False))
        assert manifest["schema"] == list(reference["schema"])
        assert validate_manifest(manifest,
                                 get_experiment("fig13")) == []

    def test_fig13_sweep_server_mode_row_identical_to_repro_run(
            self, server, tmp_path, capsys):
        reference = orchestrator.run_experiment("fig13", reduced=True)
        assert main(["sweep", "fig13", "--reduced",
                     "--server", f"127.0.0.1:{server.port}",
                     "--output-dir", str(tmp_path)]) == 0
        manifest = json.loads((tmp_path / "fig13.json").read_text())
        assert manifest["rows"] == json.loads(
            json.dumps(reference["rows"], allow_nan=False))
        assert manifest["sweep"]["mode"] == "server"
        assert validate_manifest(manifest,
                                 get_experiment("fig13")) == []

    def test_repeated_server_sweep_is_served_from_the_store(
            self, server, tmp_path, capsys):
        client = PlanClient(port=server.port, timeout=60.0)
        portfolio = _fast_portfolio(name="stored", candidates=(7, 8))
        first = client.sweep(portfolio, poll_interval=0.05, timeout=60)
        second = client.sweep(portfolio, poll_interval=0.05, timeout=60)
        assert first["results"] == second["results"]
        assert all(source == "store" for source in second["sources"])


class TestFabricZooSweep:
    """Acceptance: the topology zoo swept as a portfolio axis, with a
    validated manifest, in local (in-process and pooled) and server modes."""

    def _reference_rows(self):
        reference = orchestrator.run_experiment("fabric_zoo", reduced=True)
        return json.loads(json.dumps(reference["rows"], allow_nan=False))

    def test_reduced_grid_covers_every_registered_fabric(self):
        from repro.experiments.fabric_zoo import FABRICS
        from repro.hardware.topologies import topology_names

        portfolio = get_portfolio("fabric_zoo").build(True)
        labels = [point.params["fabric"] for point in portfolio.expand()]
        assert labels == list(FABRICS)
        assert set(labels) == set(topology_names())

    def test_fabrics_produce_distinct_costs(self):
        manifest = orchestrator.run_experiment("fabric_zoo", reduced=True)
        by_fabric = {row["fabric"]: row for row in manifest["rows"]}
        mesh = by_fabric["mesh"]
        distinct = [fabric for fabric, row in by_fabric.items()
                    if fabric != "mesh"
                    and row["throughput"] != mesh["throughput"]]
        assert len(distinct) >= 3, by_fabric

    def test_local_sweeps_match_repro_run_at_every_jobs_count(
            self, tmp_path):
        reference = self._reference_rows()
        for index, flags in enumerate(([], ["--jobs", "2"])):
            out = tmp_path / f"sweep-{index}"
            assert main(["sweep", "fabric_zoo", "--reduced", *flags,
                         "--output-dir", str(out)]) == 0
            manifest = json.loads((out / "fabric_zoo.json").read_text())
            assert manifest["rows"] == reference
            assert validate_manifest(
                manifest, get_experiment("fabric_zoo")) == []

    def test_server_sweep_matches_repro_run(self, server, tmp_path):
        assert main(["sweep", "fabric_zoo", "--reduced",
                     "--server", f"127.0.0.1:{server.port}",
                     "--output-dir", str(tmp_path)]) == 0
        manifest = json.loads((tmp_path / "fabric_zoo.json").read_text())
        assert manifest["rows"] == self._reference_rows()
        assert manifest["sweep"]["mode"] == "server"
        assert validate_manifest(
            manifest, get_experiment("fabric_zoo")) == []
