"""Self-tests of the benchmark: seeded documents, calibration, percentiles,
the closed loop's stopping rule, the HTTP client and Prometheus bucket
helpers, and the tracer's install/uninstall."""

from __future__ import annotations

import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import calib  # noqa: E402
import docs  # noqa: E402


def _first_pass(passes):
    return next(iter(passes))


def test_same_seed_gives_identical_documents():
    assert docs.grid_documents(3) == docs.grid_documents(3)
    assert _first_pass(docs.grid_passes(3)) == _first_pass(docs.grid_passes(3))
    assert _first_pass(docs.dlws_passes(3)) == _first_pass(docs.dlws_passes(3))
    assert docs.serve_schedule(3, 4) == docs.serve_schedule(3, 4)


def test_different_seed_gives_different_order():
    def cells(items):
        return [(item["model"], item["system"], item["variant"]) for item in items]

    assert cells(_first_pass(docs.grid_passes(1))) != cells(_first_pass(docs.grid_passes(2)))
    first, second = _first_pass(docs.dlws_passes(1)), _first_pass(docs.dlws_passes(2))
    assert [item["id"] for item in first] != [item["id"] for item in second]
    assert docs.serve_schedule(1, 4) != docs.serve_schedule(2, 4)


def test_grid_has_every_cell_and_one_variant_each():
    items = docs.grid_documents(5)
    assert len(items) == 84
    assert sum(item["variant"] for item in items) == 42
    variants = {item["doc"]["workload"]["seq_length"]
                for item in items if item["variant"]}
    assert variants <= set(docs.VARIANT_SEQ_LENGTHS)


def test_serve_requests_are_new_hardware_and_fixed_shares():
    pool, blocks = docs.serve_schedule(9, 6)
    new = {json.dumps(entry["doc"], sort_keys=True) for block in blocks
           for entry in block if entry["cls"] != "hit"}
    bandwidths = [doc["hardware"]["d2d_bandwidth"] for doc in pool]
    bandwidths += [json.loads(doc)["hardware"]["d2d_bandwidth"] for doc in new]
    assert len(new) == 6
    assert len(set(bandwidths)) == len(bandwidths)
    for block in blocks:
        classes = [entry["cls"] for entry in block]
        assert len(classes) == 20
        assert classes.count("hit") == 18
        assert classes.count("new") == classes.count("dup") == 1
        pair = [entry for entry in block if entry["cls"] != "hit"]
        assert pair[0]["doc"] == pair[1]["doc"]
        assert pair[0]["slot"] == pair[1]["slot"]


def test_calibration_scaling():
    assert calib.scale(0.5, calib.C_REF_MS) == 0.5
    # A host running at half speed (kernel twice the reference) halves times.
    assert calib.scale(2.0, 2 * calib.C_REF_MS) == pytest.approx(1.0)
    assert calib.scale(1.0, calib.C_REF_MS / 2) == pytest.approx(2.0)
    assert calib.calibrate() > 0.0


def test_percentile_and_sample_accounting():
    values = list(range(1, 101))
    assert calib.percentile(values, 0.5) == 50
    assert calib.percentile(values, 0.9) == 90
    assert calib.above(values, calib.percentile(values, 0.9)) == 10
    assert calib.percentile([7.0], 0.9) == 7.0
    assert calib.median([3, 1, 2]) == 2
    # Even counts average the two middle values, whatever the count.
    assert calib.median([4.0, 2.0]) == 3.0
    assert calib.median([1, 2, 3, 10]) == 2.5
    assert calib.geomean([1.0, 4.0]) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        calib.percentile([], 0.5)


def test_bucket_p50_interpolates_the_window_only():
    import serve

    name = "m"
    before = (f'{name}_bucket{{le="0.01"}} 10\n{name}_bucket{{le="0.02"}} 10\n'
              f'{name}_bucket{{le="+Inf"}} 10\n')
    after = (f'{name}_bucket{{le="0.01"}} 10\n{name}_bucket{{le="0.02"}} 20\n'
             f'{name}_bucket{{le="+Inf"}} 20\n')
    # Only the 10 new samples count; all lie in the (0.01, 0.02] bucket.
    assert serve._bucket_p50_ms(before, after, name) == pytest.approx(15.0)
    assert serve._bucket_p50_ms(after, after, name) == 0.0


def test_tracer_counts_and_restores_every_original():
    from layers import TARGETS, LayerTracer

    import repro.mapping.collectives as collectives
    import repro.mapping.routing as routing
    from repro.api import PlanService, Scenario
    from repro.mapping.contention import LinkLoadMap

    original_route = routing.route_flow
    original_from_flows = LinkLoadMap.__dict__["from_flows"]
    tracer = LayerTracer()
    tracer.install()
    try:
        assert collectives.route_flow is not original_route
        PlanService().evaluate(Scenario.from_dict({
            "schema_version": 1, "workload": {"model": "gpt3-6.7b"},
            "solver": {"fixed_spec": {"dp": 8, "tatp": 4}}}))
        snapshot = tracer.snapshot()
    finally:
        problems = tracer.uninstall()
    assert problems == []
    assert routing.route_flow is original_route
    assert collectives.route_flow is original_route
    assert LinkLoadMap.__dict__["from_flows"] is original_from_flows
    assert snapshot["calls"]["simulation.simulate"] == 1
    assert snapshot["calls"]["mapping.map"] == 1
    assert snapshot["calls"]["mapping.route_flow"] > 0
    assert len({layer for layer, _, _ in TARGETS}) == len(snapshot["calls"])


def test_closed_loop_runs_on_until_enough_passes_and_items():
    import inproc

    def passes():
        while True:
            yield [{"id": 0}, {"id": 1}, {"id": 2}]

    loop = inproc.closed_loop(passes(), lambda: None, lambda _state, item: item,
                              seconds=0.0, min_passes=2, min_items=7)
    assert loop["passes"] >= 2 and len(loop["samples"]) >= 7
    rates = inproc.rates(loop["samples"], ids={0, 1})
    assert len(rates["latencies_ms"]) == sum(
        sample["item"]["id"] in (0, 1) for sample in loop["samples"])


def test_http_request_bytes_and_response_parsing():
    import serve

    raw = serve.encode_request("POST", "/v1/plan", b'{"a": 1}')
    assert raw.startswith(b"POST /v1/plan HTTP/1.1\r\n")
    assert b"Content-Length: 8\r\n" in raw and raw.endswith(b'\r\n\r\n{"a": 1}')
    status, source, body = serve.parse_response(
        b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
        b"X-Repro-Source: store\r\n\r\n{}")
    assert (status, source, body) == (200, "store", b"{}")
    with pytest.raises(ConnectionError):
        serve.parse_response(b"")
