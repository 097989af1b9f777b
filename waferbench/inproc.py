"""grid_sweep and dlws_search: closed loop, one caller, in this process."""

from __future__ import annotations

import time
from typing import Callable, Dict, Iterator, List, Optional, Set

import calib
import common
import docs
from layers import LayerTracer, layer_metrics

#: Seconds of work between two calibration points.
BLOCK_SECONDS = 0.5

#: A timed run goes on past ``--seconds`` until it has this many items, so
#: its p95 has at least 10 samples above it, and every document has been
#: timed at least :data:`MIN_PASSES` times.
MIN_ITEMS = 200
MIN_PASSES = 2

#: ... but never longer than this past ``--seconds``; a run cut there is
#: reported invalid.
OVERRUN_SECONDS = 60.0


def closed_loop(passes: Iterator[List], start_pass: Callable[[], object],
                call: Callable[[object, object], object], seconds: float,
                min_passes: int = 0, min_items: int = 0) -> Dict[str, object]:
    """Run items back to back until ``seconds`` have passed, at least
    ``min_passes`` passes are complete and ``min_items`` items are done
    (for at most :data:`OVERRUN_SECONDS` more).

    Every item is timed alone (wall and process CPU). The kernel runs
    between blocks of :data:`BLOCK_SECONDS`; each item is scaled by the mean
    of the two kernel times around its block.
    """
    kernels = [calib.calibrate()]
    samples: List[Dict[str, object]] = []
    block: List[Dict[str, object]] = []
    completed = 0

    def flush() -> None:
        kernels.append(calib.calibrate())
        kernel_ms = (kernels[-2] + kernels[-1]) / 2
        for sample in block:
            sample["kernel_ms"] = kernel_ms
        samples.extend(block)
        block.clear()

    deadline = time.perf_counter() + seconds
    block_end = time.perf_counter() + BLOCK_SECONDS
    for pass_index, items in enumerate(passes):
        state = start_pass()
        for item in items:
            now = time.perf_counter()
            enough = (completed >= min_passes
                      and len(samples) + len(block) >= min_items)
            if now >= deadline and (enough or
                                    now >= deadline + OVERRUN_SECONDS):
                break
            if now >= block_end:
                flush()
                block_end = time.perf_counter() + BLOCK_SECONDS
            wall, cpu = time.perf_counter(), time.process_time()
            try:
                result, error = call(state, item), None
            except Exception as exc:  # a failed item counts, the loop goes on
                result, error = None, f"{type(exc).__name__}: {exc}"
            block.append({"item": item, "result": result, "error": error,
                          "pass": pass_index,
                          "wall": time.perf_counter() - wall,
                          "cpu": time.process_time() - cpu})
        else:
            completed += 1
            continue
        break
    if block:
        flush()
    return {"samples": samples, "kernels": kernels, "passes": completed}


def rates(samples: List[Dict[str, object]],
          ids: Optional[Set[int]] = None) -> Dict[str, float]:
    """Calibrated throughput, capacity and latencies of completed items
    (only of the documents in ``ids``, when given).

    Throughput and capacity take each document's median calibrated time
    over the run (the mean of two repetitions, the middle of three), so a
    burst of host slowness during one repetition does not move them;
    latencies keep every item.
    """
    done = [sample for sample in samples if sample["error"] is None
            and (ids is None or sample["item"]["id"] in ids)]
    per_doc: Dict[int, List[Dict[str, object]]] = {}
    for sample in done:
        per_doc.setdefault(sample["item"]["id"], []).append(sample)

    def per_pass(seconds_of) -> float:
        return sum(calib.median([seconds_of(s) for s in repeats])
                   for repeats in per_doc.values())

    return {
        "throughput_per_s": len(per_doc) / per_pass(
            lambda s: calib.scale(s["wall"], s["kernel_ms"])),
        "capacity_per_s": len(per_doc) / per_pass(
            lambda s: calib.scale(s["cpu"], s["kernel_ms"])),
        "raw_throughput_per_s": len(per_doc) / per_pass(lambda s: s["wall"]),
        "latencies_ms": [calib.scale(s["wall"], s["kernel_ms"]) * 1000.0
                         for s in done],
    }


class InProcessWorkload:
    """One in-process workload. Subclasses provide ``passes`` (endless
    seeded passes of items), ``call`` (one timed item), ``warm_up``,
    ``check`` (a sample's output problems), ``plan_payload``, ``speedup``,
    ``cache_hit_ratio`` and ``report_classes``."""

    name = ""

    def __init__(self, seed: int) -> None:
        self.seed = seed

    def start_pass(self) -> object:
        """Per-pass state handed to ``call`` (none by default)."""
        return None

    def reset_cache_stats(self) -> None:
        """Start counting plan-cache lookups afresh (no-op by default)."""


class GridSweep(InProcessWorkload):
    """The 42 Fig. 13 cells plus a seeded seq_length variant of each."""

    name = "grid_sweep"

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        from repro.api import PlanService, Scenario
        from repro.api.service import validate_result_payload
        from repro.experiments.portfolios import fig13_row
        self._service_cls, self._scenario = PlanService, Scenario
        self._validate, self._row = validate_result_payload, fig13_row
        self._golden = common.load_golden_fig13()
        self._default_payloads: Dict[tuple, Dict[str, object]] = {}
        self.reset_cache_stats()

    def passes(self):
        return docs.grid_passes(self.seed)

    def _fold_cache_stats(self) -> None:
        if self._service is not None:
            stats = self._service.stats()["plan_cache"]
            self._cache_hits += stats["hits"]
            self._cache_lookups += stats["hits"] + stats["misses"]

    def reset_cache_stats(self) -> None:
        self._service = None
        self._cache_hits = self._cache_lookups = 0

    def start_pass(self):
        # Only the current pass's service stays alive, so peak memory does
        # not grow with the number of passes the host speed allowed.
        self._fold_cache_stats()
        self._service = self._service_cls()
        return self._service

    def call(self, service, item):
        return service.evaluate(self._scenario.from_dict(item["doc"])).to_dict()

    def warm_up(self) -> None:
        service = self._service_cls()
        for item in docs.grid_documents(self.seed):
            payload = self.call(service, item)
            if not item["variant"]:
                self._default_payloads[(item["model"], item["system"])] = payload

    def check(self, sample):
        payload, item = sample["result"], sample["item"]
        problems = self._validate(payload)
        golden = self._golden.get((item["model"], item["system"]))
        if golden is not None and not item["variant"]:
            expected = {key: value for key, value in golden.items()
                        if key not in ("model", "system")}
            if self._row(None, payload) != expected:
                problems.append(f"{item['model']}/{item['system']} differs "
                                "from its fig13 golden row")
        return problems

    def plan_payload(self, sample):
        return sample["result"]

    def speedup(self) -> float:
        return common.temp_speedup(self._default_payloads)

    def cache_hit_ratio(self, samples) -> float:
        self._fold_cache_stats()
        self._service = None
        return self._cache_hits / self._cache_lookups if self._cache_lookups else 0.0

    def report_classes(self, samples) -> None:
        search = [s for s in samples if s["item"]["system"] == "TEMP"]
        cheap = len(samples) - len(search)
        print(f"  classes: cheap baseline/pinned cells {cheap / len(samples):.1%}"
              f", TEMP search cells {len(search) / len(samples):.1%}")


class DlwsSearch(InProcessWorkload):
    """Dual-level solves of zoo models on fresh hardware per request."""

    name = "dlws_search"

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        from repro.api import PlanService, Scenario
        from repro.api.service import SolverOutcome, validate_result_payload
        self._service_cls, self._scenario = PlanService, Scenario
        self._outcome, self._validate = SolverOutcome, validate_result_payload

    def passes(self):
        return docs.dlws_passes(self.seed)

    def call(self, _state, item):
        raw = self._service_cls().solve_raw(self._scenario.from_dict(item["doc"]))
        return self._outcome.from_result(raw).to_dict(), raw.best_spec

    def warm_up(self) -> None:
        for item in docs.dlws_documents(self.seed)[::10]:
            self.call(None, item)

    def check(self, sample):
        """The winner, re-evaluated pinned and without the checkpoint
        fallback, must reproduce the solve's step time and OOM flag."""
        outcome, spec = sample["result"]
        scenario = self._scenario.from_dict(
            sample["item"]["doc"]).with_fixed_spec(spec)
        pinned_doc = scenario.to_dict()
        pinned_doc["solver"]["allow_checkpoint_fallback"] = False
        payload = self._service_cls().evaluate(
            self._scenario.from_dict(pinned_doc)).to_dict()
        problems = self._validate(payload)
        if (payload["step_time"], payload["oom"]) != (outcome["step_time"],
                                                      outcome["oom"]):
            problems.append(f"pinned winner {outcome['spec']} gives "
                            f"{payload['step_time']}/{payload['oom']}, solve "
                            f"gave {outcome['step_time']}/{outcome['oom']}")
        return problems

    def plan_payload(self, sample):
        return sample["result"][0]

    def speedup(self) -> float:
        service = self._service_cls()
        return common.temp_speedup({
            (model, system): service.evaluate(
                self._scenario.from_dict(doc)).to_dict()
            for model, system, doc in docs.fig13_cells()})

    def report_classes(self, samples) -> None:
        shares = ", ".join(
            f"{rows}x{cols} {sum(s['item']['geometry'] == f'{rows}x{cols}' for s in samples) / len(samples):.1%}"
            for rows, cols in docs.DLWS_GEOMETRIES)
        print(f"  classes (wafer geometry): {shares}")

    def cache_hit_ratio(self, samples) -> float:
        outcomes = [s["result"][0] for s in samples if s["error"] is None]
        hits = sum(o["plan_cache_hits"] for o in outcomes)
        lookups = hits + sum(o["plan_cache_misses"] for o in outcomes)
        return hits / lookups if lookups else 0.0


WORKLOADS = {GridSweep.name: GridSweep, DlwsSearch.name: DlwsSearch}

#: Server-layer metrics; zero on the in-process workloads, which never
#: reach the server.
SERVER_METRICS = ("server.store_hit_ratio", "server.dedup_ratio",
                  "server.evaluations", "server.queue_wait_p50_ms",
                  "server.hit_latency_p50_ms", "server.eval_latency_p50_ms",
                  "server.shed", "server.generator_late_p50_ms",
                  "server.generator_late_max_ms")


def _problems(workload: InProcessWorkload, samples: List[Dict[str, object]]):
    for sample in samples:
        yield ([sample["error"]] if sample["error"] is not None
               else workload.check(sample))


def run(name: str, seed: int, seconds: float, trace: bool) -> Dict[str, object]:
    """Run one in-process workload; returns the result document."""
    workload = WORKLOADS[name](seed)
    setup_s: Optional[float] = None
    if not trace:
        setup_s = common.median_setup(common.spawn_library_ready)
    workload.warm_up()
    passes = workload.passes()
    print(f"{name} seed={seed} seconds={seconds} trace={int(trace)}")
    if not trace:
        loop = closed_loop(passes, workload.start_pass, workload.call,
                           seconds, min_passes=MIN_PASSES, min_items=MIN_ITEMS)
        peak_rss = common.read_hwm_mb()
        samples = loop["samples"]
        measured = rates(samples)
        common.kernel_summary(loop["kernels"])
        workload.report_classes(samples)
        valid = len(samples) >= MIN_ITEMS and loop["passes"] >= MIN_PASSES
        print(f"  items: {len(samples)}, {loop['passes']} whole passes (at "
              f"least {MIN_ITEMS} items and {MIN_PASSES} passes needed)"
              f"{'' if valid else '  INVALID: cut at the overrun limit'}")
        latency = common.distribution("latency", measured["latencies_ms"])
        failed = common.count_failures(_problems(workload, samples))
        first_pass = [workload.plan_payload(s) for s in samples
                      if s["pass"] == 0 and s["error"] is None]
        speedup = workload.speedup()
        common.fidelity_line(speedup)
        metrics = {
            "setup_s": setup_s,
            "throughput_per_s": measured["throughput_per_s"],
            "capacity_per_s": measured["capacity_per_s"],
            **latency,
            "success_ratio": (len(samples) - failed) / len(samples),
            "sim_tokens_per_s": common.sim_tokens(first_pass),
            "temp_speedup": speedup,
            "peak_rss_mb": peak_rss,
        }
        return {"correct": failed == 0 and valid, "attempted": len(samples),
                "failed": failed, "metrics": metrics}

    # Traced run: the first half untraced, the second with the wrappers.
    untraced = closed_loop(passes, workload.start_pass, workload.call,
                           seconds / 2)
    tracer = LayerTracer()
    tracer.install()
    workload.reset_cache_stats()
    tracer.reset()
    try:
        traced = closed_loop(passes, workload.start_pass, workload.call,
                             seconds / 2)
        snapshot = tracer.snapshot()
    finally:
        problems = tracer.uninstall()
    for problem in problems:
        print(f"  TRACER: {problem}")
    samples = untraced["samples"] + traced["samples"]
    kernels = untraced["kernels"] + traced["kernels"]
    common.kernel_summary(kernels)
    workload.report_classes(samples)
    failed = common.count_failures(_problems(workload, samples))
    # The overhead compares the same documents: the two halves start at
    # different points of the seeded passes.
    shared = ({s["item"]["id"] for s in untraced["samples"]}
              & {s["item"]["id"] for s in traced["samples"]})
    plain = rates(untraced["samples"], shared)
    wrapped = rates(traced["samples"], shared)
    traced_wall = sum(s["wall"] for s in traced["samples"])
    metrics = layer_metrics(snapshot, traced_wall)
    metrics.update({
        "costmodel.plan_cache_hit_ratio":
            workload.cache_hit_ratio(traced["samples"]),
        **{name: 0.0 for name in SERVER_METRICS},
        "host.calibration_ms": calib.median(kernels),
        "host.raw_throughput_per_s": plain["raw_throughput_per_s"],
        "trace.overhead_ratio":
            plain["throughput_per_s"] / wrapped["throughput_per_s"],
    })
    print(f"  tracer: coverage={metrics['trace.coverage_ratio']:.3f} "
          f"overhead={metrics['trace.overhead_ratio']:.3f} "
          f"restored={'yes' if not problems else 'NO'}")
    return {"correct": failed == 0 and not problems,
            "attempted": len(samples), "failed": failed, "metrics": metrics}

