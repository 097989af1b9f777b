"""serve_mixed: open-loop mixed traffic against ``repro serve --jobs 1``.

Requests come in blocks (see :data:`docs.BLOCK_CLASSES`): store hits,
near-simultaneous duplicate pairs and new pinned-spec requests, one slot
every :data:`SLOT_SECONDS`. After each block the schedule leaves a gap of
:data:`GAP_SECONDS` with no request due. In that gap the calibration kernel
runs, then a :data:`BURST_SLICE_SECONDS` slice of a closed-loop burst of
store hits measures the server's hit throughput; neither delays a request.
Two sender threads (one connection each) send every request at its due time
or as soon as one is free.

The client speaks HTTP/1.1 over plain sockets with pre-built request bytes:
the server closes every connection after one response, and the lean client
keeps the sender threads' own CPU cost, which shares the host with the
server, small.
"""

from __future__ import annotations

import json
import os
import re
import signal
import socket
import subprocess
import sys
import threading
import time
from typing import Dict, List, Optional, Tuple

import calib
import common
import docs
from layers import layer_metrics

SLOT_SECONDS = 0.02
GAP_SECONDS = 0.25
PERIOD = len(docs.BLOCK_CLASSES) * SLOT_SECONDS + GAP_SECONDS
SENDERS = 2
BURST_SLICE_SECONDS = 0.1
#: The burst slice ends at least this long before the next block is due.
BURST_MARGIN_SECONDS = 0.03
SERVER_SETUP_REPEATS = 3

#: A run is invalid when more than LATE_SHARE of its requests were sent
#: more than LATE_LIMIT_MS after their due time: the generator fell behind.
LATE_LIMIT_MS = 50.0
LATE_SHARE = 0.1

#: A run needs this many open-loop requests, so p95 has 10 samples above it.
MIN_ITEMS = 200

_LISTENING = re.compile(r"listening on http://[^:]+:(\d+)")


class Server:
    """One ``repro serve`` child process (optionally under the launcher)."""

    def __init__(self, store: str, stats_path: Optional[str] = None) -> None:
        serve_args = ["serve", "--port", "0", "--jobs", "1", "--store", store]
        if stats_path is None:
            command = [sys.executable, "-m", "repro"] + serve_args
        else:
            launcher = os.path.join(os.path.dirname(__file__), "serve_traced.py")
            command = [sys.executable, launcher, stats_path] + serve_args
        start = time.perf_counter()
        self.process = common.spawn(command, stdout=subprocess.PIPE,
                                    stderr=subprocess.DEVNULL, text=True)
        try:
            match = _LISTENING.search(self.process.stdout.readline())
            if match is None:
                raise RuntimeError("repro serve did not start")
            self.port = int(match.group(1))
            while self._healthz() != 200:
                time.sleep(0.005)
        except BaseException:
            common.stop(self.process)
            raise
        self.ready_seconds = time.perf_counter() - start

    def _healthz(self) -> Optional[int]:
        try:
            return self.request("GET", "/healthz")[0]
        except OSError:
            return None

    def request(self, method: str, path: str,
                body: Optional[bytes] = None) -> Tuple[int, Optional[str], bytes]:
        """One HTTP request; ``(status, X-Repro-Source, body)``."""
        return self.send(encode_request(method, path, body))

    def send(self, raw: bytes) -> Tuple[int, Optional[str], bytes]:
        """Send pre-built request bytes; ``(status, X-Repro-Source, body)``."""
        chunks = []
        with socket.create_connection(("127.0.0.1", self.port),
                                      timeout=120) as connection:
            connection.sendall(raw)
            while True:
                chunk = connection.recv(1 << 16)
                if not chunk:
                    break
                chunks.append(chunk)
        return parse_response(b"".join(chunks))

    def metrics(self) -> Tuple[Dict[str, object], str]:
        """The JSON ``/metrics`` document and its Prometheus text."""
        document = json.loads(self.request("GET", "/metrics")[2])
        text = self.request("GET", "/metrics?format=prometheus")[2].decode()
        return document, text

    def cpu_seconds(self) -> float:
        """CPU time of the server's threads so far (nanosecond schedstat;
        the process-wide tick counters are too coarse for one window)."""
        total = 0
        tasks = f"/proc/{self.process.pid}/task"
        for task in os.listdir(tasks):
            try:
                with open(f"{tasks}/{task}/schedstat") as schedstat:
                    total += int(schedstat.read().split()[0])
            except FileNotFoundError:  # the thread ended meanwhile
                continue
        return total / 1e9

    def close(self) -> None:
        common.stop(self.process)


def encode_request(method: str, path: str, body: Optional[bytes] = None) -> bytes:
    """The bytes of one HTTP/1.1 request."""
    body = body or b""
    head = (f"{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n"
            "Connection: close\r\n\r\n")
    return head.encode("latin-1") + body


def parse_response(response: bytes) -> Tuple[int, Optional[str], bytes]:
    """``(status, X-Repro-Source, body)`` of a whole HTTP/1.1 response."""
    head, separator, body = response.partition(b"\r\n\r\n")
    if not separator:
        raise ConnectionError(f"incomplete HTTP response: {response[:80]!r}")
    status_line, *header_lines = head.decode("latin-1").split("\r\n")
    headers = {}
    for line in header_lines:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    return int(status_line.split()[1]), headers.get("x-repro-source"), body


def _ready_seconds() -> float:
    path = os.path.join(common.SCRATCH, f"setup-{time.monotonic_ns()}.sqlite")
    server = Server(path)
    server.close()
    return server.ready_seconds


class Oracle:
    """Direct ``PlanService.evaluate`` bytes of each distinct document."""

    def __init__(self) -> None:
        from repro.api import PlanService, Scenario
        from repro.api.service import validate_result_payload
        self._service, self._scenario = PlanService(), Scenario
        self.validate = validate_result_payload
        self._bytes: Dict[str, bytes] = {}

    def expected(self, body: bytes) -> bytes:
        key = body.decode()
        if key not in self._bytes:
            payload = self._service.evaluate(
                self._scenario.from_json(key)).to_dict()
            self._bytes[key] = json.dumps(payload, sort_keys=True,
                                          allow_nan=False).encode("utf-8")
        return self._bytes[key]

    def problems(self, body: bytes, status: Optional[int],
                 served: bytes) -> List[str]:
        if status != 200:
            return [f"HTTP {status}: {served[:200]!r}"]
        problems = self.validate(json.loads(served))
        if served != self.expected(body):
            problems.append("served payload differs from direct evaluate")
        return problems


def _encode(doc: Dict[str, object]) -> bytes:
    return json.dumps(doc, sort_keys=True).encode("utf-8")


def open_loop(server: Server, schedule: List[List[Dict[str, object]]],
              hits: "HitBurst") -> Dict[str, object]:
    """Send the schedule on time and measure it, with a slice of the hit
    burst in each gap.

    The kernel runs once before the first block and once in the gap after
    each block; the server's CPU time is read around each block. Capacity is
    the median over blocks of requests per calibrated server CPU second:
    every block carries the same mix, so a burst of host slowness in a few
    blocks does not move it.
    """
    kernels = [calib.calibrate()]
    cpu_start, cpu_end = [server.cpu_seconds()], []
    start = time.perf_counter() + 0.05
    requests = []
    for index, block in enumerate(schedule):
        base = start + index * PERIOD
        for entry in block:
            body = _encode(entry["doc"])
            requests.append({"block": index, "cls": entry["cls"], "body": body,
                             "raw": encode_request("POST", "/v1/plan", body),
                             "due": base + entry["slot"] * SLOT_SECONDS})
    lock = threading.Lock()
    cursor = [0]

    def sender() -> None:
        while True:
            with lock:
                if cursor[0] >= len(requests):
                    return
                request = requests[cursor[0]]
                cursor[0] += 1
            delay = request["due"] - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
            request["sent"] = time.perf_counter()
            try:
                status, source, body = server.send(request["raw"])
            except OSError as error:
                status, source, body = None, None, repr(error).encode()
            request.update(done=time.perf_counter(), status=status,
                           source=source, served=body)

    threads = [threading.Thread(target=sender, daemon=True)
               for _ in range(SENDERS)]
    for thread in threads:
        thread.start()
    for index in range(len(schedule)):
        gap = (start + index * PERIOD
               + len(docs.BLOCK_CLASSES) * SLOT_SECONDS + GAP_SECONDS / 8)
        time.sleep(max(0.0, gap - time.perf_counter()))
        cpu_end.append(server.cpu_seconds())
        kernels.append(calib.calibrate())
        hits.slice(min(time.perf_counter() + BURST_SLICE_SECONDS,
                       start + (index + 1) * PERIOD - BURST_MARGIN_SECONDS))
        cpu_start.append(server.cpu_seconds())
    for thread in threads:
        thread.join()
    block_kernel = [(kernels[index] + kernels[index + 1]) / 2
                    for index in range(len(schedule))]
    for request in requests:
        request["latency_ms"] = calib.scale(
            request["done"] - request["due"],
            block_kernel[request["block"]]) * 1000.0
        request["late_ms"] = (request["sent"] - request["due"]) * 1000.0
    capacity = [len(block) / calib.scale(cpu_end[index] - cpu_start[index],
                                         block_kernel[index])
                for index, block in enumerate(schedule)]
    raw = [len(block) / (cpu_end[index] - cpu_start[index])
           for index, block in enumerate(schedule)]
    return {"requests": requests, "kernels": kernels,
            "capacity_per_s": calib.median(capacity),
            "offered_per_s": len(requests) / (len(schedule) * PERIOD),
            "server_busy": sum(end - begin for begin, end in zip(cpu_start, cpu_end))
                           / (len(schedule) * PERIOD),
            "hit_throughput_per_s": hits.throughput(kernels),
            "raw_capacity_per_s": calib.median(raw)}


class HitBurst:
    """A closed loop of store hits on two connections, run in slices.

    Reports the server's hit throughput: hits per calibrated second of
    server CPU time while the burst saturates it. Hits per wall second
    spread twice as wide between runs of the same code (README.md),
    because they also count how fast the host wakes each process of the
    two-process ping-pong; off-CPU waits inside the server still show in
    the open loop's latencies. Slicing the burst over the whole open loop
    samples the host's drift the way the open loop does.
    """

    def __init__(self, server: Server, pool: List[bytes], oracle: Oracle) -> None:
        self._server = server
        self._raw = [encode_request("POST", "/v1/plan", body) for body in pool]
        self._expected = [oracle.expected(body) for body in pool]
        self.attempted = self.failed = 0
        self._rates: List[float] = []
        self._lock = threading.Lock()

    def _sender(self, slot: int, stop_at: float) -> None:
        index = slot
        while time.perf_counter() < stop_at:
            which = index % len(self._raw)
            try:
                status, _, served = self._server.send(self._raw[which])
                failed = status != 200 or served != self._expected[which]
            except OSError:
                failed = True
            with self._lock:
                self.attempted += 1
                self.failed += int(failed)
            index += SENDERS

    def slice(self, stop_at: float) -> None:
        """Run the burst until ``stop_at``."""
        sent, cpu = self.attempted, self._server.cpu_seconds()
        threads = [threading.Thread(target=self._sender, args=(slot, stop_at),
                                    daemon=True) for slot in range(SENDERS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        cpu = self._server.cpu_seconds() - cpu
        if self.attempted > sent and cpu > 0:
            self._rates.append((self.attempted - sent) / cpu)

    def throughput(self, kernels_ms: List[float]) -> float:
        """The median slice rate, scaled by the median kernel time: both
        fluctuate within a second, and the median of per-slice ratios would
        carry both fluctuations."""
        return calib.median(self._rates) / calib.scale(1.0, calib.median(kernels_ms))


def _bucket_p50_ms(before: str, after: str, metric: str) -> float:
    """p50 (ms) of a Prometheus histogram's growth between two scrapes,
    interpolated within its bucket."""
    pattern = re.compile(rf'^{metric}_bucket{{le="([^"]+)"}} (\S+)$', re.M)
    old = {bound: float(count) for bound, count in pattern.findall(before)}
    buckets = [(float(bound), float(count) - old.get(bound, 0.0))
               for bound, count in pattern.findall(after)]
    total = buckets[-1][1] if buckets else 0.0
    if total <= 0:
        return 0.0
    lower, below = 0.0, 0.0
    for bound, cumulative in buckets:
        if cumulative >= total / 2:
            inside = cumulative - below
            upper = bound if bound != float("inf") else lower
            fraction = (total / 2 - below) / inside if inside else 0.0
            return (lower + (upper - lower) * fraction) * 1000.0
        lower, below = bound, cumulative
    return lower * 1000.0


def _segment(server: Server, pool: List[bytes],
             schedule: List[List[Dict[str, object]]], oracle: Oracle,
             window_starts=lambda: None) -> Dict[str, object]:
    """Warm the store with the hit pool, then run the open loop."""
    warm = {body: server.request("POST", "/v1/plan", body) for body in pool}
    hits = HitBurst(server, pool, oracle)
    window_starts()
    before, before_text = server.metrics()
    segment = open_loop(server, schedule, hits)
    segment.update(warm=warm, burst_attempted=hits.attempted,
                   burst_failed=hits.failed)
    after, after_text = server.metrics()
    segment.update(before=before, after=after, queue_wait_p50_ms=_bucket_p50_ms(
        before_text, after_text, "repro_scheduler_queue_wait_seconds"))
    return segment


def _delta(segment: Dict[str, object], section: str, key: str) -> float:
    return segment["after"][section][key] - segment["before"][section][key]


def _responses(segment: Dict[str, object]) -> List[Tuple[bytes, Optional[int], bytes]]:
    """Every ``(document, status, served body)`` of a segment, warm-up included."""
    return ([(body, status, served)
             for body, (status, _, served) in segment["warm"].items()]
            + [(r["body"], r["status"], r["served"]) for r in segment["requests"]])


def _report(segment: Dict[str, object]) -> bool:
    """Print the sample accounting and the load; returns whether the run is
    valid."""
    requests = segment["requests"]
    total = len(requests)
    for field, names in (("cls", ("hit", "new", "dup")),
                         ("source", ("store", "inflight", "evaluated"))):
        shares = ", ".join(
            f"{name} {sum(r[field] == name for r in requests) / total:.1%}"
            for name in names)
        print(f"  {'generator classes' if field == 'cls' else 'served from'}: "
              f"{shares}")
    late = [r["late_ms"] for r in requests]
    behind = sum(value > LATE_LIMIT_MS for value in late) / total
    on_time = behind <= LATE_SHARE
    print(f"  generator lateness: p50={calib.median(late):.3f} ms "
          f"max={max(late):.3f} ms, {behind:.1%} over {LATE_LIMIT_MS} ms"
          f"{'' if on_time else '  INVALID: the generator fell behind'}")
    print(f"  load: offered {segment['offered_per_s']:.1f} req/s; measured "
          f"mixed capacity {segment['raw_capacity_per_s']:.0f} req/s per "
          f"server CPU second ({segment['capacity_per_s']:.0f} calibrated); "
          f"server CPU busy {segment['server_busy']:.1%} of the open loop")
    enough = total >= MIN_ITEMS
    if not enough:
        print(f"  INVALID: {total} requests, fewer than {MIN_ITEMS}")
    return on_time and enough


def _server_metrics(segment: Dict[str, object]) -> Dict[str, float]:
    requests = segment["requests"]
    total = len(requests)

    def p50_of(source: str) -> float:
        values = [r["latency_ms"] for r in requests if r["source"] == source]
        return calib.median(values) if values else 0.0

    late = [r["late_ms"] for r in requests]
    return {
        "server.store_hit_ratio": sum(r["source"] == "store" for r in requests) / total,
        "server.dedup_ratio": sum(r["source"] == "inflight" for r in requests) / total,
        "server.evaluations": _delta(segment, "scheduler", "evaluations"),
        "server.queue_wait_p50_ms": segment["queue_wait_p50_ms"],
        "server.hit_latency_p50_ms": p50_of("store"),
        "server.eval_latency_p50_ms": p50_of("evaluated"),
        "server.shed": _delta(segment, "scheduler", "shed"),
        "server.generator_late_p50_ms": calib.median(late),
        "server.generator_late_max_ms": max(late),
    }


def _wait_for(path: str, timeout: float = 30.0) -> Dict[str, object]:
    deadline = time.monotonic() + timeout
    while not os.path.exists(path):
        if time.monotonic() > deadline:
            raise RuntimeError(f"traced server wrote no {os.path.basename(path)}")
        time.sleep(0.01)
    with open(path) as handle:
        return json.load(handle)


def run(seed: int, seconds: float, trace: bool) -> Dict[str, object]:
    """Run serve_mixed; returns the result document."""
    # One CPU for this process and the servers it starts, so the kernel
    # times the CPU the server runs on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    setup_s = None
    if not trace:
        setup_s = common.median_setup(_ready_seconds, SERVER_SETUP_REPEATS)
    blocks = max(1, int((seconds / 2 if trace else seconds) / PERIOD))
    pool_docs, schedule = docs.serve_schedule(seed, blocks)
    pool = [_encode(doc) for doc in pool_docs]
    oracle = Oracle()
    print(f"serve_mixed seed={seed} seconds={seconds} trace={int(trace)} "
          f"blocks={blocks} period={PERIOD:.3f} s")
    server = Server(os.path.join(common.SCRATCH, "store.sqlite"))
    try:
        segment = _segment(server, pool, schedule, oracle)
        peak_rss = common.read_hwm_mb(server.process.pid)
    finally:
        server.close()
    requests = segment["requests"]
    common.kernel_summary(segment["kernels"])
    valid = _report(segment)
    latency = common.distribution("latency from due time",
                                  [r["latency_ms"] for r in requests])
    responses = _responses(segment)
    failed = common.count_failures(oracle.problems(*response) for response in responses)
    failed += segment["burst_failed"]
    attempted = len(responses) + segment["burst_attempted"]
    print(f"  hit burst: {segment['burst_attempted']} requests in "
          f"{len(schedule)} slices, {segment['hit_throughput_per_s']:.1f} /s "
          "calibrated")
    if not trace:
        # The first full cycle of generated documents, each once: the same
        # model x geometry x fabric mix for every seed.
        generated = pool + [_encode(entry["doc"]) for block in schedule
                            for entry in block if entry["cls"] != "hit"]
        first_cycle = list(dict.fromkeys(generated))[:len(docs.SERVE_CATALOGUE)]
        served_by_body = {body: served for body, _, served in responses}
        served = [json.loads(served_by_body[body]) for body in first_cycle]
        speedup = common.temp_speedup({
            (model, system): json.loads(oracle.expected(_encode(doc)))
            for model, system, doc in docs.fig13_cells()})
        common.fidelity_line(speedup)
        metrics = {
            "setup_s": setup_s,
            "throughput_per_s": segment["hit_throughput_per_s"],
            "capacity_per_s": segment["capacity_per_s"],
            **latency,
            "success_ratio": (attempted - failed) / attempted,
            "sim_tokens_per_s": common.sim_tokens(served),
            "temp_speedup": speedup,
            "peak_rss_mb": peak_rss,
        }
        return {"correct": failed == 0 and valid, "attempted": attempted,
                "failed": failed, "metrics": metrics}

    # Traced half: the same traffic against a server under the launcher.
    stats_path = os.path.join(common.SCRATCH, "layers.json")
    traced_server = Server(os.path.join(common.SCRATCH, "traced.sqlite"),
                           stats_path=stats_path)
    try:
        traced = _segment(
            traced_server, pool, schedule, oracle,
            window_starts=lambda: traced_server.process.send_signal(signal.SIGUSR1))
        traced_server.process.send_signal(signal.SIGUSR2)
        snapshot = _wait_for(stats_path + ".snapshot")
    finally:
        traced_server.close()
    problems = _wait_for(stats_path)["problems"]
    for problem in problems:
        print(f"  TRACER: {problem}")
    traced_responses = _responses(traced)
    failed += common.count_failures(
        oracle.problems(*response) for response in traced_responses)
    failed += traced["burst_failed"]
    attempted += len(traced_responses) + traced["burst_attempted"]
    cache = {key: _delta(traced, "plan_cache", key) for key in ("hits", "misses")}
    lookups = cache["hits"] + cache["misses"]
    metrics = layer_metrics(snapshot, snapshot["wall_seconds"])
    metrics.update({
        "costmodel.plan_cache_hit_ratio": cache["hits"] / lookups if lookups else 0.0,
        **_server_metrics(segment),
        "host.calibration_ms": calib.median(segment["kernels"] + traced["kernels"]),
        "host.raw_throughput_per_s": segment["raw_capacity_per_s"],
        "trace.overhead_ratio": segment["capacity_per_s"] / traced["capacity_per_s"],
    })
    print(f"  tracer: coverage={metrics['trace.coverage_ratio']:.3f} "
          f"overhead={metrics['trace.overhead_ratio']:.3f} "
          f"restored={'yes' if not problems else 'NO'}")
    return {"correct": failed == 0 and valid and not problems,
            "attempted": attempted, "failed": failed, "metrics": metrics}
