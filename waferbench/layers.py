"""Per-layer attribution by wrapping the program's public functions from outside.

:class:`LayerTracer` replaces each target function with a timing wrapper —
in the defining module or class and in every loaded ``repro`` module that
imported it by name — and restores every original on :meth:`uninstall`.
Nothing inside the program changes. A layer's *self time* is its wall time
minus the time of wrapped calls made inside it, kept per thread.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from typing import Callable, Dict, List, Tuple

#: (layer, module, attribute) — ``Class.method`` or a module-level function.
#: The layer names follow the repo's module names.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    ("mapping.map", "repro.mapping.engines", "MappingEngine.map"),
    ("mapping.map", "repro.mapping.engines", "TCMEEngine.map"),
    ("mapping.route_flow", "repro.mapping.routing", "route_flow"),
    ("mapping.link_loads", "repro.mapping.contention", "LinkLoadMap.from_flows"),
    ("mapping.expand_task", "repro.mapping.collectives", "expand_task"),
    ("mapping.optimize", "repro.mapping.optimizer", "TrafficOptimizer.optimize"),
    ("costmodel.analyze", "repro.costmodel.tables", "PlanCache.analyze"),
    ("costmodel.cost_tables", "repro.costmodel.tables", "CostTables.__init__"),
    ("hardware.resolve_wafer", "repro.api.scenario", "HardwareSpec.resolve_wafer"),
    ("parallelism.candidate_specs", "repro.parallelism.baselines", "candidate_specs"),
    ("solver.prune_specs", "repro.solver.search_space", "prune_specs"),
    ("solver.optimize_segments", "repro.solver.dp", "optimize_segments"),
    ("solver.genetic_refine", "repro.solver.genetic", "GeneticRefiner.refine"),
    ("simulation.simulate", "repro.simulation.simulator", "WaferSimulator.simulate"),
)

LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(layer for layer, _, _ in TARGETS))

#: Modules imported before installing, so that name-bound imports of the
#: targets exist and get patched too.
_PRELOAD = ("repro.api", "repro.core.framework", "repro.core.multiwafer",
            "repro.solver", "repro.solver.dlws", "repro.server.scheduler",
            "repro.experiments")


class LayerTracer:
    """Install/uninstall timing wrappers and accumulate per-layer counters."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self._patches: List[Tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        """Zero every counter and restart the wall clock."""
        with self._lock:
            self.calls: Dict[str, int] = dict.fromkeys(LAYERS, 0)
            self.self_seconds: Dict[str, float] = dict.fromkeys(LAYERS, 0.0)
            self.covered_seconds = 0.0
            self.simulate_ooms = 0
            self.started = time.perf_counter()

    def snapshot(self) -> Dict[str, object]:
        """Counters since the last :meth:`reset`, plus the wall time."""
        with self._lock:
            return {
                "calls": dict(self.calls),
                "self_seconds": dict(self.self_seconds),
                "covered_seconds": self.covered_seconds,
                "simulate_ooms": self.simulate_ooms,
                "wall_seconds": time.perf_counter() - self.started,
            }

    # Wrapping --------------------------------------------------------------------

    def _wrap(self, layer: str, function: Callable) -> Callable:
        local = self._local
        lock = self._lock
        counts_oom = layer == "simulation.simulate"

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            frame = [0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = function(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                with lock:
                    self.calls[layer] += 1
                    self.self_seconds[layer] += elapsed - frame[0]
                    if not stack:
                        self.covered_seconds += elapsed
            if counts_oom and result.oom:
                with lock:
                    self.simulate_ooms += 1
            return result

        wrapper.__waferbench_layer__ = layer
        return wrapper

    def install(self) -> None:
        """Wrap every target; name-bound imports in loaded modules included."""
        if self._patches:
            raise RuntimeError("layer wrappers are already installed")
        for name in _PRELOAD:
            importlib.import_module(name)
        for layer, module_name, attribute in TARGETS:
            module = importlib.import_module(module_name)
            if "." in attribute:
                class_name, method = attribute.split(".")
                owner = getattr(module, class_name)
                raw = owner.__dict__[method]
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(layer, raw.__func__))
                else:
                    wrapped = self._wrap(layer, raw)
                self._patch(owner, method, raw, wrapped)
                continue
            original = getattr(module, attribute)
            wrapped = self._wrap(layer, original)
            for loaded in list(sys.modules.values()):
                if (getattr(loaded, "__name__", "").startswith("repro")
                        and getattr(loaded, attribute, None) is original):
                    self._patch(loaded, attribute, original, wrapped)

    def _patch(self, owner, attribute: str, original, wrapped) -> None:
        setattr(owner, attribute, wrapped)
        self._patches.append((owner, attribute, original))

    def uninstall(self) -> List[str]:
        """Restore every original; return the problems found (none is good).

        Besides the patched attributes, every loaded ``repro`` module is
        scanned for a wrapper that a module imported after :meth:`install`
        may have bound; any such binding is restored and reported.
        """
        problems: List[str] = []
        for owner, attribute, original in reversed(self._patches):
            setattr(owner, attribute, original)
            current = (owner.__dict__[attribute] if isinstance(owner, type)
                       else getattr(owner, attribute))
            if current is not original:
                problems.append(f"{owner!r}.{attribute} not restored")
        self._patches = []
        for loaded in list(sys.modules.values()):
            if not getattr(loaded, "__name__", "").startswith("repro"):
                continue
            for attribute, value in list(vars(loaded).items()):
                if hasattr(value, "__waferbench_layer__"):
                    problems.append(
                        f"{loaded.__name__}.{attribute} still wrapped")
                    setattr(loaded, attribute, value.__wrapped__)
        return problems


def layer_metrics(snapshot: Dict[str, object], wall_seconds: float) -> Dict[str, float]:
    """The per-layer metric values of one traced segment.

    ``wall_seconds`` is the traced wall time the shares are taken of.
    """
    calls = snapshot["calls"]
    shares = {layer: seconds / wall_seconds
              for layer, seconds in snapshot["self_seconds"].items()}
    metrics: Dict[str, float] = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = calls[layer]
        metrics[f"{layer}.self_share"] = shares[layer]
    simulated = calls["simulation.simulate"]
    metrics["simulation.oom_ratio"] = (snapshot["simulate_ooms"] / simulated
                                       if simulated else 0.0)
    metrics["trace.coverage_ratio"] = snapshot["covered_seconds"] / wall_seconds
    return metrics
