"""Per-worker execution context shared by every cell a worker runs.

The orchestrator creates one :class:`RunContext` per worker (one total in
serial mode) and passes it to every cell runner. The context owns the
worker's :class:`~repro.api.service.PlanService`, which carries all the state
the cells share (plan cache, wafer and cost-table memos) — the contract
pinned by the serial-vs-parallel parity test is that this state is a pure
memoisation layer: a cell must produce bit-identical rows whether it runs on
a cold or a warm service, so sharding cells across workers (each with its
own service) cannot change any result.
"""

from __future__ import annotations


class RunContext:
    """Shared state handed to every cell runner of a worker.

    Attributes:
        reduced: whether the run uses the reduced grids (informational).
    """

    def __init__(self, reduced: bool = False) -> None:
        self.reduced = reduced
        self._service = None

    @property
    def service(self):
        """The worker's :class:`~repro.api.service.PlanService`.

        Built on first use, so every scenario the worker's cells evaluate
        reuses the same memoised execution plans, wafers, and solver cost
        tables.
        """
        if self._service is None:
            from repro.api.service import PlanService
            self._service = PlanService()
        return self._service
