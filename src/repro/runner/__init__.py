"""Experiment registry, sweep orchestrator, and artifact pipeline.

The package turns the thirteen figure reproductions under
:mod:`repro.experiments` into one uniform evaluation grid:

* :mod:`repro.runner.registry` — every figure module registers its cell
  runner together with its parameter grids and manifest row schema,
* :mod:`repro.runner.orchestrator` — expands a grid into cells and executes
  them serially or across worker processes (one shared
  :class:`~repro.api.service.PlanService` per worker),
* :mod:`repro.runner.manifest` — the ``results/<figure>.json`` artifact
  format every runner emits, plus its validator,
* :mod:`repro.runner.docs` — the generated ``EXPERIMENTS.md`` index,
* :mod:`repro.runner.cli` — the ``python -m repro`` command line.
"""

from repro.runner.context import RunContext
from repro.runner.manifest import validate_manifest, write_manifest
from repro.runner.orchestrator import run_all, run_experiment
from repro.runner.registry import (
    Experiment,
    all_experiments,
    expand_grid,
    get_experiment,
    register,
)

__all__ = [
    "Experiment",
    "RunContext",
    "all_experiments",
    "expand_grid",
    "get_experiment",
    "register",
    "run_all",
    "run_experiment",
    "validate_manifest",
    "write_manifest",
]
