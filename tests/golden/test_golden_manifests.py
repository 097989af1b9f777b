"""Golden-manifest regression tests: reduced grids are pinned across time.

The within-run parity contracts (serial vs parallel, served vs direct,
sweep vs orchestrator) cannot catch a change that shifts *every* path at
once — a cost-model edit, a solver reordering, a serialisation change.
These tests pin the actual numbers: the checked-in goldens under
``tests/golden/goldens/`` hold the full reduced-grid rows of a few figures,
and ``repro run <figure> --reduced`` must reproduce them row-identically.

After an *intentional* result change, refresh and review the goldens::

    PYTHONPATH=src python -m pytest tests/golden --update-goldens
    git diff tests/golden/goldens/

(``REPRO_UPDATE_GOLDENS=1`` is the environment-variable equivalent.)
"""

import json
from pathlib import Path

import pytest

from repro.api.scenario import SCHEMA_VERSION, Scenario
from repro.api.service import PlanService
from repro.runner import orchestrator
from repro.runner.manifest import validate_manifest
from repro.runner.registry import get_experiment

GOLDEN_DIR = Path(__file__).parent / "goldens"

#: Figures whose reduced grids are pinned — cheap enough for tier-1. fig13 is
#: a cartesian single-wafer grid and fig19 a zipped multi-wafer grid;
#: fabric_zoo reaches the non-mesh fabrics, fig20 faulty wafers (the BFS
#: route fallback), fig07 the scattered, no-reorder SMap path, fig15 the GPU
#: comparator and fig16 the ablation search.
GOLDEN_FIGURES = ["fig13", "fig19", "fabric_zoo", "fig20", "fig07", "fig15",
                  "fig16"]

#: Fabrics of the pinned dual-level solve (``None`` is the default mesh).
SOLVE_FABRICS = {"mesh": None, "torus": {"name": "torus"}}

pytestmark = pytest.mark.slow  # each test runs a full reduced grid


def _golden_document(figure, manifest):
    """The comparable slice of a manifest: identity + schema + rows.

    Timings and worker counts vary run to run; the rows (passed through a
    JSON round-trip so tuples/floats normalise exactly like the written
    artifact) are what the figure actually plots.
    """
    return {
        "figure": figure,
        "reduced": True,
        "schema": list(manifest["schema"]),
        "rows": json.loads(json.dumps(manifest["rows"], allow_nan=False)),
    }


@pytest.mark.parametrize("figure", GOLDEN_FIGURES)
def test_reduced_run_reproduces_golden_rows(figure, update_goldens):
    manifest = orchestrator.run_experiment(figure, reduced=True)
    assert validate_manifest(manifest, get_experiment(figure)) == []
    document = _golden_document(figure, manifest)
    path = GOLDEN_DIR / f"{figure}.json"
    if update_goldens:
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(json.dumps(document, indent=2, sort_keys=True)
                        + "\n", encoding="utf-8")
        pytest.skip(f"updated {path}")
    golden = json.loads(path.read_text(encoding="utf-8"))
    assert document["schema"] == golden["schema"], \
        "schema drifted from the golden manifest"
    assert len(document["rows"]) == len(golden["rows"]), \
        "row count drifted from the golden manifest"
    for index, (actual, expected) in enumerate(
            zip(document["rows"], golden["rows"])):
        assert actual == expected, (
            f"row {index} of {figure} drifted from the golden manifest; "
            f"if the change is intentional, refresh with "
            f"`pytest tests/golden --update-goldens` and review the diff")


@pytest.mark.parametrize("figure", GOLDEN_FIGURES)
def test_golden_files_are_well_formed(figure):
    # Cheap guard, independent of evaluation: the checked-in goldens parse,
    # match their figure's registered schema, and are non-empty.
    golden = json.loads(
        (GOLDEN_DIR / f"{figure}.json").read_text(encoding="utf-8"))
    experiment = get_experiment(figure)
    assert golden["figure"] == figure
    assert golden["schema"] == list(experiment.schema)
    assert golden["rows"], "golden manifest has no rows"
    for row in golden["rows"]:
        assert set(row) == set(experiment.schema)


def _solve_document(topology):
    """One ``PlanService.solve`` payload, minus its wall-clock field.

    The problem is the ``dls_search`` benchmark's: gpt3-76b, 10 candidates
    and 8 GA generations, on a fresh service.
    """
    hardware = {} if topology is None else {"topology": topology}
    scenario = Scenario.from_dict({
        "schema_version": SCHEMA_VERSION,
        "workload": {"model": "gpt3-76b"},
        "hardware": hardware,
        "solver": {"scheme": "temp", "engine": "tcme",
                   "max_candidates": 10, "ga_generations": 8},
    })
    payload = PlanService().solve(scenario).to_dict()
    del payload["search_seconds"]
    return payload


def test_solve_reproduces_golden_payloads(update_goldens):
    document = {name: _solve_document(topology)
                for name, topology in SOLVE_FABRICS.items()}
    path = GOLDEN_DIR / "solve.json"
    if update_goldens:
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(json.dumps(document, indent=2, sort_keys=True)
                        + "\n", encoding="utf-8")
        pytest.skip(f"updated {path}")
    golden = json.loads(path.read_text(encoding="utf-8"))
    assert json.loads(json.dumps(document)) == golden, (
        "PlanService.solve payload drifted from the golden; if the change "
        "is intentional, refresh with `pytest tests/golden --update-goldens`")
