"""Seeded scenario documents for the three workloads.

The program sees only the plain JSON documents built here. The same seed
gives identical documents; a different seed gives a different order (and
different seeded knobs). Only :func:`fig13_cells` imports the program, for
the Fig. 13 cell definitions.
"""

from __future__ import annotations

import itertools
import random
from typing import Dict, Iterator, List, Tuple

#: One terabyte in the program's units (bytes, binary prefixes).
TB = float(1024 ** 4)

#: Table II models of Fig. 13, in the figure's order.
TABLE_II_MODELS = ("gpt3-6.7b", "llama2-7b", "llama3-70b", "gpt3-76b",
                   "gpt3-175b", "opt-175b")

#: Sequence lengths of the seeded grid_sweep variant cells.
VARIANT_SEQ_LENGTHS = (1024, 3072, 4096)

#: dlws_search request catalogue: zoo models x wafer geometries x fabrics.
#: The 8x8 wafer's solves are the slowest fifth, so the latency median and
#: p95 each fall inside one geometry class, not on the line between two.
DLWS_MODELS = ("gpt3-6.7b", "llama3-70b", "gpt3-175b", "deepseek-v2-236b")
GEOMETRIES = ((4, 8), (8, 4), (4, 4), (2, 8))
DLWS_GEOMETRIES = GEOMETRIES + ((8, 8),)
FABRICS = (None, {"name": "torus"}, {"name": "mesh3d"}, {"name": "chiplet"},
           {"name": "express"})

#: serve_mixed pinned-spec requests: small models whose pinned plans
#: evaluate in milliseconds, cycling through every geometry and fabric.
#: The hit pool and one run's new requests (24 + 39 at ``--seconds 25``)
#: cover the 60 combinations, so ``sim_tokens_per_s`` sees the same mix for
#: every seed.
SERVE_MODELS = ("gpt3-6.7b", "llama2-7b", "deepseek-7b")
SERVE_TATP = 4
SERVE_CATALOGUE = [(model, geometry, fabric) for model in SERVE_MODELS
                   for geometry in GEOMETRIES for fabric in FABRICS]

#: One serve_mixed block of 20 requests, one per slot: 18 store hits and
#: one ``pair`` slot, a new pinned-spec request (class ``new``) and its
#: duplicate (class ``dup``) due at the same instant. 95% of the requests
#: repeat a document (90% store hits, 5% in-flight duplicates), the repo's
#: documented serving profile (``repro loadtest --dedup-ratio 0.95``).
#: The slow classes (new and dup, both waiting on one evaluation) are 10%
#: of the requests, so the latency median sits deep in the hit class and
#: p95 in the middle of the evaluated one, not on the line between them.
BLOCK_CLASSES = ("hit",) * 18 + ("pair",)
HIT_POOL = 24


def fig13_cells() -> List[Tuple[str, str, Dict[str, object]]]:
    """The 42 default Fig. 13 cells as ``(model, system, document)``."""
    from repro.experiments.fig13_overall import SYSTEMS, scenario_for_system
    return [(model, system, scenario_for_system(model, system).to_dict())
            for model in TABLE_II_MODELS for system in SYSTEMS]


def grid_documents(seed: int) -> List[Dict[str, object]]:
    """The 42 default cells plus one seeded ``seq_length`` variant of each.

    Each item is ``{"id", "model", "system", "variant", "doc"}``;
    ``variant`` is False for a default cell.
    """
    rng = random.Random(f"grid-{seed}")
    items = []
    for model, system, doc in fig13_cells():
        variant = _copy(doc)
        variant["workload"]["seq_length"] = rng.choice(VARIANT_SEQ_LENGTHS)
        for is_variant, cell_doc in ((False, doc), (True, variant)):
            items.append({"id": len(items), "model": model, "system": system,
                          "variant": is_variant, "doc": cell_doc})
    return items


def grid_passes(seed: int) -> Iterator[List[Dict[str, object]]]:
    """Endless passes over :func:`grid_documents`, each in a seeded order."""
    items = grid_documents(seed)
    for index in itertools.count():
        order = list(items)
        random.Random(f"grid-order-{seed}-{index}").shuffle(order)
        yield order


def _wafer_doc(model: str, rows: int, cols: int, fabric, d2d: float,
               solver: Dict[str, object]) -> Dict[str, object]:
    return {
        "schema_version": 1,
        "workload": {"model": model},
        "hardware": {"rows": rows, "cols": cols, "d2d_bandwidth": d2d,
                     "topology": dict(fabric) if fabric else None},
        "solver": solver,
    }


def _seeded_bandwidth(rng: random.Random) -> float:
    """A D2D bandwidth within 25% of the 1 TB/s default, on a 1 GB/s grid."""
    return float(round(rng.uniform(0.75, 1.25) * 1024)) * (TB / 1024)


def dlws_documents(seed: int) -> List[Dict[str, object]]:
    """The solve catalogue, each request with its own seeded D2D bandwidth.

    Every request is solved on a fresh ``PlanService``, so every solve
    builds new hardware, repeats included.
    """
    rng = random.Random(f"dlws-{seed}")
    return [{"id": index, "geometry": f"{rows}x{cols}",
             "doc": _wafer_doc(model, rows, cols, fabric,
                               _seeded_bandwidth(rng), {})}
            for index, (model, (rows, cols), fabric) in enumerate(
                (model, geometry, fabric) for model in DLWS_MODELS
                for geometry in DLWS_GEOMETRIES for fabric in FABRICS)]


def dlws_passes(seed: int) -> Iterator[List[Dict[str, object]]]:
    """Endless passes over :func:`dlws_documents`, each in a seeded order."""
    items = dlws_documents(seed)
    for index in itertools.count():
        order = list(items)
        random.Random(f"dlws-order-{seed}-{index}").shuffle(order)
        yield order


def _pinned_doc(combo, rng: random.Random, serial: int) -> Dict[str, object]:
    """A pinned-spec request on its own hardware (distinct by ``serial``)."""
    model, (rows, cols), fabric = combo
    # The serial number makes the bandwidth, and so the hardware, unique.
    d2d = _seeded_bandwidth(rng) + serial * 1024.0
    fixed = {"dp": rows * cols // SERVE_TATP, "tatp": SERVE_TATP}
    return _wafer_doc(model, rows, cols, fabric, d2d, {"fixed_spec": fixed})


def serve_schedule(seed: int, blocks: int) -> Tuple[List[Dict[str, object]],
                                                    List[List[Dict[str, object]]]]:
    """The hit pool and ``blocks`` blocks of classed requests.

    Returns ``(pool, blocks)``; each block is a list of
    ``{"cls", "doc", "slot"}`` where requests sharing a ``slot`` are due at
    the same instant (a ``new`` request and its ``dup``). New documents cycle
    through every model x geometry x fabric in a seeded order, so the mix
    is the same for every seed.
    """
    rng = random.Random(f"serve-{seed}")
    cycle: List[tuple] = []
    serial = 0

    def new_doc() -> Dict[str, object]:
        nonlocal serial
        if not cycle:
            cycle.extend(SERVE_CATALOGUE)
            rng.shuffle(cycle)
        serial += 1
        return _pinned_doc(cycle.pop(), rng, serial)

    pool = [new_doc() for _ in range(HIT_POOL)]
    schedule = []
    for _ in range(blocks):
        classes = list(BLOCK_CLASSES)
        rng.shuffle(classes)
        block = []
        for slot, cls in enumerate(classes):
            if cls == "hit":
                block.append({"cls": cls, "doc": rng.choice(pool), "slot": slot})
                continue
            doc = new_doc()
            block.append({"cls": "new", "doc": doc, "slot": slot})
            block.append({"cls": "dup", "doc": doc, "slot": slot})
        schedule.append(block)
    return pool, schedule


def _copy(doc: Dict[str, object]) -> Dict[str, object]:
    return {key: dict(value) if isinstance(value, dict) else value
            for key, value in doc.items()}

