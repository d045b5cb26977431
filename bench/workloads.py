"""Inputs of the catalog workloads, drawn from the seed.

``catalog-core`` is every identity-catalog case except PROP2; ``bell-series``
is the PROP2 cases.  The seed fixes the order of each pass (and so which case pays to fill the
shared MZV and zeta caches); the case set itself never depends on it.
"""

from __future__ import annotations

import random

CORE_CASES = 232
CORE_FAMILIES = 21
BELL_CASES = 3
# PROP2 sums its z-power series to m = BELL_M_TERMS - 1.  The catalog default
# is 24 terms (about 21 s a case on a 2-core Xeon); 12 terms keeps a pass of
# the three cases near 14 s, short enough for several passes per run.
BELL_M_TERMS = 12


def shuffled(items: list, seed: int, order: int) -> list:
    """The seed's ``order``-th shuffle of ``items``: pass k of a run uses
    order k, so the passes of one run average over several orders."""
    random.Random(f"{seed}.{order}").shuffle(items)
    return items


def catalog_cases(identities, workload: str, seed: int,
                  order: int = 0) -> list[tuple[str, dict]]:
    """(identity id, params) pairs of one pass, in a seed-drawn order."""
    cases = []
    for case in identities.catalog():
        if (case.id == "PROP2") != (workload == "bell-series"):
            continue
        for params in case.grid or ({},):
            params = dict(params)
            if workload == "bell-series":
                params["m_terms"] = BELL_M_TERMS
            cases.append((case.id, params))
    return shuffled(cases, seed, order)


def expected_shape(workload: str) -> tuple[int, int]:
    """(cases, families) that a pass must hold."""
    return (CORE_CASES, CORE_FAMILIES) if workload == "catalog-core" else (BELL_CASES, 1)
