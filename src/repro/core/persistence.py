"""Persistence of SEER's internal database.

Section 5.3: the database of known files (about 1 KB per tracked file)
was kept in virtual memory, and the authors note "it would be
relatively simple to modify the system to store the database on disk
... since only a small fraction of the information is active at any
given time."  This module provides that: the correlator's neighbor
tables, recency state and counters serialize to a JSON document, so a
deployment survives restarts without relearning months of behaviour.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Optional

from repro.core.correlator import Correlator
from repro.core.distance import DistanceSummary
from repro.core.parameters import SeerParameters

FORMAT_VERSION = 1


def dump_correlator(correlator: Correlator) -> Dict:
    """Serialize the persistent parts of *correlator* to plain data.

    Per-process streams are deliberately not saved: processes do not
    survive a reboot, which is exactly when state gets reloaded.
    """
    tables = {}
    for file in correlator.store.files():
        table = correlator.store.get(file)
        assert table is not None
        tables[file] = {
            neighbor: {
                "count": entry.count,
                "log_sum": entry.log_sum,
                "linear_sum": entry.linear_sum,
                "last_update": entry.last_update,
            }
            for neighbor, entry in table.entries()
        }
    return {
        "format": FORMAT_VERSION,
        "references_processed": correlator.references_processed,
        "reference_counter": correlator._reference_counter,
        "deletion_counter": correlator._deletion_counter,
        "recency": correlator.recency(),
        "recency_times": correlator.recency_times(),
        "marked_for_deletion": sorted(correlator.store.marked_for_deletion),
        "tables": tables,
    }


def load_correlator(data: Dict[str, Any],
                    parameters: Optional[SeerParameters] = None) -> Correlator:
    """Reconstruct a correlator from :func:`dump_correlator` output."""
    if parameters is None:
        from repro.core.parameters import DEFAULT_PARAMETERS
        parameters = DEFAULT_PARAMETERS
    return restore_correlator(Correlator(parameters), data)


def restore_correlator(correlator: Correlator,
                       data: Dict[str, Any]) -> Correlator:
    """Load :func:`dump_correlator` output into a freshly built
    *correlator* (whatever its engine) and return it."""
    if data.get("format") != FORMAT_VERSION:
        raise ValueError(f"unsupported database format: {data.get('format')!r}")
    correlator.references_processed = data["references_processed"]
    correlator._reference_counter = data["reference_counter"]
    correlator._deletion_counter = data["deletion_counter"]
    correlator._recency = dict(data["recency"])
    correlator._recency_time = dict(data["recency_times"])
    marked = correlator.store.marked_for_deletion
    for path in data["marked_for_deletion"]:
        marked.add(path)
    for file, entries in data["tables"].items():
        table = correlator.store.table(file)
        for neighbor, fields in entries.items():
            summary = DistanceSummary(
                count=fields["count"], log_sum=fields["log_sum"],
                linear_sum=fields["linear_sum"],
                last_update=fields["last_update"])
            # Goes through the loading API so the store's reverse index
            # and the table's worst-entry bound stay consistent.
            table.load_entry(neighbor, summary)
    return correlator


def save_database(correlator: Correlator, path: str) -> None:
    """Write the correlator's database to *path* as JSON."""
    with open(path, "w", encoding="utf-8") as stream:
        json.dump(dump_correlator(correlator), stream)


def load_database(path: str,
                  parameters: Optional[SeerParameters] = None) -> Correlator:
    """Load a correlator database saved by :func:`save_database`."""
    with open(path, "r", encoding="utf-8") as stream:
        return load_correlator(json.load(stream), parameters)
