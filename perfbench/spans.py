"""Span recorder for the traced benchmark run.

The traced run wraps the public functions of each layer (``LAYERS``)
from outside the program: nothing under ``src/`` is edited.  Every
wrapped call records one span -- name, start, end and the span that was
open when it started (its parent) -- into flat in-memory arrays.  The
spans are written out when the process ends or, in a pool worker, each
time a top-level span ends, because the pool terminates its workers
without running exit handlers.  :func:`roll_up` turns the dumps into
the per-layer metrics.

A span's self time is its duration minus the durations of its direct
children.  Wrapped code runs on one thread per process (without a
checkpoint store the daemon's IO thread runs none), so children nest
inside their parents and the self times of one process add up exactly
to the durations of its root spans.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from array import array
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

#: (module, qualified name, span name).  The layer of a span is the
#: part of its name before the first dot.
LAYERS: List[Tuple[str, str, str]] = [
    ("repro.workload.generator", "generate_machine_trace", "workload.generate"),
    ("repro.fs.filesystem", "FileSystem.stat", "fs.stat"),
    ("repro.fs.filesystem", "FileSystem.exists", "fs.exists"),
    ("repro.fs.filesystem", "FileSystem.kind_of", "fs.kind_of"),
    ("repro.fs.filesystem", "FileSystem.size_of", "fs.size_of"),
    ("repro.observer.observer", "Observer.handle_record", "observer.record"),
    ("repro.core.correlator", "Correlator.handle", "correlator.handle"),
    ("repro.core.correlator", "Correlator.build_clusters", "cluster.build"),
    ("repro.core.hoard", "HoardManager.build", "hoard.build"),
    ("repro.core.hoard", "HoardManager.miss_free_size", "hoard.miss_free"),
    ("repro.baselines.lru", "lru_miss_free_size", "baselines.lru"),
    ("repro.baselines.spy_utility", "SpyUtilityManager.on_fork", "baselines.spy"),
    ("repro.baselines.spy_utility", "SpyUtilityManager.on_exec", "baselines.spy"),
    ("repro.baselines.spy_utility", "SpyUtilityManager.on_access", "baselines.spy"),
    ("repro.baselines.spy_utility", "SpyUtilityManager.on_exit", "baselines.spy"),
    ("repro.baselines.spy_utility", "SpyUtilityManager.miss_free_size", "baselines.spy"),
    ("repro.baselines.coda_priority", "CodaPriorityManager.reference", "baselines.coda"),
    ("repro.baselines.coda_priority", "CodaPriorityManager.miss_free_size", "baselines.coda"),
    ("repro.simulation.missfree", "simulate_miss_free", "missfree.simulate"),
    ("repro.simulation.live", "simulate_live_usage", "live.simulate"),
    ("repro.replication.base", "ReplicationSystem.fill_hoard", "replication.fill"),
    ("repro.replication.base", "ReplicationSystem.synchronize", "replication.sync"),
    ("repro.replication.base", "ReplicationSystem.access", "replication.access"),
    ("repro.simulation.runner", "run_shards", "runner.run"),
    ("repro.simulation.runner", "_run_shard", "runner.cell"),
    ("repro.simulation.store", "JsonDirStore.put", "store.put"),
    ("repro.simulation.store", "SqliteStore.put", "store.put"),
    ("repro.simulation.store", "JsonDirStore.bytes_on_disk", "store.size"),
    ("repro.simulation.store", "SqliteStore.bytes_on_disk", "store.size"),
    ("repro.analysis.figures", "render_figure2", "analysis.render"),
    ("repro.analysis.population", "PopulationAggregate.consume", "analysis.consume"),
    ("repro.analysis.population", "render_population_report", "analysis.render"),
    ("repro.service.protocol", "decode_line", "protocol.decode_line"),
    ("repro.service.protocol", "references_from_wire", "protocol.decode_events"),
    ("repro.service.protocol", "encode", "protocol.encode"),
    ("repro.service.protocol", "selection_to_data", "protocol.payload"),
    ("repro.service.tenant", "TenantActor.apply", "tenant.apply"),
    ("repro.service.tenant", "TenantActor.hoard_fill", "tenant.fill"),
    ("repro.service.daemon", "HoardDaemon._process", "daemon.process"),
]


class Recorder:
    """The spans and boundary counters of one process."""

    def __init__(self, out_dir: str) -> None:
        self.out_dir = out_dir
        self.root_pid = os.getpid()
        self.names: List[str] = []
        self._name_index: Dict[str, int] = {}
        self.daemon: Any = None
        self._fresh_process()

    def _fresh_process(self) -> None:
        self.pid = os.getpid()
        self.counts: Dict[str, float] = {}
        self.queue_waits: List[float] = []
        self.written = 0          # spans of this process already dumped
        self._clear()

    def _clear(self) -> None:
        self.name = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.stack: List[int] = []

    def name_id(self, name: str) -> int:
        index = self._name_index.get(name)
        if index is None:
            index = self._name_index[name] = len(self.names)
            self.names.append(name)
        return index

    def count(self, key: str, value: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def begin(self, name: str) -> int:
        """Open a span; children opened before :meth:`finish` nest in it."""
        sid = len(self.name)
        self.name.append(self.name_id(name))
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.start.append(time.perf_counter())
        self.end.append(0.0)
        self.stack.append(sid)
        return sid

    def finish(self, sid: int) -> None:
        self.end[sid] = time.perf_counter()
        self.stack.pop()

    def record(self, name: str, start: float, end: float) -> None:
        """A closed span timed by the caller."""
        self.name.append(self.name_id(name))
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.start.append(start)
        self.end.append(end)

    def dump(self) -> None:
        """Append this process's closed spans to its dump and clear them.

        Parent indices are written relative to the whole process, so a
        worker that dumps once per top-level span still yields one
        consistent array.
        """
        if self.daemon is not None:
            metrics = self.daemon.metrics
            self.counts["daemon.queue_full_waits"] = \
                metrics.counter("service.queue_full_waits")
            self.counts["daemon.errors"] = metrics.counter("service.errors")
        parent = np.frombuffer(self.parent, dtype=np.int64)
        rows = np.stack([np.frombuffer(self.name, dtype=np.int32),
                         np.where(parent >= 0, parent + self.written, -1),
                         np.frombuffer(self.start),
                         np.frombuffer(self.end)], axis=1).astype(np.float64)
        base = os.path.join(self.out_dir, f"spans-{self.pid}")
        with open(base + ".bin", "ab") as stream:
            rows.tofile(stream)
        with open(base + ".json", "w", encoding="utf-8") as stream:
            json.dump({"names": self.names, "counts": self.counts,
                       "queue_waits": self.queue_waits,
                       "root": self.pid == self.root_pid}, stream)
        self.written += len(rows)
        self._clear()


def _wrap(recorder: Recorder, fn: Callable, span: str) -> Callable:
    """*fn* recording one span per call, plus its boundary counter."""
    name_id = recorder.name_id(span)
    clock = time.perf_counter
    count = _COUNTERS.get(span)

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        stack = recorder.stack
        sid = len(recorder.name)
        recorder.name.append(name_id)
        recorder.parent.append(stack[-1] if stack else -1)
        recorder.start.append(0.0)
        recorder.end.append(0.0)
        stack.append(sid)
        before = args[0].references_forwarded if span == "observer.record" \
            else 0
        start = clock()
        try:
            result = fn(*args, **kwargs)
        finally:
            recorder.end[sid] = clock()
            recorder.start[sid] = start
            stack.pop()
        if count is not None:
            count(recorder, args, result, before)
        if not stack and recorder.pid != recorder.root_pid:
            recorder.dump()
        return result

    return wrapper


# -- counters taken at the layer boundaries ----------------------------------
def _count_records(recorder, args, result, before):
    recorder.count("workload.records", len(result.records))


def _count_forwarded(recorder, args, result, before):
    recorder.count("observer.refs_out", args[0].references_forwarded - before)


def _count_store_size(recorder, args, result, before):
    recorder.counts["store.bytes"] = result


def _count_bytes_in(recorder, args, result, before):
    recorder.count("protocol.bytes_in", len(args[0]))


def _count_bytes_out(recorder, args, result, before):
    recorder.count("protocol.bytes_out", len(result))


def _count_applied(recorder, args, result, before):
    recorder.count("tenant.events_applied", result)


_COUNTERS: Dict[str, Callable] = {
    "workload.generate": _count_records,
    "observer.record": _count_forwarded,
    "store.size": _count_store_size,
    "protocol.decode_line": _count_bytes_in,
    "protocol.encode": _count_bytes_out,
    "tenant.apply": _count_applied,
}


def _stamp_queue_waits(recorder: Recorder) -> None:
    """Stamp inbox items at ``submit``; take their wait at ``_process``.

    ``submit`` is a coroutine, so it is not a span: the stamp rides on
    the item.  The wait includes time blocked on a full inbox.
    """
    from repro.service.daemon import HoardDaemon
    submit = HoardDaemon.submit
    process = HoardDaemon._process
    clock = time.perf_counter

    @functools.wraps(submit)
    async def stamped_submit(self, actor, item):
        recorder.daemon = self
        item.bench_enqueued = clock()
        await submit(self, actor, item)

    @functools.wraps(process)
    def timed_process(self, actor, item):
        recorder.queue_waits.append(clock() - item.bench_enqueued)
        return process(self, actor, item)

    HoardDaemon.submit = stamped_submit
    HoardDaemon._process = timed_process


def install(recorder: Recorder) -> None:
    """Wrap every target in ``LAYERS``.

    A module-level function is also replaced in every loaded module
    that imported it by name, so call sites bound before the wrappers
    went in record spans too.
    """
    _stamp_queue_waits(recorder)
    for module_name, qualname, span in LAYERS:
        module = importlib.import_module(module_name)
        owner: Any = module
        *path, attr = qualname.split(".")
        for part in path:
            owner = getattr(owner, part)
        original = owner.__dict__[attr]
        replacement = _wrap(recorder, original, span)
        setattr(owner, attr, replacement)
        if owner is not module:
            continue
        for other in list(sys.modules.values()):
            namespace = getattr(other, "__dict__", None)
            if other is module or not isinstance(namespace, dict):
                continue
            for key, value in list(namespace.items()):
                if value is original:
                    setattr(other, key, replacement)
    os.register_at_fork(after_in_child=recorder._fresh_process)


# -- roll-up ------------------------------------------------------------------
def _load(out_dir: str) -> List[Dict[str, Any]]:
    processes = []
    for entry in sorted(os.listdir(out_dir)):
        if entry.startswith("spans-") and entry.endswith(".json"):
            base = os.path.join(out_dir, entry[:-len(".json")])
            with open(base + ".json", encoding="utf-8") as stream:
                meta = json.load(stream)
            meta["rows"] = np.fromfile(base + ".bin",
                                       dtype=np.float64).reshape(-1, 4)
            processes.append(meta)
    return processes


def _percentile_ms(values: List[float], q: float) -> float:
    return float(np.percentile(values, q)) * 1000 if values else 0.0


#: Per-layer metric names and units, in report order.
PER_LAYER: List[Tuple[str, str]] = [
    ("startup.import_s", "s"),
    ("workload.calls", "count"), ("workload.self_s", "s"),
    ("workload.records", "count"),
    ("fs.calls", "count"), ("fs.self_s", "s"),
    ("observer.records_in", "count"), ("observer.refs_out", "count"),
    ("observer.forward_ratio", "ratio"), ("observer.self_s", "s"),
    ("correlator.refs", "count"), ("correlator.self_s", "s"),
    ("cluster.builds", "count"), ("cluster.self_s", "s"),
    ("cluster.build_p50_ms", "ms"), ("cluster.build_p99_ms", "ms"),
    ("hoard.calls", "count"), ("hoard.self_s", "s"),
    ("baselines.self_s", "s"),
    ("missfree.self_s", "s"), ("live.self_s", "s"),
    ("replication.calls", "count"), ("replication.self_s", "s"),
    ("runner.cells", "count"), ("runner.pool_busy_share", "ratio"),
    ("store.puts", "count"), ("store.put_s", "s"), ("store.bytes", "bytes"),
    ("analysis.self_s", "s"),
    ("protocol.frames_in", "count"), ("protocol.bytes_in", "bytes"),
    ("protocol.decode_s", "s"), ("protocol.bytes_out", "bytes"),
    ("protocol.encode_s", "s"),
    ("tenant.events_applied", "count"), ("tenant.apply_s", "s"),
    ("tenant.fills", "count"), ("tenant.fill_s", "s"),
    ("daemon.queue_wait_p50_ms", "ms"), ("daemon.queue_wait_p99_ms", "ms"),
    ("daemon.queue_full_waits", "count"), ("daemon.errors", "count"),
    ("trace.wall_s", "s"), ("trace.untraced_wall_s", "s"),
    ("trace.overhead_s", "s"), ("trace.overhead_share", "ratio"),
    ("trace.self_sum_s", "s"), ("trace.other_s", "s"),
    ("trace.spans", "count"),
]


def roll_up(out_dir: str) -> Dict[str, Any]:
    """Per-layer metrics from every dump under *out_dir*.

    ``trace.self_sum_s`` is the self time of every span of the traced
    process (workers excluded); it equals the summed duration of that
    process's root spans, of which ``trace.other_s`` is the part no
    wrapped layer claims.  Worker processes report their self times into
    the same layer totals, so on a pooled workload the layer totals add
    up to the main process's roots plus the workers' busy time.
    """
    self_by: Dict[str, float] = {}
    incl_by: Dict[str, float] = {}
    calls_by: Dict[str, int] = {}
    counts: Dict[str, float] = {}
    builds: List[float] = []
    queue_waits: List[float] = []
    cell_busy = 0.0
    cell_pids = 0
    runner_wall = 0.0
    main_self = 0.0
    spans = 0
    for process in _load(out_dir):
        rows = process["rows"]
        names = process["names"]
        spans += len(rows)
        for key, value in process["counts"].items():
            counts[key] = counts.get(key, 0) + value
        queue_waits.extend(process["queue_waits"])
        if not len(rows):
            continue
        name = rows[:, 0].astype(np.int64)
        parent = rows[:, 1].astype(np.int64)
        duration = rows[:, 3] - rows[:, 2]
        nested = parent >= 0
        own = duration - np.bincount(parent[nested], weights=duration[nested],
                                     minlength=len(rows))
        self_sum = np.bincount(name, weights=own, minlength=len(names))
        incl_sum = np.bincount(name, weights=duration, minlength=len(names))
        calls = np.bincount(name, minlength=len(names))
        for index, span in enumerate(names):
            self_by[span] = self_by.get(span, 0.0) + float(self_sum[index])
            incl_by[span] = incl_by.get(span, 0.0) + float(incl_sum[index])
            calls_by[span] = calls_by.get(span, 0) + int(calls[index])
        if "cluster.build" in names:
            builds.extend(duration[name == names.index("cluster.build")])
        if process["root"]:
            main_self = float(own.sum())
            if "runner.run" in names:
                runner_wall = float(incl_sum[names.index("runner.run")])
        elif "runner.cell" in names:
            cell_busy += float(incl_sum[names.index("runner.cell")])
            cell_pids += 1
    if cell_pids == 0:   # serial runner: the cells ran in the main process
        cell_busy = incl_by.get("runner.cell", 0.0)
        cell_pids = 1

    def layer(prefix: str, table: Dict[str, float]) -> float:
        return sum(value for span, value in table.items()
                   if span.split(".")[0] == prefix)

    records_in = calls_by.get("observer.record", 0)
    refs_out = counts.get("observer.refs_out", 0)
    metrics = {
        "startup.import_s": incl_by.get("startup.import", 0.0),
        "workload.calls": layer("workload", calls_by),
        "workload.self_s": layer("workload", self_by),
        "workload.records": counts.get("workload.records", 0),
        "fs.calls": layer("fs", calls_by),
        "fs.self_s": layer("fs", self_by),
        "observer.records_in": records_in,
        "observer.refs_out": refs_out,
        "observer.forward_ratio": refs_out / records_in if records_in else 0.0,
        "observer.self_s": layer("observer", self_by),
        "correlator.refs": calls_by.get("correlator.handle", 0),
        "correlator.self_s": layer("correlator", self_by),
        "cluster.builds": len(builds),
        "cluster.self_s": layer("cluster", self_by),
        "cluster.build_p50_ms": _percentile_ms(builds, 50),
        "cluster.build_p99_ms": _percentile_ms(builds, 99),
        "hoard.calls": layer("hoard", calls_by),
        "hoard.self_s": layer("hoard", self_by),
        "baselines.self_s": layer("baselines", self_by),
        "missfree.self_s": layer("missfree", self_by),
        "live.self_s": layer("live", self_by),
        "replication.calls": layer("replication", calls_by),
        "replication.self_s": layer("replication", self_by),
        "runner.cells": calls_by.get("runner.cell", 0),
        "runner.pool_busy_share": (cell_busy / (runner_wall * cell_pids)
                                   if runner_wall else 0.0),
        "store.puts": calls_by.get("store.put", 0),
        "store.put_s": incl_by.get("store.put", 0.0),
        "store.bytes": counts.get("store.bytes", 0),
        "analysis.self_s": layer("analysis", self_by),
        "protocol.frames_in": calls_by.get("protocol.decode_line", 0),
        "protocol.bytes_in": counts.get("protocol.bytes_in", 0),
        "protocol.decode_s": (self_by.get("protocol.decode_line", 0.0)
                              + self_by.get("protocol.decode_events", 0.0)),
        "protocol.bytes_out": counts.get("protocol.bytes_out", 0),
        "protocol.encode_s": self_by.get("protocol.encode", 0.0),
        "tenant.events_applied": counts.get("tenant.events_applied", 0),
        "tenant.apply_s": incl_by.get("tenant.apply", 0.0),
        "tenant.fills": calls_by.get("tenant.fill", 0),
        "tenant.fill_s": incl_by.get("tenant.fill", 0.0),
        "daemon.queue_wait_p50_ms": _percentile_ms(queue_waits, 50),
        "daemon.queue_wait_p99_ms": _percentile_ms(queue_waits, 99),
        "daemon.queue_full_waits": counts.get("daemon.queue_full_waits", 0),
        "daemon.errors": counts.get("daemon.errors", 0),
        "trace.self_sum_s": main_self,
        "trace.other_s": self_by.get("process.main", 0.0),
        "trace.spans": spans,
    }
    samples = {"cluster.build": len(builds), "daemon.queue_wait":
               len(queue_waits)}
    return {"metrics": metrics, "samples": samples,
            "self_s": {span: self_by[span] for span in sorted(self_by)}}
