"""The reference ingest engine: SEER's correlator transcribed directly.

Production runs one ingest engine, the fused columnar arena of
:mod:`repro.core.arena`.  This module keeps the paper's formulation
beside it as the oracle the differential suites and benchmarks
compare against:

* :class:`LifetimeDistanceCalculator` -- Definition 3 (section 3.1.1)
  over one process's reference stream, emitting ``(from, to,
  distance)`` tuples, with the lookback pruning and age-out
  compensation of section 3.1.3 as switchable *seed modes*;
* :class:`NeighborTable` / :class:`NeighborStore` -- the bounded
  per-file neighbor tables of section 3.1.3 over per-entry
  :class:`~repro.core.distance.DistanceSummary` objects;
* :class:`ReferenceEngine` -- one calculator per process feeding the
  store, re-dispatching every distance one at a time;
* :class:`ReferenceCorrelator` -- a :class:`~repro.core.correlator.Correlator`
  whose engine factory builds the above instead of the arena.

Tests and benchmarks import it as ``tests.oracle``; nothing under
``src/`` can reach it.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from repro.core.correlator import Correlator
from repro.core.distance import DistanceSummary, RefKind, Reference
from repro.core.parameters import DEFAULT_PARAMETERS, SeerParameters
from repro.observability import Metrics


# ----------------------------------------------------------------------
# Definition 3: lifetime semantic distance
# ----------------------------------------------------------------------
class LifetimeDistanceCalculator:
    """Definition 3: the measure SEER uses.

    The distance from an open of file A to an open of file B is 0 if A
    has not been closed before B is opened, and the number of
    intervening file opens (including the open of B) otherwise.

    The calculator processes a single reference stream (one process, in
    SEER's per-process formulation of section 4.7).  Each call to
    :meth:`open` reports the distances from previously-opened files to
    the newly-opened one, using the most recent open of each earlier
    file (the "closest pair" rule of footnote 1).

    Bounded state (section 3.1.3): with a lookback window M set, an
    entry whose most recent open has aged more than M opens into the
    past can never again yield an in-window distance (ages only grow,
    and a re-open re-keys the entry afresh), so it is *pruned* the
    first time an open finds it aged out.  This bounds the per-open
    cost by the window size plus the number of currently-open files,
    instead of by every file the stream has ever touched.  At the
    moment an entry ages out, its over-window distance is emitted once
    (*compensate*), so the neighbor store can apply the paper's
    compensation rule -- record distances beyond M as M -- rather than
    silently losing the pair.  Files that are still open are exempt
    from pruning: their distance is 0 regardless of age.

    ``prune=False, compensate=False`` is the historical *seed mode*
    (skip over-window pairs, forget nothing): the baseline of the
    ingest-throughput benchmark and of the prune-equivalence property.
    """

    def __init__(self, lookback_window: Optional[int] = None,
                 prune: bool = True, compensate: bool = True,
                 metrics: Optional[Metrics] = None) -> None:
        self._open_counter = 0
        self._open_count: Dict[str, int] = {}       # currently-open fd count
        self._last_open_index: Dict[str, int] = {}  # most recent open seq
        self._lookback = lookback_window
        self._prune = prune
        self._compensate = compensate
        self._metrics = metrics

    @property
    def opens_processed(self) -> int:
        return self._open_counter

    @property
    def tracked_files(self) -> int:
        """Entries currently held (bounded by M + open files when pruning)."""
        return len(self._last_open_index)

    def open(self, file: str) -> List[Tuple[str, str, int]]:
        """Record an open of *file*; returns ``(from, to, distance)`` pairs."""
        self._open_counter += 1
        index = self._open_counter
        lookback = self._lookback
        open_count = self._open_count
        results: List[Tuple[str, str, int]] = []
        aged: List[str] = []
        compensated = 0
        for other, other_index in self._last_open_index.items():
            if other == file:
                continue
            if other in open_count:
                results.append((other, file, 0))
                continue
            distance = index - other_index
            if lookback is not None and distance > lookback:
                # Outside the update window (section 3.1.3).  Emit the
                # over-window distance once so the neighbor store can
                # record it as the compensation distance, then drop the
                # entry: it can never re-enter the window.
                if self._compensate:
                    results.append((other, file, distance))
                    compensated += 1
                if self._prune:
                    aged.append(other)
                continue
            results.append((other, file, distance))
        if aged:
            for other in aged:
                del self._last_open_index[other]
        if self._metrics is not None and (aged or compensated):
            if aged:
                self._metrics.incr("distance.pruned_entries", len(aged))
            if compensated:
                self._metrics.incr("distance.compensated_pairs", compensated)
        self._last_open_index[file] = index
        open_count[file] = open_count.get(file, 0) + 1
        return results

    def close(self, file: str) -> None:
        """Record a close of *file* (tolerates unbalanced closes)."""
        count = self._open_count.get(file, 0)
        if count > 1:
            self._open_count[file] = count - 1
        elif count == 1:
            # Drop the key entirely so the open-count map stays bounded
            # by the number of *currently* open files.
            del self._open_count[file]

    def point_reference(self, file: str) -> List[Tuple[str, str, int]]:
        """An open immediately followed by a close (sections 3.1.1, 4.8)."""
        results = self.open(file)
        self.close(file)
        return results

    def is_open(self, file: str) -> bool:
        return self._open_count.get(file, 0) > 0

    def forget(self, file: str) -> None:
        """Drop all state about *file* (used after delayed deletion)."""
        self._open_count.pop(file, None)
        self._last_open_index.pop(file, None)

    def rename(self, old: str, new: str) -> None:
        """Re-key a file's stream state across a rename (section 4.8).

        When both names are open (rename over a live destination), the
        descriptors all refer to the surviving identity, so the open
        counts are *summed* -- overwriting would lose open state and
        make the file look closed while descriptors remain.
        """
        if old == new:
            return
        if old in self._open_count:
            self._open_count[new] = (self._open_count.get(new, 0)
                                     + self._open_count.pop(old))
        if old in self._last_open_index:
            index = self._last_open_index.pop(old)
            self._last_open_index[new] = max(
                index, self._last_open_index.get(new, 0))

    def clone(self) -> "LifetimeDistanceCalculator":
        """Copy for a forked child, which inherits the parent's history
        (section 4.7)."""
        copy = LifetimeDistanceCalculator(
            lookback_window=self._lookback, prune=self._prune,
            compensate=self._compensate, metrics=self._metrics)
        copy._open_counter = self._open_counter
        copy._open_count = dict(self._open_count)
        copy._last_open_index = dict(self._last_open_index)
        return copy

    def merge_from(self, child: "LifetimeDistanceCalculator", since: int = 0) -> None:
        """Absorb a child stream's history on process exit (section 4.7).

        *since* is the child's open counter at fork time; entries at or
        below it were inherited from the parent and need no merging.
        The parent's counter advances by the number of opens the child
        performed, and the child's post-fork opens are mapped onto the
        parent's timeline at their relative positions.  This lets SEER
        "detect extended relationships between files referenced by a
        process and by its parent" while still aging the parent's own
        older references correctly.  Open counts do not transfer: the
        kernel drops a dead child's descriptors.
        """
        new_opens = max(0, child._open_counter - since)
        base = self._open_counter
        self._open_counter = base + new_opens
        for file, child_index in child._last_open_index.items():
            if child_index <= since:
                continue
            mapped = base + (child_index - since)
            if mapped > self._last_open_index.get(file, -1):
                self._last_open_index[file] = mapped

    def process_events(self, events: Iterable[Reference]) -> List[Tuple[str, str, int]]:
        """Run a whole event stream; convenience for tests and replay."""
        out: List[Tuple[str, str, int]] = []
        for event in events:
            if event.kind is RefKind.OPEN:
                out.extend(self.open(event.file))
            else:
                self.close(event.file)
        return out


# ----------------------------------------------------------------------
# Bounded per-file neighbor tables (paper section 3.1.3)
#
# Storing all N^2 pairwise distances is prohibitive, so SEER keeps for
# each file only the distances to its n closest neighbors (n = 20).
# When a new distance arrives for a full table, a replacement priority
# is applied:
#
# 1. highest priority: an entry whose file is marked for deletion;
# 2. otherwise the entry with the largest current distance is
#    replaced, ties broken to the smallest name, but only if it is
#    farther than the candidate;
# 3. finally, an aging rule lets very old, inactive entries be replaced
#    by newer ones so the table can track changes in user behaviour and
#    shed incorrectly inferred relationships.
#
# Every table keeps an incrementally-updated worst-entry bound, and the
# store a reverse index of which tables contain each file, exactly as
# the arena does, so the two reach the same state by the same route.
# ----------------------------------------------------------------------
class NeighborTable:
    """The n-nearest-neighbor list of a single file."""

    def __init__(self, parameters: SeerParameters = DEFAULT_PARAMETERS,
                 owner: Optional[str] = None,
                 index: Optional[Dict[str, Set[str]]] = None,
                 dirty: Optional[Set[str]] = None,
                 metrics: Optional[Metrics] = None) -> None:
        self._parameters = parameters
        self._entries: Dict[str, DistanceSummary] = {}
        # Upper bound on the largest summarized distance in the table.
        # Maintained incrementally (means never exceed the largest raw
        # observation); tightened to the exact maximum whenever a
        # replacement decision has to scan anyway.
        self._worst_bound = 0.0
        # Lower bound on the oldest last_update in the table; lets the
        # aging rule skip its scan when nothing can possibly be old
        # enough.  Refreshed to the exact minimum whenever it does scan.
        self._oldest_update = float("inf")
        self._owner = owner
        self._index = index
        # Shared with the owning store: files whose neighbor *set*
        # changed since the incremental reclusterer last drained it.
        # Mean updates to an existing entry do not dirty anything --
        # clustering consumes only the sets.
        self._dirty = dirty
        self._metrics = metrics

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, neighbor: str) -> bool:
        return neighbor in self._entries

    def neighbors(self) -> Set[str]:
        """The set of neighbor file ids currently tracked."""
        return set(self._entries)

    def summary(self, neighbor: str) -> Optional[DistanceSummary]:
        return self._entries.get(neighbor)

    def distance_to(self, neighbor: str) -> float:
        """Current summarized distance to *neighbor* (inf if untracked)."""
        entry = self._entries.get(neighbor)
        if entry is None:
            return float("inf")
        return entry.mean(geometric=self._parameters.use_geometric_mean)

    def items(self) -> Iterator[Tuple[str, float]]:
        geometric = self._parameters.use_geometric_mean
        for neighbor, entry in self._entries.items():
            yield neighbor, entry.mean(geometric=geometric)

    def nearest(self, count: Optional[int] = None) -> List[Tuple[str, float]]:
        """Neighbors sorted by increasing distance."""
        ranked = sorted(self.items(), key=lambda item: (item[1], item[0]))
        return ranked if count is None else ranked[:count]

    def entries(self) -> Iterator[Tuple[str, DistanceSummary]]:
        """All (neighbor, summary) pairs, in insertion order.

        The public persistence surface: both table implementations
        (this one and :class:`~repro.core.arena.ArenaTable`) expose it,
        so serialization never reaches into representation details.
        """
        return iter(self._entries.items())

    def remove(self, neighbor: str) -> None:
        if self._entries.pop(neighbor, None) is not None:
            self._deregister(neighbor)
            self._mark_dirty(neighbor)
            if self._owner is not None:
                self._mark_dirty(self._owner)

    # ------------------------------------------------------------------
    # reverse-index bookkeeping (owned by NeighborStore)
    # ------------------------------------------------------------------
    def _register(self, neighbor: str) -> None:
        if self._index is not None:
            self._index.setdefault(neighbor, set()).add(self._owner)

    def _deregister(self, neighbor: str) -> None:
        if self._index is not None:
            owners = self._index.get(neighbor)
            if owners is not None:
                owners.discard(self._owner)
                if not owners:
                    del self._index[neighbor]

    def _mark_dirty(self, file: str) -> None:
        if self._dirty is not None:
            self._dirty.add(file)

    def observe(self, neighbor: str, distance: float, now: int,
                deletable: Optional[Set[str]] = None) -> bool:
        """Record one observed distance to *neighbor* at reference-time *now*.

        Returns True if the observation was incorporated (the update
        either hit an existing entry, fit in free space, or won the
        replacement priority), False if it was discarded.
        """
        # Compensation (section 3.1.3): distances beyond M are recorded
        # as M, partially adjusting for the truncated window.
        if distance > self._parameters.lookback_window:
            distance = float(self._parameters.compensation_distance)
            if self._metrics is not None:
                self._metrics.incr("neighbor.compensations")

        entry = self._entries.get(neighbor)
        if entry is not None:
            entry.add(distance, now=now)
            if distance > self._worst_bound:
                self._worst_bound = distance
            return True
        if len(self._entries) < self._parameters.max_neighbors:
            fresh = DistanceSummary()
            fresh.add(distance, now=now)
            self._entries[neighbor] = fresh
            self._register(neighbor)
            if self._owner is not None:
                self._mark_dirty(self._owner)
            if distance > self._worst_bound:
                self._worst_bound = distance
            if now < self._oldest_update:
                self._oldest_update = now
            return True
        victim = self._choose_victim(distance, now, deletable or set())
        if victim is None:
            if self._metrics is not None:
                self._metrics.incr("neighbor.rejections")
            return False
        del self._entries[victim]
        self._deregister(victim)
        self._mark_dirty(victim)
        if self._owner is not None:
            self._mark_dirty(self._owner)
        fresh = DistanceSummary()
        fresh.add(distance, now=now)
        self._entries[neighbor] = fresh
        self._register(neighbor)
        if distance > self._worst_bound:
            self._worst_bound = distance
        if now < self._oldest_update:
            self._oldest_update = now
        if self._metrics is not None:
            self._metrics.incr("neighbor.evictions")
        return True

    def _choose_victim(self, candidate_distance: float, now: int,
                       deletable: Set[str]) -> Optional[str]:
        """Apply the three-step replacement priority of section 3.1.3."""
        # 1. A closely related file marked for deletion.
        if deletable:
            marked = [name for name in self._entries if name in deletable]
            if marked:
                return min(marked)  # deterministic among marked entries
        # 2. The entry with the largest current distance, replaced only
        #    if farther than the candidate.  Ties break to the smallest
        #    name: the choice must be a pure function of table state so
        #    the columnar engine evicts the same victim as this
        #    reference path.  If
        #    the incremental bound already rules a replacement out, the
        #    exact maximum cannot exceed the candidate either and the
        #    scan is skipped entirely.
        if self._worst_bound > candidate_distance:
            geometric = self._parameters.use_geometric_mean
            largest = max(entry.mean(geometric=geometric)
                          for entry in self._entries.values())
            self._worst_bound = largest   # tighten while we know it
            if largest > candidate_distance:
                return min(name for name, entry in self._entries.items()
                           if entry.mean(geometric=geometric) == largest)
        elif self._metrics is not None:
            self._metrics.incr("neighbor.bound_skips")
        # 3. Aging: a very old, inactive entry may be replaced anyway.
        # _oldest_update never exceeds the true minimum last_update, so
        # when even it is within the threshold no entry can be aged and
        # the scan is skipped; when it does scan, the exact minimum is
        # recorded so subsequent calls skip until real aging recurs.
        threshold = self._parameters.aging_threshold
        if now - self._oldest_update > threshold:
            aged_best = None
            true_oldest = float("inf")
            for name, entry in self._entries.items():
                last = entry.last_update
                if last < true_oldest:
                    true_oldest = last
                if now - last > threshold:
                    if aged_best is None or (last, name) < aged_best:
                        aged_best = (last, name)
            self._oldest_update = true_oldest
            if aged_best is not None:
                return aged_best[1]
        return None

    def load_entry(self, neighbor: str, summary: DistanceSummary) -> None:
        """Install a deserialized entry, keeping index and bound valid."""
        if neighbor not in self._entries:
            self._register(neighbor)
        self._entries[neighbor] = summary
        if self._owner is not None:
            self._mark_dirty(self._owner)
        mean = summary.mean(geometric=self._parameters.use_geometric_mean)
        if mean > self._worst_bound:
            self._worst_bound = mean
        if summary.last_update < self._oldest_update:
            self._oldest_update = summary.last_update


class NeighborStore:
    """All per-file neighbor tables, plus the deletion-mark set."""

    def __init__(self, parameters: SeerParameters = DEFAULT_PARAMETERS,
                 metrics: Optional[Metrics] = None) -> None:
        self._parameters = parameters
        self._tables: Dict[str, NeighborTable] = {}
        self._metrics = metrics
        self.marked_for_deletion: Set[str] = set()
        # Reverse index: file -> owners whose tables list it as a
        # neighbor.  Renames and removals touch only those tables.
        self._containing: Dict[str, Set[str]] = {}
        # Files whose neighbor sets changed since the last drain; the
        # incremental reclusterer's work queue (repro.core.recluster).
        self._dirty: Set[str] = set()

    def __len__(self) -> int:
        return len(self._tables)

    def __contains__(self, file: str) -> bool:
        return file in self._tables

    def table(self, file: str) -> NeighborTable:
        existing = self._tables.get(file)
        if existing is None:
            existing = NeighborTable(self._parameters, owner=file, index=self._containing,
                                     dirty=self._dirty,
                                     metrics=self._metrics)
            self._tables[file] = existing
            self._dirty.add(file)   # a new (even empty) clustering key
        return existing

    def get(self, file: str) -> Optional[NeighborTable]:
        return self._tables.get(file)

    def files(self) -> List[str]:
        return list(self._tables)

    def containing(self, file: str) -> Set[str]:
        """Owners whose neighbor lists currently include *file*."""
        return set(self._containing.get(file, ()))

    def observe(self, from_file: str, to_file: str, distance: float, now: int) -> bool:
        """Record an observed distance from *from_file* to *to_file*."""
        return self.table(from_file).observe(
            to_file, distance, now, deletable=self.marked_for_deletion)

    def rename_file(self, old: str, new: str) -> None:
        """Carry a file's identity across a rename (section 4.8).

        Its own table moves to the new name and every table listing the
        old name is re-keyed (found through the reverse index, not by
        scanning the store), so relationship information survives
        idioms like writing ``foo.c.tmp`` then renaming it over
        ``foo.c``.  A rename over an existing file destroys the
        destination's identity, so its table is dropped; and no table
        may end up listing its own file, so entries that a re-key would
        turn into self-loops are discarded.
        """
        if old == new:
            return
        moved = self._tables.pop(old, None)
        if moved is not None:
            self._dirty.add(old)
            self._dirty.add(new)
            displaced = self._tables.pop(new, None)
            if displaced is not None:
                for neighbor in displaced.neighbors():
                    displaced._deregister(neighbor)
                    self._dirty.add(neighbor)
            for neighbor in moved.neighbors():
                moved._deregister(neighbor)
            # The moved table must not list its own new name.
            moved._entries.pop(new, None)
            moved._owner = new
            self._tables[new] = moved
            for neighbor in moved.neighbors():
                moved._register(neighbor)
        # Re-key only the tables that actually list the old name.
        for owner in self._containing.pop(old, set()):
            table = self._tables.get(owner)
            if table is None:
                continue
            entry = table._entries.pop(old, None)
            if entry is None:
                continue
            self._dirty.add(owner)
            self._dirty.add(old)
            if owner == new:
                continue   # re-keying would create a self-entry: drop
            if new not in table._entries:
                table._entries[new] = entry
                table._register(new)
        if old in self.marked_for_deletion:
            self.marked_for_deletion.discard(old)
            self.marked_for_deletion.add(new)

    def remove_file(self, file: str) -> None:
        """Drop *file*'s table and purge it from every neighbor list."""
        table = self._tables.pop(file, None)
        if table is not None:
            for neighbor in table.neighbors():
                table._deregister(neighbor)
                self._dirty.add(neighbor)
        for owner in self._containing.pop(file, set()):
            other = self._tables.get(owner)
            if other is not None:
                other._entries.pop(file, None)
                self._dirty.add(owner)
        self._dirty.add(file)
        self.marked_for_deletion.discard(file)

    def neighbor_set(self, file: str) -> Set[str]:
        """One file's current neighbor set (empty if untracked)."""
        table = self._tables.get(file)
        return table.neighbors() if table is not None else set()

    def drain_dirty(self) -> Set[str]:
        """Files whose neighbor sets changed since the last drain."""
        drained = set(self._dirty)
        self._dirty.clear()
        return drained

    def neighbor_lists(self, now: Optional[int] = None,
                       stale_after: Optional[int] = None) -> Dict[str, Set[str]]:
        """File -> set of tracked neighbors; the clustering input.

        With *now* and *stale_after*, entries not reinforced within the
        last *stale_after* references are omitted -- the second half of
        the paper's aging story (section 3.1.3): inferred relationships
        that stop recurring are removed over time, so long-dormant
        clusters dissolve instead of accreting junk forever.
        """
        if now is None or stale_after is None:
            return {file: table.neighbors()
                    for file, table in self._tables.items()}
        cutoff = now - stale_after
        lists: Dict[str, Set[str]] = {}
        for file, table in self._tables.items():
            fresh = {neighbor for neighbor, entry in table._entries.items()
                     if entry.last_update >= cutoff}
            if fresh:
                lists[file] = fresh
        return lists


# ----------------------------------------------------------------------
# The reference engine
# ----------------------------------------------------------------------
class ReferenceEngine:
    """The oracle ingest engine: per-pid calculators over a NeighborStore.

    Distances are materialized as ``(from, to, distance)`` tuples and
    re-dispatched through ``NeighborStore.observe`` one at a time --
    exactly the paper's formulation, at per-entry object cost.  The
    columnar engine must match this path's state bit for bit.
    """

    def __init__(self, store: NeighborStore, parameters: SeerParameters,
                 metrics: Metrics, prune: bool = True,
                 compensate: bool = True) -> None:
        self._store = store
        self._parameters = parameters
        self._metrics = metrics
        self._prune = prune
        self._compensate = compensate
        self._calculators: Dict[int, LifetimeDistanceCalculator] = {}

    def _new_calculator(self) -> LifetimeDistanceCalculator:
        return LifetimeDistanceCalculator(
            lookback_window=self._parameters.lookback_window,
            prune=self._prune, compensate=self._compensate,
            metrics=self._metrics)

    def _calculator(self, pid: int) -> LifetimeDistanceCalculator:
        calculator = self._calculators.get(pid)
        if calculator is None:
            calculator = self._calculators[pid] = self._new_calculator()
        return calculator

    def ensure(self, pid: int) -> None:
        self._calculator(pid)

    def fork(self, pid: int, ppid: int) -> int:
        if ppid:
            calculator = self._calculator(ppid).clone()
        else:
            calculator = self._new_calculator()
        self._calculators[pid] = calculator
        return calculator.opens_processed

    def exit(self, pid: int, merge_ppid: int, since: int) -> None:
        calculator = self._calculators.pop(pid, None)
        if calculator is None or not merge_ppid:
            return
        parent = self._calculators.get(merge_ppid)
        if parent is not None:
            parent.merge_from(calculator, since=since)

    def open(self, pid: int, path: str, now: int) -> None:
        self._ingest(self._calculator(pid).open(path), now)

    def point(self, pid: int, path: str, now: int) -> None:
        self._ingest(self._calculator(pid).point_reference(path), now)

    def close(self, pid: int, path: str) -> None:
        self._calculator(pid).close(path)

    def rename(self, old: str, new: str) -> None:
        for calculator in self._calculators.values():
            calculator.rename(old, new)

    def forget(self, path: str) -> None:
        for calculator in self._calculators.values():
            calculator.forget(path)

    def _ingest(self, distances: List[Tuple[str, str, int]], now: int) -> None:
        if distances:
            self._metrics.incr("correlator.distances_ingested", len(distances))
        for from_file, to_file, distance in distances:
            self._store.observe(from_file, to_file, float(distance), now=now)


# ----------------------------------------------------------------------
# The oracle correlator
# ----------------------------------------------------------------------
class ReferenceCorrelator(Correlator):
    """A correlator whose engine is the reference transcription.

    ``prune=False, compensate=False`` selects the calculators' seed
    mode; the defaults match what the production engine always does.
    """

    def __init__(self, parameters: SeerParameters = DEFAULT_PARAMETERS,
                 metrics: Optional[Metrics] = None, prune: bool = True,
                 compensate: bool = True) -> None:
        self._prune = prune
        self._compensate = compensate
        super().__init__(parameters, metrics=metrics)

    def _build_engine(self):
        store = NeighborStore(self._parameters, metrics=self.metrics)
        return store, ReferenceEngine(store, self._parameters, self.metrics,
                                      prune=self._prune,
                                      compensate=self._compensate)
