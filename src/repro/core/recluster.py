"""Incremental shared-neighbor reclustering: O(dirty), byte-identical.

Between hoard walks only a small fraction of neighbor lists change, yet
``Correlator.build_clusters`` used to re-run the full Jarvis-Patrick
pass -- every examined pair's set intersection recomputed -- on every
call.  This module reclusters only the *dirtied neighborhoods* while
producing **exactly** the ClusterSet a full pass would: same member
sets, same cluster ids, same internal ordering.  Exactness matters
because hoard ranking breaks priority ties by cluster id
(:func:`repro.core.hoard.rank_clusters`), and because the golden
figure-2 outputs are byte-compared in CI.

Why the splice is exact (the replay argument)
---------------------------------------------

The full pass (:meth:`SharedNeighborClustering.full_pass`, assembled
by :func:`~repro.core.clustering.assemble`) is built from pieces that
are all *regional* in character:

* A pair's effective count depends only on the two endpoint neighbor
  sets (plus static relations/directory distance), so a pair's count
  can change only if an endpoint's list changed -- i.e. an endpoint is
  dirty.
* Phase-1 edges (count >= kn) therefore appear or disappear only
  incident to dirty files; connected components not reachable from a
  dirty file are unchanged.
* The union-find root of a component is a pure function of the sorted
  sequence of its internal qualifying pairs: unions never cross
  components, and the global pair scan is lexicographically sorted, so
  replaying a component's pairs in sorted order yields the identical
  root.  Cluster ids are assigned by iterating roots in sorted order
  -- identical roots in, identical ids out.
* Phase-2 qualification (kf <= count < kn, distinct components) of a
  pair with both endpoints outside the recomputed region is untouched:
  its count is unchanged and both endpoint components are unchanged.

So the splice: take the drained dirty set, close it over neighbor
lists, reverse index, relations and previous components into a region;
replay the region's pairs in sorted order; keep every component and
phase-2 pair outside the region from the previous build's bookkeeping;
reassemble through the same ``assemble``.  Any observation that
contradicts the invariants above -- a qualifying pair crossing the
region boundary, a file with no recorded component -- falls back to a
full rebuild (counted in ``recluster.full_builds``) rather than risking
drift.  That fallback is the very full pass the splice is checked
against: the equivalence suite and the interleaved-build property
tests in ``tests/core/`` compare every splice with
``SharedNeighborClustering.cluster()``, which is ``assemble`` over
``full_pass``.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.core.clustering import (ClusterSet, Relation,
                                   SharedNeighborClustering, assemble, find,
                                   union)
from repro.core.parameters import SeerParameters
from repro.observability import Metrics

#: Regions larger than this fraction of the population fall back to a
#: full rebuild: the splice's per-pair savings no longer pay for its
#: bookkeeping, and the full path is the simpler code to trust.
_REGION_FRACTION = 0.5
_REGION_MINIMUM = 64


class _FullRebuild(Exception):
    """Internal: an invariant the splice relies on did not hold."""


class IncrementalClusterer:
    """Maintains clustering bookkeeping across ``build_clusters`` calls.

    State kept between builds (all keyed on the *filtered* neighbor
    lists the correlator clusters over):

    * ``_comp_of``: file -> union-find root of its phase-1 component;
    * ``_components``: root -> members in globally sorted order;
    * ``_phase2``: the oriented pairs that qualified for phase-2
      overlap (kf <= count < kn, distinct components);
    * the relations / directory-distance function / parameters the
      bookkeeping was computed under -- any change forces a full
      rebuild, since counts shift globally.
    """

    def __init__(self, metrics: Optional[Metrics] = None) -> None:
        self._metrics = metrics
        self._comp_of: Dict[str, str] = {}
        self._components: Dict[str, List[str]] = {}
        self._phase2: Set[Tuple[str, str]] = set()
        self._prev_relations: Optional[Tuple[Relation, ...]] = None
        self._prev_distance_fn: Optional[Callable[[str, str], float]] = None
        self._prev_parameters: Optional[SeerParameters] = None

    # ------------------------------------------------------------------
    # public entry point
    # ------------------------------------------------------------------
    def build(self, neighbor_lists: Dict[str, Set[str]],
              dirty: Set[str],
              parameters: SeerParameters,
              relations: Sequence[Relation] = (),
              directory_distance: Optional[Callable[[str, str], float]] = None,
              owners_of: Optional[Callable[[str], Set[str]]] = None) -> ClusterSet:
        """Cluster *neighbor_lists*, splicing in only dirty regions.

        *dirty* is the store's drained dirty set (files whose neighbor
        sets changed since the previous build, plus any exclude-set
        deltas the caller folded in).  *owners_of* resolves the reverse
        index (file -> owners whose lists contain it); without it every
        build is full.
        """
        algorithm = SharedNeighborClustering(
            neighbor_lists, parameters=parameters, relations=relations,
            directory_distance=directory_distance)
        relations_tuple = tuple(relations)
        fresh = (self._prev_relations is None
                 or self._prev_relations != relations_tuple
                 or self._prev_distance_fn is not directory_distance
                 or self._prev_parameters != parameters
                 or owners_of is None)
        if not fresh:
            try:
                self._splice(algorithm, neighbor_lists, dirty, owners_of)
                if self._metrics is not None:
                    self._metrics.incr("recluster.incremental_builds")
                return assemble(self._components, self._comp_of,
                                self._phase2)
            except _FullRebuild:
                pass
        self._components, self._comp_of, self._phase2 = algorithm.full_pass()
        self._prev_relations = relations_tuple
        self._prev_distance_fn = directory_distance
        self._prev_parameters = parameters
        if self._metrics is not None:
            self._metrics.incr("recluster.full_builds")
        return assemble(self._components, self._comp_of, self._phase2)

    # ------------------------------------------------------------------
    # the incremental splice
    # ------------------------------------------------------------------
    def _splice(self, algorithm: SharedNeighborClustering,
                neighbor_lists: Dict[str, Set[str]],
                dirty: Set[str],
                owners_of: Callable[[str], Set[str]]) -> None:
        """Recompute the bookkeeping of the region *dirty* touches."""
        if not dirty:
            return
        relation_strength = algorithm.relation_strength
        relation_files: Set[str] = {f for pair in relation_strength
                                    for f in pair}
        relation_partners: Dict[str, Set[str]] = {}
        for first, second in relation_strength:
            relation_partners.setdefault(first, set()).add(second)

        # -- close the dirty set into a region -------------------------
        # A file's pairs involve its list, the lists containing it, and
        # its relation partners; any changed component is reachable
        # through one of those from a dirty file.
        adjacent: Set[str] = set(dirty)
        for file in sorted(dirty):
            adjacent |= neighbor_lists.get(file, set())
            for owner in owners_of(file):
                if file in neighbor_lists.get(owner, ()):
                    adjacent.add(owner)
            adjacent |= relation_partners.get(file, set())
        # Pull in the previous components of everything adjacent: a
        # changed edge can split or merge them, and replay must see
        # each affected component whole.
        region: Set[str] = set(adjacent)
        for file in sorted(adjacent):
            root = self._comp_of.get(file)
            if root is not None:
                region.update(self._components[root])

        limit = max(_REGION_MINIMUM,
                    int(_REGION_FRACTION * len(neighbor_lists)))
        if len(region) > limit:
            raise _FullRebuild
        if self._metrics is not None:
            self._metrics.incr("recluster.region_files", len(region))

        # -- region pair scan, in the full pass's order ----------------
        # Every examined pair with an endpoint in the region, sorted:
        # exactly the subsequence of the full scan that can have
        # changed.  Owner pairs (w, x) with w outside the region keep
        # their counts but may requalify for phase 2 when x's
        # component moved.
        list_pairs: Set[Tuple[str, str]] = set()
        for file in sorted(region):
            for other in neighbor_lists.get(file, ()):
                if other != file:
                    list_pairs.add((file, other))
            for owner in owners_of(file):
                if owner != file and file in neighbor_lists.get(owner, ()):
                    list_pairs.add((owner, file))
        pairs: List[Tuple[str, str]] = sorted(list_pairs)
        for pair in sorted(relation_strength):
            first, second = pair
            if first == second or pair in list_pairs:
                continue
            if first in region or second in region:
                pairs.append(pair)
        counts = {pair: algorithm.effective_count(*pair) for pair in pairs}
        near, far = algorithm.thresholds()

        # -- which region files are still in the clustering universe --
        present: Set[str] = set()
        for file in sorted(region):
            if file in neighbor_lists or file in relation_files:
                present.add(file)
                continue
            for owner in owners_of(file):
                if file in neighbor_lists.get(owner, ()):
                    present.add(file)
                    break

        # -- phase-1 replay over the region ----------------------------
        parent: Dict[str, str] = {file: file for file in sorted(present)}
        for pair in pairs:
            if counts[pair] >= near:
                if pair[0] not in parent or pair[1] not in parent:
                    # A qualifying pair crossing the region boundary
                    # contradicts the region closure (its endpoints
                    # shared a component last build and would both be
                    # here).  Don't guess -- rebuild.
                    raise _FullRebuild
                union(parent, *pair)

        # -- splice bookkeeping ----------------------------------------
        # Components touching the region are wholly inside it (by the
        # closure above), so dropping every region file removes exactly
        # the stale components.
        stale_roots = {self._comp_of[file] for file in region
                       if file in self._comp_of}
        for root in sorted(stale_roots):
            for member in self._components.pop(root):
                del self._comp_of[member]
        for file in sorted(present):
            root = find(parent, file)
            self._components.setdefault(root, []).append(file)
            self._comp_of[file] = root

        self._phase2 = {pair for pair in self._phase2
                        if pair[0] not in region and pair[1] not in region}
        comp_of = self._comp_of
        for pair in pairs:
            count = counts[pair]
            if far <= count < near:
                root_a = comp_of.get(pair[0])
                root_b = comp_of.get(pair[1])
                if root_a is None or root_b is None:
                    raise _FullRebuild
                if root_a != root_b:
                    self._phase2.add(pair)
