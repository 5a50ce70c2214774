"""Differential property suite: columnar engine == reference oracle.

The correlator runs one ingest engine, the fused columnar arena of
:mod:`repro.core.arena`.  The per-entry dict/object reference engine
-- the paper transcribed directly -- lives in ``tests/oracle.py``.  The
optimization is only admissible if it is *invisible*: for any event
stream the two engines must leave byte-identical persistent state,
identical neighbor lists (plain and stale-filtered), identical cluster
sets and hoard selections, and identical scoring-relevant metric
totals.  Likewise the incremental reclusterer must splice to exactly
the clusters a full Jarvis-Patrick pass would produce, build after
build.

Randomized traces exercise every action kind with tiny tables and
windows so eviction, compensation, pruning, fork/exit merging, delayed
deletion and rename identity-carrying all fire constantly.  Any
divergence here is a latent scoring bug in one of the engines.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.clustering import SharedNeighborClustering
from repro.core.correlator import Action, Correlator, ObservedReference
from repro.core.hoard import HoardManager, rank_clusters
from repro.core.parameters import SeerParameters
from repro.core.persistence import (dump_correlator, load_correlator,
                                    restore_correlator)
from repro.fs.paths import directory_distance
from repro.simulation.serde import canonical_bytes, payload_fingerprint
from tests.oracle import ReferenceCorrelator

PIDS = [1, 2, 3]
PATHS = ["/p/a", "/p/b", "/p/c", "/q/d", "/q/e", "/r/f"]

#: Counter totals both engines must agree on.  ``neighbor.bound_skips``
#: is deliberately absent: the bound is an inexact fast-reject and the
#: two engines may skip different numbers of hopeless candidates while
#: still producing identical tables.
SCORING_COUNTERS = (
    "correlator.distances_ingested",
    "correlator.deletions_expired",
    "distance.pruned_entries",
    "distance.compensated_pairs",
    "neighbor.compensations",
    "neighbor.evictions",
    "neighbor.rejections",
)


@st.composite
def events(draw):
    kind = draw(st.sampled_from(
        ["open", "open", "open", "point", "point", "close", "stat",
         "exec", "exit", "fork", "delete", "rename"]))
    pid = draw(st.sampled_from(PIDS))
    path = draw(st.sampled_from(PATHS))
    path2 = draw(st.sampled_from(PATHS)) if kind == "rename" else ""
    ppid = draw(st.sampled_from([0] + PIDS)) if kind == "fork" else 0
    return (kind, pid, path, path2, ppid)


streams = st.lists(events(), min_size=1, max_size=150)

parameter_sets = st.builds(
    SeerParameters,
    max_neighbors=st.integers(min_value=2, max_value=4),
    lookback_window=st.integers(min_value=3, max_value=10),
    compensation_distance=st.integers(min_value=3, max_value=10),
    aging_threshold=st.sampled_from([5, 40, 5000]),
    delete_delay=st.sampled_from([0, 2, 50]),
)


def ingest(stream, parameters, correlator=None, start_seq=0):
    if correlator is None:
        correlator = Correlator(parameters)
    for seq, (kind, pid, path, path2, ppid) in enumerate(
            stream, start_seq + 1):
        correlator.handle(ObservedReference(
            seq=seq, time=float(seq), pid=pid, action=Action(kind),
            path=path, path2=path2, ppid=ppid))
    return correlator


def assert_same_persistent_state(fast, reference):
    """Dump both correlators; the serialized state must be byte-equal."""
    dump_fast = dump_correlator(fast)
    dump_reference = dump_correlator(reference)
    assert dump_fast == dump_reference
    assert canonical_bytes(dump_fast) == canonical_bytes(dump_reference)
    assert payload_fingerprint(dump_fast) == \
        payload_fingerprint(dump_reference)


def assert_same_counters(fast, reference):
    for name in SCORING_COUNTERS:
        assert fast.metrics.counter(name) == \
            reference.metrics.counter(name), name


def assert_same_clusters(ours, theirs):
    assert ours.cluster_ids() == theirs.cluster_ids()
    for cluster_id in ours.cluster_ids():
        assert ours.members(cluster_id) == theirs.members(cluster_id)
    assert ours.files() == theirs.files()
    for file in sorted(ours.files()):
        assert ours.clusters_of(file) == theirs.clusters_of(file)


def both_modes(stream, parameters):
    fast = ingest(stream, parameters)
    reference = ingest(stream, parameters,
                       correlator=ReferenceCorrelator(parameters))
    return fast, reference


@settings(max_examples=60, deadline=None)
@given(stream=streams, parameters=parameter_sets)
def test_columnar_state_matches_reference(stream, parameters):
    fast, reference = both_modes(stream, parameters)
    assert_same_persistent_state(fast, reference)
    assert_same_counters(fast, reference)
    assert fast.store.neighbor_lists() == reference.store.neighbor_lists()
    assert set(fast.store.marked_for_deletion) == \
        set(reference.store.marked_for_deletion)
    for file in reference.store.files():
        ours, theirs = fast.store.get(file), reference.store.get(file)
        assert ours.neighbors() == theirs.neighbors()
        for neighbor in theirs.neighbors():
            assert ours.distance_to(neighbor) == theirs.distance_to(neighbor)


@settings(max_examples=25, deadline=None)
@given(stream=streams, cutoff=st.integers(min_value=1, max_value=30))
def test_stale_filtered_neighbor_lists_match(stream, cutoff):
    parameters = SeerParameters(
        max_neighbors=3, lookback_window=5, compensation_distance=5,
        stale_link_cutoff=cutoff)
    fast, reference = both_modes(stream, parameters)
    now = fast._reference_counter
    assert now == reference._reference_counter
    assert fast.store.neighbor_lists(now=now, stale_after=cutoff) == \
        reference.store.neighbor_lists(now=now, stale_after=cutoff)


@settings(max_examples=25, deadline=None)
@given(chunks=st.lists(streams, min_size=1, max_size=3),
       cutoff=st.integers(min_value=1, max_value=30))
def test_stale_cutoff_builds_match_full_pass(chunks, cutoff):
    """Under a stale-link cutoff every build is a full pass over the
    stale-filtered lists, never a splice of stale bookkeeping."""
    parameters = SeerParameters(
        max_neighbors=3, lookback_window=5, compensation_distance=5,
        kn=2, kf=1, stale_link_cutoff=cutoff)
    correlator = Correlator(parameters)
    start = 0
    for chunk in chunks:
        ingest(chunk, None, correlator=correlator, start_seq=start)
        start += len(chunk)
        now = correlator._reference_counter
        expected = SharedNeighborClustering(
            correlator.store.neighbor_lists(now=now, stale_after=cutoff),
            parameters=parameters,
            directory_distance=directory_distance).cluster()
        assert_same_clusters(correlator.build_clusters(), expected)
    assert correlator.metrics.counter("recluster.incremental_builds") == 0


@settings(max_examples=25, deadline=None)
@given(stream=streams,
       exclude=st.frozensets(st.sampled_from(PATHS), max_size=2))
def test_clusters_and_hoard_match(stream, exclude):
    parameters = SeerParameters(
        max_neighbors=3, lookback_window=6, compensation_distance=6,
        kn=2, kf=1)
    fast, reference = both_modes(stream, parameters)
    ours = fast.build_clusters(exclude=set(exclude) or None)
    theirs = reference.build_clusters(exclude=set(exclude) or None)
    assert_same_clusters(ours, theirs)

    recency_fast, recency_reference = fast.recency(), reference.recency()
    assert recency_fast == recency_reference
    assert rank_clusters(ours, recency_fast) == \
        rank_clusters(theirs, recency_reference)

    size_map = {path: 100 + 13 * index
                for index, path in enumerate(sorted(PATHS))}
    budget = sum(size_map.values()) // 2
    selection_fast = HoardManager(parameters).build(
        ours, size_map.__getitem__, recency_fast, budget)
    selection_reference = HoardManager(parameters).build(
        theirs, size_map.__getitem__, recency_reference, budget)
    assert selection_fast.files == selection_reference.files
    assert selection_fast.total_bytes == selection_reference.total_bytes
    assert selection_fast.clusters_included == \
        selection_reference.clusters_included
    assert selection_fast.clusters_skipped == \
        selection_reference.clusters_skipped


@settings(max_examples=25, deadline=None)
@given(stream=streams, split=st.floats(min_value=0.1, max_value=0.9))
def test_kill_resume_round_trip(stream, split):
    """The columnar arena survives dump -> JSON -> load -> resume.

    Per-process streams are deliberately not persisted, so a resumed
    run is not compared against an uninterrupted one; instead both
    engines are resumed from the *same* serialized snapshot and must
    agree with each other from there on -- including on whichever of
    them produced the snapshot.
    """
    parameters = SeerParameters(
        max_neighbors=3, lookback_window=5, compensation_distance=5,
        delete_delay=2)
    cut = max(1, int(len(stream) * split))
    first, second = stream[:cut], stream[cut:]

    fast = ingest(first, parameters)
    snapshot = json.loads(json.dumps(dump_correlator(fast)))

    resumed_fast = load_correlator(snapshot, parameters=parameters)
    resumed_reference = restore_correlator(ReferenceCorrelator(parameters),
                                           snapshot)
    assert_same_persistent_state(resumed_fast, resumed_reference)

    ingest(second, None, correlator=resumed_fast, start_seq=cut)
    ingest(second, None, correlator=resumed_reference, start_seq=cut)
    assert_same_persistent_state(resumed_fast, resumed_reference)
    assert resumed_fast.store.neighbor_lists() == \
        resumed_reference.store.neighbor_lists()
    assert_same_clusters(resumed_fast.build_clusters(),
                         resumed_reference.build_clusters())


def full_pass(correlator, exclude=None):
    """One Jarvis-Patrick pass over the correlator's current tables,
    filtered the way ``Correlator.build_clusters`` filters them."""
    neighbor_lists = correlator.store.neighbor_lists()
    if exclude:
        neighbor_lists = {file: neighbors - exclude
                          for file, neighbors in neighbor_lists.items()
                          if file not in exclude}
    return SharedNeighborClustering(
        neighbor_lists, parameters=correlator.parameters,
        directory_distance=directory_distance).cluster()


@settings(max_examples=25, deadline=None)
@given(chunks=st.lists(streams, min_size=2, max_size=4),
       excludes=st.lists(
           st.frozensets(st.sampled_from(PATHS), max_size=2),
           min_size=4, max_size=4))
def test_incremental_recluster_matches_full(chunks, excludes):
    """Interleaved builds: splice output == full-pass output, every time.

    The exclude set changes between builds, exercising the
    exclusion-delta dirtying; the streams carry renames and deletes,
    exercising removal/rekey dirtying.
    """
    parameters = SeerParameters(
        max_neighbors=3, lookback_window=6, compensation_distance=6,
        kn=2, kf=1, delete_delay=2)
    incremental = Correlator(parameters)
    start = 0
    for index, chunk in enumerate(chunks):
        ingest(chunk, None, correlator=incremental, start_seq=start)
        start += len(chunk)
        exclude = set(excludes[index % len(excludes)]) or None
        expected = full_pass(incremental, exclude)
        assert_same_clusters(incremental.build_clusters(exclude=exclude),
                             expected)
    # At least one build after the first should have been a splice.
    if len(chunks) > 1:
        assert incremental.metrics.counter("recluster.incremental_builds") \
            + incremental.metrics.counter("recluster.full_builds") == \
            len(chunks)
