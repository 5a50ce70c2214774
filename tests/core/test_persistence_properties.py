"""Property: the database round-trips exactly under the hot path.

The ingest engine prunes aged-out lookback entries and emits their
compensation distance once (section 3.1.3); both reshape what lands in
the neighbor tables.  Whatever stream was ingested and whatever those
rules produced, ``dump_correlator`` ->
``load_correlator`` must reproduce the neighbor tables (counts, sums,
update stamps and hence distances) and the recency state exactly.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.correlator import Action, Correlator, ObservedReference
from repro.core.parameters import SeerParameters
from repro.core.persistence import dump_correlator, load_correlator

PATHS = ["/p/a", "/p/b", "/p/c", "/q/d", "/q/e", "/q/f"]

streams = st.lists(
    st.tuples(st.integers(min_value=1, max_value=3), st.sampled_from(PATHS)),
    min_size=1, max_size=120)


def ingest(stream, parameters):
    correlator = Correlator(parameters)
    for seq, (pid, path) in enumerate(stream, 1):
        correlator.handle(ObservedReference(
            seq=seq, time=float(seq), pid=pid, action=Action.POINT,
            path=path))
    return correlator


@settings(max_examples=40, deadline=None)
@given(stream=streams,
       lookback=st.integers(min_value=2, max_value=25),
       max_neighbors=st.integers(min_value=2, max_value=8))
def test_round_trip_with_pruning_flags_enabled(stream, lookback,
                                               max_neighbors):
    parameters = SeerParameters(
        lookback_window=lookback, compensation_distance=lookback,
        max_neighbors=max_neighbors)
    correlator = ingest(stream, parameters)
    restored = load_correlator(dump_correlator(correlator),
                               parameters=parameters)

    # Neighbor tables: same files, same neighbors, same summaries.
    assert sorted(restored.store.files()) == sorted(correlator.store.files())
    for file in correlator.store.files():
        original = correlator.store.get(file)
        copy = restored.store.get(file)
        assert copy.neighbors() == original.neighbors()
        for neighbor in original.neighbors():
            ours = original.summary(neighbor)
            theirs = copy.summary(neighbor)
            assert (theirs.count, theirs.log_sum, theirs.linear_sum,
                    theirs.last_update) == \
                (ours.count, ours.log_sum, ours.linear_sum, ours.last_update)
            assert copy.distance_to(neighbor) == \
                original.distance_to(neighbor)

    # Recency state: orders and timestamps.
    assert restored.recency() == correlator.recency()
    assert restored.recency_times() == correlator.recency_times()
    assert restored.references_processed == correlator.references_processed


@settings(max_examples=15, deadline=None)
@given(stream=streams)
def test_clusters_survive_round_trip(stream):
    parameters = SeerParameters(lookback_window=10,
                                compensation_distance=10)
    correlator = ingest(stream, parameters)
    restored = load_correlator(dump_correlator(correlator),
                               parameters=parameters)
    assert set(restored.build_clusters().as_sets()) == \
        set(correlator.build_clusters().as_sets())
