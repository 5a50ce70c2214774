"""Tests for the bounded neighbor tables (paper section 3.1.3)."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.parameters import SeerParameters
from tests.oracle import NeighborStore, NeighborTable


def params(**overrides):
    defaults = dict(max_neighbors=4, lookback_window=100,
                    compensation_distance=100, aging_threshold=50)
    defaults.update(overrides)
    return SeerParameters(**defaults)


class TestNeighborTable:
    def test_observe_and_query(self):
        table = NeighborTable(params())
        table.observe("B", 2.0, now=1)
        assert table.distance_to("B") == pytest.approx(2.0)

    def test_untracked_is_infinite(self):
        assert NeighborTable(params()).distance_to("X") == float("inf")

    def test_capacity_enforced(self):
        table = NeighborTable(params(max_neighbors=4))
        for index in range(10):
            table.observe(f"N{index}", 1.0, now=index)
        assert len(table) <= 4

    def test_existing_entry_always_updated(self):
        table = NeighborTable(params(max_neighbors=2))
        table.observe("A", 4.0, now=1)
        table.observe("B", 4.0, now=2)
        table.observe("A", 2.0, now=3)   # table full, but A already there
        assert table.summary("A").count == 2

    def test_replacement_prefers_deletable(self):
        table = NeighborTable(params(max_neighbors=2))
        table.observe("A", 1.0, now=1)   # very close: would never lose
        table.observe("B", 1.0, now=2)
        assert table.observe("C", 50.0, now=3, deletable={"A"})
        assert "A" not in table
        assert "C" in table

    def test_replacement_evicts_largest(self):
        table = NeighborTable(params(max_neighbors=2))
        table.observe("far", 90.0, now=1)
        table.observe("near", 1.0, now=2)
        assert table.observe("new", 5.0, now=3)
        assert "far" not in table
        assert "near" in table and "new" in table

    def test_no_replacement_when_candidate_is_farthest(self):
        table = NeighborTable(params(max_neighbors=2))
        table.observe("A", 1.0, now=1)
        table.observe("B", 2.0, now=2)
        assert not table.observe("C", 50.0, now=3)
        assert "C" not in table

    def test_aging_allows_replacement(self):
        table = NeighborTable(params(max_neighbors=2, aging_threshold=10))
        table.observe("old", 1.0, now=1)
        table.observe("older", 1.0, now=2)
        # Candidate is farther than both, but the entries are ancient.
        assert table.observe("new", 50.0, now=100)
        assert "new" in table
        assert len(table) == 2

    def test_aging_evicts_least_recent(self):
        table = NeighborTable(params(max_neighbors=2, aging_threshold=10))
        table.observe("stale", 1.0, now=1)
        table.observe("fresher", 1.0, now=5)
        table.observe("new", 50.0, now=100)
        assert "stale" not in table
        assert "fresher" in table

    def test_compensation_clamps_large_distances(self):
        table = NeighborTable(params(lookback_window=100, compensation_distance=100))
        table.observe("B", 5000.0, now=1)
        assert table.distance_to("B") == pytest.approx(100.0)

    def test_nearest_sorted(self):
        table = NeighborTable(params())
        table.observe("far", 30.0, now=1)
        table.observe("near", 1.0, now=2)
        table.observe("mid", 10.0, now=3)
        assert [name for name, _ in table.nearest()] == ["near", "mid", "far"]

    def test_nearest_count_limited(self):
        table = NeighborTable(params())
        for index in range(4):
            table.observe(f"N{index}", float(index + 1), now=index)
        assert len(table.nearest(2)) == 2

    def test_eviction_ties_break_to_smallest_name_regardless_of_seed(self):
        """Regression: the rule-2 victim is a pure function of table state.

        The tie used to be broken through a per-table rng, which meant
        the reference path and the columnar engine (whose batching can
        reorder rng consumption) could evict different victims from
        identical tables.  Tables no longer carry an rng at all: the
        victim among equally-worst entries is always the smallest name.
        """
        table = NeighborTable(params(max_neighbors=2))
        table.observe("X", 10.0, now=1)
        table.observe("Y", 10.0, now=2)
        table.observe("Z", 1.0, now=3)
        # "X" (smallest of the tied {X, Y}) is evicted.
        assert set(table.neighbors()) == {"Y", "Z"}


class TestNeighborStore:
    def test_observe_creates_tables(self):
        store = NeighborStore(params())
        store.observe("A", "B", 1.0, now=1)
        assert "A" in store
        assert store.table("A").distance_to("B") == pytest.approx(1.0)

    def test_neighbor_lists(self):
        store = NeighborStore(params())
        store.observe("A", "B", 1.0, now=1)
        store.observe("A", "C", 2.0, now=2)
        assert store.neighbor_lists()["A"] == {"B", "C"}

    def test_marked_for_deletion_feeds_replacement(self):
        store = NeighborStore(params(max_neighbors=1))
        store.observe("F", "doomed", 1.0, now=1)
        store.marked_for_deletion.add("doomed")
        store.observe("F", "new", 99.0, now=2)
        assert store.table("F").neighbors() == {"new"}

    def test_remove_file_purges_everywhere(self):
        store = NeighborStore(params())
        store.observe("A", "B", 1.0, now=1)
        store.observe("B", "A", 1.0, now=2)
        store.remove_file("B")
        assert "B" not in store
        assert "B" not in store.table("A")

    def test_rename_moves_table(self):
        store = NeighborStore(params())
        store.observe("old", "B", 1.0, now=1)
        store.rename_file("old", "new")
        assert "old" not in store
        assert store.table("new").distance_to("B") == pytest.approx(1.0)

    def test_rename_rekeys_entries(self):
        store = NeighborStore(params())
        store.observe("A", "old", 1.0, now=1)
        store.rename_file("old", "new")
        assert "old" not in store.table("A")
        assert store.table("A").distance_to("new") == pytest.approx(1.0)

    def test_rename_preserves_deletion_mark(self):
        store = NeighborStore(params())
        store.observe("old", "B", 1.0, now=1)
        store.marked_for_deletion.add("old")
        store.rename_file("old", "new")
        assert store.marked_for_deletion == {"new"}

    def test_rename_to_self_is_noop(self):
        store = NeighborStore(params())
        store.observe("A", "B", 1.0, now=1)
        store.rename_file("A", "A")
        assert store.table("A").distance_to("B") == pytest.approx(1.0)

    def test_rename_cannot_create_self_entry(self):
        # Regression: renaming A over B while B appeared in A's table
        # used to leave B's (moved) table listing B itself.
        store = NeighborStore(params())
        store.observe("A", "B", 1.0, now=1)
        store.rename_file("A", "B")
        assert "B" not in store.table("B")

    def test_rekey_cannot_create_self_entry(self):
        # The mirror case: the destination's own table listed the old
        # name; re-keying it to the new name would be a self-loop.
        store = NeighborStore(params())
        store.observe("B", "A", 1.0, now=1)
        store.observe("A", "C", 1.0, now=2)
        store.rename_file("A", "B")
        assert "B" not in store.table("B")
        assert store.table("B").distance_to("C") == pytest.approx(1.0)


class TestReverseIndex:
    def test_containing_tracks_inserts(self):
        store = NeighborStore(params())
        store.observe("A", "X", 1.0, now=1)
        store.observe("B", "X", 2.0, now=2)
        assert store.containing("X") == {"A", "B"}

    def test_containing_tracks_evictions(self):
        store = NeighborStore(params(max_neighbors=1))
        store.observe("A", "far", 90.0, now=1)
        store.observe("A", "near", 1.0, now=2)   # evicts far
        assert store.containing("far") == set()
        assert store.containing("near") == {"A"}

    def test_containing_tracks_remove_file(self):
        store = NeighborStore(params())
        store.observe("A", "X", 1.0, now=1)
        store.remove_file("A")
        assert store.containing("X") == set()

    def test_containing_tracks_rename(self):
        store = NeighborStore(params())
        store.observe("A", "old", 1.0, now=1)
        store.observe("old", "B", 1.0, now=2)
        store.rename_file("old", "new")
        assert store.containing("old") == set()
        assert store.containing("new") == {"A"}
        assert store.containing("B") == {"new"}

    def test_index_consistent_with_tables(self):
        store = NeighborStore(params(max_neighbors=2))
        rng = random.Random(3)
        names = [f"F{i}" for i in range(6)]
        for now in range(300):
            a, b = rng.sample(names, 2)
            roll = rng.random()
            if roll < 0.7:
                store.observe(a, b, rng.uniform(0, 100), now=now)
            elif roll < 0.85:
                store.rename_file(a, b)
            else:
                store.remove_file(a)
        rebuilt = {}
        for file in store.files():
            for neighbor in store.get(file).neighbors():
                rebuilt.setdefault(neighbor, set()).add(file)
        observed = {name: store.containing(name) for name in names
                    if store.containing(name)}
        assert rebuilt == observed


class TestWorstBound:
    def test_bound_skip_avoids_scan(self):
        from repro.observability import Metrics
        metrics = Metrics()
        table = NeighborTable(params(max_neighbors=2), metrics=metrics)
        table.observe("A", 1.0, now=1)
        table.observe("B", 2.0, now=2)
        # Candidate farther than the bound: replacement ruled out
        # without computing a single mean.
        assert not table.observe("C", 50.0, now=3)
        assert metrics.counter("neighbor.bound_skips") == 1

    def test_stale_bound_recomputed_not_trusted(self):
        # The bound can be stale-high after updates shrink a mean; the
        # exact scan inside the victim choice must correct it rather
        # than evict based on the bound alone.
        table = NeighborTable(params(max_neighbors=2))
        table.observe("A", 90.0, now=1)
        table.observe("A", 1.0, now=2)    # mean drops well below 90
        table.observe("B", 2.0, now=3)
        assert not table.observe("C", 60.0, now=4)   # no mean exceeds 60
        assert "A" in table and "B" in table

    def test_replacement_matches_unbounded_semantics(self):
        table = NeighborTable(params(max_neighbors=2))
        table.observe("far", 90.0, now=1)
        table.observe("near", 1.0, now=2)
        assert table.observe("new", 5.0, now=3)
        assert table.neighbors() == {"near", "new"}


@settings(max_examples=50)
@given(st.lists(
    st.tuples(st.sampled_from("ABCDEF"), st.sampled_from("ABCDEF"),
              st.floats(min_value=0, max_value=200)),
    min_size=1, max_size=200))
def test_table_capacity_invariant(observations):
    parameters = params(max_neighbors=3)
    store = NeighborStore(parameters)
    for now, (source, target, distance) in enumerate(observations):
        if source != target:
            store.observe(source, target, distance, now=now)
    for file in store.files():
        table = store.get(file)
        assert len(table) <= parameters.max_neighbors
        for neighbor, mean in table.items():
            # Compensation keeps every summarized distance within the
            # clamp bound.
            assert 0 <= mean <= parameters.compensation_distance + 1e-9
            assert neighbor != file
