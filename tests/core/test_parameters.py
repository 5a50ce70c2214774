"""Tests for parameter validation (paper section 4.9)."""

import dataclasses

import pytest

from repro.core.parameters import DEFAULT_PARAMETERS, SeerParameters


class TestDefaults:
    def test_paper_values(self):
        # The published constants: n = 20 neighbors, M = 100 lookback,
        # 1 % frequent-file threshold, 15-minute disconnection squash.
        assert DEFAULT_PARAMETERS.max_neighbors == 20
        assert DEFAULT_PARAMETERS.lookback_window == 100
        assert DEFAULT_PARAMETERS.frequent_file_fraction == pytest.approx(0.01)
        assert DEFAULT_PARAMETERS.minimum_disconnection_seconds == 15 * 60

    def test_kn_exceeds_kf(self):
        assert DEFAULT_PARAMETERS.kn > DEFAULT_PARAMETERS.kf

    def test_geometric_mean_default(self):
        assert DEFAULT_PARAMETERS.use_geometric_mean

    def test_field_set_is_the_papers_knobs(self):
        # One ingest engine and one cluster-build path: the parameters
        # hold the algorithms' knobs only, never implementation
        # switches.  Adding a field changes every parameter-hashed
        # checkpoint key, so the set is pinned.
        assert [field.name for field in dataclasses.fields(SeerParameters)] \
            == [
                "max_neighbors", "lookback_window", "compensation_distance",
                "aging_threshold", "stale_link_cutoff", "use_geometric_mean",
                "kn", "kf", "directory_distance_weight",
                "investigator_weight", "normalize_shared_counts",
                "kn_fraction", "kf_fraction", "frequent_file_fraction",
                "frequent_file_minimum_accesses", "meaningless_touch_ratio",
                "meaningless_min_potential", "delete_delay",
                "minimum_disconnection_seconds",
            ]


class TestValidation:
    def test_kn_must_exceed_kf(self):
        with pytest.raises(ValueError):
            SeerParameters(kn=2, kf=3)

    def test_kn_equal_kf_rejected(self):
        with pytest.raises(ValueError):
            SeerParameters(kn=3, kf=3)

    def test_max_neighbors_positive(self):
        with pytest.raises(ValueError):
            SeerParameters(max_neighbors=0)

    def test_lookback_positive(self):
        with pytest.raises(ValueError):
            SeerParameters(lookback_window=0)

    def test_frequent_fraction_range(self):
        with pytest.raises(ValueError):
            SeerParameters(frequent_file_fraction=0.0)
        with pytest.raises(ValueError):
            SeerParameters(frequent_file_fraction=1.5)


class TestWithChanges:
    def test_returns_modified_copy(self):
        changed = DEFAULT_PARAMETERS.with_changes(max_neighbors=10)
        assert changed.max_neighbors == 10
        assert DEFAULT_PARAMETERS.max_neighbors == 20

    def test_frozen(self):
        with pytest.raises(Exception):
            DEFAULT_PARAMETERS.max_neighbors = 5  # type: ignore[misc]

    def test_invalid_change_rejected(self):
        with pytest.raises(ValueError):
            DEFAULT_PARAMETERS.with_changes(kn=1, kf=1)
