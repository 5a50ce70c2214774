"""Semantic distance: Definitions 1-3 of the paper (section 3.1.1).

* :func:`temporal_distances` -- Definition 1, elapsed clock time;
* :class:`SequenceDistanceCalculator` -- Definition 2, intervening
  references;
* Definition 3, the lifetime distance SEER actually uses (open/close
  lifetimes), is computed by the ingest engine's fused scan,
  :class:`~repro.core.arena.ColumnarEngine`; its per-stream
  transcription is the test oracle in ``tests/oracle.py``.

All measures are *asymmetric*: the distance from an earlier reference
to a later one.  The data-reduction step (converting many per-reference
distances into one per-file-pair summary) is
:class:`DistanceSummary` / geometric mean, section 3.1.2.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Tuple


class RefKind(enum.Enum):
    """Reference event kinds consumed by the distance calculators."""

    OPEN = "open"
    CLOSE = "close"


@dataclass(frozen=True)
class Reference:
    """One file-reference event in a single stream."""

    file: str
    kind: RefKind
    time: float = 0.0


def opens(sequence: Iterable[str]) -> List[Reference]:
    """Helper: turn a plain file sequence into open+close pairs."""
    events: List[Reference] = []
    for name in sequence:
        events.append(Reference(name, RefKind.OPEN))
        events.append(Reference(name, RefKind.CLOSE))
    return events


# ----------------------------------------------------------------------
# Definition 1: temporal semantic distance
# ----------------------------------------------------------------------
def temporal_distances(events: Iterable[Reference]) -> Iterator[Tuple[str, str, float]]:
    """Yield ``(earlier_file, later_file, elapsed_seconds)`` pairs.

    Definition 1: the temporal semantic distance between two file
    references is the elapsed clock time between them.  Only the
    closest (most recent) pair per file is reported, matching SEER's
    convention for repeated references (footnote 1).
    """
    last_open: Dict[str, float] = {}
    for event in events:
        if event.kind is not RefKind.OPEN:
            continue
        for other, when in last_open.items():
            if other != event.file:
                yield other, event.file, event.time - when
        last_open[event.file] = event.time


# ----------------------------------------------------------------------
# Definition 2: sequence-based semantic distance
# ----------------------------------------------------------------------
class SequenceDistanceCalculator:
    """Definition 2: number of intervening references to *other* files.

    Repeated references are **not** elided: in ``A C C C B`` the
    distance A -> B is 3, the strict interpretation the paper chooses
    (footnote 1), partly to capture intensive work on a single project.
    Only the closest pair of references is used per file pair.
    """

    def __init__(self) -> None:
        self._position = 0                 # index of the next reference
        self._last_seen: Dict[str, int] = {}

    def process(self, file: str) -> List[Tuple[str, str, int]]:
        """Feed one reference; returns new ``(from, to, distance)`` pairs."""
        results = [
            (other, file, self._position - seen_at - 1)
            for other, seen_at in self._last_seen.items()
            if other != file
        ]
        self._last_seen[file] = self._position
        self._position += 1
        return results

    def process_all(self, files: Iterable[str]) -> List[Tuple[str, str, int]]:
        out: List[Tuple[str, str, int]] = []
        for file in files:
            out.extend(self.process(file))
        return out


# ----------------------------------------------------------------------
# Data reduction: per-file-pair summaries (section 3.1.2)
# ----------------------------------------------------------------------
@dataclass
class DistanceSummary:
    """Online summary of the distances observed for one file pair.

    The paper first tried the arithmetic mean and rejected it: three
    observations of 1, 1, 1498 average to 500, yet indicate a far
    closer relationship than a constant 500.  The geometric mean gives
    small values more importance.  Distances of zero are handled by
    averaging ``log(1 + d)`` and inverting, which preserves ordering
    and maps all-zero observations to zero.
    """

    count: int = 0
    log_sum: float = 0.0
    linear_sum: float = 0.0
    last_update: int = 0   # correlator reference counter at last update
    # Computed means are cached until the next add(): neighbor-table
    # victim selection and nearest() queries read means far more often
    # than observations arrive, and expm1/log1p dominate otherwise.
    _geometric_cache: Optional[float] = field(
        default=None, repr=False, compare=False)
    _arithmetic_cache: Optional[float] = field(
        default=None, repr=False, compare=False)

    def add(self, distance: float, now: int = 0) -> None:
        if distance < 0:
            raise ValueError(f"negative semantic distance: {distance}")
        self.count += 1
        self.log_sum += math.log1p(distance)
        self.linear_sum += distance
        self.last_update = now
        self._geometric_cache = None
        self._arithmetic_cache = None

    def geometric_mean(self) -> float:
        cached = self._geometric_cache
        if cached is None:
            if self.count == 0:
                cached = math.inf
            else:
                cached = math.expm1(self.log_sum / self.count)
            self._geometric_cache = cached
        return cached

    def arithmetic_mean(self) -> float:
        cached = self._arithmetic_cache
        if cached is None:
            if self.count == 0:
                cached = math.inf
            else:
                cached = self.linear_sum / self.count
            self._arithmetic_cache = cached
        return cached

    def mean(self, geometric: bool = True) -> float:
        return self.geometric_mean() if geometric else self.arithmetic_mean()
