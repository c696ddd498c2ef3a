"""Per-node firing records produced by the simulators."""

from __future__ import annotations

from dataclasses import dataclass, field

from ..grid import Position


@dataclass
class FiringTranscript:
    """First firing time of every node (None = never fires), plus diagnostics.

    A transcript is *synchronized* when every node fires at one common time;
    fire_time records first firings, so "none earlier" is inherent.
    """

    fire_time: dict[Position, int | None]
    horizon: int
    diagnostics: dict = field(default_factory=dict)

    def common_fire_time(self) -> int | None:
        """The unique simultaneous firing time, or None for a no-fire run."""
        times = set(self.fire_time.values())
        if times == {None}:
            return None
        if None in times or len(times) != 1:
            raise AssertionError(f"non-simultaneous transcript: {sorted(map(str, times))}")
        return times.pop()
