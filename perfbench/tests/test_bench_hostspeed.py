"""Host-speed probe and the scaling of measured times."""

from types import SimpleNamespace

import pytest

import harness
import hostspeed
from hostspeed import Sample


def test_sample_runs_the_probe_at_least_once():
    s = hostspeed.sample(0.0)
    assert s.spent > 0 and s.per_probe == s.spent


def test_normalize_scales_by_the_time_weighted_probe():
    ref = hostspeed.REFERENCE_S
    even = Sample(per_probe=2 * ref, spent=1.0)
    assert hostspeed.normalize(10.0, even, even) == pytest.approx(5.0)
    # A group that ran for a hundredth of the time counts a hundredth as much.
    short = Sample(per_probe=ref, spent=0.01)
    assert hostspeed.normalize(10.0, short, even) == pytest.approx(10.0 * ref / ((0.01 * ref + 2 * ref) / 1.01))


def _epochs(clock, n):
    clock.wrap_build_run(lambda: None)()
    for i in range(n):
        clock.on_epoch(SimpleNamespace(loss=float(i)), None)
    clock.close()


def test_short_epochs_share_a_block_between_two_probe_groups():
    clock = harness.EpochClock(probing=True)
    _epochs(clock, 3)  # far shorter than PROBE_INTERVAL_S
    assert len(clock.windows) == 3 and len(clock.probes) == 2
    assert clock.group_before == [0, 0, 0]
    assert clock.scaled_seconds == [hostspeed.normalize(t, *clock.probes) for t in clock.epoch_seconds]


def test_long_epochs_are_each_scaled_by_the_groups_around_them(monkeypatch):
    monkeypatch.setattr(harness, "PROBE_INTERVAL_S", 0.0)
    clock = harness.EpochClock(probing=True)
    _epochs(clock, 3)
    assert len(clock.probes) == 4 and clock.group_before == [0, 1, 2]  # close() adds no group
    for (lo, hi), scaled, a, b in zip(clock.windows, clock.scaled_seconds, clock.probes, clock.probes[1:]):
        assert scaled == hostspeed.normalize(hi - lo, a, b)
    # The probe groups run between epochs, outside their windows.
    assert all(prev_hi < lo for (_, prev_hi), (lo, _) in zip(clock.windows, clock.windows[1:]))


def test_clock_without_probing_reports_times_as_measured():
    clock = harness.EpochClock()
    _epochs(clock, 3)
    assert clock.probes == [] and clock.scaled_seconds == clock.epoch_seconds
    assert [lo for lo, _ in clock.windows[1:]] == [hi for _, hi in clock.windows[:-1]]
