"""Tests for the scaling of measured times to the reference speed.

Run from the repository root::

    python3 -m pytest -q perfbench/test_speed.py
"""

from __future__ import annotations

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from speed import REFERENCE_SECONDS, SpeedProbe  # noqa: E402


def probe_log(*probes: tuple[float, float]) -> SpeedProbe:
    """A probe that took ``took`` seconds at each ``at``."""
    speed = SpeedProbe()
    speed.at = [at for at, _ in probes]
    speed.took = [took for _, took in probes]
    return speed


def test_time_at_reference_speed_is_unchanged():
    speed = probe_log((10.0, REFERENCE_SECONDS))
    assert speed.scaled(10.01, 0.5) == 0.5


def test_slow_stretch_is_scaled_down():
    # The host ran at half the reference speed around the operation.
    speed = probe_log((10.0, 2 * REFERENCE_SECONDS),
                      (10.2, 2 * REFERENCE_SECONDS))
    assert speed.scaled(10.05, 0.1) == pytest.approx(0.05)


def test_only_probes_near_the_operation_count():
    fast, slow = REFERENCE_SECONDS, 2 * REFERENCE_SECONDS
    speed = probe_log((1.0, fast), (5.0, slow), (5.1, slow), (5.2, fast),
                      (9.0, fast))
    # The median of the three probes within WINDOW of [5.05, 5.15].
    assert speed.scaled(5.05, 0.1) == pytest.approx(0.05)
    # A long operation takes in every probe it overlaps.
    assert speed.scaled(1.0, 8.0) == pytest.approx(8.0)


def test_operation_without_a_probe_nearby_takes_the_next_one():
    speed = probe_log((1.0, REFERENCE_SECONDS),
                      (9.0, 4 * REFERENCE_SECONDS))
    assert speed.scaled(5.0, 0.4) == pytest.approx(0.1)


def test_probe_records_its_duration_and_spacing():
    speed = SpeedProbe()
    speed.probe()
    speed.tick()  # under INTERVAL after the last probe: skipped
    assert len(speed.at) == len(speed.took) == 1
    assert 0 < speed.took[0] <= speed.spent
