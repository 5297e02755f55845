"""Checks of the benchmark's reference clock.

    python3 -m pytest bench/tests
"""

import sys
from pathlib import Path
from time import perf_counter

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import refclock  # noqa: E402


def test_ref_seconds_follow_wall_time_and_skip_samples():
    clock = refclock.RefClock().start()
    try:
        t0 = perf_counter()
        while perf_counter() - t0 < 0.5:
            sum(i * i for i in range(1000))
        t1 = perf_counter()
    finally:
        clock.stop()
    assert len(clock.durations) >= 5
    ref_s = clock.ref_seconds(t0, t1)
    # reference seconds are wall seconds less the samples, at the host's speed
    expected = (t1 - t0 - sum(clock.durations)) * clock.speed()
    assert ref_s == pytest.approx(expected, rel=0.05)


def test_child_summary_round_trip():
    clock = refclock.RefClock()
    clock.durations = [0.0004, 0.0004]
    stderr = b"some warning\n" + clock.summary().encode() + b"\n"
    # the child ran twice as slow as the host the figures are scaled to
    assert refclock.child_ref_seconds(1.0008, stderr) == pytest.approx(0.5)


def test_child_without_summary_is_an_error():
    with pytest.raises(RuntimeError):
        refclock.child_ref_seconds(1.0, b"Traceback ...\n")
