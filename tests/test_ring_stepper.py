"""The ring steppers and the block-vectorized sampler against the
reference path: apply_move of tests/reference.py on tuples, one event at
a time.  The table stepper is also checked against the height stepper,
its reference."""

import logging
from bisect import bisect_left, bisect_right
from math import isinf, sqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from raisepeel import simulate as simulate_mod
from raisepeel.profiles import (
    EventCounters,
    count_peaks,
    enumerate_states,
    substrate,
    transition_table,
)
from raisepeel.simulate import (
    TABLE_MAX_LENGTH,
    _COMPOSED_ENTRIES,
    SimConfig,
    _Ring,
    _TableRing,
    _composed_rows,
    simulate,
)
from reference import advanced, apply_move, check_profile


def _assert_drop_matches(ring, state, site):
    """Drop one tile on both paths; return the reference target."""
    record = apply_move(state, site)
    d_peak, d_diamond, d_global, peaks = ring.drop([site])
    assert tuple(ring.heights) == record.target
    assert (d_peak[0], d_diamond[0], d_global[0]) == (
        record.delta_peak, record.delta_diamond, record.delta_global)
    assert peaks[0] == ring.peaks == count_peaks(record.target)
    assert ring.low == sum(h <= 1 for h in record.target)
    return record.target


@st.composite
def profiles_and_sites(draw):
    half = draw(st.integers(1, 100))
    steps = draw(st.permutations([1] * half + [-1] * half))
    walk = np.concatenate(([0], np.cumsum(steps[:-1])))
    # an even shift keeps the parity rule and leaves the minimum at 0 or 1
    low = int(walk.min())
    heights = tuple(int(h) for h in walk - (low - low % 2))
    sites = draw(st.lists(st.integers(0, 2 * half - 1), min_size=1, max_size=60))
    return heights, sites


@settings(max_examples=150, deadline=None)
@given(profiles_and_sites())
def test_stepper_matches_apply_move(case):
    state, sites = case
    check_profile(state)
    ring = _Ring(state)
    for site in sites:
        state = _assert_drop_matches(ring, state, site)


@pytest.mark.parametrize("length", range(2, TABLE_MAX_LENGTH + 1, 2))
def test_stepper_every_state_and_site(length):
    for state in enumerate_states(length):
        for site in range(length):
            _assert_drop_matches(_Ring(state), state, site)


@pytest.mark.parametrize("length", range(2, TABLE_MAX_LENGTH + 1, 2))
def test_table_stepper_every_state_and_site(length):
    for state in enumerate_states(length):
        for site in range(length):
            table = _TableRing(state)
            got = table.drop([site])
            for want, have in zip(_Ring(state).drop([site]), got):
                assert np.array_equal(have, want)
            record = apply_move(state, site)
            assert table.heights == record.target
            assert table.peaks == got[3][0] == count_peaks(record.target)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, TABLE_MAX_LENGTH // 2).flatmap(lambda half: st.tuples(
    st.sampled_from(enumerate_states(2 * half)),
    st.lists(st.lists(st.integers(0, 2 * half - 1), max_size=80), min_size=1, max_size=4))))
def test_table_stepper_blocks_match_ring(case):
    state, blocks = case
    ring, table = _Ring(state), _TableRing(state)
    for sites in blocks:
        want, got = ring.drop(sites), table.drop(np.array(sites, dtype=np.int64))
        for w, g in zip(want, got):
            assert np.array_equal(g, w)
        assert table.heights == tuple(ring.heights)
        assert table.peaks == ring.peaks


@pytest.mark.parametrize("length", range(2, TABLE_MAX_LENGTH + 1, 2))
def test_composed_rows_are_k_moves(length):
    # every state and every k sites, decoded base L first site first, and
    # stepped one move at a time through the transition table
    k, composed = _composed_rows(length)
    target = transition_table(length).target
    codes = np.arange(length ** k)
    digits = codes[:, None] // length ** np.arange(k - 1, -1, -1) % length
    reached = np.repeat(np.arange(len(target))[:, None], len(codes), axis=1)
    for j in range(k):
        reached = target[reached, digits[:, j]]
    assert np.array_equal(np.array(composed), reached.ravel() * length ** k)


@pytest.mark.parametrize("length", range(2, TABLE_MAX_LENGTH + 1, 2))
def test_composed_rows_stay_small(length):
    # k >= 1 covers every length, and shared row objects keep the list at
    # one pointer per entry
    k, composed = _composed_rows(length)
    assert k >= 1
    assert len(composed) <= _COMPOSED_ENTRIES
    assert len({id(row) for row in composed}) <= len(enumerate_states(length))


@pytest.mark.parametrize("length", [2, 4, 8, 12])
def test_table_stepper_every_tail_length(length):
    # blocks of 0 to 2k + 1 sites cover the empty block, every tail and
    # blocks of whole lookups; a block of 3k + 1 sites then continues
    # from wherever the first one left the ring
    k, _ = _composed_rows(length)
    rng = np.random.default_rng(length)
    states = enumerate_states(length)
    for state in states[::max(1, len(states) // 6)]:
        for first in range(2 * k + 2):
            ring, table = _Ring(state), _TableRing(state)
            for n in (first, 3 * k + 1):
                sites = rng.integers(0, length, size=n)
                want, got = ring.drop(sites.tolist()), table.drop(memoryview(sites))
                for w, g in zip(want, got):
                    assert len(g) == n
                    assert np.array_equal(g, w)
                assert table.heights == tuple(ring.heights)
                assert table.peaks == ring.peaks


def test_composed_rows_log_once_per_length(caplog):
    caplog.set_level(logging.DEBUG, logger="raisepeel.simulate")
    _composed_rows.cache_clear()
    for length in (4, 8, 8, 4):
        _TableRing(substrate(length))
    simulate(SimConfig(length=8, max_events=100, seed=1))
    lines = [r.getMessage() for r in caplog.records if r.name == "raisepeel.simulate"]
    assert len(lines) == 2
    assert lines[0].startswith("composed moves (L=4): 7 per lookup, 98304 entries, built in ")
    assert lines[1].startswith("composed moves (L=8): 3 per lookup, 35840 entries, built in ")


def test_table_stepper_rejects_inadmissible_heights():
    with pytest.raises(ValueError):
        _TableRing((0, 1, 2, 1, 2, 3))


def _refuse(name):
    class Refused:
        def __init__(self, heights):
            raise AssertionError(f"{name} built for L={len(heights)}")
    return Refused


@pytest.mark.parametrize("length", [2, 8, TABLE_MAX_LENGTH, TABLE_MAX_LENGTH + 2])
def test_stepper_choice_follows_the_cutoff(monkeypatch, length):
    unused = "_Ring" if length <= TABLE_MAX_LENGTH else "_TableRing"
    monkeypatch.setattr(simulate_mod, unused, _refuse(unused))
    summary = simulate(SimConfig(length=length, max_events=3000, seed=1))
    assert summary.counters.n_total == 3000


def test_broken_bookkeeping_raises(monkeypatch):
    class OffByOne(_TableRing):
        __slots__ = ()

        def drop(self, sites):
            d_peak, d_diamond, d_global, peaks = super().drop(sites)
            return d_peak, d_diamond + 1, d_global, peaks

    monkeypatch.setattr(simulate_mod, "_TableRing", OffByOne)
    with pytest.raises(RuntimeError, match=r"-\d+ tiles stored, the final heights hold \d+"):
        simulate(SimConfig(length=4, max_events=100, seed=2))


def test_stepper_l2_neighbours_are_one_site():
    # both neighbours of a site are the same site at L=2, so a valley
    # filled there must not uncount that neighbour's peak twice
    state = substrate(2)
    ring = _Ring(state)
    for site in [0, 1, 1, 0, 0, 1, 0, 1, 1, 1, 0, 0]:
        state = _assert_drop_matches(ring, state, site)
    assert ring.peaks == 1


# ---------------------------------------------------------------------------
# reference trajectory: apply_move plus the same block draws


def _reference(cfg, block):
    """Event-by-event trajectory with its estimates and log records."""
    length = cfg.length
    rng = np.random.default_rng(cfg.seed)
    state = substrate(length)
    counters = EventCounters()
    times, peaks, trail = [0.0], [count_peaks(state)], [counters]
    waits = sites = ()
    cursor = 0
    while cfg.max_events is None or counters.n_total < cfg.max_events:
        if cursor == len(waits):
            waits = rng.exponential(1.0 / length, size=block)
            sites = rng.integers(0, length, size=block)
            cursor = 0
        wait, site = float(waits[cursor]), int(sites[cursor])
        cursor += 1
        if cfg.t_max is not None and times[-1] + wait >= cfg.t_max:
            break
        record = apply_move(state, site)
        state = record.target
        counters = advanced(counters, record)
        times.append(times[-1] + wait)
        peaks.append(count_peaks(state))
        trail.append(counters)
    end = cfg.t_max if cfg.t_max is not None else times[-1]

    def peak_integral(a, b):
        total, j = 0.0, bisect_right(times, a) - 1
        while j < len(times) and times[j] < b:
            stop = times[j + 1] if j + 1 < len(times) else end
            total += peaks[j] * max(0.0, min(b, stop) - max(a, times[j]))
            j += 1
        return total

    # batch k: (open time, close time, events in it)
    if cfg.t_max is not None:
        burn = 0.05 * end
        span = (end - burn) / 30
        edges = [burn + k * span for k in range(30)] + [end]
        members = [[] for _ in range(30)]
        for i, t in enumerate(times[1:]):
            if t >= burn:
                members[min(29, int((t - burn) / span))].append(i)
        batches = [(edges[k], edges[k + 1], members[k]) for k in range(30)]
    else:
        burn = int(0.05 * cfg.max_events)
        per = max(1, (cfg.max_events - burn) // 30)
        batches = [(times[burn + k * per], times[burn + (k + 1) * per],
                    range(burn + k * per, burn + (k + 1) * per))
                   for k in range(30) if burn + (k + 1) * per <= counters.n_total]

    deltas = [(b.n_diamond - a.n_diamond, b.n_global - a.n_global)
              for a, b in zip(trail, trail[1:])]
    estimates = {}
    for name, per_event, total in (
            ("drift_diamond_hat", lambda i: deltas[i][0], counters.n_diamond),
            ("drift_global_hat", lambda i: deltas[i][1], counters.n_global),
            ("mean_peaks_hat", None, peak_integral(0.0, end))):
        values = []
        for lo, hi, events in batches:
            if hi > lo:
                amount = (peak_integral(lo, hi) if per_event is None
                          else sum(per_event(i) for i in events))
                values.append(amount / (hi - lo))
        spread = (float(np.std(values, ddof=1)) / sqrt(len(values))
                  if len(values) >= 2 else float("inf"))
        estimates[name] = (total / end, spread)

    records = []
    if cfg.report_every is not None:
        k = 1
        while k * cfg.report_every <= end:
            tick = k * cfg.report_every
            seen = trail[bisect_left(times, tick) - 1]
            records.append({"time": tick, "counters": seen,
                            "mean_peaks": peak_integral(0.0, tick) / tick})
            k += 1
    return state, counters, end, estimates, records


def _assert_same_trajectory(cfg, block):
    records = []
    summary = simulate(cfg, log_writer=records.append)
    state, counters, end, estimates, reference_records = _reference(cfg, block)
    assert summary.counters == counters
    assert summary.final_state == state
    assert summary.elapsed_time == end
    for name, (value, spread) in estimates.items():
        got = getattr(summary, name)
        assert got.value == pytest.approx(value, rel=1e-9)
        if isinf(spread):
            assert isinf(got.stderr)
        else:
            assert got.stderr == pytest.approx(spread, rel=1e-9)
    assert len(records) == len(reference_records)
    for got, want in zip(records, reference_records):
        assert got["time"] == want["time"]
        assert got["counters"] == want["counters"]
        assert got["drift_diamond"] == want["counters"].n_diamond / want["time"]
        assert got["drift_global"] == want["counters"].n_global / want["time"]
        assert got["mean_peaks"] == pytest.approx(want["mean_peaks"], rel=1e-9)


@pytest.mark.parametrize("length", [2, 4, 6, 8, 10, 12, 14, 64])
@pytest.mark.parametrize("mode", ["time", "events"])
def test_trajectory_matches_reference(monkeypatch, length, mode):
    # a short block puts many block edges inside a run of a few thousand
    # events; the reference draws with the same block length
    block = 997
    monkeypatch.setattr(simulate_mod, "_BLOCK", block)
    stop = (dict(t_max=6000.0 / length + 0.37) if mode == "time"
            else dict(max_events=5000 + length))
    cfg = SimConfig(length=length, seed=length + 3, report_every=41.0 / length, **stop)
    _assert_same_trajectory(cfg, block)


@pytest.mark.parametrize("length", [2, 4, 14])
@pytest.mark.parametrize("mode", ["time", "events"])
@pytest.mark.parametrize("block", [1, 3])
def test_trajectory_matches_reference_tiny_blocks(monkeypatch, block, length, mode):
    # one-event blocks; batch boundaries and log ticks before a block's
    # first event, which read the counters the block carries in; and at
    # L = 2 and 4 table-stepper blocks shorter than one composed lookup
    monkeypatch.setattr(simulate_mod, "_BLOCK", block)
    stop = (dict(t_max=600.0 / length + 0.37) if mode == "time"
            else dict(max_events=500 + length))
    cfg = SimConfig(length=length, seed=length + 5, report_every=3.0 / length, **stop)
    _assert_same_trajectory(cfg, block)


@pytest.mark.parametrize("cfg", [
    # past one block edge
    SimConfig(length=4, t_max=4500.0, seed=7, report_every=250.0),
    SimConfig(length=4, max_events=20000, seed=7, report_every=250.0),
    # fewer events than batches, and a horizon shorter than most waits
    SimConfig(length=6, max_events=1, seed=1, report_every=0.05),
    SimConfig(length=6, max_events=29, seed=1, report_every=0.05),
    SimConfig(length=6, max_events=61, seed=1, report_every=0.05),
    SimConfig(length=6, t_max=0.01, seed=1, report_every=0.05),
])
def test_trajectory_matches_reference_full_blocks(cfg):
    _assert_same_trajectory(cfg, simulate_mod._BLOCK)
