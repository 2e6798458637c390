"""Kinetic Monte Carlo for the tile process.

All L site clocks carry unit rate, so the superposition samples the next
event as an exponential wait with rate L plus a uniformly chosen site.
Waits and sites are drawn in blocks of 2^14 from a single PCG64 stream
(a block of waits, then a block of sites), which makes every run bitwise
reproducible from its seed; the event times are a sequential cumulative
sum from the carried time, so they are the floats an event-by-event loop
produces, and a seed always gives the same trajectory.

Each block of sites goes through a stepper chosen by ring length.  Up to
``TABLE_MAX_LENGTH`` sites, ``_TableRing`` holds the state as a row of
the ring's transition table: one add and one list lookup per event, then
one ``take`` per per-event array over flat views of the table's columns.
Longer rings use ``_Ring``, a mutable-heights stepper that applies a drop
in O(1 + avalanche length) and keeps the peak count and the number of
sites at height <= 1 up to date; it is also the tests' reference for the
table stepper.  Both consume the same draws, so a seed gives the same
trajectory on either.

The accounting is then vectorized over the block: the peak count is
piecewise constant between events, so its running integral F(t) is a
cumulative sum at the event times plus a linear piece up to any later
instant, and a batch's peak integral is F at its closing boundary minus
F at its opening one.  Point estimates are full-run counters (or F) over
elapsed time; standard errors come from batch means (30 equal batches
after a 5% burn-in), time-sliced when the run is bounded by a horizon
and event-sliced when it is bounded by an event budget.  Progress-log
ticks read the same block arrays.
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from dataclasses import dataclass, replace
from functools import lru_cache
from math import isfinite, sqrt
from typing import Callable, Sequence

import numpy as np

from .profiles import (
    EventCounters,
    HeightProfile,
    count_peaks,
    substrate,
    tile_count,
    transition_table,
)

_BLOCK = 1 << 14
_N_BATCHES = 30
_BURN_FRACTION = 0.05

# Rings up to this length step through their transition table.  Longer
# rings walk the heights: above profiles.ENUMERATION_CAP there is no
# table, and the table stepper saves about 0.4 us per event, so building
# the table (about 0.01, 0.04 and 0.18 s at L = 12, 14 and 16) pays for
# itself after about 3e4 events at L = 12 but only after 1e5 and 4e5
# events at L = 14 and 16, so short runs of those rings would lose time.
TABLE_MAX_LENGTH = 12

LogWriter = Callable[[dict], None]


@dataclass(frozen=True)
class SimConfig:
    """Run description: ring length, one stopping rule, seed, optional log cadence."""
    length: int
    t_max: float | None = None
    max_events: int | None = None
    seed: int = 0
    report_every: float | None = None

    def __post_init__(self) -> None:
        if self.length < 2 or self.length % 2:
            raise ValueError(f"ring length must be even and >= 2, got {self.length}")
        if (self.t_max is None) == (self.max_events is None):
            raise ValueError("exactly one of t_max and max_events must be set")
        if self.t_max is not None and not (isfinite(self.t_max) and self.t_max >= 0):
            raise ValueError(f"t_max must be finite and nonnegative, got {self.t_max}")
        if self.max_events is not None and self.max_events < 0:
            raise ValueError(f"max_events must be nonnegative, got {self.max_events}")
        if self.report_every is not None and not self.report_every > 0:
            raise ValueError("report_every must be positive when set")


@dataclass(frozen=True)
class Estimate:
    """Point value with a batch-means standard error.

    stderr is inf when fewer than two complete batches were available;
    such an estimate is within no target.
    """
    value: float
    stderr: float

    def within(self, target: float, n_sigma: float = 3.0) -> bool:
        return isfinite(self.stderr) and abs(self.value - target) <= n_sigma * self.stderr


@dataclass(frozen=True)
class TrajectorySummary:
    """Ring length, seed, full-run counters and the three empirical time averages."""
    length: int
    seed: int
    elapsed_time: float
    counters: EventCounters
    drift_diamond_hat: Estimate | None
    drift_global_hat: Estimate | None
    mean_peaks_hat: Estimate | None
    final_state: HeightProfile


class _Ring:
    """Mutable heights of the ring with its peak count and low-site count.

    ``drop`` applies tile drops in place, each in O(1 + avalanche length).
    A move is classified from the heights at the site and its two
    neighbours.  A local avalanche walks only the peeled segment.  A
    valley at height 1 triggers a global avalanche exactly when it is the
    only site at height <= 1 (``low`` counts those sites); it lowers every
    other height, which is O(L) but rare.  The peak count is updated from
    the sites whose status can change: the site, its neighbours and the
    far end of a peeled segment.
    """

    __slots__ = ("heights", "peaks", "low")
    name = "ring"

    def __init__(self, heights: HeightProfile) -> None:
        self.heights = list(heights)
        self.peaks = count_peaks(heights)
        self.low = sum(x <= 1 for x in heights)

    def drop(self, sites: Sequence[int]) -> tuple[np.ndarray, ...]:
        """Drop a tile at each site in turn.

        Returns per-drop arrays dPeak, dDiamond, dGlobal and the peak
        count after the drop.
        """
        h = self.heights
        length = len(h)
        peaks = self.peaks
        low = self.low
        n = len(sites)
        # compact typed buffers: a block's outputs stay a few hundred kB
        d_peak = array("b", bytes(n))
        d_diamond = array("i", bytes(4 * n))
        d_global = array("b", bytes(n))
        peaks_after = array("i", bytes(4 * n))
        for i, s in enumerate(sites):
            here = h[s]
            left = h[s - 1]
            # negative indices wrap, so s + 1 - length is the right
            # neighbour even at the last site
            right = h[s + 1 - length]
            if left < here and right < here:
                d_peak[i] = 1
            elif left > here and right > here:
                # the valley becomes a peak, and a neighbour whose outer
                # neighbour sits at the valley's height stops being one; at
                # L=2 the two neighbours are one site
                peaks += (1 - (h[s - 2] == here)
                          - (length > 2 and h[s + 2 - length] == here))
                if here == 1 and low == 1:
                    # global avalanche: lift the site by 2, then lower all
                    h[:] = [x - 2 for x in h]
                    h[s] = here
                    low = sum(x <= 1 for x in h)
                    d_diamond[i] = length
                    d_global[i] = 1
                else:
                    h[s] = here + 2
                    if here <= 1:
                        low -= 1
            else:
                # local avalanche: peel the segment uphill of the site up to
                # the first return to its height; j walks in negative or
                # in-range indices, so it never needs a modulo
                step = 1 if right > here else -1
                start = j = s + 1 - length if step == 1 else s - 1
                x = h[j]
                while x != here:
                    h[j] = x - 2
                    if x < 4:
                        low += 1
                    j += step
                    x = h[j]
                peeled = (j - start) * step
                # the site becomes a peak, a single peeled site was one,
                # and the far end becomes one if its outer neighbour is low
                peaks += 1 - (peeled == 1) + (h[j + step] == here - 1)
                d_diamond[i] = 1 + peeled
            peaks_after[i] = peaks
        self.peaks = peaks
        self.low = low
        return (np.frombuffer(d_peak, np.int8), np.frombuffer(d_diamond, np.intc),
                np.frombuffer(d_global, np.int8), np.frombuffer(peaks_after, np.intc))


@lru_cache(maxsize=None)
def _next_rows(length: int) -> list[int]:
    """The row state * L of each move's target, indexed by the move's flat
    index row + site in the table's (state, site) arrays."""
    return (transition_table(length).target * length).ravel().tolist()


class _TableRing:
    """The ring as a row of its transition table, with ``_Ring``'s interface.

    ``drop`` follows ``_next_rows`` one list lookup per event and reads
    the block's counters with one ``take`` per array from flat views of
    the table's own int8 columns; ``heights`` and ``peaks`` are looked
    up from the current row.
    """

    __slots__ = ("_table", "_next_row", "_length", "_row")
    name = "table"

    def __init__(self, heights: HeightProfile) -> None:
        heights = tuple(heights)
        self._length = length = len(heights)
        self._table = table = transition_table(length)
        self._next_row = _next_rows(length)
        state = bisect_left(table.states, heights)
        if state == len(table.states) or table.states[state] != heights:
            raise ValueError(f"not an admissible profile: {heights}")
        self._row = state * length

    @property
    def heights(self) -> HeightProfile:
        return self._table.states[self._row // self._length]

    @property
    def peaks(self) -> int:
        return int(self._table.peak_count[self._row // self._length])

    def drop(self, sites: Sequence[int]) -> tuple[np.ndarray, ...]:
        """Drop a tile at each site in turn.

        Returns per-drop arrays dPeak, dDiamond, dGlobal and the peak
        count after the drop.
        """
        table = self._table
        next_row = self._next_row
        row = start = self._row
        rows = [row := next_row[row + site] for site in sites]
        self._row = row
        # move k leaves the row that move k - 1 reached
        reached = np.array([start, *rows])
        move = reached[:-1] + np.asarray(sites, dtype=np.intp)
        return (table.d_peak.ravel().take(move), table.d_diamond.ravel().take(move),
                table.d_global.ravel().take(move),
                table.peak_count.take(reached[1:] // self._length))


def stepper_for(length: int) -> type:
    """The stepper class that simulates a ring of this length."""
    return _TableRing if length <= TABLE_MAX_LENGTH else _Ring


def _integral_at(times: np.ndarray, integral: np.ndarray, held: np.ndarray,
                 instants: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Events before each instant and the peak integral F up to it.

    times[k] carries F = integral[k], and the peak count held[k] holds
    until times[k + 1]; every instant lies in (times[0], times[-1]].
    """
    before = np.searchsorted(times, instants) - 1
    return before, integral[before] + held[before] * (instants - times[before])


def _batch_estimate(full_value: float, batch_values: np.ndarray) -> Estimate:
    if len(batch_values) < 2:
        return Estimate(full_value, float("inf"))
    return Estimate(full_value,
                    float(batch_values.std(ddof=1) / sqrt(len(batch_values))))


def simulate(cfg: SimConfig, log_writer: LogWriter | None = None) -> TrajectorySummary:
    """One exact continuous-time trajectory from the substrate.

    When cfg.report_every is set and a log_writer is given, a record with
    the running counters and drifts is emitted at every report tick.
    """
    length = cfg.length
    rng = np.random.default_rng(cfg.seed)
    ring = stepper_for(length)(substrate(length))
    time_mode = cfg.t_max is not None
    horizon = cfg.t_max
    budget = cfg.max_events

    if (horizon if time_mode else budget) == 0:
        return TrajectorySummary(length, cfg.seed, 0.0, EventCounters(), None, None, None,
                                 tuple(ring.heights))

    # batch k runs from boundary k to boundary k + 1.  Horizon runs cut
    # the time after the burn-in into equal slices; budget runs cut the
    # events after the burn-in into equal counts, and a boundary is the
    # time of the event that closes the previous batch.
    bound_time = np.full(_N_BATCHES + 1, np.nan)
    bound_integral = np.full(_N_BATCHES + 1, np.nan)
    if time_mode:
        burn_time = _BURN_FRACTION * horizon
        batch_span = (horizon - burn_time) / _N_BATCHES
        bound_time[:] = burn_time + np.arange(_N_BATCHES + 1) * batch_span
        bound_time[-1] = horizon
        next_bound = 0
    else:
        burn_events = int(_BURN_FRACTION * budget)
        events_per_batch = max(1, (budget - burn_events) // _N_BATCHES)
        bound_event = burn_events + np.arange(_N_BATCHES + 1) * events_per_batch
    batch_diamond = np.zeros(_N_BATCHES)
    batch_global = np.zeros(_N_BATCHES)

    next_report = cfg.report_every if log_writer is not None else None

    time_now = integral_now = 0.0
    peaks_now = ring.peaks
    n_total = n_peak = n_diamond = n_global = 0
    done = False
    while not done:
        waits = rng.exponential(1.0 / length, size=_BLOCK)
        sites = rng.integers(0, length, size=_BLOCK)
        # sequential sums from the carried time: bitwise the times of an
        # event-by-event loop
        times = np.cumsum(np.concatenate(([time_now], waits)))
        if time_mode:
            n = int(np.searchsorted(times[1:], horizon))
            done = n < _BLOCK
        else:
            n = min(_BLOCK, budget - n_total)
            done = n_total + n == budget
        # a memoryview yields Python ints, which index a list fast
        d_peak, d_diamond, d_global, peaks = ring.drop(memoryview(sites[:n]))
        # held[k] is the peak count from times[k] on; a horizon cut ends
        # the block at the horizon itself
        held = np.concatenate(([peaks_now], peaks))
        times = times[:n + 1]
        if time_mode and done:
            times = np.append(times, horizon)
        else:
            held = held[:-1]
        integral = np.cumsum(np.concatenate(([integral_now], held * np.diff(times))))

        event_times = times[1:n + 1]
        if time_mode:
            counted = event_times >= burn_time
            batch = np.minimum(
                _N_BATCHES - 1,
                ((event_times[counted] - burn_time) / batch_span).astype(np.int64))
            first = next_bound
            next_bound = int(np.searchsorted(bound_time, times[-1], side="right"))
            _, bound_integral[first:next_bound] = _integral_at(
                times, integral, held, bound_time[first:next_bound])
        else:
            index = np.arange(n_total, n_total + n) - burn_events
            counted = (index >= 0) & (index < _N_BATCHES * events_per_batch)
            batch = index[counted] // events_per_batch
            reached = (bound_event >= n_total) & (bound_event <= n_total + n)
            bound_time[reached] = times[bound_event[reached] - n_total]
            bound_integral[reached] = integral[bound_event[reached] - n_total]
        batch_diamond += np.bincount(batch, d_diamond[counted], _N_BATCHES)
        batch_global += np.bincount(batch, d_global[counted], _N_BATCHES)

        if next_report is not None and next_report <= times[-1]:
            ticks = []
            while next_report <= times[-1]:
                ticks.append(next_report)
                next_report += cfg.report_every
            before, tick_integral = _integral_at(times, integral, held, np.array(ticks))
            # running (n_total, n_peak, n_diamond, n_global) after each event
            running = np.cumsum(np.column_stack(
                (np.ones(n, np.int64), d_peak, d_diamond, d_global)), axis=0)
            running = np.vstack(([0, 0, 0, 0], running)) + (n_total, n_peak, n_diamond, n_global)
            for tick, k, tick_f in zip(ticks, before, tick_integral):
                total, peak, diamond, global_ = (int(x) for x in running[k])
                log_writer({
                    "time": tick,
                    "counters": EventCounters(total, peak, diamond, global_,
                                              total - peak - diamond),
                    "drift_diamond": diamond / tick,
                    "drift_global": global_ / tick,
                    "mean_peaks": float(tick_f) / tick,
                })

        n_total += n
        n_peak += int(d_peak.sum())
        n_diamond += int(d_diamond.sum())
        n_global += int(d_global.sum())
        time_now = float(times[-1])
        integral_now = float(integral[-1])
        peaks_now = ring.peaks

    state = tuple(ring.heights)
    counters = EventCounters(n_total, n_peak, n_diamond, n_global,
                             n_total - n_peak - n_diamond)
    # the stepper's evacuation counts must match the heights it left; a
    # raise, not an assert, so that python -O keeps the check
    if counters.n_tiles != tile_count(state):
        raise RuntimeError(
            f"tile bookkeeping broke: the counters leave {counters.n_tiles} tiles "
            f"stored, the final heights hold {tile_count(state)}")

    batch_time = np.diff(bound_time)
    complete = batch_time > 0
    batch_time = batch_time[complete]

    def estimate(total: float, batch_totals: np.ndarray) -> Estimate:
        return _batch_estimate(total / time_now, batch_totals[complete] / batch_time)

    return TrajectorySummary(
        length, cfg.seed, time_now, counters,
        estimate(n_diamond, batch_diamond),
        estimate(n_global, batch_global),
        estimate(integral_now, np.diff(bound_integral)),
        state)


def run_ensemble(cfg: SimConfig, n_replicas: int) -> list[TrajectorySummary]:
    """Independent replicas with derived seeds seed+k, k = 0..n-1."""
    if n_replicas < 1:
        raise ValueError(f"n_replicas must be >= 1, got {n_replicas}")
    return [simulate(replace(cfg, seed=cfg.seed + k)) for k in range(n_replicas)]


def pooled_estimate(values: list[float]) -> Estimate:
    """Mean of independent replica estimates with its standard error."""
    arr = np.asarray(values, dtype=float)
    return _batch_estimate(float(arr.mean()) if arr.size else float("nan"), arr)
