"""Kinetic Monte Carlo for the tile process.

All L site clocks carry unit rate, so the superposition samples the next
event as an exponential wait with rate L plus a uniformly chosen site.
Waits and sites are drawn in blocks of 2^14 from a single PCG64 stream
(a block of waits, then a block of sites), which makes every run bitwise
reproducible from its seed; the event times are a sequential cumulative
sum from the carried time, so they are the floats an event-by-event loop
produces, and a seed always gives the same trajectory.

Each block of sites goes through a stepper chosen by ring length.  Up to
``TABLE_MAX_LENGTH`` sites, ``_TableRing`` holds the state as a row of a
composed move table, which jumps k moves at once: the block's sites are
coded k at a time, one add and one list lookup per k events, the states
in between are rebuilt by vectorized gathers on the transition table, and
one ``take`` per per-event array reads the counters over flat views of
the table's columns.
Longer rings use ``_Ring``, a mutable-heights stepper that applies a drop
in O(1 + avalanche length) and keeps the peak count and the number of
sites at height <= 1 up to date; it is also the tests' reference for the
table stepper.  Both consume the same draws, so a seed gives the same
trajectory on either.

The accounting reads each block only where the run reports: at batch
boundaries, progress-log ticks and the block's end.  Those event indices
cut the block into a few segments; one ``reduceat`` per per-event array
sums them, and a cumulative sum of those few sums, added to the totals
carried in, gives the counters at every cut.  The peak count is
piecewise constant between events, so its integral F(t) is read the same
way at the last event before t, plus a linear piece up to t.  A batch's
amounts are the differences between its two boundaries.  Point
estimates are full-run counters (or F) over elapsed time; standard
errors come from batch means (30 equal batches after a 5% burn-in),
time-sliced when the run is bounded by a horizon and event-sliced when
it is bounded by an event budget.
"""

from __future__ import annotations

import logging
from array import array
from bisect import bisect_left
from dataclasses import dataclass, replace
from functools import lru_cache
from math import isfinite, sqrt
from time import perf_counter
from typing import Callable, Sequence

import numpy as np
# numpy loads its random submodule lazily: at import, not inside a run
from numpy.random import default_rng

from .profiles import (
    EventCounters,
    HeightProfile,
    check_length,
    count_peaks,
    substrate,
    tile_count,
    transition_table,
)

_BLOCK = 1 << 14
_N_BATCHES = 30
_BURN_FRACTION = 0.05
# entries of a composed move table (see _composed_rows): at most 1 MiB of list
_COMPOSED_ENTRIES = 1 << 17
# a progress-log record is about 190-230 bytes of JSON (L=64, up to 1e8
# events); a run whose log would pass 1 GiB at 256 bytes a record is
# refused before its first draw
_LOG_RECORD_BYTES = 256
_MAX_LOG_RECORDS = (1 << 30) // _LOG_RECORD_BYTES

log = logging.getLogger(__name__)

# Rings up to this length step through their transition table.  Longer
# rings walk the heights: above profiles.ENUMERATION_CAP there is no
# table, and from L = 12 on the composed table holds one move per lookup
# (at L = 16 even that exceeds _COMPOSED_ENTRIES), where the table
# stepper saves about 0.27 us per event, so building the tables (about
# 0.007, 0.025 and 0.11 s at L = 12, 14 and 16) pays for itself after
# about 3e4 events at L = 12 but only after 1e5 and 4e5 events at L = 14
# and 16, so short runs of those rings would lose time.
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
        check_length(self.length)
        if (self.t_max is None) == (self.max_events is None):
            raise ValueError("exactly one of t_max and max_events must be set")
        if self.t_max is not None and not (isfinite(self.t_max) and self.t_max >= 0):
            raise ValueError(f"t_max must be finite and nonnegative, got {self.t_max}")
        if self.max_events is not None and self.max_events < 0:
            raise ValueError(f"max_events must be nonnegative, got {self.max_events}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
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
def _composed_rows(length: int) -> tuple[int, list[int]]:
    """k and the composed move table: the row state * L**k that k moves reach.

    Entry state * L**k + code is the row of the state reached from state
    by dropping tiles at k consecutive sites, coded base L with the first
    site most significant.  k is the largest value that keeps the table
    within _COMPOSED_ENTRIES entries (at least 1, where the table is one
    row per move).  The entries point to n_states shared ints, so the
    list costs 8 bytes per entry.
    """
    started = perf_counter()
    target = transition_table(length).target
    n_states = len(target)
    k = 1
    while n_states * length ** (k + 1) <= _COMPOSED_ENTRIES:
        k += 1
    reached = np.arange(n_states)
    for _ in range(k):
        reached = target[reached].reshape(n_states, -1)
    stride = length ** k
    rows = [state * stride for state in range(n_states)]
    composed = list(map(rows.__getitem__, reached.ravel().tolist()))
    log.debug("composed moves (L=%d): %d per lookup, %d entries, built in %.1f ms",
              length, k, len(composed), 1e3 * (perf_counter() - started))
    return k, composed


class _TableRing:
    """The ring as a row of its composed move table, with ``_Ring``'s interface.

    ``drop`` codes a block's sites k at a time and follows
    ``_composed_rows`` one list lookup per k events.  The k - 1 states
    between lookups are rebuilt with vectorized gathers on the transition
    table's targets.  The counters are then read with one ``take`` per
    array from flat views of the table's own int8 columns; ``heights`` and
    ``peaks`` are looked up from the current row.
    """

    __slots__ = ("_table", "_composed", "_span", "_weights", "_stride", "_length", "_row")
    name = "table"

    def __init__(self, heights: HeightProfile) -> None:
        heights = tuple(heights)
        self._length = length = len(heights)
        self._table = table = transition_table(length)
        span, self._composed = _composed_rows(length)
        self._span = span
        # the base-L digit weights of k consecutive sites, first site most significant
        self._weights = length ** np.arange(span - 1, -1, -1)
        self._stride = length ** span
        state = bisect_left(table.states, heights)
        if state == len(table.states) or table.states[state] != heights:
            raise ValueError(f"not an admissible profile: {heights}")
        self._row = state * self._stride

    @property
    def heights(self) -> HeightProfile:
        return self._table.states[self._row // self._stride]

    @property
    def peaks(self) -> int:
        return int(self._table.peak_count[self._row // self._stride])

    def drop(self, sites: Sequence[int]) -> tuple[np.ndarray, ...]:
        """Drop a tile at each site in turn.

        Returns per-drop arrays dPeak, dDiamond, dGlobal and the peak
        count after the drop.
        """
        table = self._table
        length = self._length
        composed = self._composed
        span = self._span
        stride = self._stride
        sites = np.asarray(sites, dtype=np.intp)
        n = len(sites)
        lookups = n // span
        head = lookups * span
        codes = sites[:head].reshape(lookups, span) @ self._weights
        row = start = self._row
        rows = [row := composed[row + code] for code in memoryview(codes)]
        # state[i] is the state that move i leaves, and state[n] the last
        state = np.empty(n + 1, dtype=np.intp)
        state[0] = start // stride
        state[span:head + 1:span] = np.fromiter(rows, np.intp, lookups) // stride
        # the slices run to n: the tail's j-th event is the last of pass j,
        # after pass j - 1 has set the state it starts from
        target = table.target.ravel()
        for j in range(1, span):
            state[j:n + 1:span] = target.take(
                state[j - 1:n:span] * length + sites[j - 1:n:span])
        self._row = int(state[n]) * stride
        move = state[:-1] * length + sites
        return (table.d_peak.ravel().take(move), table.d_diamond.ravel().take(move),
                table.d_global.ravel().take(move), table.peak_count.take(state[1:]))


def stepper_for(length: int) -> type:
    """The stepper class that simulates a ring of this length."""
    return _TableRing if length <= TABLE_MAX_LENGTH else _Ring


def _cuts(reads: np.ndarray, end: int) -> np.ndarray:
    """0, the reads and end, sorted, each once (np.unique would import numpy.ma)."""
    cuts = np.sort(np.concatenate(([0], reads, [end])))
    return cuts[np.concatenate(([True], cuts[1:] != cuts[:-1]))]


def _prefix_sums(values: np.ndarray, cuts: np.ndarray, dtype: type) -> np.ndarray:
    """sum(values[:k]) at each cut k, then sum(values) if the cuts stop short of it.

    cuts rises strictly from 0 to at most len(values): one reduceat sums
    the segments between cuts, and a cumsum of those few sums the rest.
    """
    starts = cuts[:np.searchsorted(cuts, len(values))]
    sums = np.zeros(len(starts) + 1, dtype)
    np.cumsum(np.add.reduceat(values, starts, dtype=dtype), out=sums[1:])
    return sums


def _batch_estimate(full_value: float, batch_values: np.ndarray) -> Estimate:
    if len(batch_values) < 2:
        return Estimate(full_value, float("inf"))
    return Estimate(full_value,
                    float(batch_values.std(ddof=1) / sqrt(len(batch_values))))


def simulate(cfg: SimConfig, log_writer: LogWriter | None = None) -> TrajectorySummary:
    """One exact continuous-time trajectory from the substrate.

    A log_writer, which needs cfg.report_every, receives a record with the
    running counters and drifts at every report tick.  A log predicted to
    hold more than _MAX_LOG_RECORDS records (t_max / report_every, or
    max_events / (L * report_every) for an event budget, whose events come
    at rate L) is refused with ValueError before the first draw.
    """
    if log_writer is not None and cfg.report_every is None:
        raise ValueError("a log_writer needs cfg.report_every to set the tick spacing")
    if log_writer is not None:
        span = cfg.t_max if cfg.t_max is not None else cfg.max_events / cfg.length
        records = span / cfg.report_every
        if records > _MAX_LOG_RECORDS:
            raise ValueError(f"a progress log every {cfg.report_every:g} time units would "
                             f"hold {records:.3g} records, more than the {_MAX_LOG_RECORDS} "
                             f"({_LOG_RECORD_BYTES} bytes each) a log may hold")
    length = cfg.length
    rng = default_rng(cfg.seed)
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
    # time of the event that closes the previous batch.  bounds holds F
    # and the four counters at each boundary, NaN until it is reached.
    bound_time = np.full(_N_BATCHES + 1, np.nan)
    bounds = np.full((5, _N_BATCHES + 1), np.nan)
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

    # tick k sits at k * report_every, from its index k, so ticks do not drift
    next_tick = 1 if log_writer is not None else None

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
        # held[k] is the peak count from times[k] on, up to the horizon in its block
        held = np.concatenate(([peaks_now], peaks))
        times = times[:n + 1]
        if time_mode and done:
            times = np.append(times, horizon)
        area = held[:len(times) - 1] * np.diff(times)

        # each read is an instant and the index of the last event before
        # it; an event-mode boundary is the instant of its event
        if time_mode:
            first = next_bound
            next_bound = int(np.searchsorted(bound_time, times[-1], side="right"))
            reached = slice(first, next_bound)
            bound_at = np.searchsorted(times, bound_time[reached]) - 1
        else:
            reached = (bound_event >= n_total) & (bound_event <= n_total + n)
            bound_at = bound_event[reached] - n_total
            bound_time[reached] = times[bound_at]
        ticks = []
        while next_tick is not None and next_tick * cfg.report_every <= times[-1]:
            ticks.append(next_tick * cfg.report_every)
            next_tick += 1
        instants = np.concatenate((bound_time[reached], ticks))
        at = np.concatenate((bound_at, np.searchsorted(times, ticks) - 1))
        # F and the four counters after the block's first cuts[j] events
        cuts = _cuts(at, n)
        integral = integral_now + _prefix_sums(area, cuts, np.float64)
        seen = np.vstack((n_total + cuts,
                          n_peak + _prefix_sums(d_peak, cuts, np.int64),
                          n_diamond + _prefix_sums(d_diamond, cuts, np.int64),
                          n_global + _prefix_sums(d_global, cuts, np.int64)))
        j = np.searchsorted(cuts, at)
        read = np.vstack((integral[j] + held[at] * (instants - times[at]), seen[:, j]))
        bounds[:, reached] = read[:, :len(bound_at)]

        for tick, (tick_f, *counts) in zip(ticks, read[:, len(bound_at):].T.tolist()):
            total, peak, diamond, global_ = map(int, counts)
            log_writer({"time": tick,
                        "counters": EventCounters(total, peak, diamond, global_,
                                                  total - peak - diamond),
                        "drift_diamond": diamond / tick, "drift_global": global_ / tick,
                        "mean_peaks": tick_f / tick})

        time_now = float(times[-1])
        integral_now = float(integral[-1])
        peaks_now = ring.peaks
        n_total, n_peak, n_diamond, n_global = seen[:, -1].tolist()

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
    rates = np.diff(bounds)[:, complete] / batch_time[complete]
    return TrajectorySummary(
        length, cfg.seed, time_now, counters,
        _batch_estimate(n_diamond / time_now, rates[3]),
        _batch_estimate(n_global / time_now, rates[4]),
        _batch_estimate(integral_now / time_now, rates[0]),
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
