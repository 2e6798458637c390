"""Kinetic Monte Carlo for the tile process.

All L site clocks carry unit rate, so the superposition samples the next
event as an exponential wait with rate L plus a uniformly chosen site;
waits and sites are drawn in blocks from a single PCG64 stream, which
makes every run bitwise reproducible from its seed.  Time averages use
exact piecewise-constant integration between events.  Point estimates
are always full-run counters over elapsed time; standard errors come
from batch means (30 equal batches after a 5% burn-in), time-sliced when
the run is bounded by a horizon and event-sliced when it is bounded by
an event budget.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from math import isfinite, sqrt
from typing import Callable

import numpy as np

from .profiles import (
    EventCounters,
    HeightProfile,
    apply_move,
    count_peaks,
    substrate,
    tile_count,
)

_BLOCK = 1 << 14
_N_BATCHES = 30
_BURN_FRACTION = 0.05

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
        if self.t_max is not None and not self.t_max >= 0:
            raise ValueError(f"t_max must be nonnegative, got {self.t_max}")
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

    def as_json_dict(self) -> dict:
        # a non-finite stderr (too few batches) serializes as null: strict
        # JSON has no Infinity literal
        return {"value": self.value,
                "stderr": self.stderr if isfinite(self.stderr) else None}


@dataclass(frozen=True)
class TrajectorySummary:
    """Full-run counters and the three empirical time averages."""
    config: SimConfig
    elapsed_time: float
    counters: EventCounters
    drift_diamond_hat: Estimate | None
    drift_global_hat: Estimate | None
    mean_peaks_hat: Estimate | None
    final_state: HeightProfile

    def as_json_dict(self) -> dict:
        return {
            "length": self.config.length,
            "seed": self.config.seed,
            "elapsed_time": self.elapsed_time,
            "counters": self.counters.as_json_dict(),
            "drift_diamond_hat":
                self.drift_diamond_hat.as_json_dict() if self.drift_diamond_hat else None,
            "drift_global_hat":
                self.drift_global_hat.as_json_dict() if self.drift_global_hat else None,
            "mean_peaks_hat":
                self.mean_peaks_hat.as_json_dict() if self.mean_peaks_hat else None,
            "final_state": list(self.final_state),
        }


class _BlockSampler:
    """Amortized draws of (wait, site) pairs from one generator stream."""

    def __init__(self, seed: int, length: int) -> None:
        self._rng = np.random.default_rng(seed)
        self._scale = 1.0 / length
        self._length = length
        self._waits = np.empty(0)
        self._sites = np.empty(0, dtype=np.int64)
        self._cursor = 0

    def draw(self) -> tuple[float, int]:
        if self._cursor == len(self._waits):
            self._waits = self._rng.exponential(self._scale, size=_BLOCK)
            self._sites = self._rng.integers(0, self._length, size=_BLOCK)
            self._cursor = 0
        k = self._cursor
        self._cursor += 1
        return float(self._waits[k]), int(self._sites[k])


def _batch_estimate(full_value: float, batch_values: list[float]) -> Estimate:
    if len(batch_values) < 2:
        return Estimate(full_value, float("inf"))
    arr = np.asarray(batch_values)
    return Estimate(full_value,
                    float(arr.std(ddof=1) / sqrt(len(arr))))


def simulate(cfg: SimConfig, log_writer: LogWriter | None = None) -> TrajectorySummary:
    """One exact continuous-time trajectory from the substrate.

    When cfg.report_every is set and a log_writer is given, a record with
    the running counters and drifts is emitted at every report tick.
    """
    length = cfg.length
    sampler = _BlockSampler(cfg.seed, length)
    state = substrate(length)
    peaks_now = count_peaks(state)

    time_now = 0.0
    n_total = n_peak = n_diamond = n_global = n_tiles = 0
    peak_integral = 0.0

    time_mode = cfg.t_max is not None
    horizon = cfg.t_max if time_mode else None
    budget = cfg.max_events if not time_mode else None

    # batch bookkeeping: slices of equal time (horizon runs) or equal
    # event count (budget runs) after the burn-in
    if time_mode and horizon > 0:
        burn_time = _BURN_FRACTION * horizon
        batch_span = (horizon - burn_time) / _N_BATCHES
    else:
        burn_time = batch_span = 0.0
    if not time_mode and budget > 0:
        burn_events = int(_BURN_FRACTION * budget)
        events_per_batch = max(1, (budget - burn_events) // _N_BATCHES)
    else:
        burn_events = events_per_batch = 0
    batch_diamond = [0.0] * _N_BATCHES
    batch_global = [0.0] * _N_BATCHES
    batch_peak_integral = [0.0] * _N_BATCHES
    batch_time = [0.0] * _N_BATCHES
    # event-mode batch clock: opens at the event preceding the batch's
    # first counted event so every batch spans exactly its own waits
    batch_open_time: float | None = None
    prev_event_time = 0.0

    def time_batch(instant: float) -> int:
        if batch_span <= 0 or instant < burn_time:
            return -1
        return min(_N_BATCHES - 1, int((instant - burn_time) / batch_span))

    def add_peak_interval(start: float, stop: float) -> None:
        # spread peaks_now * dt across the time batches the interval covers
        nonlocal peak_integral
        peak_integral += peaks_now * (stop - start)
        if not time_mode or batch_span <= 0:
            return
        a = max(start, burn_time)
        while a < stop:
            k = time_batch(a)
            edge = min(stop, burn_time + (k + 1) * batch_span)
            if edge <= a:
                # rounding in time_batch can leave a sitting on (or one ulp
                # past) the batch edge; step to the next boundary so the
                # loop always advances
                k = min(k + 1, _N_BATCHES - 1)
                edge = min(stop, burn_time + (k + 1) * batch_span)
                if edge <= a:
                    edge = stop
            batch_peak_integral[k] += peaks_now * (edge - a)
            batch_time[k] += edge - a
            a = edge

    def event_batch(event_index: int) -> int:
        # event_index is zero-based among post-burn-in events
        if events_per_batch == 0:
            return -1
        k = event_index // events_per_batch
        return k if k < _N_BATCHES else -1

    next_report = cfg.report_every if cfg.report_every else None

    def emit_reports(upto: float) -> None:
        nonlocal next_report
        if next_report is None or log_writer is None:
            return
        while next_report <= upto:
            elapsed = next_report
            log_writer({
                "time": elapsed,
                "counters": EventCounters(
                    n_total, n_peak, n_diamond, n_global, n_tiles).as_json_dict(),
                "drift_diamond": n_diamond / elapsed,
                "drift_global": n_global / elapsed,
                "mean_peaks": peak_integral_at(elapsed),
            })
            next_report += cfg.report_every

    def peak_integral_at(instant: float) -> float:
        # integrals are updated only at event times; extend to the tick
        return (peak_integral + peaks_now * (instant - time_now)) / instant

    while True:
        if not time_mode and n_total >= budget:
            break
        wait, site = sampler.draw()
        event_time = time_now + wait
        if time_mode and event_time >= horizon:
            emit_reports(horizon)
            add_peak_interval(time_now, horizon)
            time_now = horizon
            break
        emit_reports(event_time)
        add_peak_interval(time_now, event_time)
        time_now = event_time

        record = apply_move(state, site)
        state = record.target
        n_total += 1
        n_peak += record.delta_peak
        n_diamond += record.delta_diamond
        n_global += record.delta_global
        n_tiles += record.delta_tiles
        peaks_now = count_peaks(state)

        if time_mode:
            k = time_batch(event_time)
            if k >= 0:
                batch_diamond[k] += record.delta_diamond
                batch_global[k] += record.delta_global
        else:
            idx = n_total - 1 - burn_events
            if idx >= 0:
                k = event_batch(idx)
                if k >= 0:
                    if batch_open_time is None:
                        batch_open_time = prev_event_time
                    batch_diamond[k] += record.delta_diamond
                    batch_global[k] += record.delta_global
                    # close the batch clock on its last event
                    if (idx + 1) % events_per_batch == 0:
                        batch_time[k] += time_now - batch_open_time
                        batch_open_time = time_now
        prev_event_time = time_now

    counters = EventCounters(n_total, n_peak, n_diamond, n_global, n_tiles)
    assert counters.balanced
    assert n_tiles == tile_count(state)

    if time_now <= 0.0:
        return TrajectorySummary(cfg, time_now, counters, None, None, None, state)

    complete = [k for k in range(_N_BATCHES) if batch_time[k] > 0]
    diamond = _batch_estimate(
        n_diamond / time_now,
        [batch_diamond[k] / batch_time[k] for k in complete])
    global_ = _batch_estimate(
        n_global / time_now,
        [batch_global[k] / batch_time[k] for k in complete])
    if time_mode:
        peaks = _batch_estimate(
            peak_integral / time_now,
            [batch_peak_integral[k] / batch_time[k] for k in complete])
    else:
        # event-bounded runs do not slice the peak integral, so the
        # full-run average carries no error bar
        peaks = Estimate(peak_integral / time_now, float("inf"))
    return TrajectorySummary(cfg, time_now, counters, diamond, global_, peaks, state)


def mean_peaks_time_average(cfg: SimConfig, log_writer: LogWriter | None = None) -> Estimate:
    """Time-weighted average of the peak count along one trajectory."""
    summary = simulate(cfg, log_writer)
    if summary.mean_peaks_hat is None:
        raise ValueError("configuration produced no elapsed time")
    return summary.mean_peaks_hat


def run_ensemble(cfg: SimConfig, n_replicas: int) -> list[TrajectorySummary]:
    """Independent replicas with derived seeds seed+k, k = 0..n-1."""
    if n_replicas < 1:
        raise ValueError(f"n_replicas must be >= 1, got {n_replicas}")
    return [simulate(replace(cfg, seed=cfg.seed + k)) for k in range(n_replicas)]


def pooled_estimate(values: list[float]) -> Estimate:
    """Mean of independent replica estimates with its standard error."""
    arr = np.asarray(values, dtype=float)
    if arr.size < 2:
        return Estimate(float(arr.mean()) if arr.size else float("nan"), float("inf"))
    return Estimate(float(arr.mean()), float(arr.std(ddof=1) / sqrt(arr.size)))
