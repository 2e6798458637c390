"""Continuous-time sampling: determinism, bookkeeping, and agreement
with the exact stationary values."""

import re
import statistics
from dataclasses import replace

import pytest

import raisepeel.simulate as simulate_mod
from raisepeel.cli import _jsonable
from raisepeel.profiles import tile_count
from raisepeel.simulate import (
    Estimate,
    SimConfig,
    TrajectorySummary,
    pooled_estimate,
    run_ensemble,
    simulate,
)
from raisepeel.stationary import (
    diamond_current_formula,
    global_current_formula,
    peak_mean_formula,
)


@pytest.mark.parametrize("kwargs", [
    dict(length=5, t_max=10.0),                       # odd ring
    dict(length=0, t_max=10.0),
    dict(length=4),                                   # no stopping rule
    dict(length=4, t_max=10.0, max_events=100),       # two stopping rules
    dict(length=4, t_max=-1.0),
    dict(length=4, t_max=float("inf")),               # never reached
    dict(length=4, max_events=-5),
    dict(length=4, t_max=10.0, report_every=0.0),
])
def test_config_validation(kwargs):
    with pytest.raises(ValueError):
        SimConfig(**kwargs)


def test_determinism_and_seed_sensitivity():
    cfg = SimConfig(length=6, t_max=300.0, seed=11)
    a = simulate(cfg)
    b = simulate(cfg)
    assert a == b
    c = simulate(replace(cfg, seed=12))
    assert replace(c, seed=a.seed) != a


def test_zero_event_budget():
    summary = simulate(SimConfig(length=4, max_events=0, seed=3))
    assert summary.counters.n_total == 0
    assert summary.elapsed_time == 0.0
    assert summary.drift_diamond_hat is None
    assert summary.drift_global_hat is None
    assert summary.mean_peaks_hat is None
    assert summary.final_state == (0, 1, 0, 1)


def test_estimates_are_counter_over_time():
    summary = simulate(SimConfig(length=4, t_max=500.0, seed=2))
    c = summary.counters
    assert summary.drift_diamond_hat.value == c.n_diamond / summary.elapsed_time
    assert summary.drift_global_hat.value == c.n_global / summary.elapsed_time


def test_final_bookkeeping_is_exact():
    summary = simulate(SimConfig(length=8, t_max=200.0, seed=9))
    assert summary.counters.balanced
    assert summary.counters.n_tiles == tile_count(summary.final_state)
    assert isinstance(summary, TrajectorySummary)


def test_time_mode_three_sigma_agreement():
    summary = simulate(SimConfig(length=4, t_max=1e4, seed=7))
    assert summary.drift_diamond_hat.within(float(diamond_current_formula(4)))
    assert summary.drift_global_hat.within(float(global_current_formula(4)))
    assert summary.mean_peaks_hat.within(float(peak_mean_formula(4)))


def test_event_mode_three_sigma_agreement():
    summary = simulate(SimConfig(length=4, max_events=20000, seed=5))
    assert summary.counters.n_total == 20000
    assert summary.drift_diamond_hat.within(float(diamond_current_formula(4)))
    assert summary.drift_global_hat.within(float(global_current_formula(4)))
    # event batches slice the peak integral too, so it has an error bar
    assert summary.mean_peaks_hat.within(float(peak_mean_formula(4)))


def test_ensemble_seeding_and_determinism():
    cfg = SimConfig(length=4, t_max=200.0, seed=40)
    runs = run_ensemble(cfg, 4)
    assert len(runs) == 4
    again = run_ensemble(cfg, 4)
    for x, y in zip(runs, again):
        assert x == y
    # replica k is exactly the single run with seed 40 + k
    direct = simulate(replace(cfg, seed=42))
    assert runs[2] == direct


def test_pooling_tightens_the_error_bar():
    # sixteen replicas give close to a fourfold reduction; the band is
    # wide because both error estimates are themselves noisy
    runs = run_ensemble(SimConfig(length=4, t_max=2000.0, seed=101), 16)
    mean_single = statistics.mean(r.drift_diamond_hat.stderr for r in runs)
    pooled = pooled_estimate([r.drift_diamond_hat.value for r in runs])
    ratio = mean_single / pooled.stderr
    assert 2.5 <= ratio <= 6.5
    assert pooled.value == pytest.approx(float(diamond_current_formula(4)),
                                         abs=3 * pooled.stderr)


def test_pooled_estimate_small_and_large_pools():
    empty = pooled_estimate([])
    assert empty.value != empty.value and empty.stderr == float("inf")
    assert pooled_estimate([2.5]) == Estimate(2.5, float("inf"))
    pooled = pooled_estimate([1.0, 2.0, 4.0])
    assert pooled.value == pytest.approx(7 / 3)
    assert pooled.stderr == pytest.approx(statistics.stdev([1.0, 2.0, 4.0]) / 3 ** 0.5)


def test_progress_log_records():
    records = []
    cfg = SimConfig(length=4, t_max=50.0, seed=1, report_every=10.0)
    simulate(cfg, log_writer=records.append)
    assert [r["time"] for r in records] == [10.0, 20.0, 30.0, 40.0, 50.0]
    totals = [r["counters"].n_total for r in records]
    assert totals == sorted(totals)
    for r in records:
        assert set(r) == {"time", "counters", "drift_diamond",
                          "drift_global", "mean_peaks"}
        assert r["drift_diamond"] == r["counters"].n_diamond / r["time"]


def test_log_writer_without_report_every_is_refused():
    # refused before the first draw, not with a TypeError at the first tick
    records = []
    with pytest.raises(ValueError, match="report_every"):
        simulate(SimConfig(length=4, t_max=10.0), log_writer=records.append)
    assert records == []


@pytest.mark.parametrize("cfg, predicted", [
    (SimConfig(length=4, t_max=1.0, report_every=1e-9), "1e+09"),
    # an event budget lasts about max_events / L time units
    (SimConfig(length=8, max_events=4 * 10 ** 7, report_every=1.0), "5e+06"),
], ids=["horizon", "budget"])
def test_oversized_progress_log_is_refused_before_the_first_draw(monkeypatch, cfg, predicted):
    def no_draws(seed):
        raise AssertionError("the run drew random numbers")

    monkeypatch.setattr(simulate_mod, "default_rng", no_draws)
    records = []
    with pytest.raises(ValueError, match=re.escape(
            f"hold {predicted} records, more than the {simulate_mod._MAX_LOG_RECORDS} ")):
        simulate(cfg, log_writer=records.append)
    assert records == []


def test_progress_ticks_sit_on_an_exact_grid():
    # a running sum of 0.1 would put the 8th tick at 0.7999999999999999
    records = []
    cfg = SimConfig(length=4, t_max=1.0, seed=0, report_every=0.1)
    simulate(cfg, log_writer=records.append)
    assert [r["time"] for r in records] == [k * 0.1 for k in range(1, 11)]


def test_estimate_json_and_within():
    est = Estimate(1.5, 0.1)
    assert est.within(1.7, n_sigma=3.0)
    assert not est.within(1.9, n_sigma=3.0)
    # too few batches leave an infinite stderr, written as null
    assert _jsonable(est) == {"value": 1.5, "stderr": 0.1}
    assert _jsonable(Estimate(2.0, float("inf"))) == {"value": 2.0, "stderr": None}
    # an estimate without an error bar agrees with nothing, not everything
    assert not Estimate(2.0, float("inf")).within(2.0)
    assert not Estimate(2.0, float("nan")).within(2.0)
    # zero spread demands exact agreement
    flat = Estimate(1.0, 0.0)
    assert flat.within(1.0)
    assert not flat.within(1.0000001)
