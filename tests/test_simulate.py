"""Continuous-time sampling: determinism, bookkeeping, and agreement
with the exact stationary values."""

import json
import re
import statistics
from dataclasses import replace
from pathlib import Path

import numpy as np
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


PINNED = json.loads((Path(__file__).parent / "data" / "simulate_pinned.json").read_text())


def _assert_pinned(got, want):
    # integers, times and drifts exactly.  The peak integral is a float sum
    # whose order the accounting may change: its estimate to 1e-12
    # relative, and its stderr, a spread of batch differences that cancel
    # leading digits, to 1e-12 of the estimate
    assert set(got) == set(want)
    for key, value in want.items():
        if key == "mean_peaks_hat":
            assert got[key]["value"] == pytest.approx(value["value"], rel=1e-12)
            assert got[key]["stderr"] == pytest.approx(value["stderr"],
                                                       abs=1e-12 * value["value"])
        elif key == "mean_peaks":
            assert got[key] == pytest.approx(value, rel=1e-12)
        else:
            assert got[key] == value, key


@pytest.mark.parametrize("name", sorted(PINNED))
def test_trajectories_match_the_pinned_runs(name):
    # tests/data/simulate_pinned.json holds whole runs at the default block
    # length, written by the accounting that kept a per-event running record
    case = PINNED[name]
    cfg = SimConfig(**case["config"])
    records = []
    if cfg.report_every is None:
        runs = run_ensemble(cfg, case["replicas"])
    else:
        runs = [simulate(cfg, log_writer=records.append)]
        assert len(records) == len(case["log"])
        for got, want in zip(_jsonable(records), case["log"]):
            _assert_pinned(got, want)
    assert len(runs) == len(case["runs"])
    for got, want in zip(_jsonable(runs), case["runs"]):
        _assert_pinned(got, want)


@pytest.mark.parametrize("dtype", [np.int8, np.intc, np.float64])
@pytest.mark.parametrize("n", [0, 1, 2, 37, 5000])
def test_prefix_sums_match_cumsum(dtype, n):
    rng = np.random.default_rng(n)
    if dtype == np.float64:
        values, acc = rng.random(n), np.float64
    else:
        values, acc = rng.integers(-100, 100, n).astype(dtype), np.int64
    running = np.concatenate(([0], np.cumsum(values, dtype=acc)))
    # a counter's cuts end at n; the peak area of a horizon run's last
    # block has one entry past its last event, so its cuts end short
    for end in {n, max(n - 1, 0)}:
        for reads in ([], [0], [end], [0, 0, end, end], [end, 0, end // 2, end // 2],
                      rng.integers(0, end + 1, 300), range(end + 1)):
            reads = np.asarray(reads, np.intp)
            cuts = simulate_mod._cuts(reads, end)
            assert cuts[0] == 0 and (np.diff(cuts) > 0).all()
            assert set(cuts.tolist()) == {0, end, *reads.tolist()}
            got = simulate_mod._prefix_sums(values, cuts, acc)
            want = running[cuts] if end == n else running[np.append(cuts, n)]
            assert got.dtype == acc
            if acc == np.int64:
                assert (got == want).all()
            else:
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
