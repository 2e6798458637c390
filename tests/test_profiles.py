"""State space, move classification, and single-event bookkeeping.

The move oracles below were worked out by hand; the exhaustive
suites then push the same invariants across every state and site for
rings up to length 10, and the numpy transition table is checked against
the reference move for every state and site up to length 12 and on a
fixed-seed sample at lengths 14, 16 and 18.
"""

import ast
import importlib
from math import comb
from pathlib import Path

import numpy as np
import pytest

import raisepeel.profiles as profiles
import raisepeel.simulate as simulate
import raisepeel.stationary as stationary
from raisepeel.profiles import (
    EventCounters,
    MoveClass,
    TransitionRecord,
    apply_move,
    classify_move,
    count_peaks,
    enumerate_states,
    in_omega_global,
    local_minima,
    substrate,
    tile_count,
    transition_table,
    transitions,
)
from profile_rules import check_profile

LENGTHS = (2, 4, 6, 8, 10)

# states of the length-4 ring in lexicographic order
L4_STATES = (
    (0, 1, 0, 1),
    (0, 1, 2, 1),
    (2, 1, 0, 1),
    (2, 1, 2, 1),
    (2, 1, 2, 3),
    (2, 3, 2, 1),
)


def test_substrate_and_validation():
    assert substrate(4) == (0, 1, 0, 1)
    assert substrate(8) == (0, 1, 0, 1, 0, 1, 0, 1)
    check_profile(substrate(6))
    check_profile((2, 1, 2, 3))


@pytest.mark.parametrize("bad", [
    (0, 1, 0),            # odd length
    (0, -1, 0, 1),        # negative height
    (1, 0, 1, 0),         # parity broken
    (0, 1, 0, 3),         # step of size 3
    (2, 3, 2, 3),         # detached from the bottom (minimum 2)
])
def test_check_profile_rejects(bad):
    with pytest.raises(ValueError):
        check_profile(bad)


def test_state_counts():
    # central binomial coefficients C(L, L/2)
    for length in LENGTHS:
        states = enumerate_states(length)
        assert len(states) == comb(length, length // 2)
    assert len(enumerate_states(2)) == 2
    assert len(enumerate_states(8)) == 70
    with pytest.raises(ValueError):
        enumerate_states(20)     # above the enumeration cap


def test_enumeration_refuses_what_memory_cannot_hold(monkeypatch):
    # the refusal comes before the enumeration allocates anything; the
    # cached enumeration is bypassed so that the check runs
    monkeypatch.setattr(profiles, "_available_memory", lambda: 100 << 20)
    with pytest.raises(MemoryError, match=r"at length 18 needs about 213\.9 MB, and 100\.0 MB"):
        enumerate_states.__wrapped__(18)
    assert len(enumerate_states.__wrapped__(16)) == comb(16, 8)
    monkeypatch.setattr(profiles, "_available_memory", lambda: None)
    assert len(enumerate_states.__wrapped__(4)) == 6


def test_memory_estimate_grows_with_the_state_space():
    estimates = [profiles.memory_estimate(length) for length in range(2, 21, 2)]
    assert estimates == sorted(estimates)
    assert profiles.memory_estimate(18) > 128 << 20   # measured peak above start-up
    available = profiles._available_memory()
    assert available is None or available > 0


@pytest.mark.parametrize("length", range(2, 17, 2))
def test_enumeration_is_sorted_by_the_lookup_key(monkeypatch, length):
    # transition_table finds targets by searchsorted on _keys, so the
    # enumeration sorts by that one key, which orders profiles
    # lexicographically, and follows it when the key changes
    states = enumerate_states(length)
    assert list(states) == sorted(states)
    assert (np.diff(profiles._keys(np.array(states))) > 0).all()
    original = profiles._keys
    monkeypatch.setattr(profiles, "_keys", lambda heights: -original(heights))
    assert profiles.enumerate_states.__wrapped__(length) == states[::-1]


def test_l4_states_frozen():
    assert enumerate_states(4) == L4_STATES


def test_enumeration_against_brute_force_l6():
    # independent oracle: all cyclic walks with +-1 steps, the parity
    # anchor, nonnegative heights, and minimum at most 1
    found = set()
    for h0 in range(0, 7, 2):
        stack = [(h0,)]
        while stack:
            prefix = stack.pop()
            if len(prefix) == 6:
                if abs(prefix[-1] - h0) == 1 and min(prefix) <= 1:
                    found.add(prefix)
                continue
            for step in (-1, 1):
                nxt = prefix[-1] + step
                if nxt >= 0:
                    stack.append(prefix + (nxt,))
    assert found == set(enumerate_states(6))


def test_classify_moves_on_l4():
    assert classify_move((0, 1, 0, 1), 0) == MoveClass.ADSORPTION
    assert classify_move((0, 1, 0, 1), 1) == MoveClass.REFLECTION
    assert classify_move((2, 1, 2, 1), 0) == MoveClass.REFLECTION
    assert classify_move((2, 1, 2, 1), 1) == MoveClass.ADSORPTION
    assert classify_move((2, 1, 2, 3), 1) == MoveClass.GLOBAL_AVALANCHE
    assert classify_move((2, 1, 2, 3), 3) == MoveClass.REFLECTION
    # slope sites of (2,1,2,3) launch local avalanches
    assert classify_move((2, 1, 2, 3), 0) == MoveClass.LOCAL_AVALANCHE
    assert classify_move((2, 1, 2, 3), 2) == MoveClass.LOCAL_AVALANCHE


def test_adsorption_move():
    rec = apply_move((0, 1, 2, 1), 0)
    assert rec.move_class == MoveClass.ADSORPTION
    assert rec.target == (2, 1, 2, 1)
    assert (rec.delta_peak, rec.delta_diamond, rec.delta_global, rec.delta_tiles) == (0, 0, 0, 1)


def test_reflection_move():
    rec = apply_move((2, 1, 2, 3), 3)
    assert rec.move_class == MoveClass.REFLECTION
    assert rec.target == (2, 1, 2, 3)
    assert (rec.delta_peak, rec.delta_diamond, rec.delta_global, rec.delta_tiles) == (1, 0, 0, 0)


def test_global_avalanche_move():
    # the unique level-1 valley of (2,1,2,3); raising it fills the ring
    # to minimum 2 and both layers peel off
    rec = apply_move((2, 1, 2, 3), 1)
    assert rec.move_class == MoveClass.GLOBAL_AVALANCHE
    assert rec.target == (0, 1, 0, 1)
    assert rec.delta_global == 1
    assert rec.delta_diamond == 4
    assert rec.delta_tiles == -3
    assert rec.delta_peak == 0


def test_local_avalanche_rightward():
    # ascending slope at site 0 of (2,3,2,1,0,1): the matching height 2
    # reappears at site 2, so only site 1 is peeled
    rec = apply_move((2, 3, 2, 1, 0, 1), 0)
    assert rec.move_class == MoveClass.LOCAL_AVALANCHE
    assert rec.target == (2, 1, 2, 1, 0, 1)
    assert rec.delta_diamond == 2
    assert rec.delta_tiles == -1


def test_local_avalanche_leftward():
    # descending slope at site 3 of (2,3,2,1,0,1): scanning left, height 1
    # reappears at site 5 (cyclically), peeling sites 0, 1, 2
    rec = apply_move((2, 3, 2, 1, 0, 1), 3)
    assert rec.move_class == MoveClass.LOCAL_AVALANCHE
    assert rec.target == (0, 1, 0, 1, 0, 1)
    assert rec.delta_diamond == 4
    assert rec.delta_tiles == -3


def test_tile_count_and_peaks():
    assert tile_count((0, 1, 0, 1)) == 0
    assert tile_count((2, 1, 2, 3)) == 3
    assert count_peaks((0, 1, 0, 1)) == 2
    assert count_peaks((2, 1, 2, 3)) == 1
    assert count_peaks((0, 1)) == 1
    assert local_minima((2, 1, 2, 3)) == [1]


def test_omega_window_examples():
    assert in_omega_global((2, 1, 2, 3))
    assert not in_omega_global((0, 1, 0, 1))      # level-0 valleys exist
    assert not in_omega_global((2, 1, 2, 1))      # two level-1 valleys
    assert in_omega_global((2, 1))


def test_transition_records_shape():
    recs = transitions((2, 1, 2, 3))
    assert len(recs) == 4
    assert all(isinstance(r, TransitionRecord) for r in recs)
    assert [r.site for r in recs] == [0, 1, 2, 3]
    assert recs[1].move_class is MoveClass.GLOBAL_AVALANCHE
    assert recs[1].delta_diamond == 4


def test_event_counters():
    c = EventCounters(0, 0, 0, 0, 0)
    c = c.advanced(apply_move((0, 1, 0, 1), 0))       # adsorption
    c = c.advanced(apply_move((2, 1, 0, 1), 2))       # adsorption
    assert c.n_total == 2
    assert c.n_tiles == 2
    assert c.balanced


# ---------------------------------------------------------------------------
# exhaustive structural suites


@pytest.mark.parametrize("length", LENGTHS)
def test_closure_and_balance_exhaustive(length):
    states = set(enumerate_states(length))
    for h in states:
        for rec in transitions(h):
            assert rec.target in states
            assert rec.delta_peak + rec.delta_diamond + rec.delta_tiles == 1
            assert tile_count(rec.target) == tile_count(h) + rec.delta_tiles
            if rec.move_class == MoveClass.LOCAL_AVALANCHE:
                assert rec.delta_diamond >= 2
            if rec.move_class == MoveClass.GLOBAL_AVALANCHE:
                assert rec.delta_global == 1
                assert rec.delta_diamond == length
            else:
                assert rec.delta_global == 0


@pytest.mark.parametrize("length", LENGTHS)
def test_trigger_equivalence_exhaustive(length):
    # a full two-layer removal is possible exactly on the states with no
    # level-0 valley and a single level-1 valley, and then from exactly
    # one site
    for h in enumerate_states(length):
        globals_from = [r.site for r in transitions(h)
                        if r.move_class == MoveClass.GLOBAL_AVALANCHE]
        if in_omega_global(h):
            assert len(globals_from) == 1
        else:
            assert globals_from == []


@pytest.mark.parametrize("length", LENGTHS)
def test_peak_reflection_correspondence(length):
    for h in enumerate_states(length):
        reflections = [r for r in transitions(h)
                       if r.move_class == MoveClass.REFLECTION]
        assert len(reflections) == count_peaks(h)
        assert all(r.target == h and r.delta_peak == 1 for r in reflections)


@pytest.mark.parametrize("length", LENGTHS)
def test_irreducibility_exhaustive(length):
    states = enumerate_states(length)
    index = {s: k for k, s in enumerate(states)}
    forward = [set() for _ in states]
    backward = [set() for _ in states]
    for s in states:
        for rec in transitions(s):
            if rec.target != s:
                forward[index[s]].add(index[rec.target])
                backward[index[rec.target]].add(index[s])
    for adjacency in (forward, backward):
        seen = {0}
        frontier = [0]
        while frontier:
            seen.update(nxt := set().union(*(adjacency[k] for k in frontier)) - seen)
            frontier = list(nxt)
        assert len(seen) == len(states)


def check_table_entry(table, k, site):
    """One entry of the shared table against the reference move; returns its class."""
    h = table.states[k]
    rec = apply_move(h, site)
    assert table.states[table.target[k, site]] == rec.target
    assert table.d_peak[k, site] == rec.delta_peak
    assert table.d_diamond[k, site] == rec.delta_diamond
    assert table.d_global[k, site] == rec.delta_global
    assert table.peak_count[k] == count_peaks(h)
    assert table.omega[k] == in_omega_global(h)
    return rec.move_class


@pytest.mark.parametrize("length", LENGTHS + (12,))
def test_transition_table_matches_apply_move(length):
    table = transition_table(length)
    assert table.states == enumerate_states(length)
    assert table.target.shape == (len(table.states), length)
    for k in range(len(table.states)):
        for site in range(length):
            check_table_entry(table, k, site)


@pytest.mark.parametrize("length", [14, 16, 18])
def test_transition_table_matches_apply_move_sampled(length):
    # a fixed-seed sample of (state, site) pairs where the full sweep is slow
    table = transition_table(length)
    rng = np.random.default_rng(length)
    pairs = zip(rng.integers(len(table.states), size=300), rng.integers(length, size=300))
    assert {check_table_entry(table, k, site) for k, site in pairs} == set(MoveClass)


def test_tracer_wraps_live_names(monkeypatch):
    # the benchmark tracer times these names by rebinding them; every one
    # must exist, and the table must reach the enumeration through the
    # module global so that its span is recorded
    tracer = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    wrapped = next(
        ast.literal_eval(node.value) for node in ast.parse(tracer.read_text()).body
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "WRAPPED")
    for module, names in wrapped.items():
        for name in names:
            assert callable(getattr(importlib.import_module(f"raisepeel.{module}"), name))

    calls = []
    enumerate_original = profiles.enumerate_states

    def counting(length):
        calls.append(length)
        return enumerate_original(length)

    monkeypatch.setattr(profiles, "enumerate_states", counting)
    transition_table.cache_clear()
    transition_table(4)
    assert calls == [4]


def test_transition_table_refuses_states_the_rotation_does_not_permute(monkeypatch):
    # the columns past site 0 are gathered through the inverse of the
    # shifted rotation, which a state set it leaves does not have
    states = enumerate_states(6)
    monkeypatch.setattr(profiles, "enumerate_states", lambda length: states[:-1])
    transition_table.cache_clear()
    with pytest.raises(RuntimeError, match="rotation does not permute the L=6 states"):
        transition_table(6)


@pytest.mark.parametrize("length", [2, 8, 12])
def test_every_route_reads_the_one_table(length):
    # one per-length copy of the moves: the stationary layer and the table
    # stepper hold transition_table(L) itself, whose counters and height
    # shifts are int8
    table = transition_table(length)
    assert stationary._chain(length) is table
    assert simulate._TableRing(substrate(length))._table is table
    for column in (table.d_peak, table.d_diamond, table.d_global, table.peak_count,
                   table.shift):
        assert column.dtype == np.int8
