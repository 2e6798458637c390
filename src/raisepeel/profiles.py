"""Height profiles and single-site moves of the raise-and-peel ring model.

A configuration is a cyclic height profile over L sites (L even): heights
are nonnegative integers, neighbors differ by exactly 1, the height parity
matches the site parity, and the profile touches level 0 or 1 somewhere.
Tiles land one per site at unit rate and the local shape decides what
happens: peaks reflect the tile, valleys absorb it, slopes launch an
avalanche that peels a layer off the fluctuation the slope belongs to, and
filling the last low valley triggers a global peel of the whole surface.

Every move conserves the balance (reflected) + (evacuated) + (net stored)
= 1 tile, which is what ties the stationary peak density to the evacuated
tile current.

``apply_move`` is the reference for a single move.  ``enumerate_states``
lists the profiles from their balanced step patterns in one numpy pass,
and ``transition_table`` builds every move of every state with one numpy
pass per site over the (states, sites) height array, the targets found by
``searchsorted`` on a sorted integer key of the profiles, as are the
images of each state under the ring's two symmetries.  It is the one
per-length copy of the moves, its counters int8 (no count exceeds L): the
exact stationary solver, ``scgf`` and the Monte Carlo table stepper read
its arrays as they are.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from math import comb
from typing import NamedTuple

import numpy as np

HeightProfile = tuple[int, ...]

ENUMERATION_CAP = 18

# peak bytes the exact pipeline holds per move (state x site: the table and
# its build temporaries, the certificate's Python ints) and per entry of the
# dense lumped matrix (the integer system and its float64 factors).  The
# peak RSS of `raisepeel stationary` above that of a length-2 run, 21 MB
# at L=16 and 128 MB at L=18 (x86-64, numpy 2.4), fits about 70 and 31
# bytes; both are rounded up for margin
_BYTES_PER_MOVE = 100
_BYTES_PER_ENTRY = 48


class MoveClass(Enum):
    REFLECTION = "reflection"
    ADSORPTION = "adsorption"
    LOCAL_AVALANCHE = "local_avalanche"
    GLOBAL_AVALANCHE = "global_avalanche"


@dataclass(frozen=True)
class TransitionRecord:
    """Outcome of dropping a tile at one site.

    delta_peak counts reflected tiles (0 or 1), delta_diamond evacuated
    tiles, delta_global completed global avalanches (0 or 1), and
    delta_tiles the net change of stored tiles, so that
    delta_peak + delta_diamond + delta_tiles == 1 for every move.
    """
    site: int
    move_class: MoveClass
    target: HeightProfile
    delta_peak: int
    delta_diamond: int
    delta_global: int
    delta_tiles: int


@dataclass(frozen=True)
class EventCounters:
    """Cumulative tile bookkeeping along a trajectory started from the substrate.

    n_total counts arrived tiles, n_peak reflected ones, n_diamond tiles
    evacuated by avalanches (arrived tile included), n_global completed
    global avalanches, and n_tiles the tiles currently stored.  The exact
    balance n_total == n_peak + n_diamond + n_tiles holds after every event.
    """
    n_total: int = 0
    n_peak: int = 0
    n_diamond: int = 0
    n_global: int = 0
    n_tiles: int = 0

    def advanced(self, record: "TransitionRecord") -> "EventCounters":
        return EventCounters(
            self.n_total + 1,
            self.n_peak + record.delta_peak,
            self.n_diamond + record.delta_diamond,
            self.n_global + record.delta_global,
            self.n_tiles + record.delta_tiles,
        )

    @property
    def balanced(self) -> bool:
        return self.n_total == self.n_peak + self.n_diamond + self.n_tiles


def substrate(length: int) -> HeightProfile:
    """The flat profile (0, 1, 0, 1, ...), the lowest admissible state."""
    _check_length(length)
    return tuple(i % 2 for i in range(length))


def _check_length(length: int) -> None:
    if length < 2 or length % 2:
        raise ValueError(f"ring length must be even and >= 2, got {length}")


def check_profile(heights: HeightProfile) -> None:
    """Raise ValueError unless heights is an admissible profile."""
    length = len(heights)
    _check_length(length)
    for i, h in enumerate(heights):
        if h < 0:
            raise ValueError(f"negative height {h} at site {i}")
        if h % 2 != i % 2:
            raise ValueError(f"height {h} at site {i} breaks the parity rule")
        if abs(h - heights[(i + 1) % length]) != 1:
            raise ValueError(f"heights at sites {i}, {(i + 1) % length} do not differ by 1")
    if min(heights) > 1:
        raise ValueError("profile is detached from the bottom levels")


def tile_count(heights: HeightProfile) -> int:
    """Number of tiles stored above the substrate."""
    return sum(h - i % 2 for i, h in enumerate(heights)) // 2


def count_peaks(heights: HeightProfile) -> int:
    """Number of local maxima (both neighbors one step lower)."""
    length = len(heights)
    return sum(
        1 for i, h in enumerate(heights)
        if heights[i - 1] < h and heights[(i + 1) % length] < h)


def local_minima(heights: HeightProfile) -> list[int]:
    """Sites whose both neighbors are one step higher."""
    length = len(heights)
    return [i for i, h in enumerate(heights)
            if heights[i - 1] > h and heights[(i + 1) % length] > h]


def in_omega_global(heights: HeightProfile) -> bool:
    """Whether the profile is one tile away from a global avalanche.

    True when no valley sits at level 0 and exactly one valley sits at
    level 1; dropping a tile into that valley lifts the whole profile off
    the bottom and peels it by a full layer.
    """
    minima = local_minima(heights)
    return (all(heights[i] != 0 for i in minima)
            and sum(1 for i in minima if heights[i] == 1) == 1)


def classify_move(heights: HeightProfile, site: int) -> MoveClass:
    """Classify the outcome of a tile dropped at the given site."""
    length = len(heights)
    here = heights[site]
    left = heights[site - 1]
    right = heights[(site + 1) % length]
    if left < here and right < here:
        return MoveClass.REFLECTION
    if left > here and right > here:
        lifted = min(
            min(heights[j] for j in range(length) if j != site), here + 2)
        return (MoveClass.GLOBAL_AVALANCHE if lifted >= 2
                else MoveClass.ADSORPTION)
    return MoveClass.LOCAL_AVALANCHE


def apply_move(heights: HeightProfile, site: int) -> TransitionRecord:
    """Drop a tile at the given site and return the full move record."""
    length = len(heights)
    move = classify_move(heights, site)
    before = tile_count(heights)

    if move is MoveClass.REFLECTION:
        return TransitionRecord(site, move, heights, 1, 0, 0, 0)

    if move in (MoveClass.ADSORPTION, MoveClass.GLOBAL_AVALANCHE):
        lifted = list(heights)
        lifted[site] += 2
        if move is MoveClass.ADSORPTION:
            target = tuple(lifted)
            return TransitionRecord(site, move, target, 0, 0, 0, 1)
        target = tuple(h - 2 for h in lifted)
        evacuated = 1 + before - tile_count(target)
        if evacuated != length:
            raise RuntimeError(f"global avalanche evacuated {evacuated} tiles, not L = {length}")
        return TransitionRecord(site, move, target, 0, evacuated, 1, 1 - evacuated)

    # avalanche along the slope: find where the height returns to the
    # slope level and peel one layer off everything strictly in between
    here = heights[site]
    ascending = heights[(site + 1) % length] > here
    step = 1 if ascending else -1
    peeled = list(heights)
    j = (site + step) % length
    while heights[j] != here:
        peeled[j] -= 2
        j = (j + step) % length
    target = tuple(peeled)
    evacuated = 1 + before - tile_count(target)
    return TransitionRecord(site, move, target, 0, evacuated, 0, 1 - evacuated)


def transitions(heights: HeightProfile) -> list[TransitionRecord]:
    """Records for a tile dropped at each of the L sites."""
    return [apply_move(heights, site) for site in range(len(heights))]


@lru_cache(maxsize=None)
def enumerate_states(length: int) -> tuple[HeightProfile, ...]:
    """All admissible profiles of the given length, lexicographically sorted.

    A profile is a balanced pattern of L up/down steps (step i runs from
    site i to site i+1, cyclically) plus the one even h0 that puts its
    minimum at level 0 or 1, so the count is C(L, L/2).  numpy lists the
    L-bit patterns with L/2 rising steps and integrates them in one pass,
    then sorts the profiles by ``_keys``, the key ``transition_table``
    looks its targets up by; that key orders them lexicographically.
    Enumeration is refused above ENUMERATION_CAP = 18 because the state
    space grows like 4^L / sqrt(L), and with MemoryError, before anything
    is allocated, when ``memory_estimate`` exceeds the memory available.
    """
    _check_length(length)
    if length > ENUMERATION_CAP:
        raise ValueError(
            f"enumeration of length {length} exceeds the cap {ENUMERATION_CAP}")
    needed, available = memory_estimate(length), _available_memory()
    if available is not None and needed > available:
        raise MemoryError(f"the exact pipeline at length {length} needs about "
                          f"{needed >> 20} MB, and {available >> 20} MB is available")
    shifts = np.arange(length - 1, -1, -1)
    codes = np.arange(1 << length, dtype=np.int64)
    rises = sum((codes >> k) & 1 for k in range(length))
    codes = codes[rises == length // 2]
    steps = 2 * ((codes[:, None] >> shifts) & 1) - 1
    relative = np.cumsum(steps, axis=1) - steps
    heights = (1 - relative.min(axis=1, keepdims=True)) // 2 * 2 + relative
    heights = heights[np.argsort(_keys(heights))]
    if len(heights) != comb(length, length // 2):
        raise RuntimeError(f"{len(heights)} profiles of length {length}, not C(L, L/2)")
    return tuple(map(tuple, heights.tolist()))


def memory_estimate(length: int) -> int:
    """Bytes the exact pipeline is expected to hold at its peak: the
    transition table of the C(L, L/2) states with its build temporaries,
    and the dense lumped matrices.  The orbits would number C(L, L/2)/(2L)
    if every orbit had all 2L images; they are taken as 1.25 times that
    (the counts at L = 14, 16, 18 are 1.26, 1.17 and 1.10 times it).

    >>> memory_estimate(18) >> 20
    213
    """
    states = comb(length, length // 2)
    orbits = 5 * states // (8 * length)
    return states * length * _BYTES_PER_MOVE + orbits * orbits * _BYTES_PER_ENTRY


def _available_memory() -> int | None:
    """MemAvailable from /proc/meminfo in bytes, or None where it cannot be read."""
    try:
        with open("/proc/meminfo", encoding="ascii") as meminfo:
            for line in meminfo:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    return None


class TransitionTable(NamedTuple):
    """Every move of every enumerated state, as arrays indexed [state, site].

    target holds the index of the state the move leads to (the state
    itself for a reflection); d_peak, d_diamond and d_global are the
    counters of the move record.  peak_count and omega are the per-state
    peak count and avalanche-armed flag, computed from the profiles.  The
    four counter arrays are int8, and no count exceeds L <= ENUMERATION_CAP.
    rotate and reflect index each state's image under rotation by one site
    (heights shifted by +1 or -1 to restore parity and the bottom level)
    and reflection h[(2 - i) % L]; they commute with the moves.
    """
    states: tuple[HeightProfile, ...]
    target: np.ndarray
    rotate: np.ndarray
    reflect: np.ndarray
    d_peak: np.ndarray
    d_diamond: np.ndarray
    d_global: np.ndarray
    peak_count: np.ndarray
    omega: np.ndarray


def _keys(heights: np.ndarray) -> np.ndarray:
    """The sort key h0 << L | step bits (rising step i at bit L-1-i) of
    each row of an (n, L) height array."""
    length = heights.shape[1]
    rising = np.roll(heights, -1, axis=1) > heights
    return heights[:, 0] << length | rising @ (1 << np.arange(length - 1, -1, -1))


@lru_cache(maxsize=None)
def transition_table(length: int) -> TransitionTable:
    """The transition table of the ring, built in one numpy pass per site.

    For each site every state's move is classified from its neighbours
    with (n, L) arrays: a peak reflects; a valley absorbs the tile, or
    lowers the whole lifted profile by two when every other site sits at
    level 2 or more (global avalanche); a slope peels every site up to
    the first return to the slope level in the rising direction (local
    avalanche).  Targets and symmetry images are looked up by their sort
    key, and the evacuated tiles follow from the tile balance.
    """
    states = enumerate_states(length)
    heights = np.array(states, dtype=np.int64)
    keys = _keys(heights)
    left = np.roll(heights, 1, axis=1)
    right = np.roll(heights, -1, axis=1)
    peak = (left < heights) & (right < heights)
    valley = (left > heights) & (right > heights)
    omega = (~(valley & (heights == 0)).any(axis=1)
             & ((valley & (heights == 1)).sum(axis=1) == 1))
    # a filled valley lifts the profile off the bottom levels when it is
    # the only site below level 2
    sole_low = (heights < 2).sum(axis=1) == 1
    sites = np.arange(length)
    target = np.empty_like(heights)
    d_diamond = np.empty(heights.shape, np.int8)
    d_global = np.zeros(heights.shape, np.int8)
    for site in range(length):
        here = heights[:, site]
        # distance from the site along the slope's rising direction
        offset = np.where((right[:, site] > here)[:, None],
                          (sites - site) % length, (site - sites) % length)
        first = np.where((heights == here[:, None]) & (offset > 0),
                         offset, length).min(axis=1)
        drop = 2 * ((offset > 0) & (offset < first[:, None]))
        fill = valley[:, site]
        drop[peak[:, site] | fill] = 0
        drop[fill, site] = -2
        lowered = fill & sole_low & (here < 2)
        drop[lowered] += 2
        target[:, site] = np.searchsorted(keys, _keys(heights - drop))
        d_diamond[:, site] = drop.sum(axis=1) // 2 + 1 - peak[:, site]
        d_global[:, site] = lowered
    shift = np.where(heights.min(axis=1) == 0, 1, -1)
    rotate = np.searchsorted(keys, _keys(right + shift[:, None]))
    reflect = np.searchsorted(keys, _keys(heights[:, (2 - sites) % length]))
    return TransitionTable(states, target, rotate, reflect, peak.astype(np.int8),
                           d_diamond, d_global, peak.sum(axis=1, dtype=np.int8), omega)
