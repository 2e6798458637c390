"""References the differential tests check the package against.

``apply_move`` drops one tile on a height tuple and classifies the move
from the local shape, one site at a time; the package's transition
table, its two ring steppers and acceptance criterion 8 are checked
against it.  ``check_profile`` is the admissibility rule of a profile,
for tests that build profiles by hand or by strategy and must know they
are states.  ``from_dense`` and ``toarray`` convert between numpy arrays
and the column-held matrices the Perron solver takes.
"""

from dataclasses import dataclass
from enum import Enum

import numpy as np

from raisepeel.profiles import EventCounters, HeightProfile, check_length, tile_count
from raisepeel.scgf import ColumnMatrix


def check_profile(heights: HeightProfile) -> None:
    """Raise ValueError unless heights is an admissible profile."""
    length = len(heights)
    check_length(length)
    for i, h in enumerate(heights):
        if h < 0:
            raise ValueError(f"negative height {h} at site {i}")
        if h % 2 != i % 2:
            raise ValueError(f"height {h} at site {i} breaks the parity rule")
        if abs(h - heights[(i + 1) % length]) != 1:
            raise ValueError(f"heights at sites {i}, {(i + 1) % length} do not differ by 1")
    if min(heights) > 1:
        raise ValueError("profile is detached from the bottom levels")


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


def advanced(counters: EventCounters, record: TransitionRecord) -> EventCounters:
    """The counters after one more event with the given move record."""
    return EventCounters(
        counters.n_total + 1,
        counters.n_peak + record.delta_peak,
        counters.n_diamond + record.delta_diamond,
        counters.n_global + record.delta_global,
        counters.n_tiles + record.delta_tiles,
    )


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


def from_dense(matrix: np.ndarray) -> ColumnMatrix:
    """The columns of a square array."""
    dense = np.asarray(matrix, dtype=np.float64)
    if dense.ndim != 2 or dense.shape[0] != dense.shape[1]:
        raise ValueError("matrix must be square")
    n = len(dense)
    return ColumnMatrix(np.zeros(n), np.tile(np.arange(n), (n, 1)), dense.T)


def toarray(matrix: ColumnMatrix) -> np.ndarray:
    """The dense array of a column-held matrix."""
    dense = np.diag(matrix.diagonal)
    np.add.at(dense, (matrix.rows, np.arange(len(matrix.diagonal))[:, None]), matrix.weights)
    return dense
