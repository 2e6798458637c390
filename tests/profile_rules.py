"""The admissibility rule of a height profile, for tests that build
profiles by hand or by strategy and must know they are states."""

from raisepeel.profiles import check_length


def check_profile(heights: tuple[int, ...]) -> None:
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
