"""Exact stationary states and the closed-form observables.

Solves the master equation in rational arithmetic for rings up to
length 12 and compares the peak mean, the wrapping-avalanche
probability, and both avalanche currents against their closed forms.
The length-12 chain has 924 states; its rotation and reflection
symmetries lump them into 56 orbits, the small orbit chain is solved by
rational elimination, and the result is certified exactly on the full
924-state chain.
"""

import time
from fractions import Fraction

from raisepeel.stationary import (
    diamond_current_formula,
    exact_drifts,
    expected_peaks,
    global_current_formula,
    omega_probability_formula,
    peak_mean_formula,
    prob_omega_global,
    stationary_distribution,
)

print(f"{'L':>3} {'peak mean':>12} {'P(window)':>12} "
      f"{'J_diamond':>12} {'J_global':>10} {'time':>8}")

for length in range(2, 13, 2):
    t0 = time.perf_counter()
    peaks = expected_peaks(length)
    window = prob_omega_global(length)
    drift_d, drift_g = exact_drifts(length)
    dt = time.perf_counter() - t0

    assert peaks == peak_mean_formula(length)
    assert window == omega_probability_formula(length)
    assert drift_d == diamond_current_formula(length)
    assert drift_g == global_current_formula(length)
    assert drift_d + peaks == length          # tile balance
    assert drift_g == window                  # one window, one trigger

    print(f"{length:>3} {str(peaks):>12} {str(window):>12} "
          f"{str(drift_d):>12} {str(drift_g):>10} {dt:7.2f}s")

st = stationary_distribution(4)
print(f"\nlength-4 weights ({st.method}):")
for state, w in zip(st.states, st.vector()):
    print(f"  {state}: {w}")
print("integer form:", st.integer_form, "/", st.integer_sum)
assert sum(st.vector()) == Fraction(1)
