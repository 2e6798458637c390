"""Currents the spectral way.

Tilting the generator by counting variables for peel events and
wrapping avalanches turns the currents into derivatives of the largest
eigenvalue at zero tilt. This script evaluates that eigenvalue on a
small grid, confirms it vanishes at the origin, and compares the
finite-difference slopes against the exact rational currents.
"""

from raisepeel.scgf import scgf_derivatives, scgf_value
from raisepeel.stationary import diamond_current_formula, global_current_formula

length = 6

print(f"ring length {length}\n")
print("cumulant function on a small grid:")
for alpha in (-0.2, 0.0, 0.2):
    row = []
    for beta in (-0.2, 0.0, 0.2):
        res = scgf_value(length, alpha, beta)
        row.append(f"{res.lambda_value:+.6f}")
    print(f"  alpha={alpha:+.1f}:  " + "  ".join(row))

origin = scgf_value(length)
print(f"\nvalue at the origin: {origin.lambda_value:.2e} "
      f"(enclosure width {origin.residual:.1e}, {origin.iterations} iterations)")

d_alpha, d_beta = scgf_derivatives(length)
exact_global = float(global_current_formula(length))
exact_diamond = float(diamond_current_formula(length))
print(f"slope in alpha: {d_alpha:.12f}  exact {exact_global:.12f} "
      f"({global_current_formula(length)})")
print(f"slope in beta:  {d_beta:.12f}  exact {exact_diamond:.12f} "
      f"({diamond_current_formula(length)})")
print(f"relative errors: {abs(d_alpha/exact_global - 1):.2e}, "
      f"{abs(d_beta/exact_diamond - 1):.2e}")
