"""The functional-equation route to the same constants.

A pair of polynomial families over the sixth-cyclotomic field satisfies
a functional relation whose expansion coefficients encode the growth
rates. This script builds both families for a few sizes, runs the full
relation checks, prints the growth-rate constants as exact fractions,
decides the eigenvalue and ground energy that the roots of Q carry
exactly, and decides, exactly too, that those roots solve the root
equations.
"""

from fractions import Fraction

from raisepeel.tq import (
    bethe_check,
    lambda_alpha,
    lambda_beta,
    q_poly,
    recurrence_check,
    verify_tq,
    verify_wronskian,
)

print("polynomial Q for n = 1..4 (rational coefficient vectors):")
for n in range(1, 5):
    print(f"  n={n}: {q_poly(n).rational_coeffs()}")

print("\nrelation checks:")
for n in (1, 3, 5, 10, 15, 20):
    tq = verify_tq(n)
    wr = verify_wronskian(n)
    print(f"  n={n:>2}: functional relation {'ok' if tq.passed else 'BROKEN'},"
          f" pairing {'ok' if wr.passed else 'BROKEN'}")

print("\ngrowth-rate constants:")
print(f"{'n':>3} {'alpha rate':>12} {'beta rate':>12}")
for n in (1, 2, 3, 5, 10, 20):
    print(f"{n:>3} {str(lambda_alpha(n)):>12} {str(lambda_beta(n)):>12}")

rec = recurrence_check(n_max=30)
print(f"\nthree-term recurrences to order {rec.n_max}: "
      f"{'ok' if rec.passed else 'BROKEN'}")

n = 4
exact = verify_tq(n)
report = bethe_check(n)
print(f"\nroots of Q at n={n}: eigenvalue zero {exact.eigenvalue_zero},"
      f" ground energy -3L/4 = {Fraction(-3 * n, 2)} exact {exact.ground_energy_exact}")
print(f"root equations at n={n}: Q squarefree {report.squarefree},"
      f" Q(q), Q(q^-1) nonzero {report.nonzero_at_q_and_qi},"
      f" no root shared with Q(q^2 x), Q(q^-2 x) {report.coprime_to_shifts}")
