"""From the stochastic ring to a twisted spin chain and back.

The tilted ring generator is isospectral (on the relevant sector) to an
anisotropic spin chain with a tilt-dependent twist. At zero tilt the
ground state energy is exactly -3L/4. This script checks the energies,
the defining relations of the underlying loop algebra, and the bridge
identity that makes the two spectral routes interchangeable.
"""

from raisepeel.scgf import scgf_value
from raisepeel.spinchain import (
    XXZParams,
    bridge_parameters,
    ground_energy,
    lambda_bridge,
    tl_relations_check,
)

print("ground energies against -3L/4:")
for length in range(4, 15, 2):
    e = ground_energy(XXZParams(length))
    print(f"  L={length:>2}: {e:+.14f}   error {abs(e + 0.75 * length):.1e}")

print("\nloop-algebra relations (worst defect per ring):")
for length in (4, 6, 8):
    rep = tl_relations_check(length)
    worst = max(rep.idempotent_error, rep.neighbor_error,
                rep.commutation_error, rep.quotient_error)
    print(f"  L={length}: {worst:.2e}")

print("\nbridge between tilt parameters and twist, L=6:")
for alpha, beta in ((0.0, 0.0), (0.1, -0.05), (-0.1, 0.1)):
    params = bridge_parameters(6, alpha, beta)
    left = lambda_bridge(6, alpha, beta)
    right = scgf_value(6, alpha, beta).lambda_value
    print(f"  tilt ({alpha:+.2f}, {beta:+.2f}): twist angle"
          f" {params.theta:+.6f}, spectral gap between routes"
          f" {abs(left - right):.1e}")
