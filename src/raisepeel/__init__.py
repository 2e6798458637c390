"""Raise and peel dynamics on a ring, solved three independent ways.

The package studies a continuous-time adsorption/desorption interface
whose stable shapes are cyclic nonnegative height profiles.  Avalanche
currents and stationary observables are computed along three routes that
share the model (``profiles`` and its transition table) and never a
solver: exact rational stationary states of the finite chain,
tilted-generator cumulant functions, and closed-form polynomial
identities of Baxter type, with a twisted spin-chain representation
bridging the probabilistic and algebraic sides.  A kinetic Monte Carlo
sampler provides the statistical cross-check.

Submodules:

- ``profiles``   height-profile state space, moves, counters, transition table
- ``simulate``   continuous-time Monte Carlo sampling and batch statistics
- ``stationary`` exact rational stationary vectors, drifts, peak means
- ``scgf``       tilted generators and the cumulant generating function
- ``qfield``     exact arithmetic over rationals adjoined a sixth root of unity
- ``tq``         polynomial functional relations and closed-form growth rates
- ``spinchain``  twisted spin-chain operators and the energy bridge
- ``cli``        command-line driver (``raisepeel`` console script)

The package root exports only ``__version__``; import names from the
submodules, so that importing one route loads only what it needs.
"""

__version__ = "0.1.0"
