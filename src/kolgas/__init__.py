"""kolgas: gas thermodynamics from counting arrangements, computable
randomness audits, and an event-driven collisionless-gas simulator.

The three layers share one idea: the equilibrium state functions of an
ideal gas are combinatorial identities about slot occupation, their
finite-size corrections are measurable, and "disordered" is a property a
compressor can certify on concrete particle data.
"""

__version__ = "0.1.0"
