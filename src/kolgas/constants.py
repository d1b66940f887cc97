"""Physical constants and helium species data.

Conventions
-----------
* All quantities are SI internally.  Angstrom or bar appear only at I/O
  boundaries (CLI summaries, docstring examples).
* ``h`` and ``k_B`` are the exact SI defining values; the atomic mass
  constant is the 2018 recommended value.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Final

from .errors import DomainError, UnknownSpeciesError

#: Planck constant, J s (exact).
H_PLANCK: Final[float] = 6.62607015e-34

#: Boltzmann constant, J/K (exact).
K_BOLTZMANN: Final[float] = 1.380649e-23

#: Atomic mass constant, kg (2018 recommended value).
U_AMU: Final[float] = 1.66053906660e-27


@dataclass(frozen=True)
class SpeciesSpec:
    """Static data for one gas species.

    Attributes
    ----------
    name : str
        Lookup key, e.g. ``"he3"``.
    mass : float
        Atomic mass in kg.
    spin_degeneracy : int
        Number of spin states per orbital (2 for spin-1/2, 1 for spin-0).
    a_B : float
        Atomic (Bohr-scale) radius in m; sets the hard-core scale.
    a_LJ : float
        Lennard-Jones zero-crossing length in m; the collision diameter
        of the mean free path.
    """

    name: str
    mass: float
    spin_degeneracy: int
    a_B: float
    a_LJ: float

    def __post_init__(self) -> None:
        if self.mass <= 0.0:
            raise DomainError(f"species {self.name!r}: mass must be positive")
        if self.spin_degeneracy not in (1, 2):
            raise DomainError(
                f"species {self.name!r}: spin_degeneracy must be 1 or 2"
            )
        if not (0.0 < self.a_B < self.a_LJ):
            raise DomainError(
                f"species {self.name!r}: need 0 < a_B < a_LJ"
            )


_SPECIES: Final[dict[str, SpeciesSpec]] = {
    # Helium-3: spin-1/2, so two spin states per orbital.
    "he3": SpeciesSpec(
        name="he3",
        mass=3.0160293 * U_AMU,
        spin_degeneracy=2,
        a_B=0.53e-10,
        a_LJ=2.6e-10,
    ),
    # Helium-4: spin-0.
    "he4": SpeciesSpec(
        name="he4",
        mass=4.002602 * U_AMU,
        spin_degeneracy=1,
        a_B=0.53e-10,
        a_LJ=2.6e-10,
    ),
}


def species_lookup(name: str) -> SpeciesSpec:
    """Return the species record for ``name``.

    Raises
    ------
    UnknownSpeciesError
        If the species is not in the bundled table.
    """
    try:
        return _SPECIES[name.lower()]
    except KeyError:
        known = ", ".join(sorted(_SPECIES))
        raise UnknownSpeciesError(
            f"unknown species {name!r}; known species: {known}"
        ) from None
