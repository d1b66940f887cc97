import dataclasses

import pytest

from kolgas.constants import CODATA, SpeciesSpec, species_lookup
from kolgas.errors import DomainError, UnknownSpeciesError


def test_codata_values():
    assert CODATA.h == 6.62607015e-34
    assert CODATA.k_B == 1.380649e-23
    assert CODATA.u_amu == 1.66053906660e-27


def test_codata_frozen():
    with pytest.raises(dataclasses.FrozenInstanceError):
        CODATA.h = 1.0


@pytest.mark.parametrize("name, g, mass_u", [
    ("he3", 2, 3.0160293),
    ("he4", 1, 4.002602),
])
def test_species_table(name, g, mass_u):
    sp = species_lookup(name)
    assert sp.name == name
    assert sp.spin_degeneracy == g
    assert sp.mass == pytest.approx(mass_u * CODATA.u_amu, rel=1e-12)
    # hard-sphere radius sits between the electronic radius and ~1 nm
    assert sp.a_B < sp.a_LJ < 1e-9


def test_species_lookup_case_insensitive():
    assert species_lookup("He3") is species_lookup("he3")


def test_species_lookup_unknown():
    with pytest.raises(UnknownSpeciesError, match="he3"):
        species_lookup("argon")


@pytest.mark.parametrize("kwargs", [
    dict(mass=-1.0),
    dict(spin_degeneracy=3),
    dict(a_B=0.0),
    dict(a_B=5e-10),       # would invert a_B < a_LJ
])
def test_species_validation(kwargs):
    base = dict(name="x", mass=5e-27, spin_degeneracy=2,
                a_B=0.5e-10, a_LJ=2.5e-10)
    base.update(kwargs)
    with pytest.raises(DomainError):
        SpeciesSpec(**base)
