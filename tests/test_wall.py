"""Wall-side physics: the length hierarchy and regime classifier, the
adsorption isotherm (including its documented ~5x formula discrepancy),
and the wave-packet spread identity."""
import math

import numpy as np
import pytest

from kolgas.constants import species_lookup
from kolgas.thermo import GasSpec, state_equations
from kolgas.wall import (
    ISOTHERM_REFERENCE,
    classify_regime,
    isotherm_reference_report,
    langmuir_isotherm,
    mean_free_path,
    packet_spread,
)

HE3 = species_lookup("he3")
REF = GasSpec(10.0, 1.8e-4, 1.7e16, HE3, "fermi")


def test_mean_free_path_frozen():
    # reference vessel: l_mfp just over the 3.5 cm wall spacing
    assert mean_free_path(1.8e-4, 1.7e16, HE3.a_LJ) == pytest.approx(
        0.035254293619100055, rel=1e-12
    )


def test_collisionless_threshold():
    # the count at which l_mfp equals the 3.5 cm side
    n_threshold = 1.8e-4 / (math.sqrt(2.0) * math.pi * HE3.a_LJ**2 * 0.035)
    assert n_threshold == pytest.approx(1.712351404356288e16, rel=1e-12)
    assert mean_free_path(1.8e-4, n_threshold, HE3.a_LJ) == pytest.approx(
        0.035, rel=1e-12
    )


def test_length_hierarchy_at_reference():
    b = 0.035
    h = classify_regime(REF, b)
    assert h.regime == "collisionless"
    assert h.cool is True
    assert h.ell_N == pytest.approx(2.1958762485600703e-7, rel=1e-12)
    assert all(h.inequalities.values())
    # ordering is strict through the whole chain; b is the caller's,
    # lambda_th the state's, a_LJ and a_B the species'
    lambda_th = state_equations(REF).lambda_th
    assert h.l_mfp >= b > h.ell_N > lambda_th >= HE3.a_LJ > 2 * HE3.a_B


@pytest.mark.parametrize("T, gas, cool", [
    (10.0, "he3", True),
    (5.0, "he3", True),
    (3.3, "he3", False),     # at/below the lambda-like boundary
    (2.0, "he3", False),
    (12.0, "he3", False),    # too warm
    (10.0, "he4", False),    # wrong species for the cool window
])
def test_cool_window(T, gas, cool):
    sp = species_lookup(gas)
    spec = GasSpec(T, 1.8e-4, 1.7e16, sp, "fermi" if gas == "he3" else "bose")
    assert classify_regime(spec, 0.035).cool is cool


def test_collisional_regime_flag():
    crowded = GasSpec(10.0, 1.8e-4, 1.7e18, HE3, "fermi")
    h = classify_regime(crowded, 0.035)
    assert h.regime == "collisional"
    assert h.inequalities["l_mfp >= b"] is False


# --- trap sites ---------------------------------------------------------------

def test_isotherm_bounds_and_monotonicity():
    u = 4.5
    a_grid = np.geomspace(1e-3, 1e12, 40)
    f = np.array([langmuir_isotherm(a, u) for a in a_grid])
    assert np.all(f > 0.0) and np.all(f < 1.0)
    assert np.all(np.diff(f) < 0.0)  # more gas slots per atom -> emptier wall
    # and occupancy rises with binding at fixed A
    u_grid = np.linspace(0.0, 30.0, 25)
    g = np.array([langmuir_isotherm(1e6, u) for u in u_grid])
    assert np.all(np.diff(g) > 0.0)


def test_isotherm_balance_point_exact():
    # binding energy u = k_B T ln A makes filled and empty sites equally likely
    for a in (2.0, 1e4, 3.3e8):
        assert langmuir_isotherm(a, math.log(a)) == pytest.approx(0.5,
                                                                  rel=1e-14)


def test_isotherm_reference_report():
    rep = isotherm_reference_report()
    frac = rep["fraction"]
    assert frac == pytest.approx(2.81303456182474e-7, rel=1e-10)
    assert rep["legacy_fraction"] == ISOTHERM_REFERENCE["legacy_fraction"]
    # order of magnitude matches the legacy number; the exact value is
    # about 5x off, which the report carries rather than hides
    assert 4.0 < rep["discrepancy_factor"] < 6.0
    assert 1e-8 < frac < 1e-6
    assert "discrepancy" in rep["note"] or "5" in rep["note"]


@pytest.mark.parametrize("b", np.geomspace(1e-3, 1.0, 7).tolist())
@pytest.mark.parametrize("T", [0.1, 10.0, 100.0])
def test_packet_spread_identity(b, T):
    # the literal spread formula collapses to b/2 regardless of T and mass
    assert packet_spread(b, T, HE3.mass) == pytest.approx(0.5 * b, rel=1e-12)
    assert packet_spread(b, T, species_lookup("he4").mass) == pytest.approx(
        0.5 * b, rel=1e-12
    )

