"""State-equation checks: frozen reference numbers, derivative
consistency against the closed forms, classical limits, and the energy
bookkeeping identities.

The consistency oracles (Legendre potentials, the first-law residual,
the two occupancy forms, entropy from description lengths) are private
helpers here: they check the closed forms, and no run computes with
them."""
import math
from typing import NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as strat

from kolgas.constants import K_BOLTZMANN as KB, species_lookup
from kolgas.errors import DegeneracyError, DomainError
from kolgas.thermo import (
    GasSpec,
    gamma_be,
    gamma_fd,
    kappa_be,
    kappa_fd,
    mu_be,
    rms_speed,
    state_equations,
    thermal_length,
)


HE3 = species_lookup("he3")

# The reference macrostate used throughout: desk-scale normal-fluid he3.
REF = GasSpec(10.0, 1.8e-4, 1.7e16, HE3, "fermi")


# --- frozen single-point oracles --------------------------------------------

def test_thermal_length_frozen():
    assert thermal_length(10.0, HE3.mass) == pytest.approx(
        3.1789385068771384e-10, rel=1e-13
    )
    assert thermal_length(3.3, HE3.mass) == pytest.approx(
        5.533843313967413e-10, rel=1e-10
    )


def test_reference_state_frozen():
    st = state_equations(REF)
    assert st.M == pytest.approx(5.603070977634396e24, rel=1e-12)
    assert st.A == pytest.approx(3.2959241044908115e8, rel=1e-12)
    assert st.P == pytest.approx(0.013039462777777778, rel=1e-8)
    assert st.mu / (KB * REF.T) == pytest.approx(-20.306514508227277, rel=1e-12)
    assert st.S / (KB * REF.N) == pytest.approx(22.806514510123556, rel=1e-12)


def test_rms_speed_frozen():
    assert rms_speed(10.0, HE3.mass) == pytest.approx(287.5808359662578,
                                                      rel=1e-13)


# --- derivative consistency --------------------------------------------------

def _fd_states(spec, var, h_rel=1e-5):
    """Central-difference neighbours of ``spec`` along T, V or N."""
    base = {"T": spec.T, "V": spec.V, "N": spec.N}
    h = h_rel * base[var]
    lo, hi = dict(base), dict(base)
    lo[var] -= h
    hi[var] += h
    mk = lambda d: state_equations(
        GasSpec(d["T"], d["V"], d["N"], spec.species, spec.statistics))
    return mk(lo), mk(hi), 2.0 * h


@pytest.mark.parametrize("two_a", [1.5, 2.5, 20.0, 1e4, 3e8])
@pytest.mark.parametrize("statistics", ["fermi", "bose"])
def test_state_functions_are_free_energy_derivatives(two_a, statistics):
    # place the reference particle count at the requested dilution
    lam = thermal_length(10.0, HE3.mass)
    a = two_a / 2.0
    N = 1e16
    spec = GasSpec(10.0, a * N * lam**3, N, HE3, statistics)
    st = state_equations(spec)

    lo, hi, dh = _fd_states(spec, "T")
    assert -(hi.F - lo.F) / dh == pytest.approx(st.S, rel=1e-6)

    lo, hi, dh = _fd_states(spec, "V")
    assert -(hi.F - lo.F) / dh == pytest.approx(st.P, rel=1e-6)

    lo, hi, dh = _fd_states(spec, "N")
    assert (hi.F - lo.F) / dh == pytest.approx(st.mu, rel=1e-6)

    lo, hi, dh = _fd_states(spec, "T")
    assert (hi.U - lo.U) / dh == pytest.approx(st.c_V, rel=1e-6, abs=1e-30)


class _PotentialSet(NamedTuple):
    """Legendre-transformed potentials of one state."""

    F: float       # free energy, J
    A_GC: float    # grand potential F - mu N, J
    G: float       # Gibbs free energy F + P V, J
    U_of_S: float  # internal energy recovered as F + T S, J


def _legendre_potentials(state, spec):
    """Grand potential, Gibbs free energy, and the recovered internal
    energy F + T S for one state; raises when F + T S misses ``state.U``
    by more than 1e-12 relative (an inconsistent, hand-built state)."""
    a_gc = state.F - state.mu * spec.N
    g = state.F + state.P * spec.V
    u_of_s = state.F + spec.T * state.S
    if abs(u_of_s - state.U) > 1e-12 * max(abs(state.U), 1e-300):
        raise DomainError(
            "state is internally inconsistent: F + T S does not recover U"
        )
    return _PotentialSet(F=state.F, A_GC=a_gc, G=g, U_of_S=u_of_s)


def test_legendre_consistency_exact():
    st = state_equations(REF)
    pots = _legendre_potentials(st, REF)
    assert pots.U_of_S == pytest.approx(st.U, rel=1e-14)
    # grand potential for these closed forms: F - mu N = -PV + corrections
    assert pots.A_GC == pytest.approx(st.F - st.mu * REF.N, rel=1e-14)
    assert pots.G == pytest.approx(st.F + st.P * REF.V, rel=1e-14)


def test_legendre_rejects_inconsistent_state():
    st = state_equations(REF)
    bad = st._replace(U=st.U * 1.001)
    with pytest.raises(DomainError):
        _legendre_potentials(bad, REF)


# --- limits -------------------------------------------------------------------

@pytest.mark.parametrize("a", [1e4, 1e6, 3.3e8, 1e12])
def test_sackur_tetrode_limit(a):
    N = 1e16
    lam = thermal_length(10.0, HE3.mass)
    spec = GasSpec(10.0, a * N * lam**3, N, HE3, "fermi")
    st = state_equations(spec)
    s_per = st.S / (KB * N)
    classical = math.log(2.0 * a) + 2.5
    assert abs(s_per - classical) <= 10.0 / a
    # the finite-size correction is positive, ~ 1/(8A)
    assert s_per > classical
    assert s_per - classical == pytest.approx(1.0 / (8.0 * a), rel=0.01)


def test_pressure_ideal_gas_limit():
    st = state_equations(REF)
    ideal = REF.N * KB * REF.T / REF.V
    assert st.P == pytest.approx(ideal, rel=1e-8)
    assert st.P > ideal  # exclusion pressure excess


def test_disorder_exponents():
    st = state_equations(REF)
    # the energy exponents 1.5 gamma, gamma and -gamma are the
    # log-derivatives of the intensive disorder kappa
    exponents = {"T": 1.5 * st.gamma, "V": st.gamma, "N": -st.gamma}
    for var, want in exponents.items():
        lo, hi, dh = _fd_states(REF, var)
        base = {"T": REF.T, "V": REF.V, "N": REF.N}[var]
        assert (hi.kappa - lo.kappa) / dh * base == pytest.approx(want,
                                                                  rel=1e-5)


def test_degenerate_fermi_raises():
    lam = thermal_length(0.01, HE3.mass)
    N = 1e16
    # 2A = 0.8: over-filled exclusive slots
    spec = GasSpec(0.01, 0.4 * N * lam**3, N, HE3, "fermi")
    with pytest.raises(DegeneracyError, match="2A"):
        state_equations(spec)
    # the inclusive statistics accept the same density
    state_equations(GasSpec(0.01, 0.4 * N * lam**3, N, HE3, "bose"))


# --- intensive generators ----------------------------------------------------

def test_kappa_is_gamma_plus_log_term():
    # kappa(x) = Gamma(x) + ln(x-1) is an exact identity
    for x in (1.0001, 1.5, 2.0, 3.7, 1e3, 1e9):
        assert kappa_fd(x) == pytest.approx(gamma_fd(x) + math.log(x - 1.0),
                                            rel=1e-12, abs=1e-12)


def test_gamma_branches_agree_at_crossover():
    assert gamma_fd(2.0 - 1e-13) == pytest.approx(gamma_fd(2.0 + 1e-13),
                                                  rel=1e-11)


def test_gamma_limits():
    assert gamma_fd(1e15) == pytest.approx(1.0, abs=1e-14)
    assert gamma_fd(1.001) > 6.0    # diverges toward full occupation
    assert gamma_be(1e15) == pytest.approx(1.0, abs=1e-14)


def test_gamma_is_x_dkappa_dx():
    for x in (1.2, 1.9, 2.5, 50.0, 1e6):
        h = x * 1e-6
        dk = (kappa_fd(x + h) - kappa_fd(x - h)) / (2 * h)
        assert x * dk == pytest.approx(gamma_fd(x), rel=1e-8)


def test_bose_generators():
    for a in (0.3, 1.0, 7.5, 1e8):
        h = a * 1e-6
        dk = (kappa_be(a + h) - kappa_be(a - h)) / (2 * h)
        assert a * dk == pytest.approx(gamma_be(a), rel=1e-8)
        assert kappa_be(a) == pytest.approx(gamma_be(a) + math.log(a + 1.0),
                                            rel=1e-12)
    assert mu_be(4.0, 10.0) == pytest.approx(-KB * 10.0 * math.log(5.0),
                                             rel=1e-13)


# --- first law ---------------------------------------------------------------

def _first_law_residual(spec, dV, dN, q):
    """Energy-balance residual dU + w - q between two nearby equilibria, J.

    The process takes (T, V, N) to (T', V + dV, N + dN) where T' is solved
    so that the reversible heat T * (S' - S) equals the supplied ``q``.
    Work done by the gas is evaluated at the initial state,
    w = P dV - mu dN, so the residual vanishes to second order in the
    step sizes.
    """
    s1 = state_equations(spec)

    def spec_at(T):
        return GasSpec(T, spec.V + dV, spec.N + dN, spec.species, spec.statistics)

    # Newton solve for T': f(T') = T (S(T') - S1) - q, f' = T c_V(T') / T'.
    T2 = spec.T
    s2 = state_equations(spec_at(T2))
    f = spec.T * (s2.S - s1.S) - q
    # f is a difference of two ~T*S numbers: it cannot be driven below
    # the rounding noise of T*S itself, so that noise sets the floor.
    tol = max(1e-13 * abs(q),
              64.0 * math.ulp(1.0) * abs(spec.T * s1.S), 1e-300)
    for _ in range(60):
        if abs(f) <= tol:
            break
        step = f / (spec.T * s2.c_V / T2)
        # Guard against leaving the domain on a wild first step.
        T2 = max(T2 - step, 0.5 * T2)
        s2 = state_equations(spec_at(T2))
        f = spec.T * (s2.S - s1.S) - q
    else:
        raise AssertionError("no nearby state takes up the requested heat")

    return (s2.U - s1.U) + (s1.P * dV - s1.mu * dN) - q


def test_first_law_residual_second_order():
    dV, dN = REF.V * 1e-4, REF.N * 1e-4
    q = 1e-12  # J, small compared to U ~ 3.5e-6 J
    r1 = abs(_first_law_residual(REF, dV, dN, q))
    r2 = abs(_first_law_residual(REF, dV / 2, dN / 2, q / 2))
    scale = state_equations(REF).U
    assert r1 < 5e-6 * scale
    # halving the step cuts the residual ~4x (second order), not ~2x
    assert r1 / 8.0 < r2 < r1 / 3.0


def test_first_law_adiabatic_and_with_heat():
    st = state_equations(REF)
    # adiabatic: q = 0, expansion cools the gas but balances to 2nd order
    r = _first_law_residual(REF, REF.V * 1e-5, 0.0, 0.0)
    assert abs(r) < 1e-9 * st.U
    # particle exchange plus a little heat
    r = _first_law_residual(REF, 0.0, REF.N * 1e-5, 1e-13)
    assert abs(r) < 1e-7 * st.U


# --- occupancy and friends ---------------------------------------------------

def _occupancy_qkm(x):
    """Slot occupancy from the intensive net disorder,
    g(x) = exp( -(Gamma(x) + ln(x-1)) ) = exp(-kappa(x)).  Requires x > 1."""
    return math.exp(-(gamma_fd(x) + math.log(x - 1.0)))


def _occupancy_fd(eps, mu, T):
    """Exclusive-occupation level occupancy 1 / (exp((eps-mu)/k_B T) + 1)."""
    if T <= 0.0:
        raise DomainError("occupancy_fd needs T > 0")
    z = (eps - mu) / (KB * T)
    if z >= 0.0:
        e = math.exp(-z)
        return e / (1.0 + e)
    return 1.0 / (math.exp(z) + 1.0)


def _equivalent_level_energy(x, T):
    """Level energy eps = k_B T Gamma(x) at which the two occupancy forms
    agree, J."""
    return KB * T * gamma_fd(x)


@pytest.mark.parametrize("x", [1.5, 2.0, 10.0, 1e4])
def test_occupancy_forms_agree(x):
    mu = -KB * 10.0 * math.log(x - 1.0)
    eps = _equivalent_level_energy(x, 10.0)
    g_qkm = _occupancy_qkm(x)
    g_fd = _occupancy_fd(eps, mu, 10.0)
    # exact relation at the equivalent level: the level form is g/(1+g)
    assert g_fd == pytest.approx(g_qkm / (1.0 + g_qkm), rel=1e-12)
    # at the band bottom the level occupancy is the filling fraction, exactly
    assert _occupancy_fd(0.0, mu, 10.0) == pytest.approx(1.0 / x, rel=1e-12)


def test_occupancy_fd_extreme_arguments():
    assert _occupancy_fd(1e-18, -1e-18, 1.0) < 1.0
    assert _occupancy_fd(-1e-18, 1e-18, 1.0) > 0.0
    assert _occupancy_fd(1.0, 0.0, 1e-6) == 0.0  # underflows cleanly
    with pytest.raises(DomainError):
        _occupancy_fd(0.0, 0.0, 0.0)


def _s_qkm_from_complexities(k_m, k_n, k_mn, n, a):
    """Entropy from measured description lengths, J/K:
    S = k_B ln2 (K_M - K_N - K_MN) + (3/2) N k_B Gamma(2A).

    The K arguments are description lengths in bits of the slot, marker
    and complement lists (summed over spin states); the Gamma term carries
    the kinetic part.
    """
    for name, v in (("k_m", k_m), ("k_n", k_n), ("k_mn", k_mn)):
        if v < 0.0:
            raise DomainError(f"{name} must be a nonnegative bit count")
    if n <= 0.0:
        raise DomainError("n must be positive")
    return KB * math.log(2.0) * (k_m - k_n - k_mn) \
        + 1.5 * n * KB * gamma_fd(2.0 * a)


def test_entropy_from_complexities_recovers_closed_form():
    # feed the exact disorder ledger back in: S comes out of the closed form
    st = state_equations(REF)
    d_minus_bits = REF.N * st.kappa / math.log(2.0)
    s = _s_qkm_from_complexities(d_minus_bits, 0.0, 0.0, REF.N, st.A)
    assert s == pytest.approx(st.S, rel=1e-10)
    with pytest.raises(DomainError):
        _s_qkm_from_complexities(-1.0, 0.0, 0.0, REF.N, st.A)


def test_gas_spec_validation():
    with pytest.raises(DomainError):
        GasSpec(0.0, 1.0, 1.0, HE3)
    with pytest.raises(DomainError):
        GasSpec(1.0, 1.0, 1.0, HE3, "anyons")


def _log_uniform(lo_exp: float, hi_exp: float):
    return strat.floats(lo_exp, hi_exp).map(lambda e: 10.0**e)


@settings(max_examples=400, deadline=None)
@given(T=_log_uniform(-3.0, 4.0), V=_log_uniform(-15.0, 3.0),
       N=_log_uniform(0.0, 30.0), statistics=strat.sampled_from(["fermi", "bose"]))
def test_state_equation_identities(T, V, N, statistics):
    spec = GasSpec(T, V, N, HE3, statistics)
    A = V / thermal_length(T, HE3.mass) ** 3 / N
    if statistics == "fermi" and 2.0 * A <= 1.0:
        with pytest.raises(DegeneracyError):
            state_equations(spec)
        return
    s = state_equations(spec)
    assert s.F + T * s.S == pytest.approx(s.U, rel=1e-12)
    assert s.U == pytest.approx(1.5 * s.P * V, rel=1e-12)
    assert s.P * V == pytest.approx(N * KB * T * s.gamma, rel=1e-12)
