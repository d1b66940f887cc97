"""Closed-form thermostatics of the dilute quantum gas.

All state functions derive from the free energy F = -k_B T N kappa, where
kappa is the intensive net disorder per particle and depends on T, V, N
only through the slots-per-particle ratio.  Exclusive (spin-1/2) and
unrestricted (spin-0) occupation share the same structure with different
kappa/Gamma pairs.

Production code uses the closed forms below; finite differences appear
only in the test oracles.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .combinatorics import net_disorder_intensive
from .constants import CODATA, SpeciesSpec, species_lookup
from .errors import DegeneracyError, DomainError, StepSizeError

_H = CODATA.h
_KB = CODATA.k_B

STATISTICS = ("fermi", "bose")


@dataclass(frozen=True)
class GasSpec:
    """One macrostate: temperature (K), volume (m^3), particle count,
    species, and which occupation statistics to use."""

    T: float
    V: float
    N: float
    species: SpeciesSpec
    statistics: str = "fermi"

    def __post_init__(self) -> None:
        if not all(math.isfinite(x) and x > 0.0
                   for x in (self.T, self.V, self.N)):
            raise DomainError("GasSpec needs finite T > 0, V > 0, N > 0")
        if self.statistics not in STATISTICS:
            raise DomainError(
                f"statistics must be one of {STATISTICS}, got {self.statistics!r}"
            )

    @staticmethod
    def from_name(T: float, V: float, N: float, species: str,
                  statistics: str = "fermi") -> "GasSpec":
        return GasSpec(T, V, N, species_lookup(species), statistics)


@dataclass(frozen=True)
class ThermoState:
    """Full set of state quantities for one macrostate.

    ``lambda_V`` is the volumetric pattern length (N lambda_th^3)^(1/3),
    reported as metadata only; no state function uses it.
    """

    lambda_th: float   # m
    M: float           # slot count V / lambda_th^3
    A: float           # slots per particle M / N
    kappa: float       # intensive net disorder per particle, nats
    gamma: float       # occupation elasticity factor
    F: float           # free energy, J
    S: float           # entropy, J/K
    P: float           # pressure, Pa
    mu: float          # chemical potential, J
    U: float           # internal energy, J
    c_V: float         # heat capacity at constant V, J/K
    e_T: float         # d ln M / d ln T elasticity contribution, = 3/2 gamma
    e_V: float         # d ln M / d ln V contribution, = gamma
    e_N: float         # d ln(1/N) contribution, = -gamma
    lambda_V: float    # m, metadata


class PotentialSet(NamedTuple):
    """Legendre-transformed potentials of one state."""

    F: float       # free energy, J
    A_GC: float    # grand potential F - mu N, J
    G: float       # Gibbs free energy F + P V, J
    U_of_S: float  # internal energy recovered as F + T S, J


def thermal_length(T: float, mass: float) -> float:
    """Thermal de Broglie length sqrt( h^2 / (2 pi m k_B T) ), m."""
    if T <= 0.0 or mass <= 0.0:
        raise DomainError("thermal_length needs T > 0 and mass > 0")
    return math.sqrt(_H * _H / (2.0 * math.pi * mass * _KB * T))


def slot_density_prefactor(mass: float) -> float:
    """gamma = (2 pi m k_B / h^2)^(3/2), so that M = gamma V T^(3/2)."""
    if mass <= 0.0:
        raise DomainError("mass must be positive")
    return (2.0 * math.pi * mass * _KB / (_H * _H)) ** 1.5


def rms_speed(T: float, mass: float) -> float:
    """Root-mean-square thermal speed sqrt(3 k_B T / m), m/s."""
    if T <= 0.0 or mass <= 0.0:
        raise DomainError("rms_speed needs T > 0 and mass > 0")
    return math.sqrt(3.0 * _KB * T / mass)


def degeneracy_parameter(spec: GasSpec) -> tuple[float, float]:
    """Return (A, M): slots per particle and the total slot count
    M = V / lambda_th^3 = gamma V T^(3/2)."""
    lam = thermal_length(spec.T, spec.species.mass)
    M = spec.V / lam**3
    return M / spec.N, M


def interparticle_length(spec: GasSpec) -> float:
    """Mean interparticle length (V / N)^(1/3), m."""
    return (spec.V / spec.N) ** (1.0 / 3.0)


def kappa_fd(x: float) -> float:
    """Intensive net disorder per particle for exclusive occupation,
    kappa(x) = ln(x-1) - x ln(1 - 1/x), with x the slots-per-particle
    ratio of one spin state (x = 2A for spin-1/2).  Requires x > 1."""
    return net_disorder_intensive(x, 1.0)


def gamma_fd(x: float) -> float:
    """Occupation elasticity Gamma(x) = -x ln(1 - 1/x) = x dkappa/dx
    for exclusive occupation.  Requires x > 1."""
    if x <= 1.0:
        raise DomainError(f"gamma_fd needs x > 1, got x={x}")
    if x <= 2.0:
        # 1 - 1/x loses digits here; ln(x-1) - ln(x) does not.
        return x * (math.log(x) - math.log(x - 1.0))
    return -x * math.log1p(-1.0 / x)


def kappa_be(a: float) -> float:
    """Intensive net disorder per particle for unrestricted occupation,
    kappa(A) = ln(A+1) + A ln(1 + 1/A).  Defined for all A > 0."""
    if a <= 0.0:
        raise DomainError(f"kappa_be needs A > 0, got A={a}")
    return math.log1p(a) + gamma_be(a)


def gamma_be(a: float) -> float:
    """Occupation elasticity Gamma(A) = A ln(1 + 1/A) for unrestricted
    occupation."""
    if a <= 0.0:
        raise DomainError(f"gamma_be needs A > 0, got A={a}")
    return a * math.log1p(1.0 / a)


def mu_be(a: float, T: float) -> float:
    """Chemical potential -k_B T ln(A + 1) for unrestricted occupation, J."""
    if a <= 0.0 or T <= 0.0:
        raise DomainError("mu_be needs A > 0 and T > 0")
    return -_KB * T * math.log1p(a)


def state_equations(spec: GasSpec) -> ThermoState:
    """Evaluate every state function of ``spec`` from the closed forms.

    Raises
    ------
    DegeneracyError
        For exclusive statistics when 2A <= 1, where the closed forms
        leave their domain.
    """
    lam = thermal_length(spec.T, spec.species.mass)
    M = spec.V / lam**3
    A = M / spec.N
    N, T, V = spec.N, spec.T, spec.V

    if spec.statistics == "fermi":
        x = 2.0 * A
        if x <= 1.0:
            raise DegeneracyError(
                f"degenerate regime: 2A = {x:.6g} <= 1; the exclusive-occupation "
                "closed forms do not apply"
            )
        kappa = kappa_fd(x)
        gamma = gamma_fd(x)
        mu = -_KB * T * math.log(x - 1.0)
        # d(Gamma)/dT at fixed V, N enters through x dGamma/dx = Gamma - x/(x-1).
        c_V = 1.5 * N * _KB * gamma + 2.25 * N * _KB * (gamma - x / (x - 1.0))
    else:
        kappa = kappa_be(A)
        gamma = gamma_be(A)
        mu = mu_be(A, T)
        c_V = 1.5 * N * _KB * gamma + 2.25 * N * _KB * (gamma - A / (A + 1.0))

    F = -_KB * T * N * kappa
    S = N * _KB * (kappa + 1.5 * gamma)
    P = (N * _KB * T / V) * gamma
    U = 1.5 * N * _KB * T * gamma
    return ThermoState(
        lambda_th=lam,
        M=M,
        A=A,
        kappa=kappa,
        gamma=gamma,
        F=F,
        S=S,
        P=P,
        mu=mu,
        U=U,
        c_V=c_V,
        e_T=1.5 * gamma,
        e_V=gamma,
        e_N=-gamma,
        lambda_V=lam * spec.N ** (1.0 / 3.0),
    )


def legendre_potentials(state: ThermoState, spec: GasSpec) -> PotentialSet:
    """Grand potential, Gibbs free energy, and the recovered internal
    energy F + T S for one state.

    The recovered U must match ``state.U`` to 1e-12 relative; a mismatch
    indicates an inconsistent (hand-built) state and raises.
    """
    a_gc = state.F - state.mu * spec.N
    g = state.F + state.P * spec.V
    u_of_s = state.F + spec.T * state.S
    if abs(u_of_s - state.U) > 1e-12 * max(abs(state.U), 1e-300):
        raise DomainError(
            "state is internally inconsistent: F + T S does not recover U"
        )
    return PotentialSet(F=state.F, A_GC=a_gc, G=g, U_of_S=u_of_s)


_MAX_REL_STEP = 1e-4


def first_law_residual(spec: GasSpec, dV: float, dN: float, q: float) -> float:
    """Energy-balance residual dU + w - q between two nearby equilibria, J.

    The process takes (T, V, N) to (T', V + dV, N + dN) where T' is solved
    so that the reversible heat T * (S' - S) equals the supplied ``q``.
    Work done by the gas is evaluated at the initial state,
    w = P dV - mu dN.  The residual vanishes to second order in the step
    sizes; the test suite verifies the order with Richardson halving.
    """
    if abs(dV) > _MAX_REL_STEP * spec.V or abs(dN) > _MAX_REL_STEP * spec.N:
        raise StepSizeError(
            f"steps must satisfy |dV|/V and |dN|/N <= {_MAX_REL_STEP:g}"
        )
    s1 = state_equations(spec)

    def spec_at(T: float) -> GasSpec:
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
        deriv = spec.T * s2.c_V / T2
        step = f / deriv
        # Guard against leaving the domain on a wild first step.
        T2 = max(T2 - step, 0.5 * T2)
        s2 = state_equations(spec_at(T2))
        f = spec.T * (s2.S - s1.S) - q
    else:
        raise DomainError("could not match the requested heat to a nearby state")

    dU = s2.U - s1.U
    w = s1.P * dV - s1.mu * dN
    return dU + w - q


def occupancy_qkm(x: float) -> float:
    """Slot occupancy from the intensive net disorder,
    g(x) = exp( -(Gamma(x) + ln(x-1)) ) = exp(-kappa(x)).  Requires x > 1."""
    return math.exp(-(gamma_fd(x) + math.log(x - 1.0)))


def occupancy_fd(eps: float, mu: float, T: float) -> float:
    """Exclusive-occupation level occupancy 1 / (exp((eps-mu)/k_B T) + 1)."""
    if T <= 0.0:
        raise DomainError("occupancy_fd needs T > 0")
    z = (eps - mu) / (_KB * T)
    if z >= 0.0:
        e = math.exp(-z)
        return e / (1.0 + e)
    return 1.0 / (math.exp(z) + 1.0)


def equivalent_level_energy(x: float, T: float) -> float:
    """Level energy eps = k_B T Gamma(x) at which the two occupancy forms
    agree, J."""
    return _KB * T * gamma_fd(x)


def s_qkm_from_complexities(k_m: float, k_n: float, k_mn: float,
                            n: float, a: float) -> float:
    """Entropy from measured description lengths, J/K.

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
    return _KB * math.log(2.0) * (k_m - k_n - k_mn) \
        + 1.5 * n * _KB * gamma_fd(2.0 * a)
