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
from .constants import H_PLANCK, K_BOLTZMANN, SpeciesSpec
from .errors import DegeneracyError, DomainError


STATISTICS = ("fermi", "bose")


def species_statistics(species: SpeciesSpec) -> str:
    """The occupation statistics the species' spin implies: exclusive
    ("fermi") for two spin states, unrestricted ("bose") for one."""
    return "fermi" if species.spin_degeneracy == 2 else "bose"


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
        if not (0.0 < self.T < math.inf and 0.0 < self.V < math.inf
                and 0.0 < self.N < math.inf):
            raise DomainError("GasSpec needs finite T > 0, V > 0, N > 0")
        if self.statistics not in STATISTICS:
            raise DomainError(
                f"statistics must be one of {STATISTICS}, got {self.statistics!r}"
            )


class ThermoState(NamedTuple):
    """State quantities of one macrostate, the ``sweep`` columns in order.

    What one expression gives from these, such as the energy exponents
    (1.5 gamma, gamma, -gamma), is computed where it is reported.
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


def thermal_length(T: float, mass: float) -> float:
    """Thermal de Broglie length sqrt( h^2 / (2 pi m k_B T) ), m."""
    if T <= 0.0 or mass <= 0.0:
        raise DomainError("thermal_length needs T > 0 and mass > 0")
    denom = 2.0 * math.pi * mass * K_BOLTZMANN * T
    if not 0.0 < denom < math.inf:
        raise DomainError(f"thermal_length at T={T:g} K needs 2 pi m k_B T "
                          "to be a positive finite float")
    return math.sqrt(H_PLANCK * H_PLANCK / denom)


def rms_speed(T: float, mass: float) -> float:
    """Root-mean-square thermal speed sqrt(3 k_B T / m), m/s."""
    if T <= 0.0 or mass <= 0.0:
        raise DomainError("rms_speed needs T > 0 and mass > 0")
    return math.sqrt(3.0 * K_BOLTZMANN * T / mass)


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
    return -K_BOLTZMANN * T * math.log1p(a)


def state_equations(spec: GasSpec) -> ThermoState:
    """Evaluate every state function of ``spec`` from the closed forms.

    Raises
    ------
    DegeneracyError
        For exclusive statistics when 2A <= 1, where the closed forms
        leave their domain.
    DomainError
        When a field is not finite, such as the slot count at a volume
        where V / lambda_th^3 overflows.
    """
    lam = thermal_length(spec.T, spec.species.mass)
    try:
        lam3 = lam**3
    except OverflowError as exc:
        raise DomainError(f"the thermal volume lambda_th^3 at T={spec.T:g} K "
                          "overflows") from exc
    if lam3 == 0.0:
        raise DomainError(f"the thermal volume lambda_th^3 at T={spec.T:g} K "
                          "underflows to 0")
    M = spec.V / lam3
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
        mu = -K_BOLTZMANN * T * math.log(x - 1.0)
        # d(Gamma)/dT at fixed V, N enters through x dGamma/dx = Gamma - x/(x-1).
        c_V = (1.5 * N * K_BOLTZMANN * gamma
               + 2.25 * N * K_BOLTZMANN * (gamma - x / (x - 1.0)))
    else:
        kappa = kappa_be(A)
        gamma = gamma_be(A)
        mu = mu_be(A, T)
        c_V = (1.5 * N * K_BOLTZMANN * gamma
               + 2.25 * N * K_BOLTZMANN * (gamma - A / (A + 1.0)))

    F = -K_BOLTZMANN * T * N * kappa
    S = N * K_BOLTZMANN * (kappa + 1.5 * gamma)
    P = (N * K_BOLTZMANN * T / V) * gamma
    U = 1.5 * N * K_BOLTZMANN * T * gamma
    state = ThermoState(
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
    )
    if not all(map(math.isfinite, state)):
        name, value = next(item for item in zip(ThermoState._fields, state)
                           if not math.isfinite(item[1]))
        raise DomainError(f"the state at T={T:g} K, V={V:g} m^3 and "
                          f"particle count N={N:g} is not finite: "
                          f"{name} = {value}")
    return state

