"""Closed-form thermostatics of the dilute quantum gas.

All state functions derive from the free energy F = -k_B T N kappa, where
kappa is the intensive net disorder per particle and depends on T, V, N
only through the slots-per-particle ratio.  Exclusive (spin-1/2) and
unrestricted (spin-0) occupation share the same structure with different
kappa/Gamma pairs.

Production code uses the closed forms below; finite differences appear
only in the test oracles.  They are written once, in ``state_columns``,
which evaluates a column of states at a time: numpy does the exactly
rounded arithmetic, and ``math`` every logarithm, one element at a time,
so a column holds the bits of one-point evaluations (``state_equations``
is the one-point call).
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

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
    """State quantities of one macrostate, the ``sweep`` columns in order:
    floats from ``state_equations``, float64 columns of a state each from
    ``state_columns``.

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


def _check(bad: np.ndarray, error: type[DomainError], message: str,
           *columns: np.ndarray) -> None:
    """Raise ``error(message % point)`` if ``bad`` is true anywhere, with
    ``point`` the elements of ``columns`` at its first true entry."""
    if bad.any():
        first = int(bad.argmax())
        raise error(message % tuple(column[first].item()
                                    for column in columns))


def thermal_length(T: float, mass: float) -> float:
    """Thermal de Broglie length sqrt( h^2 / (2 pi m k_B T) ), m."""
    return _thermal_lengths(np.array([T], np.float64), mass).item()


def _thermal_lengths(T: np.ndarray, mass: float) -> np.ndarray:
    """``thermal_length`` at each element of the column ``T``."""
    _check((T <= 0.0) | (mass <= 0.0), DomainError,
           "thermal_length needs T > 0 and mass > 0")
    with np.errstate(over="ignore"):
        denom = 2.0 * math.pi * mass * K_BOLTZMANN * T
    _check(~((0.0 < denom) & (denom < math.inf)), DomainError,
           "thermal_length at T=%g K needs 2 pi m k_B T to be a positive "
           "finite float", T)
    return np.sqrt(H_PLANCK * H_PLANCK / denom)


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


def _mapped(f: Callable[..., float], *columns: np.ndarray) -> np.ndarray:
    """``f`` applied to the columns' elements one at a time, in Python
    floats: numpy's ``log`` and ``log1p`` differ from ``math``'s in the
    last bit of some results, so each transcendental call goes through
    ``math``."""
    return np.array(list(map(f, *(column.tolist() for column in columns))))


def _cube(x: float) -> float:
    """``x**3``, and inf where it overflows."""
    try:
        return x**3
    except OverflowError:
        return math.inf


def state_columns(T: float | np.ndarray, V: float | np.ndarray,
                  N: float | np.ndarray, species: SpeciesSpec,
                  statistics: str = "fermi") -> ThermoState:
    """Evaluate every state function from the closed forms at each point
    of T, V and N, floats or arrays broadcast to one 1-D float64 column
    each; the fields of the ``ThermoState`` are columns.

    Each point's values are the bits the closed forms give in plain
    floats: every +, -, x, / and sqrt is a numpy elementwise op in the
    order of the scalar expression, each exactly rounded as in a float,
    and every log, log1p and cube goes through ``math`` one element at a
    time (``_mapped``).

    Raises
    ------
    DegeneracyError
        For exclusive statistics when 2A <= 1, where the closed forms
        leave their domain.
    DomainError
        When T, V or N is not finite and positive, when the statistics
        are unknown, or when a field is not finite, such as the slot
        count at a volume where V / lambda_th^3 overflows.  The error
        is the one the first point outside the domain raises alone.
    """
    T, V, N = np.broadcast_arrays(*(np.array(x, np.float64, ndmin=1)
                                    for x in (T, V, N)))
    try:
        with np.errstate(all="ignore"):
            return _columns(T, V, N, species, statistics)
    except DomainError:
        if T.size == 1:
            raise
        for point in zip(T.tolist(), V.tolist(), N.tolist()):
            state_columns(*point, species, statistics)
        raise


def _columns(T: np.ndarray, V: np.ndarray, N: np.ndarray,
             species: SpeciesSpec, statistics: str) -> ThermoState:
    """``state_columns`` of one block, with numpy's warnings off: a
    failed check raises the error of its own first failing point."""
    _check(~((0.0 < T) & (T < math.inf) & (0.0 < V) & (V < math.inf)
             & (0.0 < N) & (N < math.inf)), DomainError,
           "the state needs finite T > 0, V > 0 and N > 0")
    if statistics not in STATISTICS:
        raise DomainError(
            f"statistics must be one of {STATISTICS}, got {statistics!r}"
        )
    lam = _thermal_lengths(T, species.mass)
    lam3 = _mapped(_cube, lam)
    _check(lam3 == math.inf, DomainError, "the thermal volume lambda_th^3 "
           "at T=%g K overflows", T)
    _check(lam3 == 0.0, DomainError, "the thermal volume lambda_th^3 at "
           "T=%g K underflows to 0", T)
    M = V / lam3
    A = M / N

    if statistics == "fermi":
        x = 2.0 * A
        _check(x <= 1.0, DegeneracyError, "degenerate regime: 2A = %.6g "
               "<= 1; the exclusive-occupation closed forms do not apply", x)
        kappa = _mapped(kappa_fd, x)
        gamma = _mapped(gamma_fd, x)
        mu = -K_BOLTZMANN * T * _mapped(math.log, x - 1.0)
        # d(Gamma)/dT at fixed V, N enters through x dGamma/dx = Gamma - x/(x-1).
        c_V = (1.5 * N * K_BOLTZMANN * gamma
               + 2.25 * N * K_BOLTZMANN * (gamma - x / (x - 1.0)))
    else:
        kappa = _mapped(kappa_be, A)
        gamma = _mapped(gamma_be, A)
        mu = _mapped(mu_be, A, T)
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
    finite = np.isfinite(state)
    if not finite.all():
        point = int((~finite).any(axis=0).argmax())
        field = int((~finite[:, point]).argmax())
        T, V, N, value = (column[point].item()
                          for column in (T, V, N, state[field]))
        raise DomainError(f"the state at T={T:g} K, V={V:g} m^3 and "
                          f"particle count N={N:g} is not finite: "
                          f"{ThermoState._fields[field]} = {value}")
    return state


def state_equations(spec: GasSpec) -> ThermoState:
    """Every state function of ``spec``, in floats: the one-point
    evaluation of ``state_columns``, whose errors it raises."""
    return ThermoState._make(
        column.item() for column in state_columns(
            spec.T, spec.V, spec.N, spec.species, spec.statistics))
