"""Wall interaction and regime bookkeeping: pair potential, mean free
path, the length-scale hierarchy, adsorption closed forms, and wave-packet
spread over one vessel transit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

from .combinatorics import net_disorder_fd
from .constants import CODATA, SpeciesSpec
from .errors import DomainError
from .thermo import GasSpec, interparticle_length, rms_speed, thermal_length

_KB = CODATA.k_B
_H = CODATA.h

#: Upper end of the cool-gas window, K.
T_COOL_MAX = 10.0

#: Lower end of the cool-gas window for helium-3 (liquefaction scale), K.
T_CRIT_HE3 = 3.3

#: Spacing of the trap-site lattice on the wall, m.
WALL_SITE_SPACING = 3.0e-10

#: Adsorption reference case: trap depth over k_B T and slots-per-particle
#: ratio used in the documentation examples, plus the legacy figure the
#: closed form is checked against.  The closed form gives about 2.8e-7
#: occupied fraction; the legacy figure is about 5x smaller.  The formula
#: is authoritative; the discrepancy is reported, not patched.
ISOTHERM_REFERENCE = {
    "A": 3.2e8,
    "u_over_kT": 4.5,
    "legacy_fraction": 5.6e-8,
}


@dataclass(frozen=True)
class LengthHierarchy:
    """Evaluated length-scale chain for one macrostate.

    ``inequalities`` maps each link of the chain
    l_mfp >= b > ell_N > lambda_th >= a_LJ > 2 a_B to its truth value.
    ``regime`` is "collisionless" when the mean free path spans the vessel.
    ``cool`` marks the helium-3 working window T_crit < T <= 10 K.
    """

    l_mfp: float
    b: float
    ell_N: float
    lambda_th: float
    a_LJ: float
    a_B: float
    regime: str
    cool: bool
    inequalities: dict[str, bool] = field(default_factory=dict)


def lennard_jones(r: float, species: SpeciesSpec) -> float:
    """Pair potential 4 eps ((a/r)^12 - (a/r)^6), J, with the species'
    zero-crossing length a and well depth eps (eps_LJ is stored in K)."""
    if r <= 0.0:
        raise DomainError("lennard_jones needs r > 0")
    eps_j = species.eps_LJ * _KB
    s6 = (species.a_LJ / r) ** 6
    return 4.0 * eps_j * (s6 * s6 - s6)


def mean_free_path(V: float, N: float, a: float) -> float:
    """Kinetic mean free path V / (sqrt(2) pi N a^2), m."""
    if V <= 0.0 or N <= 0.0 or a <= 0.0:
        raise DomainError("mean_free_path needs V, N, a > 0")
    return V / (math.sqrt(2.0) * math.pi * N * a * a)


def classify_regime(spec: GasSpec, b: float) -> LengthHierarchy:
    """Evaluate the length-scale chain for ``spec`` in a vessel of linear
    size ``b`` and classify the collision regime."""
    if b <= 0.0:
        raise DomainError("vessel size b must be positive")
    sp = spec.species
    l_mfp = mean_free_path(spec.V, spec.N, sp.a_LJ)
    ell_n = interparticle_length(spec)
    lam = thermal_length(spec.T, sp.mass)
    ineqs = {
        "l_mfp >= b": l_mfp >= b,
        "b > ell_N": b > ell_n,
        "ell_N > lambda_th": ell_n > lam,
        "lambda_th >= a_LJ": lam >= sp.a_LJ,
        "a_LJ > 2 a_B": sp.a_LJ > 2.0 * sp.a_B,
    }
    regime = "collisionless" if ineqs["l_mfp >= b"] else "collisional"
    cool = sp.name == "he3" and T_CRIT_HE3 < spec.T <= T_COOL_MAX
    return LengthHierarchy(
        l_mfp=l_mfp,
        b=b,
        ell_N=ell_n,
        lambda_th=lam,
        a_LJ=sp.a_LJ,
        a_B=sp.a_B,
        regime=regime,
        cool=cool,
        inequalities=ineqs,
    )


def langmuir_massieu(m_c: float, n_c: float, u: float, T: float) -> float:
    """Massieu function (dimensionless) of n_c adsorbed atoms on m_c traps
    of depth u (J) at temperature T:

        [m_c ln m_c - n_c ln n_c - (m_c - n_c) ln (m_c - n_c)] + n_c u / (k_B T).

    The combinatorial part is exactly the single-spin net disorder, shared
    with :func:`kolgas.combinatorics.net_disorder_fd`.
    """
    if not (m_c > n_c > 0.0):
        raise DomainError(f"need m_c > n_c > 0, got m_c={m_c}, n_c={n_c}")
    if T <= 0.0:
        raise DomainError("langmuir_massieu needs T > 0")
    return net_disorder_fd(m_c, n_c, 1) + n_c * u / (_KB * T)


def langmuir_isotherm(a: float, u_over_kt: float) -> float:
    """Occupied trap fraction 1 / (1 + A exp(-u / k_B T)).

    ``a`` is the gas-side slots-per-particle ratio; ``u_over_kt`` the trap
    depth over k_B T.  Always in (0, 1); decreasing in A; equals 1/2 at
    the balance point u / k_B T = ln A.
    """
    if a <= 0.0:
        raise DomainError("langmuir_isotherm needs A > 0")
    return 1.0 / (1.0 + a * math.exp(-u_over_kt))


def isotherm_reference_report() -> dict:
    """Evaluate the closed-form isotherm on the bundled reference case and
    report the factor by which it differs from the legacy figure."""
    ref = ISOTHERM_REFERENCE
    fraction = langmuir_isotherm(ref["A"], ref["u_over_kT"])
    return {
        "fraction": fraction,
        "legacy_fraction": ref["legacy_fraction"],
        "discrepancy_factor": fraction / ref["legacy_fraction"],
        "note": (
            "closed-form occupied fraction differs from the legacy figure "
            "by about 5x; the closed form is authoritative here"
        ),
    }


def p0_reference(T: float, mass: float) -> float:
    """Reference pressure (k_B T)^(5/2) (2 pi m / h^2)^(3/2), Pa.

    For an ideal gas, P / P0 = 1 / A exactly.
    """
    if T <= 0.0 or mass <= 0.0:
        raise DomainError("p0_reference needs T > 0 and mass > 0")
    return (_KB * T) ** 2.5 * (2.0 * math.pi * mass / (_H * _H)) ** 1.5


def packet_spread(b: float, T: float, mass: float) -> float:
    """Wave-packet spread h t_b / (2 m lambda_th) over one vessel transit
    at the packet speed h / (m lambda_th), m.

    Algebraically equal to b/2 for every T and mass; evaluated literally
    so the cancellation is a checked identity rather than an assumption.
    """
    if b <= 0.0:
        raise DomainError("packet_spread needs b > 0")
    lam = thermal_length(T, mass)
    v_packet = _H / (mass * lam)
    t_b = b / v_packet
    return _H * t_b / (2.0 * mass * lam)


@dataclass(frozen=True)
class WallFluxReport:
    """Order-of-magnitude wall traffic for one macrostate."""

    v_th: float                    # rms speed, m/s
    t_b: float                     # vessel transit time, s
    flux: float                    # atoms reaching the wall per second
    sites: float                   # trap sites on the wall
    per_site_per_transit: float    # atoms per site per transit time
    free_per_occupied: float       # instantaneous free:occupied site ratio


def wall_flux_report(spec: GasSpec, wall_area: float) -> WallFluxReport:
    """Estimate wall traffic: every atom reaches the wall about once per
    transit time t_b = V^(1/3) / v_th, so the flux is N / t_b spread over
    wall_area / WALL_SITE_SPACING^2 sites."""
    if wall_area <= 0.0:
        raise DomainError("wall_flux_report needs wall_area > 0")
    v_th = rms_speed(spec.T, spec.species.mass)
    b = spec.V ** (1.0 / 3.0)
    t_b = b / v_th
    flux = spec.N / t_b
    sites = wall_area / WALL_SITE_SPACING**2
    per_site = spec.N / sites
    occupied = min(per_site, 1.0)
    return WallFluxReport(
        v_th=v_th,
        t_b=t_b,
        flux=flux,
        sites=sites,
        per_site_per_transit=per_site,
        free_per_occupied=(1.0 - occupied) / occupied if occupied > 0 else math.inf,
    )
