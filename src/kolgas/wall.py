"""Wall-side closed forms and regime bookkeeping: mean free path, the
length-scale hierarchy, the adsorption isotherm, and wave-packet spread
over one vessel transit.  The wall scatter models live in
:mod:`kolgas.sim`.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

from .constants import H_PLANCK
from .errors import DomainError
from .thermo import GasSpec, interparticle_length, thermal_length


#: Upper end of the cool-gas window, K.
T_COOL_MAX = 10.0

#: Lower end of the cool-gas window for helium-3 (liquefaction scale), K.
T_CRIT_HE3 = 3.3

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


def mean_free_path(V: float, N: float, a: float) -> float:
    """Kinetic mean free path V / (sqrt(2) pi N a^2), m."""
    if V <= 0.0 or N <= 0.0 or a <= 0.0:
        raise DomainError("mean_free_path needs V, N, a > 0")
    denominator = math.sqrt(2.0) * math.pi * N * a * a
    if denominator == 0.0:
        raise DomainError(f"particle count {N:g} is too small: N a^2 "
                          "underflows to 0 in the mean free path")
    return V / denominator


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


def packet_spread(b: float, T: float, mass: float) -> float:
    """Wave-packet spread h t_b / (2 m lambda_th) over one vessel transit
    at the packet speed h / (m lambda_th), m.

    Algebraically equal to b/2 for every T and mass; evaluated literally
    so the cancellation is a checked identity rather than an assumption.
    """
    if b <= 0.0:
        raise DomainError("packet_spread needs b > 0")
    lam = thermal_length(T, mass)
    v_packet = H_PLANCK / (mass * lam)
    t_b = b / v_packet
    return H_PLANCK * t_b / (2.0 * mass * lam)

