"""kolgas: gas thermodynamics from counting arrangements, computable
randomness audits, and an event-driven collisionless-gas simulator.

The three layers share one idea: the equilibrium state functions of an
ideal gas are combinatorial identities about slot occupation, their
finite-size corrections are measurable, and "disordered" is a property a
compressor can certify on concrete particle data.
"""

from .calibration import Calibration, load_calibration
from .combinatorics import (
    fd_half_log_bits,
    log2_binomial_be_expansion,
    log2_binomial_exact,
    log2_binomial_fd_expansion,
    net_disorder_fd,
    net_disorder_intensive,
)
from .constants import (
    H_PLANCK,
    K_BOLTZMANN,
    U_AMU,
    SpeciesSpec,
    species_lookup,
)
from .errors import (
    DegeneracyError,
    DomainError,
    FormatError,
    KolgasError,
    NoPlateauError,
    UnknownEstimatorError,
    UnknownSpeciesError,
)
from .randomness import (
    ComplexityReport,
    EncodedList,
    encode_list,
    estimate_complexity,
    gap_classify,
    prefix_trace,
    quantize,
    read_list_file,
    rng_list,
    smooth_box_list,
    smooth_box_spectrum,
    write_list_file,
)
from .sim import (
    DisorderTrace,
    JouleReport,
    SimConfig,
    SimRun,
    init_sim,
    member_seed,
    relaxation_time,
    run_joule_expansion,
    simulate,
    step_to,
)
from .thermo import (
    GasSpec,
    ThermoState,
    state_equations,
    thermal_length,
)
from .wall import (
    LengthHierarchy,
    classify_regime,
    langmuir_isotherm,
    mean_free_path,
)

__version__ = "0.1.0"

__all__ = [
    "Calibration", "load_calibration",
    "fd_half_log_bits", "log2_binomial_be_expansion", "log2_binomial_exact",
    "log2_binomial_fd_expansion", "net_disorder_fd", "net_disorder_intensive",
    "H_PLANCK", "K_BOLTZMANN", "U_AMU", "SpeciesSpec", "species_lookup",
    "DegeneracyError", "DomainError", "FormatError", "KolgasError",
    "NoPlateauError", "UnknownEstimatorError", "UnknownSpeciesError",
    "ComplexityReport", "EncodedList", "encode_list", "estimate_complexity",
    "gap_classify", "prefix_trace", "quantize", "read_list_file", "rng_list",
    "smooth_box_list", "smooth_box_spectrum", "write_list_file",
    "DisorderTrace", "JouleReport", "SimConfig", "SimRun", "init_sim",
    "member_seed", "relaxation_time", "run_joule_expansion", "simulate",
    "step_to",
    "GasSpec", "ThermoState", "state_equations", "thermal_length",
    "LengthHierarchy", "classify_regime", "langmuir_isotherm",
    "mean_free_path",
    "__version__",
]
