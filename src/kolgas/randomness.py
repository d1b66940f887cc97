"""Computable randomness tests on encoded data lists.

A "primitive list" is n data encoded at k bits per datum (k defaults to
ceil(log2 n)), so its literal length is l = n k bits.  An ideal
description length for such a list is uncomputable; this module computes
honest upper bounds K_hat from a fixed family of estimators and works
with the deficiency l - K_hat (or more generally -K_hat - log2 P).

Estimators
----------
``zlib``      general-purpose dictionary + entropy coder on the packed bits
``lzma``      heavier general-purpose coder (optional, not in the default set)
``entropy0``  exact enumerative code for the bit multiset (order-0 bound)
``entropy1``  enumerative code per preceding-bit context (order-1 bound)
``delta``     difference-encode the data, then the zlib coder (sorted lists)

Every estimate includes the calibrated estimator-id overhead so that the
bound is a valid description length given the list geometry (n, k), which
travels in the file header.
"""
from __future__ import annotations

import io
import lzma
import math
import zlib
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .calibration import load_calibration
from .combinatorics import (
    EXACT_BINOMIAL_CAP,
    log2_binomial_exact,
    log2_binomial_fd_expansion,
    net_disorder_fd,
)
from .errors import DomainError, FormatError, UnknownEstimatorError
from .constants import CODATA

_H = CODATA.h

#: Largest list accepted by the spectrum generator and the encoders.
LIST_SIZE_CAP = 10**6

_MAX_WIDTH = 62


def default_width(n: int) -> int:
    """Default bits per datum for an n-item list: ceil(log2 n), at least 1."""
    if n <= 0:
        raise DomainError("list size must be positive")
    return max(1, math.ceil(math.log2(n)))


@dataclass(frozen=True)
class EncodedList:
    """n data of k bits each: the integer list together with its width.

    ``values`` is a one-dimensional int64 array of exactly n entries, each
    in [0, 2^k).  Its fixed-width big-endian bit rendering, of literal
    length ``l_primitive`` = n*k bits, is what the estimators measure.
    """

    n: int
    k: int
    values: np.ndarray
    source_tag: str = "list"

    def __post_init__(self) -> None:
        if self.n <= 0 or self.n > LIST_SIZE_CAP:
            raise DomainError(f"list size {self.n} outside 1..{LIST_SIZE_CAP}")
        if not (1 <= self.k <= _MAX_WIDTH):
            raise DomainError(f"datum width {self.k} outside 1..{_MAX_WIDTH}")
        v = self.values
        if not (isinstance(v, np.ndarray) and v.dtype == np.int64
                and v.shape == (self.n,)):
            raise DomainError("values must be an int64 array of exactly n data")
        if v.min() < 0 or int(v.max()) >> self.k:
            raise DomainError(
                f"overflow: values must lie in [0, 2^{self.k}) "
                f"for width k={self.k}"
            )

    @property
    def l_primitive(self) -> int:
        return self.n * self.k


def encode_list(values: Sequence[int] | np.ndarray, k: int | None = None,
                source_tag: str = "list") -> EncodedList:
    """Hold ``values`` as n fixed-width data of k bits each.

    Raises a DomainError if any value needs more than k bits ("overflow").
    """
    vals = np.asarray(values, dtype=np.int64)
    if vals.ndim != 1 or vals.size == 0:
        raise DomainError("values must be a nonempty one-dimensional list")
    n = int(vals.size)
    if k is None:
        k = default_width(n)
    return EncodedList(n=n, k=k, values=vals, source_tag=source_tag)


def _bits(values: np.ndarray, width: int) -> np.ndarray:
    """Big-endian rendering of non-negative ``values`` at ``width`` bits
    each: a uint8 array of 0/1 with values.size * width entries."""
    shifts = np.arange(width - 1, -1, -1, dtype=np.int64)
    return ((values[:, None] >> shifts) & 1).astype(np.uint8).ravel()


def _packed_bytes(values: np.ndarray, width: int) -> bytes:
    """The :func:`_bits` rendering packed eight bits to a byte, zero-padded."""
    return np.packbits(_bits(values, width)).tobytes()


def quantize(values: np.ndarray, k: int,
             bounds: tuple[float, float] | None = None) -> np.ndarray:
    """Quantize real values onto 2^k uniform levels.

    ``bounds`` fixes the scale explicitly; by default the list's own range
    is used.  A fixed scale is what makes quantized lists comparable
    across states (e.g. before and after an expansion).
    """
    v = np.asarray(values, dtype=np.float64)
    if bounds is None:
        lo, hi = float(v.min()), float(v.max())
    else:
        lo, hi = bounds
    if hi <= lo:
        return np.zeros(v.shape, dtype=np.int64)
    levels = 1 << k
    q = np.floor((v - lo) / (hi - lo) * levels).astype(np.int64)
    return np.clip(q, 0, levels - 1)


# ---------------------------------------------------------------------------
# estimators

def _log2_binom_any(m: int, j: int) -> float:
    # Exact enumerative count for small m, expansion beyond; the expansion
    # is within ~1.4 bits of exact, irrelevant at these list sizes.
    if j <= 0 or j >= m:
        return 0.0
    if m <= min(EXACT_BINOMIAL_CAP, 20000):
        return log2_binomial_exact(m, j)
    return max(0.0, log2_binomial_fd_expansion(float(m), float(j)))


def _k_zlib(enc: EncodedList) -> float:
    return 8.0 * len(zlib.compress(_packed_bytes(enc.values, enc.k), 9))


_LZMA_FILTERS = [{"id": lzma.FILTER_LZMA2, "preset": 6}]


def _k_lzma(enc: EncodedList) -> float:
    data = lzma.compress(_packed_bytes(enc.values, enc.k),
                         format=lzma.FORMAT_RAW, filters=_LZMA_FILTERS)
    return 8.0 * len(data)


def _popcount(values: np.ndarray) -> int:
    return int(np.bitwise_count(values).sum())


def _k_entropy0(enc: EncodedList) -> float:
    l = enc.l_primitive
    return _log2_binom_any(l, _popcount(enc.values)) + math.log2(l + 1)


def _k_entropy1(enc: EncodedList) -> float:
    # Each bit after the first is coded within the context of the bit
    # before it.  Context c holds the bits that follow a c, so its size is
    # the count of c among the first l-1 bits, and its ones are the
    # adjacent (c, 1) pairs.  (1, 1) pairs sit inside a datum or straddle
    # the boundary between two.
    l = enc.l_primitive
    v = enc.values
    ones = _popcount(v)
    first = int(v[0] >> (enc.k - 1))
    last = int(v[-1] & 1)
    ones_11 = (_popcount(v & (v >> 1))
               + int(np.count_nonzero(v[:-1] & (v[1:] >> (enc.k - 1)))))
    ones_before = ones - last
    cost = 1.0  # the first bit, literally
    cost += _log2_binom_any(l - 1 - ones_before, ones - first - ones_11)
    cost += _log2_binom_any(ones_before, ones_11)
    return cost + 2.0 * math.log2(l + 1)


def _k_delta(enc: EncodedList) -> float:
    vals = enc.values
    deltas = np.empty_like(vals)
    deltas[0] = vals[0]
    np.subtract(vals[1:], vals[:-1], out=deltas[1:])
    zigzag = np.where(deltas >= 0, 2 * deltas, -2 * deltas - 1)
    return 8.0 * len(zlib.compress(_packed_bytes(zigzag, enc.k + 1), 9))


_ESTIMATORS = {
    "zlib": _k_zlib,
    "lzma": _k_lzma,
    "entropy0": _k_entropy0,
    "entropy1": _k_entropy1,
    "delta": _k_delta,
}

#: Estimators pooled by the default "best" estimate.
DEFAULT_ESTIMATORS = ("zlib", "entropy0", "entropy1", "delta")


@dataclass(frozen=True)
class ComplexityReport:
    """Outcome of one description-length estimate."""

    k_hat: float          # bits, including the estimator-id overhead
    estimator_id: str     # which estimator achieved the minimum
    l_primitive: int      # literal length n*k, bits
    deficiency: float     # l_primitive - k_hat; may be negative
    gap_class: str        # "random-like" or "structured"


def estimate_complexity(enc: EncodedList,
                        estimator: str = "best") -> ComplexityReport:
    """Upper-bound the description length of ``enc`` in bits.

    ``estimator`` is one of the ids above or ``"best"`` (minimum over the
    default set).  The result includes the calibrated id overhead, so
    K_hat can slightly exceed the literal length for incompressible data.
    """
    calib = load_calibration()
    if estimator == "best":
        candidates = DEFAULT_ESTIMATORS
    elif estimator in _ESTIMATORS:
        candidates = (estimator,)
    else:
        known = ", ".join(sorted(_ESTIMATORS) + ["best"])
        raise UnknownEstimatorError(
            f"unknown estimator {estimator!r}; known: {known}"
        )
    best_id, best_k = None, math.inf
    for name in candidates:
        k_est = _ESTIMATORS[name](enc) + calib.estimator_id_bits
        if k_est < best_k:
            best_id, best_k = name, k_est
    deficiency = enc.l_primitive - best_k
    gap_class = ("structured"
                 if deficiency > calib.deficiency_threshold(enc.l_primitive)
                 else "random-like")
    return ComplexityReport(
        k_hat=best_k,
        estimator_id=best_id,
        l_primitive=enc.l_primitive,
        deficiency=deficiency,
        gap_class=gap_class,
    )


def randomness_deficiency(enc: EncodedList, log2_p: float,
                          estimator: str = "best") -> float:
    """Deficiency -K_hat(list) - log2 P against a hypothesis that assigns
    the list probability P (log2_p = log2 P <= 0).

    For the uniform hypothesis P = 2^-l this is l - K_hat.  Large positive
    values show the list is atypical for the hypothesis.
    """
    if log2_p > 0.0:
        raise DomainError("log2_p is a log-probability and must be <= 0")
    report = estimate_complexity(enc, estimator)
    return -report.k_hat - log2_p


# ---------------------------------------------------------------------------
# structured reference lists

def smooth_box_spectrum(count: int, side: float, mass: float) -> np.ndarray:
    """First ``count`` one-particle box levels (h^2 / 8 m L^2)(nx^2+ny^2+nz^2),
    sorted ascending with degenerate levels repeated, in J."""
    if not (0 < count <= LIST_SIZE_CAP):
        raise DomainError(f"count must be in 1..{LIST_SIZE_CAP}")
    if side <= 0.0 or mass <= 0.0:
        raise DomainError("smooth_box_spectrum needs side > 0 and mass > 0")
    e0 = _H * _H / (8.0 * mass * side * side)
    r = max(3, math.ceil((6.0 * count / math.pi) ** (1.0 / 3.0)) + 2)
    while True:
        axis = np.arange(1, r + 1, dtype=np.int64)
        sq = axis * axis
        sums = (sq[:, None, None] + sq[None, :, None] + sq[None, None, :]).ravel()
        # Keep only sums certain to be complete under the radius cutoff.
        complete = sums[sums <= r * r]
        if complete.size >= count:
            complete.sort()
            return e0 * complete[:count].astype(np.float64)
        r = int(r * 1.3) + 1


def rng_list(n: int, k: int, rng: np.random.Generator,
             source_tag: str = "rng") -> EncodedList:
    """Uniform random k-bit data, the incompressible reference corpus."""
    if not (1 <= n <= LIST_SIZE_CAP and 1 <= k <= _MAX_WIDTH):
        raise DomainError(f"need n in 1..{LIST_SIZE_CAP} and k in "
                          f"1..{_MAX_WIDTH}")
    values = rng.integers(0, 1 << k, size=n, dtype=np.int64)
    return encode_list(values, k=k, source_tag=source_tag)


def smooth_box_list(n: int, side: float, mass: float,
                    k: int | None = None) -> EncodedList:
    """Quantized sorted box spectrum, the maximally structured reference
    corpus.  Real energies are quantized to k levels over their own range."""
    if k is None:
        k = default_width(n)
    energies = smooth_box_spectrum(n, side, mass)
    return encode_list(quantize(energies, k), k=k, source_tag="smooth-box")


# ---------------------------------------------------------------------------
# structural diagnostics

@dataclass(frozen=True)
class FDProbability:
    """Log2 algorithmic-probability bookkeeping for exclusive occupation."""

    log2_fd: float   # log2 of the multiplicity-based probability (exact/expansion)
    log2_z: float    # log2 of the extensive normalisation, net disorder / ln 2


def fd_algorithmic_probability(m: float, n: float,
                               spin_degeneracy: int = 2) -> FDProbability:
    """Probability assigned to an occupation list by counting:
    log2 FD = -sum over spin states of log2 C(m, n_s).

    Small integral inputs take the exact big-integer path; otherwise the
    expansion.  ``log2_z`` is the extensive part alone, so
    2^(log2_fd / n) reproduces the slot occupancy up to sub-extensive
    corrections.
    """
    g = spin_degeneracy
    if g not in (1, 2):
        raise DomainError("spin_degeneracy must be 1 or 2")
    n_s = n / g
    if not (m > n_s > 0.0):
        raise DomainError(f"need m > n/g > 0, got m={m}, n={n}, g={g}")
    exact_ok = (
        float(m).is_integer() and float(n_s).is_integer()
        and m <= EXACT_BINOMIAL_CAP
    )
    if exact_ok:
        log2_c = log2_binomial_exact(int(m), int(n_s))
    else:
        log2_c = log2_binomial_fd_expansion(m, n_s)
    log2_z = net_disorder_fd(m, n, g) / math.log(2.0)
    return FDProbability(log2_fd=-g * log2_c, log2_z=log2_z)


@dataclass(frozen=True)
class WedgeBound:
    """Length-anchored complexity window for an incompressible list of
    ``n`` bits: lower = n, upper = n + K_hat(n).

    The integer bound uses the natural-log magnitude convention of the
    companion reference constants (about 40 for a particle-count list and
    61 for a slot-count list at reference scale).
    """

    n: float
    lower: float
    upper: float
    k_hat_length: float


def k_hat_integer(m: float) -> float:
    """Coarse description bound for an integer magnitude, ln m."""
    if m < 2:
        raise DomainError("integer bound needs m >= 2")
    return math.log(m)


def wedge_bounds(l: float) -> WedgeBound:
    """Complexity window for an l-bit incompressible list; the window
    width K_hat(l) benchmarks how large a deficiency is still consistent
    with randomness."""
    if l < 2:
        raise DomainError("wedge_bounds needs l >= 2 bits")
    k_len = k_hat_integer(l)
    return WedgeBound(n=l, lower=float(l), upper=l + k_len, k_hat_length=k_len)


@dataclass(frozen=True)
class BalanceProfile:
    """Per-group zero/one counts over a list's bits split into equal groups."""

    group_width: int
    zeros: np.ndarray
    ones: np.ndarray
    peak_index: int        # group with the most balanced counts
    peak_center_bit: float
    degenerate: bool       # every group is maximally one-sided


def balance_profile(enc: EncodedList, group_width: int) -> BalanceProfile:
    """Zero/one balance of consecutive groups of the list's bits.

    For sorted uniform-random data the most balanced group straddles the
    value midpoint, so over an ensemble of seeds the peak concentrates at
    the middle of the bits within about a quarter group width.
    """
    l = enc.l_primitive
    if group_width <= 0 or l % group_width != 0:
        raise DomainError(
            f"list of {l} bits does not divide into groups of {group_width}"
        )
    groups = _bits(enc.values, enc.k).reshape(-1, group_width)
    ones = groups.sum(axis=1).astype(np.int64)
    zeros = group_width - ones
    imbalance = np.abs(ones - zeros)
    peak = int(np.argmin(imbalance))
    return BalanceProfile(
        group_width=group_width,
        zeros=zeros,
        ones=ones,
        peak_index=peak,
        peak_center_bit=(peak + 0.5) * group_width,
        degenerate=bool(np.all(imbalance == group_width)),
    )


@dataclass(frozen=True)
class GapVerdict:
    """Classification of a growing-prefix complexity trace."""

    label: str                  # random-like | structured | transitioning
    change_point: float | None  # literal length (bits) where the regime flips
    slope: float                # overall d(l - K)/dl


def _fit_slope(l: np.ndarray, d: np.ndarray) -> tuple[float, float]:
    coeffs = np.polyfit(l, d, 1)
    resid = d - np.polyval(coeffs, l)
    return float(coeffs[0]), float(np.dot(resid, resid))


def gap_classify(trace: Iterable[tuple[float, float]]) -> GapVerdict:
    """Classify a trace of (literal length, K_hat) over growing prefixes.

    random-like     deficiency stays under the calibrated threshold
    structured      deficiency grows with length (or stays far above it)
    transitioning   the growth rate switches regimes part-way; the change
                    point is the literal length at the best split
    """
    calib = load_calibration()
    pts = sorted((float(l), float(k)) for l, k in trace)
    if len(pts) < 3:
        raise DomainError("gap_classify needs at least 3 trace points")
    l = np.array([p[0] for p in pts])
    d = l - np.array([p[1] for p in pts])
    thresh = calib.deficiency_slope * l + calib.deficiency_offset_bits
    if bool(np.all(d <= thresh)):
        return GapVerdict("random-like", None, _fit_slope(l, d)[0])

    slope_full, _ = _fit_slope(l, d)
    s_hi, s_lo = calib.gap_slope_structured, calib.gap_slope_random
    if len(pts) >= 6:
        best = None
        for j in range(2, len(pts) - 2):
            a1, sse1 = _fit_slope(l[:j + 1], d[:j + 1])
            a2, sse2 = _fit_slope(l[j:], d[j:])
            if best is None or sse1 + sse2 < best[0]:
                best = (sse1 + sse2, j, a1, a2)
        _, j, a1, a2 = best
        flips = (a1 >= s_hi and a2 <= s_lo) or (a1 <= s_lo and a2 >= s_hi)
        if flips:
            return GapVerdict("transitioning", float(l[j]), slope_full)
    return GapVerdict("structured", None, slope_full)


def prefix_trace(enc: EncodedList, points: int = 12,
                 estimator: str = "best") -> list[tuple[float, float]]:
    """(literal length, K_hat) over linearly spaced prefixes of a list,
    all encoded at the full list's datum width."""
    if points < 3:
        raise DomainError("prefix_trace needs at least 3 points")
    values = enc.values
    sizes = np.unique(np.linspace(max(8, enc.n // points), enc.n,
                                  points).astype(int))
    out = []
    for m in sizes:
        sub = encode_list(values[:m], k=enc.k, source_tag=enc.source_tag)
        rep = estimate_complexity(sub, estimator)
        out.append((float(sub.l_primitive), rep.k_hat))
    return out


# ---------------------------------------------------------------------------
# list files

def write_list_file(path: str, enc: EncodedList, raw: bool = False) -> None:
    """Write a list file: header line ``n k source_tag`` then the values as
    newline-delimited decimals, or header ``n k source_tag raw`` then the
    values' big-endian bits packed into bytes.  A path that cannot be
    written raises FormatError."""
    tag = "_".join(enc.source_tag.split()) or "-"
    header = f"{enc.n} {enc.k} {tag}{' raw' if raw else ''}\n"
    if raw:
        body = _packed_bytes(enc.values, enc.k)
    else:
        body = ("\n".join(map(str, enc.values.tolist())) + "\n").encode("ascii")
    try:
        with open(path, "wb") as fh:
            fh.write(header.encode("ascii"))
            fh.write(body)
    except OSError as exc:
        raise FormatError(f"{path}: {exc}") from exc


def read_list_file(path: str) -> EncodedList:
    """Read a list file written by :func:`write_list_file`; exact round
    trip for both bodies, which the header names.  Malformed or unreadable
    files raise FormatError."""
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise FormatError(f"{path}: {exc}") from exc
    newline = blob.find(b"\n")
    if newline < 0:
        raise FormatError(f"{path}: missing header line")
    fields = blob[:newline].split()
    raw = len(fields) == 4 and fields[3] == b"raw"
    if len(fields) != 3 and not raw:
        raise FormatError(f"{path}: header must be 'n k source_tag [raw]'")
    try:
        n, k = int(fields[0]), int(fields[1])
    except ValueError as exc:
        raise FormatError(f"{path}: non-integer header counts") from exc
    if n <= 0 or not (1 <= k <= _MAX_WIDTH):
        raise FormatError(f"{path}: header counts out of range (n={n}, k={k})")
    tag = fields[2].decode("ascii", errors="replace")
    body = blob[newline + 1:]

    if raw:
        expected = (n * k + 7) // 8
        if len(body) != expected:
            raise FormatError(
                f"{path}: raw body is {len(body)} bytes, expected {expected}"
            )
        bits = np.unpackbits(np.frombuffer(body, dtype=np.uint8),
                             count=n * k)
        weights = np.int64(1) << np.arange(k - 1, -1, -1, dtype=np.int64)
        values = bits.reshape(n, k).astype(np.int64) @ weights
    else:
        values = _decimal_body(body, n, path)
    try:
        return encode_list(values, k=k, source_tag=tag)
    except DomainError as exc:
        raise FormatError(f"{path}: {exc}") from exc


def _decimal_body(body: bytes, n: int, path: str) -> np.ndarray:
    # loadtxt warns on a body with no data, so that case is caught first.
    if not body.strip():
        raise FormatError(f"{path}: decimal body is empty, header says {n}")
    try:
        table = np.loadtxt(io.BytesIO(body), dtype=np.int64, ndmin=2,
                           comments=None)
    except ValueError as exc:
        raise FormatError(f"{path}: bad decimal body: {exc}") from exc
    if table.shape != (n, 1):
        raise FormatError(
            f"{path}: body has {table.shape[0]} decimal lines of "
            f"{table.shape[1]} data, header says {n} lines of 1"
        )
    return table[:, 0]
