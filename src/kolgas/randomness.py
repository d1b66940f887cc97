"""Computable randomness tests on encoded data lists.

A "primitive list" is n data encoded at k bits per datum (k defaults to
ceil(log2 n)), so its literal length is l = n k bits.  An ideal
description length for such a list is uncomputable; this module computes
honest upper bounds K_hat from a fixed family of estimators and works
with the deficiency l - K_hat.

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

import concurrent.futures
import lzma
import math
import os
import sys
import threading
import zlib
from dataclasses import dataclass
from typing import BinaryIO, Callable, Iterable, Iterator, Sequence

import numpy as np

from .calibration import load_calibration
from .combinatorics import (
    EXACT_BINOMIAL_CAP,
    log2_binomial_exact,
    log2_binomial_fd_expansion,
)
from .errors import DomainError, FormatError, UnknownEstimatorError
from .constants import H_PLANCK

#: Largest list accepted by the spectrum generator and the encoders.
LIST_SIZE_CAP = 10**6

_MAX_WIDTH = 62

#: Values rendered, written or decoded per slice by the list codecs; a
#: multiple of 8, so a slice of a packed body starts on a byte boundary.
_CHUNK = 1 << 16


def default_width(n: int) -> int:
    """Default bits per datum for an n-item list: ceil(log2 n), at least 1."""
    if n <= 0:
        raise DomainError("list size must be positive")
    return max(1, math.ceil(math.log2(n)))


@dataclass(frozen=True)
class EncodedList:
    """n data of k bits each: the integer list together with its width.

    ``values`` is a one-dimensional int64 array of n entries, each in
    [0, 2^k).  Its fixed-width big-endian bit rendering, of literal
    length ``l_primitive`` = n*k bits, is what the estimators measure.
    """

    k: int
    values: np.ndarray
    source_tag: str = "list"

    def __post_init__(self) -> None:
        v = self.values
        if not (isinstance(v, np.ndarray) and v.dtype == np.int64
                and v.ndim == 1):
            raise DomainError("values must be a one-dimensional int64 array")
        if not 1 <= v.size <= LIST_SIZE_CAP:
            raise DomainError(f"list size {v.size} outside 1..{LIST_SIZE_CAP}")
        if not (1 <= self.k <= _MAX_WIDTH):
            raise DomainError(f"datum width {self.k} outside 1..{_MAX_WIDTH}")
        if v.min() < 0 or int(v.max()) >> self.k:
            raise DomainError(
                f"overflow: values must lie in [0, 2^{self.k}) "
                f"for width k={self.k}"
            )

    @property
    def n(self) -> int:
        return self.values.size

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
    if k is None:
        k = default_width(vals.size)
    return EncodedList(k=k, values=vals, source_tag=source_tag)


def _slices(values: np.ndarray) -> Iterator[np.ndarray]:
    """``values`` as consecutive views of ``_CHUNK`` values, the last
    one shorter, so no temporary made per slice grows with the list."""
    return (values[start:start + _CHUNK]
            for start in range(0, values.size, _CHUNK))


def _word_plan(width: int) -> Iterator[tuple[int, int]]:
    """Where each of 8 consecutive values of ``width`` bits lies in the
    ceil(width/8) 64-bit words that hold their big-endian rendering, in
    which 8 values make ``width`` bytes.  For each value in turn: the
    word that holds its first bit, and how many of its bits spill into
    the next word; zero or less where the value ends in the first word,
    its last bit then -spill bits above that word's lowest."""
    for j in range(8):
        word, offset = divmod(j * width, 64)
        yield word, offset + width - 64


def _pack(values: np.ndarray, width: int) -> bytes:
    """Big-endian rendering of non-negative ``values`` at ``width`` bits
    each, packed eight bits to a byte and zero-padded at the end.

    Each 8 values, the last group padded with zeros, make ``width``
    bytes: ``_word_plan`` shifts each value column into one 64-bit word,
    or two where it straddles them, and the words, byte-swapped to big
    endian once, are cut to ``width`` bytes per group.  That takes about
    4 ms per 10^6 values at widths 20 and 21 and 6 ms at 62 (a 2-vCPU
    Xeon, min of 9), and about 20 µs for the 10^3 values of a trace
    row's list at 10^3 particles.  A slice of ``_CHUNK`` values, a
    multiple of 8, packs to whole bytes, so a list packs slice by slice.
    """
    n = values.size
    groups = -(-n // 8)
    padded = np.zeros(8 * groups, dtype=np.uint64)
    padded[:n] = values
    words = np.zeros(((width + 7) // 8, groups), dtype=np.uint64)
    for (q, spill), col in zip(_word_plan(width), padded.reshape(groups, 8).T):
        if spill <= 0:
            words[q] |= col << -spill
        else:
            words[q] |= col >> spill
            words[q + 1] |= col << (64 - spill)
    packed = words.T.astype(">u8", order="C").view(np.uint8)[:, :width]
    return packed.tobytes()[:(n * width + 7) // 8]


def _unpack(packed: np.ndarray, width: int, posted: _Posted) -> None:
    """Inverse of :func:`_pack` over the whole list: the values held in
    ``packed``, into ``posted`` a slice at a time.

    Each slice's bytes, zero-padded to whole groups, fill the first
    ``width`` bytes of each group's 64-bit big-endian words, and each
    value column comes back out through ``_word_plan`` with one shift, or
    two where it straddles words, and a mask: about 4.5 ms per 10^6
    values at width 20 and 6.5 ms at 62 (a 2-vCPU Xeon, min of 9)."""
    values = posted.values
    n = values.size
    nwords = (width + 7) // 8
    mask = np.uint64((1 << width) - 1)
    for start in range(0, n, _CHUNK):
        m = min(_CHUNK, n - start)
        groups = -(-m // 8)
        first, size = start * width // 8, (m * width + 7) // 8
        body = np.zeros(groups * width, dtype=np.uint8)
        body[:size] = packed[first:first + size]
        grouped = np.zeros((groups, 8 * nwords), dtype=np.uint8)
        grouped[:, :width] = body.reshape(groups, width)
        words = grouped.view(">u8").T.astype(np.uint64)
        cols = np.empty((8, groups), dtype=np.uint64)
        for (q, spill), col in zip(_word_plan(width), cols):
            if spill <= 0:
                np.right_shift(words[q], -spill, out=col)
            else:
                np.left_shift(words[q], spill, out=col)
                col |= words[q + 1] >> (64 - spill)
            col &= mask
        values[start:start + m] = cols.T.reshape(-1)[:m].view(np.int64)
        posted.post(start + m)


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


# Each estimator in ``_ESTIMATORS`` measures a list and its prefixes at
# once: given the values, the width k and ascending prefix sizes, it
# returns the bits of its code for values[:m] at each m in ``sizes``.
# zlib and delta make one compressor pass through ``_deflate_bits``,
# which packs the list one ``_CHUNK`` slice at a time; the rest measure
# each prefix afresh through ``_each_prefix``, lzma also feeding its
# compressor slice by slice, so no estimator holds a whole-list buffer.
# For a long list, ``_estimates`` runs delta in a helper thread while
# zlib and the entropy bounds run in the caller: delta is the longest
# pass on a sorted list, and about as long as zlib on a random one.
# When the list comes from a file, the helper starts once the header is
# read and takes each slice as soon as the reader posts it (``_Posted``),
# so the read overlaps the delta pass too.

def _deflate_bits(slices: Iterable[np.ndarray], width: int,
                  sizes: list[int]) -> list[float]:
    """Bits of zlib.compress(prefix, 9) for the packed rendering, at
    ``width``, of the first m values of ``slices`` for each m in
    ``sizes``; the slices hold exactly ``sizes[-1]`` values, each but
    the last ``_CHUNK`` long.

    One compressor takes each slice as it is packed.  Each prefix
    finishes on a copy, after its partial last byte masked to the zero
    padding of its own packing; that byte lies in the slice of the
    prefix's last value, as every slice before the last packs to whole
    bytes.
    """
    comp = zlib.compressobj(9)
    emitted = start = 0
    out: list[float] = []
    for part in slices:
        packed = memoryview(_pack(part, width))
        fed = 0
        while len(out) < len(sizes) and sizes[len(out)] <= start + part.size:
            whole, rest = divmod((sizes[len(out)] - start) * width, 8)
            emitted += len(comp.compress(packed[fed:whole]))
            fed = whole
            tail = comp if len(out) == len(sizes) - 1 else comp.copy()
            last = bytes([packed[whole] & 0xFF00 >> rest]) if rest else b""
            out.append(8.0 * (emitted + len(tail.compress(last))
                              + len(tail.flush())))
        if len(out) < len(sizes):
            emitted += len(comp.compress(packed[fed:]))
        start += part.size
    return out


def _k_zlib(values: np.ndarray, width: int, sizes: list[int]) -> list[float]:
    return _deflate_bits(_slices(values[:sizes[-1]]), width, sizes)


def _zigzag_slices(values: np.ndarray,
                   posted: _Posted | None = None) -> Iterator[np.ndarray]:
    """The deltas of ``values``, the first taken from 0, slice by slice.
    Each delta d is zigzag-coded, 2d for d >= 0 and -2d - 1 below, as
    (d << 1) ^ (d >> 63); a slice's first delta is taken from the last
    value of the slice before it.  With ``posted``, the hand-off of a
    list being read into ``values``, each slice is taken once the reader
    has posted it."""
    prev = end = 0
    for part in _slices(values):
        end += part.size
        if posted is not None:
            posted.wait(end)
        zigzag = np.empty_like(part)
        zigzag[0] = part[0] - prev
        np.subtract(part[1:], part[:-1], out=zigzag[1:])
        prev = part[-1]
        sign = zigzag >> 63
        zigzag <<= 1
        zigzag ^= sign
        yield zigzag


def _k_delta(values: np.ndarray, width: int, sizes: list[int],
             posted: _Posted | None = None) -> list[float]:
    # The deltas of a prefix are the prefix of the deltas.
    return _deflate_bits(_zigzag_slices(values[:sizes[-1]], posted),
                         width + 1, sizes)


_LZMA_FILTERS = [{"id": lzma.FILTER_LZMA2, "preset": 6}]


def _k_lzma(values: np.ndarray, width: int) -> float:
    compressor = lzma.LZMACompressor(format=lzma.FORMAT_RAW,
                                     filters=_LZMA_FILTERS)
    size = sum(len(compressor.compress(_pack(part, width)))
               for part in _slices(values))
    return 8.0 * (size + len(compressor.flush()))


def _popcount(values: np.ndarray) -> int:
    return int(np.bitwise_count(values).sum())


def _k_entropy0(values: np.ndarray, width: int) -> float:
    l = values.size * width
    return _log2_binom_any(l, _popcount(values)) + math.log2(l + 1)


def _k_entropy1(values: np.ndarray, width: int) -> float:
    # Each bit after the first is coded within the context of the bit
    # before it.  Context c holds the bits that follow a c, so its size is
    # the count of c among the first l-1 bits, and its ones are the
    # adjacent (c, 1) pairs.  (1, 1) pairs sit inside a datum or straddle
    # the boundary between two; both are counted slice by slice, carrying
    # the last bit of each slice into the next.
    l = values.size * width
    ones = ones_11 = last = 0
    for part in _slices(values):
        tops = part >> (width - 1)
        ones += _popcount(part)
        ones_11 += (_popcount(part & (part >> 1)) + (last & int(tops[0]))
                    + int(np.count_nonzero(part[:-1] & tops[1:])))
        last = int(part[-1] & 1)
    first = int(values[0] >> (width - 1))
    ones_before = ones - last
    cost = 1.0  # the first bit, literally
    cost += _log2_binom_any(l - 1 - ones_before, ones - first - ones_11)
    cost += _log2_binom_any(ones_before, ones_11)
    return cost + 2.0 * math.log2(l + 1)


def _each_prefix(bits):
    """The prefix form of an estimator ``bits(values, width)`` that has
    no running state to share: it measures each prefix afresh."""
    def over_prefixes(values: np.ndarray, width: int,
                      sizes: list[int]) -> list[float]:
        return [bits(values[:m], width) for m in sizes]
    return over_prefixes


_ESTIMATORS = {
    "zlib": _k_zlib,
    "lzma": _each_prefix(_k_lzma),
    "entropy0": _each_prefix(_k_entropy0),
    "entropy1": _each_prefix(_k_entropy1),
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


#: Literal bits of a list from which the "best" estimate runs delta in a
#: helper thread beside zlib and the entropy bounds: deflate releases the
#: GIL, as do numpy's passes over each slice, so on a second CPU the
#: delta pass overlaps the others, and for a list file the read as well.
#: Measured with delta in it, through ``measure_list_file`` on 20-bit
#: decimal lists with the second CPU idle (min of 15, on and off taken
#: in turn), the helper breaks even near 2^18 bits on a random list,
#: saves 8-18% at 2^19 and 2^20 and a quarter or more from 2^21 on; on a
#: sorted smooth-box list it breaks even near 2^21 bits and saves a fifth
#: at 2^22 and 30% at 2^24.  Simulator rows at the documented sizes
#: (1.4e5 bits at 10^4 particles) stay well below it, as the sampler
#: process has the second CPU during a run; rows near N_PARTICLES_CAP
#: (1.7e6 bits) and gap and audit lists at the benchmark's sizes (1.7e6
#: and 2e7 bits) are above.
_HELPER_MIN_BITS = 1 << 20


def two_cpus() -> bool:
    """Whether this process may run on two CPUs or more; False where the
    platform cannot tell (no ``os.sched_getaffinity``)."""
    return (hasattr(os, "sched_getaffinity")
            and len(os.sched_getaffinity(0)) >= 2)


def estimator_ids(estimator: str) -> tuple[str, ...]:
    """The estimator ids ``estimator`` names; "best" names the default set."""
    if estimator == "best":
        return DEFAULT_ESTIMATORS
    if estimator in _ESTIMATORS:
        return (estimator,)
    known = ", ".join(sorted(_ESTIMATORS) + ["best"])
    raise UnknownEstimatorError(
        f"unknown estimator {estimator!r}; known: {known}")


def _prefix_estimates(enc: EncodedList, estimator: str,
                      sizes: list[int]) -> list[tuple[float, str]]:
    """(K_hat, winning estimator id) of the first m data of ``enc`` for
    each m in the ascending ``sizes``, all at the list's width k.

    ``estimator`` is one of the ids above or ``"best"`` (minimum over the
    default set); each K_hat includes the calibrated id overhead."""
    return _estimates(enc.values, enc.k, estimator, sizes, lambda: enc)[1]


def _estimates(values: np.ndarray, k: int, estimator: str, sizes: list[int],
               read: Callable[[], EncodedList], posted: _Posted | None = None
               ) -> tuple[EncodedList, list[tuple[float, str]]]:
    """The list ``read()`` returns, whose data ``values`` are at width k,
    and :func:`_prefix_estimates` of it.  With ``posted``, ``read`` fills
    ``values`` through that hand-off.

    The "best" estimate of at least ``_HELPER_MIN_BITS`` bits, in a
    process that may use two CPUs, runs delta in a one-worker thread pool
    started before ``read`` is called, and shut down before this returns,
    even when the read or an estimator raises; the minimum is taken in
    candidate order either way.
    """
    id_bits = load_calibration().estimator_id_bits
    candidates = estimator_ids(estimator)

    def measure(name: str) -> list[float]:
        return _ESTIMATORS[name](values, k, sizes)

    if (estimator == "best" and sizes[-1] * k >= _HELPER_MIN_BITS
            and two_cpus()):
        handoff = {} if posted is None else {"posted": posted}
        with concurrent.futures.ThreadPoolExecutor(
                1, "kolgas-estimator") as helper:
            delta_bits = helper.submit(_ESTIMATORS["delta"], values, k,
                                       sizes, **handoff)
            try:
                enc = read()
                bits = {name: measure(name)
                        for name in candidates if name != "delta"}
            except BaseException:
                # else the pool's shutdown waits on a helper that waits
                # on a read that has ended; the helper's result, a
                # CancelledError, gives way to this error
                if posted is not None:
                    posted.fail()
                raise
            bits["delta"] = delta_bits.result()
    else:
        enc = read()
        bits = {name: measure(name) for name in candidates}
    best = [(math.inf, "")] * len(sizes)
    for name in candidates:
        for i, b in enumerate(bits[name]):
            k_est = b + id_bits
            if k_est < best[i][0]:
                best[i] = (k_est, name)
    return enc, best


def _report(enc: EncodedList, k_hat: float,
            estimator_id: str) -> ComplexityReport:
    deficiency = enc.l_primitive - k_hat
    threshold = load_calibration().deficiency_threshold(enc.l_primitive)
    gap_class = "structured" if deficiency > threshold else "random-like"
    return ComplexityReport(
        k_hat=k_hat,
        estimator_id=estimator_id,
        l_primitive=enc.l_primitive,
        deficiency=deficiency,
        gap_class=gap_class,
    )


def estimate_complexity(enc: EncodedList,
                        estimator: str = "best") -> ComplexityReport:
    """Upper-bound the description length of ``enc`` in bits.

    ``estimator`` is one of the ids above or ``"best"`` (minimum over the
    default set).  The result includes the calibrated id overhead, so
    K_hat can slightly exceed the literal length for incompressible data.
    """
    [(k_hat, estimator_id)] = _prefix_estimates(enc, estimator, [enc.n])
    return _report(enc, k_hat, estimator_id)


# ---------------------------------------------------------------------------
# structured reference lists

def smooth_box_spectrum(count: int, side: float, mass: float) -> np.ndarray:
    """First ``count`` one-particle box levels (h^2 / 8 m L^2)(nx^2+ny^2+nz^2),
    sorted ascending with degenerate levels repeated, in J."""
    if not (0 < count <= LIST_SIZE_CAP):
        raise DomainError(f"count must be in 1..{LIST_SIZE_CAP}")
    denom = 8.0 * mass * side * side
    if not (side > 0.0 and 0.0 < denom < math.inf):
        raise DomainError("smooth_box_spectrum needs side > 0 and mass > 0 "
                          "with 8 m side^2 a positive finite float")
    e0 = H_PLANCK * H_PLANCK / denom
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


def rng_list(n: int, k: int, rng: np.random.Generator) -> EncodedList:
    """Uniform random k-bit data, the incompressible reference corpus."""
    if not (1 <= n <= LIST_SIZE_CAP and 1 <= k <= _MAX_WIDTH):
        raise DomainError(f"need n in 1..{LIST_SIZE_CAP} and k in "
                          f"1..{_MAX_WIDTH}")
    values = rng.integers(0, 1 << k, size=n, dtype=np.int64)
    return encode_list(values, k=k, source_tag="rng")


def smooth_box_list(n: int, side: float, mass: float,
                    k: int | None = None) -> EncodedList:
    """Quantized sorted box spectrum, the maximally structured reference
    corpus.  Real energies are quantized to k levels over their own range."""
    if k is None:
        k = default_width(n)
    if not 1 <= k <= _MAX_WIDTH:
        raise DomainError(f"datum width {k} outside 1..{_MAX_WIDTH}")
    energies = smooth_box_spectrum(n, side, mass)
    return encode_list(quantize(energies, k), k=k, source_tag="smooth-box")


# ---------------------------------------------------------------------------
# structural diagnostics

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
    thresh = calib.deficiency_threshold(l)
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


def check_points(points: int) -> None:
    """Domain error unless ``points`` prefixes can make a ``prefix_trace``."""
    if points < 3:
        raise DomainError("prefix_trace needs at least 3 points")


def _prefix_sizes(n: int, points: int) -> list[int]:
    """The ascending prefix sizes of an n-item list that a ``points``-point
    ``prefix_trace`` measures, linearly spaced up to n."""
    check_points(points)
    first = min(max(8, n // points), n)
    # Sizes run from first to n, so past n - first + 1 points every size
    # between them is hit already and more points only cost memory.
    count = min(points, n - first + 1)
    return np.unique(np.linspace(first, n, count).astype(int)).tolist()


def _trace(k: int, sizes: list[int], estimates: list[tuple[float, str]]
           ) -> list[tuple[float, float]]:
    return [(float(m * k), k_hat) for m, (k_hat, _) in zip(sizes, estimates)]


def prefix_trace(enc: EncodedList, points: int = 12,
                 estimator: str = "best") -> list[tuple[float, float]]:
    """(literal length, K_hat) over linearly spaced prefixes of a list,
    all encoded at the full list's datum width, measured in one pass."""
    sizes = _prefix_sizes(enc.n, points)
    return _trace(enc.k, sizes, _prefix_estimates(enc, estimator, sizes))


# ---------------------------------------------------------------------------
# list files

def _decimal_lines(values: np.ndarray) -> bytes:
    """Non-negative ``values`` as ASCII decimal lines, each ending in a
    newline: the digits of every value right-aligned in one uint8 table,
    then read out without the leading zeros (a zero keeps its last)."""
    width = len(str(int(values.max())))
    text = np.empty((values.size, width + 1), dtype=np.uint8)
    rest = values
    for col in range(width - 1, -1, -1):
        rest, text[:, col] = np.divmod(rest, 10)
    keep = np.ones(text.shape, dtype=bool)
    np.logical_or.accumulate(text[:, :width - 1] != 0, axis=1,
                             out=keep[:, :width - 1])
    text += ord("0")
    text[:, width] = ord("\n")
    return text[keep].tobytes()


def write_list_file(path: str, enc: EncodedList, raw: bool = False) -> None:
    """Write a list file: header line ``n k source_tag`` then the values as
    newline-delimited decimals, or header ``n k source_tag raw`` then the
    values' big-endian bits packed into bytes.  A path that cannot be
    written raises FormatError."""
    tag = "_".join(enc.source_tag.split()) or "-"
    header = f"{enc.n} {enc.k} {tag}{' raw' if raw else ''}\n"
    try:
        with open(path, "wb") as fh:
            fh.write(header.encode("ascii"))
            for part in _slices(enc.values):
                fh.write(_pack(part, enc.k) if raw else _decimal_lines(part))
    except OSError as exc:
        raise FormatError(f"{path}: {exc}") from exc


#: Longest header line read, its line break included.
_HEADER_LIMIT = 1 << 12


class _Posted:
    """The hand-off from the reader of a list file to the helper thread
    that measures the list as it is read: the array the reader fills from
    the front, the count of values filled so far, whether the read
    failed, and the condition the helper waits on for either."""

    def __init__(self, n: int) -> None:
        self.values = np.empty(n, dtype=np.int64)
        self.count = 0
        self.failed = False
        self.changed = threading.Condition()

    def post(self, count: int) -> None:
        """Mark the first ``count`` values filled."""
        with self.changed:
            self.count = count
            self.changed.notify()

    def fail(self) -> None:
        """Mark the read failed: no more values come."""
        with self.changed:
            self.failed = True
            self.changed.notify()

    def wait(self, count: int) -> None:
        """Return once the first ``count`` values are filled; raise
        CancelledError once the read has failed."""
        with self.changed:
            self.changed.wait_for(lambda: self.failed or self.count >= count)
            if self.failed:
                raise concurrent.futures.CancelledError("the list read failed")


def read_list_file(path: str) -> EncodedList:
    """Read a list file written by :func:`write_list_file`, or from stdin
    when ``path`` is "-"; exact round trip for both bodies, which the
    header names.  Malformed or unreadable files raise FormatError.

    The header is read and checked before any body.  A raw body is read
    to one byte past the length the header gives it, and a decimal body
    a window at a time, so an input with no end, such as /dev/zero,
    fails without filling memory."""
    def read(fh: BinaryIO) -> EncodedList:
        n, k, tag, raw = _read_header(fh, path)
        return _read_body(fh, path, k, tag, raw, _Posted(n))
    return _with_input(path, read)


def measure_list_file(path: str, estimator: str = "best",
                      points: int | None = None
                      ) -> tuple[EncodedList,
                                 ComplexityReport | list[tuple[float, float]]]:
    """The list that :func:`read_list_file` reads from ``path``, and its
    :func:`estimate_complexity` or, given ``points``, its
    :func:`prefix_trace`, with the same values and errors.

    Both options are checked before the input is opened.  Where the
    "best" estimate runs delta in its helper thread, the helper starts
    once the header is read and takes each slice of the body as soon as
    the reader has filled it, so the read and the delta pass overlap."""
    estimator_ids(estimator)
    if points is not None:
        check_points(points)

    def measure(fh: BinaryIO):
        n, k, tag, raw = _read_header(fh, path)
        sizes = [n] if points is None else _prefix_sizes(n, points)
        posted = _Posted(n)
        enc, estimates = _estimates(
            posted.values, k, estimator, sizes,
            lambda: _read_body(fh, path, k, tag, raw, posted), posted)
        if points is None:
            return enc, _report(enc, *estimates[0])
        return enc, _trace(k, sizes, estimates)
    return _with_input(path, measure)


def _with_input(path: str, use):
    """``use`` of the binary stream of the file at ``path``, or of stdin
    when ``path`` is "-"; an OSError raises FormatError."""
    try:
        if path == "-":
            return use(sys.stdin.buffer)
        with open(path, "rb") as fh:
            return use(fh)
    except OSError as exc:
        raise FormatError(f"{path}: {exc}") from exc


def _read_header(fh: BinaryIO, path: str) -> tuple[int, int, str, bool]:
    """n, k, the source tag and whether the body is raw, from the header
    line of the binary stream ``fh``."""
    header = fh.readline(_HEADER_LIMIT)
    if not header.endswith(b"\n"):
        raise FormatError(f"{path}: missing header line")
    fields = header.split()
    raw = len(fields) == 4 and fields[3] == b"raw"
    if len(fields) != 3 and not raw:
        raise FormatError(f"{path}: header must be 'n k source_tag [raw]'")
    try:
        n, k = int(fields[0]), int(fields[1])
    except ValueError as exc:
        raise FormatError(f"{path}: non-integer header counts") from exc
    if not (1 <= n <= LIST_SIZE_CAP and 1 <= k <= _MAX_WIDTH):
        raise FormatError(f"{path}: header counts out of range (n={n}, k={k})")
    return n, k, fields[2].decode("ascii", errors="replace"), raw


def _read_body(fh: BinaryIO, path: str, k: int, tag: str, raw: bool,
               posted: _Posted) -> EncodedList:
    """The list whose body ``fh`` reads on, read into ``posted``, which
    the header's n sized."""
    if raw:
        expected = (posted.values.size * k + 7) // 8
        body = fh.read(expected + 1)  # one byte past is enough to tell
        if len(body) != expected:
            size = len(body) if len(body) < expected else f"over {expected}"
            raise FormatError(
                f"{path}: raw body is {size} bytes, expected {expected}"
            )
        _unpack(np.frombuffer(body, dtype=np.uint8), k, posted)
    else:
        _decimal_body(fh, posted.values.size, path, posted)
    try:
        return encode_list(posted.values, k=k, source_tag=tag)
    except DomainError as exc:
        raise FormatError(f"{path}: {exc}") from exc


#: Most digits in a datum read in uint64, leading zeros included:
#: nineteen nines lie below 2^64, and any value past int64 is a format
#: error.  Only a datum with more digits, all but 19 of them leading
#: zeros where it is valid, is read one at a time through ``int``.
_SAFE_DIGITS = 19

_INT64_MAX = np.iinfo(np.int64).max

#: Bytes of a decimal body read at a time, then on to the end of the
#: line they stop in.
_WINDOW = 8 * _CHUNK

#: Longest rest of a line read past a window.  The writer's lines hold
#: at most 20 bytes; the reader leaves room for blanks and leading zeros,
#: and takes a longer line for a format error, so that a body with no
#: line break, such as /dev/zero, is read no further.
_LINE_LIMIT = 16 * _CHUNK

#: Most line breaks a decimal body holds, blank lines counted: room for
#: every datum of the longest list and a blank line after each, and an
#: end to a body of endless blank lines, which hold no datum.
_BODY_LINES = 2 * LIST_SIZE_CAP


def _decimal_body(fh: BinaryIO, n: int, path: str,
                  posted: _Posted | None = None) -> np.ndarray:
    """The n data of the decimal body that ``fh`` reads on, one unsigned
    decimal per line:

        line = [ \\t]* ( "+"? digit+ [ \\t]* )? "\\r"? "\\n"

    where blank lines are skipped and the last line may lack its "\\n".
    The body is parsed in whole lines, ``_WINDOW`` bytes and the rest of
    the line they stop in at a time, so no temporary grows with the list,
    and the read ends at the first window that holds more than n data or
    takes the body past ``_BODY_LINES`` line breaks.  The data go into
    ``posted``, sized n, whose count is posted after each window."""
    if posted is None:
        posted = _Posted(n)
    values = posted.values
    count = lines = 0
    while text := fh.read(_WINDOW):
        if not text.endswith(b"\n"):
            rest = fh.readline(_LINE_LIMIT)
            if len(rest) == _LINE_LIMIT and not rest.endswith(b"\n"):
                raise FormatError(f"{path}: a body line runs on past "
                                  f"{_LINE_LIMIT} bytes")
            text += rest
        data, breaks = _decimal_values(np.frombuffer(text, np.uint8), path)
        lines += breaks
        if lines > _BODY_LINES:
            raise FormatError(f"{path}: body runs on past {_BODY_LINES} "
                              "lines")
        if count + data.size > n:
            raise FormatError(f"{path}: body has more than {n} decimal "
                              f"data, header says {n}")
        values[count:count + data.size] = data
        count += data.size
        posted.post(count)
    if count != n:
        raise FormatError(
            f"{path}: body has {count} decimal data, header says {n}")
    return values


def _decimal_values(text: np.ndarray, path: str) -> tuple[np.ndarray, int]:
    """The data of ``text``, whole lines of a decimal body as uint8, and
    the count of its line breaks.

    The grammar is checked on the bytes that are no digit, a few per
    datum, rather than on every byte of the text."""
    digits = text - np.uint8(ord("0"))
    # the positions of the bytes that are no digit, between -1 and
    # text.size; each run of digits, a datum, lies between two of them
    # that are not adjacent
    bounds = np.concatenate(([-1], np.flatnonzero(digits >= 10),
                             [text.size]))
    run = np.diff(bounds) > 1
    starts, ends = bounds[:-1][run] + 1, bounds[1:][run]
    # byte[j] is the byte at bounds[j + 1], and the one at text.size a
    # LF, so a datum or CR there ends a line; as byte[-1], that LF also
    # stands for the start of the text before a "+" at 0
    byte = np.append(text[bounds[1:-1]], np.uint8(ord("\n")))
    is_lf = byte == ord("\n")
    breaks = int(np.count_nonzero(is_lf)) - 1
    plus = np.flatnonzero(byte == ord("+"))
    cr = np.flatnonzero(byte == ord("\r"))
    after, before = byte[run], byte[plus - 1]
    grammatical = (
        # every byte is a digit, blank, tab, "+", CR or LF
        np.count_nonzero(byte == ord(" ")) + np.count_nonzero(
            byte == ord("\t")) + plus.size + cr.size + breaks
        == byte.size - 1
        # a "+" leads a datum, at a line start or after a blank or tab
        and run[plus + 1].all()
        and (~run[plus] & ((before == ord(" ")) | (before == ord("\t"))
                           | (before == ord("\n")))).all()
        # a CR ends its line
        and (~run[cr + 1] & is_lf[cr + 1]).all()
        # a datum has its line to itself: CR or LF follows it, or else no
        # other datum comes before the next LF
        and (((after == ord("\n")) | (after == ord("\r"))).all()
             or (np.diff(np.searchsorted(bounds[1:][is_lf], starts))
                 > 0).all()))
    if not grammatical:
        raise FormatError(
            f"{path}: bad decimal body: each line must hold one unsigned "
            "decimal or nothing, with blanks or tabs around it")
    # pairs[p] is the two-digit number at p - 1 and p, each byte that is
    # no digit, and the byte before the text, read as 0
    zeroed = np.empty(text.size + 1, dtype=np.uint8)
    zeroed[1:] = digits
    zeroed[bounds[:-1] + 1] = 0
    pairs = zeroed[:-1] * np.uint8(10)
    pairs += zeroed[1:]
    values = np.zeros(starts.size, dtype=np.uint64)
    width = ends - starts
    top = min(int(width.max(initial=0)), _SAFE_DIGITS)
    top += top % 2
    # at each step, the index in pairs of each datum's digits `back` and
    # `back - 1` from its end; the byte before a datum is no digit, so
    # the pair at its start holds its first digit alone.  An index below
    # 0 wraps only where the datum is shorter and the mask drops the
    # pair, and stays above -text.size, as some datum has top - 1 digits
    at = ends - (top - 1)
    for back in range(top, 0, -2):
        pair = np.take(pairs, at)
        pair *= width >= back - 1
        values *= 100
        values += pair
        at += 2
    for i in np.flatnonzero((width > _SAFE_DIGITS)
                            | (values > _INT64_MAX)).tolist():
        value = int(text[starts[i]:ends[i]].tobytes())
        if value > _INT64_MAX:
            raise FormatError(
                f"{path}: a datum of {width[i]} digits exceeds int64")
        values[i] = value
    return values.view(np.int64), breaks
