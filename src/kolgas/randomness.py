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

import lzma
import math
import os
import sys
import threading
import zlib
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

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


def _slices(values: np.ndarray) -> Iterator[np.ndarray]:
    """``values`` as consecutive views of ``_CHUNK`` values, the last
    one shorter, so no temporary made per slice grows with the list."""
    return (values[start:start + _CHUNK]
            for start in range(0, values.size, _CHUNK))


def _pack(values: np.ndarray, width: int) -> bytes:
    """Big-endian rendering of non-negative ``values`` at ``width`` bits
    each, packed eight bits to a byte and zero-padded at the end.

    Each value's bits are the last ``width`` of its 64-bit big-endian
    word, so only the word's last ceil(width/8) bytes are unpacked.  A
    slice of ``_CHUNK`` values, a multiple of 8, packs to whole bytes,
    so a list packs slice by slice.
    """
    used = (width + 7) // 8
    words = values.astype(">u8").view(np.uint8)
    bits = np.unpackbits(words.reshape(-1, 8)[:, 8 - used:], axis=1)
    return np.packbits(bits[:, 8 * used - width:]).tobytes()


def _packed_bytes(values: np.ndarray, width: int) -> bytes:
    """:func:`_pack` of the whole list, made slice by slice."""
    return b"".join(_pack(part, width) for part in _slices(values))


def _unpacked_values(packed: np.ndarray, n: int, width: int) -> np.ndarray:
    """Inverse of :func:`_packed_bytes`: the n values held in ``packed``."""
    values = np.empty(n, dtype=np.int64)
    for start in range(0, n, _CHUNK):
        m = min(_CHUNK, n - start)
        first = start * width // 8
        words = np.zeros((m, 64), dtype=np.uint8)
        words[:, 64 - width:] = np.unpackbits(
            packed[first:first + (m * width + 7) // 8], count=m * width,
        ).reshape(m, width)
        values[start:start + m] = np.packbits(words, axis=1).view(">u8")[:, 0]
    return values


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
# which packs the list one ``_CHUNK`` slice at a time, so neither holds
# a whole-list buffer; the rest measure each prefix afresh through
# ``_each_prefix``.  For a long list, ``_prefix_estimates`` runs zlib in
# a helper thread while delta and the entropy bounds run in the caller.

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


def _zigzag_slices(values: np.ndarray) -> Iterator[np.ndarray]:
    """The deltas of ``values``, the first taken from 0, slice by slice.
    Each delta d is zigzag-coded, 2d for d >= 0 and -2d - 1 below, as
    (d << 1) ^ (d >> 63); a slice's first delta is taken from the last
    value of the slice before it."""
    prev = 0
    for part in _slices(values):
        zigzag = np.empty_like(part)
        zigzag[0] = part[0] - prev
        np.subtract(part[1:], part[:-1], out=zigzag[1:])
        prev = part[-1]
        sign = zigzag >> 63
        zigzag <<= 1
        zigzag ^= sign
        yield zigzag


def _k_delta(values: np.ndarray, width: int, sizes: list[int]) -> list[float]:
    # The deltas of a prefix are the prefix of the deltas.
    return _deflate_bits(_zigzag_slices(values[:sizes[-1]]), width + 1, sizes)


_LZMA_FILTERS = [{"id": lzma.FILTER_LZMA2, "preset": 6}]


def _k_lzma(values: np.ndarray, width: int) -> float:
    data = lzma.compress(_packed_bytes(values, width),
                         format=lzma.FORMAT_RAW, filters=_LZMA_FILTERS)
    return 8.0 * len(data)


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
    # the boundary between two.
    l = values.size * width
    ones = _popcount(values)
    first = int(values[0] >> (width - 1))
    last = int(values[-1] & 1)
    ones_11 = (_popcount(values & (values >> 1))
               + int(np.count_nonzero(values[:-1]
                                      & (values[1:] >> (width - 1)))))
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


#: Literal bits of a list from which the "best" estimate runs zlib in a
#: helper thread beside delta: deflate releases the GIL, so on a second
#: CPU the two compressor passes overlap.  With the second CPU idle the
#: thread breaks even near 2^17 bits and saves a quarter or more from
#: 2^18 on.  Simulator rows at the documented sizes (1.4e5 bits at 10^4
#: particles) stay well below it, as the sampler process has the second
#: CPU during a run; rows near N_PARTICLES_CAP (1.7e6 bits) and gap and
#: audit lists at the benchmark's sizes (1.7e6 and 2e7 bits) are above.
_HELPER_MIN_BITS = 1 << 20


def two_cpus() -> bool:
    """Whether this process may run on two CPUs or more; False where the
    platform cannot tell (no ``os.sched_getaffinity``)."""
    return (hasattr(os, "sched_getaffinity")
            and len(os.sched_getaffinity(0)) >= 2)


class _Helper(threading.Thread):
    """One estimator call run in a thread beside the caller.

    ``result`` gives its bits, or raises in the caller the exception the
    call raised, so no error ends the thread unhandled.
    """

    def __init__(self, estimator, *args) -> None:
        super().__init__(name="kolgas-estimator")
        self._call = estimator, args
        self._bits: list[float] | None = None
        self._error: BaseException | None = None

    def run(self) -> None:
        estimator, args = self._call
        try:
            self._bits = estimator(*args)
        except BaseException as exc:  # raised again in the caller by result
            self._error = exc

    def result(self) -> list[float]:
        """The bits, once the thread is joined."""
        if self._error is not None:
            raise self._error
        return self._bits


def _prefix_estimates(enc: EncodedList, estimator: str,
                      sizes: list[int]) -> list[tuple[float, str]]:
    """(K_hat, winning estimator id) of the first m data of ``enc`` for
    each m in the ascending ``sizes``, all at the list's width k.

    ``estimator`` is one of the ids above or ``"best"`` (minimum over the
    default set); each K_hat includes the calibrated id overhead.  The
    "best" estimate of at least ``_HELPER_MIN_BITS`` bits, in a process
    that may use two CPUs, runs zlib in a helper thread, joined before
    this returns; the minimum is taken in candidate order either way.
    """
    id_bits = load_calibration().estimator_id_bits
    if estimator == "best":
        candidates = DEFAULT_ESTIMATORS
    elif estimator in _ESTIMATORS:
        candidates = (estimator,)
    else:
        known = ", ".join(sorted(_ESTIMATORS) + ["best"])
        raise UnknownEstimatorError(
            f"unknown estimator {estimator!r}; known: {known}"
        )
    helper = None
    if (estimator == "best" and sizes[-1] * enc.k >= _HELPER_MIN_BITS
            and two_cpus()):
        helper = _Helper(_ESTIMATORS["zlib"], enc.values, enc.k, sizes)
        helper.start()
    try:
        bits = {name: _ESTIMATORS[name](enc.values, enc.k, sizes)
                for name in candidates if helper is None or name != "zlib"}
    finally:
        if helper is not None:
            helper.join()
    if helper is not None:
        bits["zlib"] = helper.result()
    best = [(math.inf, "")] * len(sizes)
    for name in candidates:
        for i, b in enumerate(bits[name]):
            k_est = b + id_bits
            if k_est < best[i][0]:
                best[i] = (k_est, name)
    return best


def estimate_complexity(enc: EncodedList,
                        estimator: str = "best") -> ComplexityReport:
    """Upper-bound the description length of ``enc`` in bits.

    ``estimator`` is one of the ids above or ``"best"`` (minimum over the
    default set).  The result includes the calibrated id overhead, so
    K_hat can slightly exceed the literal length for incompressible data.
    """
    [(best_k, best_id)] = _prefix_estimates(enc, estimator, [enc.n])
    deficiency = enc.l_primitive - best_k
    threshold = load_calibration().deficiency_threshold(enc.l_primitive)
    gap_class = "structured" if deficiency > threshold else "random-like"
    return ComplexityReport(
        k_hat=best_k,
        estimator_id=best_id,
        l_primitive=enc.l_primitive,
        deficiency=deficiency,
        gap_class=gap_class,
    )


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


def prefix_trace(enc: EncodedList, points: int = 12,
                 estimator: str = "best") -> list[tuple[float, float]]:
    """(literal length, K_hat) over linearly spaced prefixes of a list,
    all encoded at the full list's datum width, measured in one pass."""
    if points < 3:
        raise DomainError("prefix_trace needs at least 3 points")
    first = min(max(8, enc.n // points), enc.n)
    # Sizes run from first to n, so past n - first + 1 points every size
    # between them is hit already and more points only cost memory.
    count = min(points, enc.n - first + 1)
    sizes = np.unique(np.linspace(first, enc.n, count).astype(int)).tolist()
    estimates = _prefix_estimates(enc, estimator, sizes)
    return [(float(m * enc.k), k_hat)
            for m, (k_hat, _) in zip(sizes, estimates)]


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


def read_list_file(path: str) -> EncodedList:
    """Read a list file written by :func:`write_list_file`, or from stdin
    when ``path`` is "-"; exact round trip for both bodies, which the
    header names.  Malformed or unreadable files raise FormatError."""
    try:
        if path == "-":
            blob = sys.stdin.buffer.read()
        else:
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
    if not (1 <= n <= LIST_SIZE_CAP and 1 <= k <= _MAX_WIDTH):
        raise FormatError(f"{path}: header counts out of range (n={n}, k={k})")
    tag = fields[2].decode("ascii", errors="replace")

    if raw:
        expected = (n * k + 7) // 8
        size = len(blob) - newline - 1
        if size != expected:
            raise FormatError(
                f"{path}: raw body is {size} bytes, expected {expected}"
            )
        values = _unpacked_values(
            np.frombuffer(blob, dtype=np.uint8, offset=newline + 1), n, k)
    else:
        values = _decimal_body(blob, newline + 1, n, path)
    try:
        return encode_list(values, k=k, source_tag=tag)
    except DomainError as exc:
        raise FormatError(f"{path}: {exc}") from exc


#: Digits in a datum that always fits int64, leading zeros included.
_SAFE_DIGITS = 18


def _decimal_body(blob: bytes, start: int, n: int, path: str) -> np.ndarray:
    """The n data of the decimal body that starts at ``blob[start]``, one
    unsigned decimal per line:

        line = [ \\t]* ( "+"? digit+ [ \\t]* )? "\\r"? "\\n"

    where blank lines are skipped and the last line may lack its "\\n".
    The body goes in slices of whole lines, about 8 ``_CHUNK`` bytes each,
    so no temporary grows with the list."""
    values = np.empty(n, dtype=np.int64)
    window = 8 * _CHUNK
    count = 0
    while start < len(blob):
        if start + window >= len(blob):
            stop = len(blob)
        else:
            # after the window's last line break, or the first one past it
            stop = (blob.rfind(b"\n", start, start + window) + 1
                    or blob.find(b"\n", start + window) + 1 or len(blob))
        data = _decimal_values(
            np.frombuffer(blob, np.uint8, stop - start, start), path)
        if count + data.size > n:
            raise FormatError(f"{path}: body has more than {n} decimal "
                              f"data, header says {n}")
        values[count:count + data.size] = data
        count += data.size
        start = stop
    if count != n:
        raise FormatError(
            f"{path}: body has {count} decimal data, header says {n}")
    return values


def _decimal_values(text: np.ndarray, path: str) -> np.ndarray:
    """The data of ``text``, whole lines of a decimal body as uint8."""
    digits = text - np.uint8(ord("0"))
    is_digit = digits < 10
    edges = np.flatnonzero(np.diff(is_digit, prepend=False, append=False))
    starts, ends = edges[0::2], edges[1::2]
    plus = np.flatnonzero(text == ord("+"))
    cr = np.flatnonzero(text == ord("\r"))
    lf = np.flatnonzero(text == ord("\n"))
    blanks = np.count_nonzero(text == ord(" ")) + np.count_nonzero(
        text == ord("\t"))
    # the text with a LF past its end, so a datum or CR there ends a line
    closed = np.append(text, np.uint8(ord("\n")))
    grammatical = (
        # every byte is a digit, blank, tab, "+", CR or LF
        np.count_nonzero(is_digit) + blanks + plus.size + cr.size + lf.size
        == text.size
        # a "+" leads a datum, at a line start or after a blank or tab
        and np.append(is_digit, False)[plus + 1].all()
        and ((plus == 0) | np.isin(text[plus - 1], list(b" \t\n"))).all()
        # a CR ends its line
        and (closed[cr + 1] == ord("\n")).all()
        # a datum has its line to itself: CR or LF follows it, or else no
        # other datum comes before the next LF
        and (np.isin(closed[ends], list(b"\r\n")).all()
             or (np.diff(np.searchsorted(lf, starts)) > 0).all()))
    if not grammatical:
        raise FormatError(
            f"{path}: bad decimal body: each line must hold one unsigned "
            "decimal or nothing, with blanks or tabs around it")
    values = np.zeros(starts.size, dtype=np.int64)
    width = ends - starts
    for back in range(min(int(width.max(initial=0)), _SAFE_DIGITS), 0, -1):
        # ends - back > -text.size, as some datum has `back` digits
        digit = np.take(digits, ends - back)
        digit *= width >= back
        values *= 10
        values += digit
    for i in np.flatnonzero(width > _SAFE_DIGITS).tolist():
        value = int(text[starts[i]:ends[i]].tobytes())
        if value > np.iinfo(np.int64).max:
            raise FormatError(
                f"{path}: a datum of {width[i]} digits exceeds int64")
        values[i] = value
    return values
