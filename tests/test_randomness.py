"""Encoding, the computable description-length estimators, deficiency
scoring, the two reference corpora, and the gap classifier."""
import faulthandler
import io
import lzma
import math
import multiprocessing
import os
import sys
import threading
import time
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from kolgas import randomness as rndmod
from kolgas import sim as simmod
from kolgas.cli import main
from kolgas.calibration import load_calibration
from kolgas.constants import species_lookup
from kolgas.errors import DomainError, FormatError, UnknownEstimatorError
from kolgas.randomness import (
    _CHUNK,
    _WINDOW,
    DEFAULT_ESTIMATORS,
    LIST_SIZE_CAP,
    EncodedList,
    _decimal_body,
    _log2_binom_any,
    _pack,
    _prefix_estimates,
    _slices,
    default_width,
    encode_list,
    estimate_complexity,
    gap_classify,
    measure_list_file,
    prefix_trace,
    quantize,
    read_list_file,
    rng_list,
    smooth_box_list,
    smooth_box_spectrum,
    write_list_file,
)

HE3 = species_lookup("he3")


# --- encoding ----------------------------------------------------------------

@pytest.mark.parametrize("n, k", [(1, 1), (7, 3), (100, 13), (50, 62)])
def test_encode_decode_round_trip(n, k, seed=0):
    rng = np.random.default_rng(seed)
    values = rng.integers(0, min(1 << k, 2**62), size=n, dtype=np.int64)
    enc = encode_list(values, k=k, source_tag="trip")
    assert enc.l_primitive == n * k
    assert np.array_equal(enc.values, values)


def test_encode_default_width_is_log2_n():
    values = np.arange(100)
    enc = encode_list(values)
    assert enc.k == default_width(100) == 7


def test_encode_rejects_bad_values():
    with pytest.raises(DomainError, match="overflow"):
        encode_list([0, 8], k=3)
    with pytest.raises(DomainError):
        encode_list([-1, 0], k=3)
    with pytest.raises(DomainError):
        encode_list([], k=3)
    # the range check lives in the list itself, whoever builds it
    with pytest.raises(DomainError, match="overflow"):
        EncodedList(k=3, values=np.array([0, 8], dtype=np.int64))
    with pytest.raises(DomainError):
        EncodedList(k=3, values=np.array([0, 7], dtype=np.int32))


def test_quantize_fixed_bounds():
    q = quantize(np.array([-1.0, 0.0, 1.0]), 4, bounds=(-1.0, 1.0))
    assert q[0] == 0
    assert q[1] == 8
    assert q[2] == 15  # the top edge clips into the last level
    # out-of-range values clip rather than wrap
    q = quantize(np.array([-5.0, 5.0]), 4, bounds=(-1.0, 1.0))
    assert list(q) == [0, 15]


def test_quantize_degenerate_range():
    assert np.all(quantize(np.full(5, 3.3), 8) == 0)


# --- estimators --------------------------------------------------------------

def test_rng_list_is_incompressible():
    rng = np.random.default_rng(1234)
    enc = rng_list(5000, 13, rng)
    rep = estimate_complexity(enc)
    # no estimator should find structure in uniform bits: the bound stays
    # within the id overhead of the literal length
    assert rep.k_hat >= enc.l_primitive * 0.99
    assert rep.gap_class == "random-like"
    assert rep.deficiency <= load_calibration().deficiency_threshold(
        enc.l_primitive
    )


def test_constant_list_compresses_to_almost_nothing():
    enc = encode_list(np.zeros(5000, dtype=np.int64), k=13)
    rep = estimate_complexity(enc)
    assert rep.k_hat < 0.02 * enc.l_primitive
    assert rep.gap_class == "structured"


def test_smooth_box_list_compresses_hard():
    enc = smooth_box_list(5000, 0.035, HE3.mass)
    rep = estimate_complexity(enc)
    assert rep.deficiency > 0.5 * enc.l_primitive
    assert rep.gap_class == "structured"


@pytest.mark.parametrize("name", list(DEFAULT_ESTIMATORS) + ["lzma"])
def test_each_estimator_is_selectable(name):
    rng = np.random.default_rng(7)
    enc = rng_list(400, 9, rng)
    rep = estimate_complexity(enc, estimator=name)
    assert rep.estimator_id == name
    assert rep.k_hat > 0.0


def test_best_picks_the_minimum():
    rng = np.random.default_rng(3)
    enc = rng_list(800, 11, rng)
    best = estimate_complexity(enc)
    singles = [estimate_complexity(enc, estimator=e).k_hat
               for e in DEFAULT_ESTIMATORS]
    assert best.k_hat == pytest.approx(min(singles), abs=1e-9)


def test_unknown_estimator():
    enc = encode_list([1, 2, 3], k=2)
    with pytest.raises(UnknownEstimatorError, match="entropy0"):
        estimate_complexity(enc, estimator="oracle")


# --- reference corpora -------------------------------------------------------

def test_smooth_box_spectrum_structure():
    e = smooth_box_spectrum(200, 0.035, HE3.mass)
    e0 = 6.62607015e-34**2 / (8.0 * HE3.mass * 0.035**2)
    # lowest levels with their exact degeneracies: 3; 6 x3; 9 x3; 11 x3; 12
    assert np.allclose(e[:11] / e0, [3, 6, 6, 6, 9, 9, 9, 11, 11, 11, 12])
    assert np.all(np.diff(e) >= 0.0)
    assert e.size == 200


def test_smooth_box_spectrum_is_complete():
    # no level below the returned maximum is missing: recompute densely
    e = smooth_box_spectrum(500, 1.0, HE3.mass)
    e0 = 6.62607015e-34**2 / (8.0 * HE3.mass)
    sums = sorted(
        i * i + j * j + k * k
        for i in range(1, 40) for j in range(1, 40) for k in range(1, 40)
    )[:500]
    assert np.allclose(e / e0, sums)


def test_smooth_box_spectrum_domain():
    with pytest.raises(DomainError):
        smooth_box_spectrum(0, 1.0, 1.0)
    # 1e-170 squares to 0.0 and 1e200 to inf: no finite level spacing
    for side, mass in [(-1.0, 1.0), (math.nan, 1.0), (math.inf, 1.0),
                       (1.0, math.nan), (1e-170, 1.0), (1e200, 1.0)]:
        with pytest.raises(DomainError):
            smooth_box_spectrum(10, side, mass)


# --- gap classification --------------------------------------------------------

def _trace(ls, ks):
    return list(zip(map(float, ls), map(float, ks)))


def test_gap_classify_random_like():
    ls = np.linspace(1e4, 1e5, 10)
    verdict = gap_classify(_trace(ls, ls - 20.0))
    assert verdict.label == "random-like"
    assert verdict.change_point is None


def test_gap_classify_structured():
    ls = np.linspace(1e4, 1e5, 10)
    verdict = gap_classify(_trace(ls, 0.4 * ls))
    assert verdict.label == "structured"
    assert verdict.slope == pytest.approx(0.6, abs=0.01)


def test_gap_classify_transitioning():
    # deficiency climbs steeply, then flattens: a regime change mid-trace
    ls = np.linspace(1e4, 1e5, 12)
    d = np.where(ls < 5e4, 0.5 * ls, 2.5e4)
    verdict = gap_classify(_trace(ls, ls - d))
    assert verdict.label == "transitioning"
    assert verdict.change_point is not None
    assert 3e4 < verdict.change_point < 7e4


def test_gap_classify_needs_points():
    with pytest.raises(DomainError):
        gap_classify([(1e3, 900.0), (2e3, 1800.0)])


def test_prefix_trace_shape():
    rng = np.random.default_rng(11)
    enc = rng_list(3000, 12, rng)
    trace = prefix_trace(enc, points=8)
    ls = [l for l, _ in trace]
    assert ls == sorted(ls)
    assert ls[-1] == enc.l_primitive
    assert all(k > 0 for _, k in trace)
    with pytest.raises(DomainError):
        prefix_trace(enc, points=2)


def test_prefix_plus_classifier_on_corpora():
    rng = np.random.default_rng(21)
    assert gap_classify(prefix_trace(rng_list(4000, 12, rng))).label \
        == "random-like"
    box = smooth_box_list(4000, 0.035, HE3.mass)
    assert gap_classify(prefix_trace(box)).label == "structured"


# --- file I/O ------------------------------------------------------------------

@pytest.mark.parametrize("raw", [False, True])
def test_list_file_round_trip(tmp_path, raw):
    rng = np.random.default_rng(2)
    enc = encode_list(rng_list(999, 11, rng).values, k=11,
                      source_tag="round trip tag")
    path = tmp_path / "list.dat"
    write_list_file(str(path), enc, raw=raw)
    back = read_list_file(str(path))
    assert back.n == enc.n and back.k == enc.k
    assert np.array_equal(back.values, enc.values)
    assert back.source_tag == "round_trip_tag"


def test_raw_list_file_is_not_misread_as_decimal(tmp_path):
    # packed, these two 16-bit data spell the ASCII text "1\n2\n"
    enc = encode_list([0x310A, 0x320A], k=16)
    path = tmp_path / "list.dat"
    write_list_file(str(path), enc, raw=True)
    assert path.read_bytes() == b"2 16 list raw\n1\n2\n"
    assert read_list_file(str(path)).values.tolist() == [0x310A, 0x320A]


def test_decimal_list_file_bytes(tmp_path):
    enc = encode_list([5, 0, 7], k=3, source_tag="two words")
    path = tmp_path / "list.dat"
    write_list_file(str(path), enc)
    assert path.read_bytes() == b"3 3 two_words\n5\n0\n7\n"


@pytest.mark.parametrize("text", [
    "",                              # no header at all
    "12 8\n1\n2\n",                  # missing tag field
    "a b c\n",                       # non-integer counts
    "3 8 tag\n1\n2\n",               # too few body lines
    "2 8 tag\n1\nx\n",               # non-integer datum
    "2 8 tag\n1\n300\n",             # datum overflows the stated width
    "2 8 tag\n1\n99999999999999999999\n",  # datum overflows int64
    "2 8 tag\n1\n9999999999999999999\n",   # 19 digits, above 2^63 - 1
    "2 8 tag\n1\n-0\n",                    # a sign other than "+"
    "2 8 tag\n1\n2\x0b\n",                  # whitespace other than blank/tab
    "2 8 tag\n1\r2\n",                     # a CR inside a line
    "2 8 tag\n1\n+ 2\n",                   # "+" apart from its datum
    "2 8 tag\n1 2\n\n",                    # two data on one line
    "2 8 tag\n1\n2\n3\n",                  # more data than the header says
    "1000001 8 tag\n1\n",                   # n above LIST_SIZE_CAP
    "2 8 tag blob\n\x01\x02",          # unknown body token
    "2 8 tag raw extra\n\x01\x02",     # too many header fields
])
def test_read_list_file_rejects_malformed(tmp_path, text):
    path = tmp_path / "bad.lst"
    path.write_text(text)
    with pytest.raises(FormatError):
        read_list_file(str(path))


def test_read_list_file_rejects_truncated_raw(tmp_path):
    rng = np.random.default_rng(8)
    enc = rng_list(64, 8, rng)
    path = tmp_path / "raw.lst"
    write_list_file(str(path), enc, raw=True)
    blob = path.read_bytes()
    path.write_bytes(blob[:-3])
    with pytest.raises(FormatError):
        read_list_file(str(path))


# --- chunked list codecs against whole-list references ----------------------

def _unchunked_packed_bytes(values, width) -> bytes:
    """The whole list rendered through one (n, width) array of bits."""
    shifts = np.arange(width - 1, -1, -1, dtype=np.int64)
    bits = values[:, None] >> shifts
    bits &= 1
    return np.packbits(bits.astype(np.uint8).ravel()).tobytes()


def _full_width_values(rng, n, width):
    top = rng.integers(0, np.iinfo(np.int64).max, size=n, dtype=np.int64,
                       endpoint=True)
    return top >> (63 - width)


# delta renders at k + 1 bits, so widths run one past _MAX_WIDTH
@pytest.mark.parametrize("n", [_CHUNK - 1, _CHUNK, _CHUNK + 1,
                               2 * _CHUNK + 5])
def test_packed_bytes_match_unchunked_rendering(n):
    rng = np.random.default_rng(n)
    for width in range(1, 64):
        values = _full_width_values(rng, n, width)
        packed = b"".join(_pack(part, width) for part in _slices(values))
        assert packed == _unchunked_packed_bytes(values, width), width


def test_decimal_list_file_bytes_across_chunks(tmp_path):
    values = _full_width_values(np.random.default_rng(4), _CHUNK + 2, 62)
    values[_CHUNK - 1:_CHUNK + 1] = 0
    enc = encode_list(values, k=62, source_tag="rng")
    path = tmp_path / "list.dat"
    write_list_file(str(path), enc)
    lines = "".join(f"{v}\n" for v in enc.values.tolist())
    assert path.read_bytes() == f"{enc.n} 62 rng\n{lines}".encode("ascii")


@pytest.mark.parametrize("k", [1, 13, 62])
def test_raw_list_file_round_trip_across_chunks(tmp_path, k):
    rng = np.random.default_rng(k)
    enc = encode_list(_full_width_values(rng, _CHUNK + 3, k), k=k)
    path = tmp_path / "list.dat"
    write_list_file(str(path), enc, raw=True)
    header = f"{enc.n} {k} list raw\n".encode("ascii")
    assert path.read_bytes() == header + _unchunked_packed_bytes(enc.values, k)
    assert np.array_equal(read_list_file(str(path)).values, enc.values)


@pytest.mark.parametrize("write", ["packed", "decimal"])
def test_list_codecs_memory_stays_bounded(tmp_path, write):
    # rendering the whole list through one (n, k) int64 array peaks at
    # 172 MiB, and joining 10^6 decimal strings near 100 MiB
    enc = rng_list(LIST_SIZE_CAP, 20, np.random.default_rng(6))
    tracemalloc.start()
    try:
        write_list_file(str(tmp_path / "list.dat"), enc,
                        raw=write == "packed")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 40 * 2**20


# --- properties against an explicit bit-array reference ----------------------

@st.composite
def encoded_lists(draw):
    k = draw(st.integers(1, 62))
    n = draw(st.integers(1, 300))
    top = (1 << k) - 1
    fill = draw(st.sampled_from(("any", "zeros", "ones")))
    if fill == "zeros":
        values = [0] * n
    elif fill == "ones":
        values = [top] * n
    else:
        values = draw(st.lists(st.integers(0, top), min_size=n, max_size=n))
    return encode_list(np.array(values, dtype=np.int64), k=k)


def _reference_bits(values, width) -> np.ndarray:
    """One uint8 per bit, big-endian, built one datum at a time."""
    text = "".join(format(int(v), f"0{width}b") for v in values)
    return np.array([int(b) for b in text], dtype=np.uint8)


def _reference_zlib(bits) -> float:
    return 8.0 * len(zlib.compress(np.packbits(bits).tobytes(), 9))


def _reference_entropy1(bits) -> float:
    prev, cur = bits[:-1], bits[1:]
    cost = 1.0
    for ctx in (0, 1):
        sel = cur[prev == ctx]
        cost += _log2_binom_any(int(sel.size), int(sel.sum()))
    return cost + 2.0 * math.log2(bits.size + 1)


def _reference_estimate(name: str, enc) -> float:
    bits = _reference_bits(enc.values, enc.k)
    l = bits.size
    if name == "zlib":
        return _reference_zlib(bits)
    if name == "lzma":
        return 8.0 * len(lzma.compress(
            np.packbits(bits).tobytes(), format=lzma.FORMAT_RAW,
            filters=[{"id": lzma.FILTER_LZMA2, "preset": 6}]))
    if name == "entropy0":
        return _log2_binom_any(l, int(bits.sum())) + math.log2(l + 1)
    if name == "entropy1":
        return _reference_entropy1(bits)
    assert name == "delta"
    vals = [int(v) for v in enc.values]
    deltas = [vals[0]] + [b - a for a, b in zip(vals, vals[1:])]
    zigzag = [2 * d if d >= 0 else -2 * d - 1 for d in deltas]
    return _reference_zlib(_reference_bits(zigzag, enc.k + 1))


@settings(deadline=None)
@given(encoded_lists())
def test_estimators_match_bit_array_reference(enc):
    id_bits = load_calibration().estimator_id_bits
    for name in ("zlib", "lzma", "entropy0", "entropy1", "delta"):
        got = estimate_complexity(enc, estimator=name).k_hat
        assert got == _reference_estimate(name, enc) + id_bits, name


@settings(deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(enc=encoded_lists(), raw=st.booleans())
def test_list_file_round_trips_values(tmp_path, enc, raw):
    path = tmp_path / "list.dat"
    write_list_file(str(path), enc, raw=raw)
    back = read_list_file(str(path))
    assert (back.n, back.k) == (enc.n, enc.k)
    assert back.values.dtype == np.int64
    assert np.array_equal(back.values, enc.values)


# --- one pass over prefixes against one-shot estimates -----------------------

@st.composite
def lists_with_prefix_sizes(draw):
    """A random or sorted list, with ascending prefix sizes that end at n."""
    k = draw(st.integers(1, 62))
    n = draw(st.integers(1, 200))
    values = draw(st.lists(st.integers(0, (1 << k) - 1), min_size=n,
                           max_size=n))
    if draw(st.booleans()):
        values.sort()
    sizes = draw(st.lists(st.integers(1, n), max_size=6, unique=True))
    return (encode_list(np.array(values, dtype=np.int64), k=k),
            sorted(set(sizes) | {n}))


@settings(deadline=None)
@given(lists_with_prefix_sizes())
def test_prefix_estimates_match_one_shot_reference(case):
    enc, sizes = case
    id_bits = load_calibration().estimator_id_bits
    prefixes = [encode_list(enc.values[:m], k=enc.k) for m in sizes]
    for name in ("zlib", "lzma", "entropy0", "entropy1", "delta"):
        got = [k_hat for k_hat, _ in _prefix_estimates(enc, name, sizes)]
        assert got == [_reference_estimate(name, p) + id_bits
                       for p in prefixes], name


@pytest.mark.parametrize("k", [1, 3, 13, 62])
def test_prefix_trace_matches_estimates_of_each_prefix(k):
    # n * k is not a multiple of 8, nor are most prefix lengths
    enc = encode_list(_full_width_values(np.random.default_rng(k), 1001, k),
                      k=k)
    for estimator in ("best",) + DEFAULT_ESTIMATORS + ("lzma",):
        trace = prefix_trace(enc, points=12, estimator=estimator)
        sizes = [int(l) // k for l, _ in trace]
        assert any(m * k % 8 for m in sizes)
        assert trace == [
            (float(m * k), estimate_complexity(
                encode_list(enc.values[:m], k=k), estimator).k_hat)
            for m in sizes
        ]


def test_prefix_trace_caps_points_at_the_list_size():
    enc = rng_list(20, 5, np.random.default_rng(1))
    assert prefix_trace(enc, points=10**9) == prefix_trace(enc, points=13)


# --- the decimal body grammar against np.loadtxt -----------------------------

@st.composite
def decimal_bodies(draw):
    """Bodies in the grammar, each with at least one datum."""
    blank = st.text(alphabet=" \t", max_size=3)
    lines = []
    for value in draw(st.lists(st.integers(0, 2**63 - 1), min_size=1,
                               max_size=30)):
        for _ in range(draw(st.integers(0, 2))):
            lines.append(draw(blank))
        sign = draw(st.sampled_from(("", "+")))
        zeros = "0" * draw(st.sampled_from((0, 0, 1, 25)))
        lines.append(f"{draw(blank)}{sign}{zeros}{value}{draw(blank)}")
    ends = draw(st.lists(st.sampled_from(("\n", "\r\n")),
                         min_size=len(lines), max_size=len(lines)))
    body = "".join(line + end for line, end in zip(lines, ends))
    if draw(st.booleans()):
        body = body.rstrip("\n")
    return body.encode("ascii")


def _loadtxt_values(body: bytes) -> np.ndarray:
    return np.loadtxt(io.BytesIO(body), dtype=np.int64, ndmin=2,
                      comments=None)[:, 0]


@settings(deadline=None)
@given(decimal_bodies())
def test_decimal_body_matches_loadtxt(body):
    expected = _loadtxt_values(body)
    got = _decimal_body(io.BytesIO(body), expected.size, "body")
    assert got.dtype == np.int64
    assert np.array_equal(got, expected)


@pytest.mark.parametrize("body, value", [
    (b"9223372036854775807\n", 2**63 - 1),
    (b"00000000009223372036854775807\n", 2**63 - 1),
    (b"9223372036854775808\n", None),
    (b"9999999999999999999\n", None),
    (b"18446744073709551617\n", None),  # 2^64 + 1, which wraps to 1
])
def test_decimal_body_int64_edge(body, value):
    if value is None:
        with pytest.raises(FormatError, match="exceeds int64"):
            _decimal_body(io.BytesIO(body), 1, "body")
    else:
        assert _decimal_body(io.BytesIO(body), 1, "body").tolist() == [value]


def test_decimal_body_matches_loadtxt_across_slices():
    # about 1.5 MB, so several slices, then one line longer than a slice
    rng = np.random.default_rng(9)
    values = _full_width_values(rng, 120_000, 40)
    pad = [" " * int(i) for i in rng.integers(0, 4, size=values.size)]
    lines = [f"{a}+{v}{b}\r\n" if v % 3 == 0 else f"{a}{v}{b}\n"
             for a, v, b in zip(pad, values.tolist(), reversed(pad))]
    lines.append(" " * (9 * _CHUNK) + "7\n\n")
    body = "".join(lines).encode("ascii")
    assert np.array_equal(_decimal_body(io.BytesIO(body), values.size + 1,
                                        "body"),
                          _loadtxt_values(body))


# --- compressor estimators across slices, with and without the helper -------

def _force_helper(monkeypatch, on):
    """Make every "best" estimate run delta in the helper thread, or none."""
    monkeypatch.setattr(rndmod, "_HELPER_MIN_BITS", 0 if on else math.inf)
    monkeypatch.setattr(rndmod, "two_cpus", lambda: on)


def _spy_estimators(monkeypatch):
    """Record, per estimator id, the bits it returned and its thread."""
    seen = {}
    for name, estimator in list(rndmod._ESTIMATORS.items()):
        def spy(values, width, sizes, name=name, estimator=estimator):
            bits = estimator(values, width, sizes)
            seen[name] = (bits, threading.current_thread())
            return bits
        monkeypatch.setitem(rndmod._ESTIMATORS, name, spy)
    return seen


def _one_shot_deflate_bits(values, width):
    return 8.0 * len(zlib.compress(_unchunked_packed_bytes(values, width), 9))


@pytest.mark.parametrize("order", ["random", "sorted"])
@pytest.mark.parametrize("k", [1, 7, 13, 20, 62])
def test_compressor_prefixes_across_slices(k, order, monkeypatch):
    # a sorted list has small deltas, so a delta that loses its carry
    # across a slice boundary changes the delta code's length
    n = 2 * _CHUNK + 5
    values = _full_width_values(np.random.default_rng(k), n, k)
    if order == "sorted":
        values.sort()
    enc = encode_list(values, k=k)
    sizes = [_CHUNK - 1, _CHUNK, _CHUNK + 1, n]
    deltas = np.diff(values, prepend=0)
    zigzag = np.where(deltas >= 0, 2 * deltas, -2 * deltas - 1)
    reference = {
        "zlib": [_one_shot_deflate_bits(values[:m], k) for m in sizes],
        "delta": [_one_shot_deflate_bits(zigzag[:m], k + 1) for m in sizes],
    }
    id_bits = load_calibration().estimator_id_bits
    for on in (True, False):
        _force_helper(monkeypatch, on)
        seen = _spy_estimators(monkeypatch)
        best = _prefix_estimates(enc, "best", sizes)
        assert (seen["delta"][1] is not threading.main_thread()) == on
        for name in ("zlib", "delta"):
            assert seen[name][0] == reference[name], (name, on)
            assert ([b for b, _ in _prefix_estimates(enc, name, sizes)]
                    == [b + id_bits for b in reference[name]]), (name, on)
        expected = []
        for i in range(len(sizes)):
            bits = [seen[name][0][i] + id_bits for name in DEFAULT_ESTIMATORS]
            j = bits.index(min(bits))  # the first minimum wins a tie
            expected.append((bits[j], DEFAULT_ESTIMATORS[j]))
        assert best == expected, on
        monkeypatch.undo()


@pytest.mark.parametrize("k", [1, 7, 20, 62])
def test_entropy1_prefixes_across_slices(k):
    # entropy1 counts its bit pairs slice by slice; a (1, 1) pair
    # straddles each slice boundary here, so a lost carry shows
    n = 2 * _CHUNK + 5
    values = _full_width_values(np.random.default_rng(k), n, k)
    for boundary in (_CHUNK, 2 * _CHUNK):
        values[boundary - 1] |= 1
        values[boundary] |= 1 << (k - 1)
    sizes = [_CHUNK - 1, _CHUNK, _CHUNK + 1, n]
    id_bits = load_calibration().estimator_id_bits
    got = _prefix_estimates(encode_list(values, k=k), "entropy1", sizes)
    assert [b for b, _ in got] == [
        _reference_entropy1(np.unpackbits(np.frombuffer(
            _unchunked_packed_bytes(values[:m], k), np.uint8), count=m * k))
        + id_bits for m in sizes]


@pytest.mark.parametrize("k", [1, 20])
def test_lzma_prefixes_across_slices(k):
    # lzma takes the list one slice at a time, and must code the bytes a
    # one-shot compressor codes
    n = 2 * _CHUNK + 5
    values = _full_width_values(np.random.default_rng(k), n, k)
    sizes = [_CHUNK - 1, _CHUNK, _CHUNK + 1, n]
    id_bits = load_calibration().estimator_id_bits
    reference = [8.0 * len(lzma.compress(
        _unchunked_packed_bytes(values[:m], k), format=lzma.FORMAT_RAW,
        filters=[{"id": lzma.FILTER_LZMA2, "preset": 6}])) for m in sizes]
    got = _prefix_estimates(encode_list(values, k=k), "lzma", sizes)
    assert [b for b, _ in got] == [b + id_bits for b in reference]


def test_helper_error_reaches_the_caller(monkeypatch):
    ran_in = []

    def broken(values, width, sizes):
        # fail well after the caller's own estimators are done, so the
        # error is there only if the caller waits for the thread
        ran_in.append(threading.current_thread())
        time.sleep(0.2)
        raise ValueError("delta estimator broke")

    unhandled = []
    monkeypatch.setattr(threading, "excepthook", unhandled.append)
    _force_helper(monkeypatch, True)
    monkeypatch.setitem(rndmod._ESTIMATORS, "delta", broken)
    enc = rng_list(1000, 10, np.random.default_rng(2))
    before = threading.active_count()
    with pytest.raises(ValueError) as info:
        estimate_complexity(enc)
    assert type(info.value) is ValueError
    assert str(info.value) == "delta estimator broke"
    assert ran_in and ran_in[0] is not threading.main_thread()
    assert threading.active_count() == before
    assert unhandled == []


def test_sampler_forks_after_a_threaded_audit(monkeypatch):
    # _sampler() refuses to fork while another Python thread runs, so the
    # helper must be gone when the estimate returns
    if (not rndmod.two_cpus()
            or "fork" not in multiprocessing.get_all_start_methods()
            or multiprocessing.current_process().daemon):
        pytest.skip("no sampler here: one usable CPU, no fork, or a daemon")
    # a thread an earlier test leaked would turn the sampler off too
    assert threading.active_count() == 1
    live = simmod._sampler()
    live.close()
    _force_helper(monkeypatch, True)
    seen = _spy_estimators(monkeypatch)
    estimate_complexity(rng_list(1000, 10, np.random.default_rng(3)))
    assert seen["delta"][1] is not threading.main_thread()
    monkeypatch.undo()
    fresh = simmod._sampler()
    assert fresh is not None and fresh.process.is_alive()
    assert fresh.process.pid != live.process.pid


def test_one_cpu_starts_no_helper(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    seen = _spy_estimators(monkeypatch)
    enc = rng_list(2 * _CHUNK, 20, np.random.default_rng(4))
    assert enc.l_primitive >= rndmod._HELPER_MIN_BITS
    estimate_complexity(enc)
    assert seen["delta"][1] is threading.main_thread()


@pytest.mark.parametrize("estimator, helper, bound_mib", [
    ("zlib", False, 6), ("delta", False, 6), ("entropy1", False, 2),
    ("best", False, 16), ("best", True, 16), ("audit", True, 21),
])
def test_estimator_memory_stays_bounded(estimator, helper, bound_mib,
                                        monkeypatch, tmp_path):
    # packing slice by slice, zlib peaks near 3.8 MiB and delta near
    # 4.9 MiB, where a whole packed copy of this list and a full-length
    # zigzag array took 10.4 and 25.9 MiB; entropy1 counts its bit pairs
    # slice by slice too, at 1.1 MiB where two full-length temporaries
    # took 8.7 MiB; "best" peaks at delta's 4.9 MiB, or 8.7 MiB with zlib
    # and delta at once, one of them in the helper.  "audit" is the "best"
    # estimate of the list read from a decimal file, which peaked near
    # 17.5 MiB when the whole list was read before the estimate began, and
    # near 18.7 MiB with the helper's delta pass beside the read
    _force_helper(monkeypatch, helper)
    enc = rng_list(LIST_SIZE_CAP, 20, np.random.default_rng(6))
    path = str(tmp_path / "list.dat")
    if estimator == "audit":
        write_list_file(path, enc)
    tracemalloc.start()
    try:
        if estimator == "audit":
            measure_list_file(path)
        else:
            estimate_complexity(enc, estimator)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound_mib * 2**20


# --- list files measured as they are read ------------------------------------

def _padded_decimal_file(path, enc, header_n=None):
    """``enc`` as a decimal list file of lines right-aligned in 16
    columns, so that 2 * _CHUNK + 5 data run past 2 * _WINDOW bytes."""
    lines = "".join(f"{v:>16}\n" for v in enc.values.tolist())
    header = f"{enc.n if header_n is None else header_n} {enc.k} list\n"
    path.write_bytes((header + lines).encode("ascii"))


def _measure_from(path, source, monkeypatch, **options):
    """``measure_list_file`` of ``path`` by name, or fed through stdin."""
    if source == "path":
        return measure_list_file(str(path), **options)
    with monkeypatch.context() as patch:
        patch.setattr(sys, "stdin",
                      io.TextIOWrapper(io.BytesIO(path.read_bytes())))
        return measure_list_file("-", **options)


@pytest.fixture
def interleaved():
    """Switch threads every 10 us, so the reader and the helper interleave
    often, and after two minutes dump every thread's stack to fd 2 and end
    the process with status 1: a helper left waiting on a read that has
    ended would hang the pool's shutdown, and with it the whole run."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    faulthandler.dump_traceback_later(120, exit=True, file=sys.__stderr__)
    yield
    faulthandler.cancel_dump_traceback_later()
    sys.setswitchinterval(interval)


@pytest.mark.parametrize("body", ["decimal", "raw"])
@pytest.mark.parametrize("order", ["random", "sorted"])
@pytest.mark.parametrize("k", [1, 20, 62])
def test_list_file_measures_match_read_then_estimate(k, order, body,
                                                      tmp_path, monkeypatch,
                                                      interleaved):
    # slices end at _CHUNK and 2 * _CHUNK, windows at other data, so the
    # helper waits for slices that the reader posts in parts
    n = 2 * _CHUNK + 5
    values = _full_width_values(np.random.default_rng(k), n, k)
    if order == "sorted":
        values.sort()
    enc = encode_list(values, k=k)
    path = tmp_path / "list.dat"
    if body == "raw":
        write_list_file(str(path), enc, raw=True)
    else:
        _padded_decimal_file(path, enc)
        assert path.stat().st_size > 2 * _WINDOW
    read = read_list_file(str(path))
    expected = (estimate_complexity(read), prefix_trace(read))
    for on in (True, False):
        _force_helper(monkeypatch, on)
        ran_in = []

        def zigzag(values, posted=None, original=rndmod._zigzag_slices):
            ran_in.append(threading.current_thread())
            return original(values, posted)

        monkeypatch.setattr(rndmod, "_zigzag_slices", zigzag)
        for source in ("path", "stdin"):
            got, report = _measure_from(path, source, monkeypatch)
            _, trace = _measure_from(path, source, monkeypatch, points=12)
            assert np.array_equal(got.values, enc.values), (on, source)
            assert (report, trace) == expected, (on, source)
        assert len(ran_in) == 4
        assert all((t is not threading.main_thread()) == on for t in ran_in)
        monkeypatch.undo()


def _failing_list_file(case, path, monkeypatch):
    """Write the list file of ``case``, patch what it needs, and return
    whether its error is a format error, which the CLI reports."""
    n = 2 * _CHUNK + 5
    enc = encode_list(_full_width_values(np.random.default_rng(1), n, 20),
                      k=20)
    if case in ("truncated-raw", "long-raw"):
        write_list_file(str(path), enc, raw=True)
        blob = path.read_bytes()
        path.write_bytes(blob[:-3] if case == "truncated-raw"
                         else blob + b"\0")
        return True
    _padded_decimal_file(path, enc, n - 1 if case == "more-data" else None)
    if case == "bad-line":
        text = path.read_bytes()
        at = text.index(b"\n", 2 * _WINDOW + 100) + 1
        path.write_bytes(text[:at] + b"x" + text[at + 1:])
        assert text.count(b"\n", 0, at) < n
    elif case == "body-lines":
        with open(path, "ab") as fh:
            fh.write(b"\n" * rndmod._BODY_LINES)
    elif case == "overflow":
        text = path.read_bytes()
        path.write_bytes(text[:-17] + b"%16d\n" % (1 << 20))
    elif case == "helper-raises":
        def broken(*args, **kwargs):
            raise ValueError("delta estimator broke")
        monkeypatch.setitem(rndmod._ESTIMATORS, "delta", broken)
        return False
    elif case == "interrupt":
        windows = []

        def interrupted(text, path, original=rndmod._decimal_values):
            windows.append(text.size)
            if len(windows) == 3:
                windows.clear()
                raise KeyboardInterrupt
            return original(text, path)

        monkeypatch.setattr(rndmod, "_decimal_values", interrupted)
        return False
    return True


@pytest.mark.parametrize("command", ["audit", "gap"])
@pytest.mark.parametrize("case", [
    "bad-line", "truncated-raw", "long-raw", "more-data", "body-lines",
    "overflow", "helper-raises", "interrupt",
])
def test_list_file_error_mid_body_stops_the_helper(case, command, tmp_path,
                                                   monkeypatch, capsys,
                                                   interleaved):
    # the helper waits on the reader for each slice, so a read that fails
    # must release it, or the pool's shutdown waits forever
    path = tmp_path / "list.dat"
    reported = _failing_list_file(case, path, monkeypatch)
    _force_helper(monkeypatch, True)
    unhandled = []
    monkeypatch.setattr(threading, "excepthook", unhandled.append)
    points = None if command == "audit" else 12
    before = threading.active_count()
    with pytest.raises(BaseException) as read_first:
        enc = read_list_file(str(path))
        if points is None:
            estimate_complexity(enc)
        else:
            prefix_trace(enc, points)
    with pytest.raises(read_first.type) as info:
        measure_list_file(str(path), points=points)
    assert type(info.value) is read_first.type
    assert str(info.value) == str(read_first.value)
    assert threading.active_count() == before
    if reported:
        code, out, err = (main(["randomness", command, "--input", str(path)]),
                          *capsys.readouterr())
        assert (code, out, err) == (3, "", f"error: {read_first.value}\n")
        assert threading.active_count() == before
    assert unhandled == []
    monkeypatch.undo()
    if (before == 1 and rndmod.two_cpus()
            and "fork" in multiprocessing.get_all_start_methods()
            and not multiprocessing.current_process().daemon):
        live = simmod._sampler()
        if live is not None:
            live.close()
        fresh = simmod._sampler()
        assert fresh is not None and fresh.process.is_alive()
