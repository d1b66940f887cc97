"""Encoding, the computable description-length estimators, deficiency
scoring, the two reference corpora, and the structural diagnostics."""
import lzma
import math
import zlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from kolgas.calibration import load_calibration
from kolgas.constants import species_lookup
from kolgas.errors import DomainError, FormatError, UnknownEstimatorError
from kolgas.randomness import (
    DEFAULT_ESTIMATORS,
    EncodedList,
    _log2_binom_any,
    balance_profile,
    default_width,
    encode_list,
    estimate_complexity,
    fd_algorithmic_probability,
    gap_classify,
    k_hat_integer,
    prefix_trace,
    quantize,
    randomness_deficiency,
    read_list_file,
    rng_list,
    smooth_box_list,
    smooth_box_spectrum,
    wedge_bounds,
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
        EncodedList(n=2, k=3, values=np.array([0, 8], dtype=np.int64))
    with pytest.raises(DomainError):
        EncodedList(n=2, k=3, values=np.array([0, 7], dtype=np.int32))


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


def test_deficiency_uniform_hypothesis():
    rng = np.random.default_rng(5)
    enc = rng_list(1000, 10, rng)
    rep = estimate_complexity(enc)
    d = randomness_deficiency(enc, -float(enc.l_primitive))
    assert d == pytest.approx(enc.l_primitive - rep.k_hat, abs=1e-9)
    with pytest.raises(DomainError):
        randomness_deficiency(enc, 1.0)


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
    with pytest.raises(DomainError):
        smooth_box_spectrum(10, -1.0, 1.0)


# --- wedge and balance diagnostics --------------------------------------------

def test_wedge_bounds_reference_scales():
    # particle-count list at reference scale: n = 1.7e16 values, 54-bit data
    l_n = 1.7e16 * 54
    w = wedge_bounds(l_n)
    assert w.lower == l_n
    assert w.upper == l_n + w.k_hat_length
    assert w.k_hat_length == pytest.approx(41.36097378553118, rel=1e-12)
    # slot-count list: 5.6e24 values at 83 bits
    w2 = wedge_bounds(5.603070977634396e24 * 83)
    assert w2.k_hat_length == pytest.approx(61.40419767594786, rel=1e-12)
    # the documented benchmark magnitudes, with slack for the ~ in "~40"
    assert w.k_hat_length <= 40 * 1.1
    assert w2.k_hat_length <= 61 * 1.1


def test_k_hat_integer_domain():
    assert k_hat_integer(math.e) == pytest.approx(1.0, rel=1e-12)
    with pytest.raises(DomainError):
        k_hat_integer(1.0)


def test_balance_profile_constructed_peak():
    # four groups: solid zeros, solid ones, near-balanced, solid ones
    values = np.array([0] * 4 + [255] * 4 + [0x55] * 4 + [255] * 4,
                      dtype=np.int64)
    enc = EncodedList(n=16, k=8, values=values, source_tag="synthetic")
    prof = balance_profile(enc, group_width=32)
    assert prof.peak_index == 2
    assert prof.degenerate is False
    assert prof.zeros[0] == 32 and prof.ones[0] == 0
    assert prof.peak_center_bit == pytest.approx(2.5 * 32)


def test_balance_profile_degenerate_and_divisibility():
    enc = encode_list(np.zeros(16, dtype=np.int64), k=8)
    prof = balance_profile(enc, group_width=32)
    assert prof.degenerate is True
    with pytest.raises(DomainError):
        balance_profile(enc, group_width=7)


def test_balance_statistics_of_sorted_random_data():
    """100-seed oracle at the 10^4-bit scale: the most-balanced-group
    location is broad per seed but its ensemble mean sits mid-payload,
    and the global zeros/ones split obeys binomial concentration."""
    n, k, groups = 1000, 10, 25
    l = n * k
    centers, ones = [], []
    for seed in range(100):
        rng = np.random.default_rng(seed)
        values = np.sort(rng.integers(0, 1 << k, size=n, dtype=np.int64))
        enc = encode_list(values, k=k)
        prof = balance_profile(enc, group_width=l // groups)
        centers.append(prof.peak_center_bit / l)
        ones.append(float(np.bitwise_count(enc.values).sum()) / l)
    mean_center = float(np.mean(centers))
    # ensemble mean within one group width of the midpoint (seen: 0.494)
    assert abs(mean_center - 0.5) < 1.0 / groups
    # individual peaks concentrate loosely in the middle half
    hits = np.mean([(0.25 <= c <= 0.75) for c in centers])
    assert hits >= 0.6
    # whole-payload balance: ones count within (m/2)(1 +- 1/(2 sqrt m))
    assert abs(float(np.mean(ones)) - 0.5) < 0.5 / math.sqrt(l)


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
    enc = rng_list(999, 11, rng, source_tag="round trip tag")
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
        prev, cur = bits[:-1], bits[1:]
        cost = 1.0
        for ctx in (0, 1):
            sel = cur[prev == ctx]
            cost += _log2_binom_any(int(sel.size), int(sel.sum()))
        return cost + 2.0 * math.log2(l + 1)
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


# --- counting probability -------------------------------------------------------

def test_fd_algorithmic_probability_exact_path():
    p = fd_algorithmic_probability(100, 40, spin_degeneracy=2)
    # two spin ledgers of C(100, 20) each
    from kolgas.combinatorics import log2_binomial_exact, net_disorder_fd
    assert p.log2_fd == pytest.approx(-2.0 * log2_binomial_exact(100, 20),
                                      rel=1e-12)
    assert p.log2_z == pytest.approx(
        net_disorder_fd(100.0, 40.0, 2) / math.log(2.0), rel=1e-12
    )


def test_fd_algorithmic_probability_expansion_path():
    p = fd_algorithmic_probability(1e9, 3.0e6)
    assert p.log2_fd < 0.0
    # extensive and total parts agree to sub-extensive accuracy
    assert p.log2_fd == pytest.approx(-p.log2_z, rel=1e-4)


def test_fd_algorithmic_probability_domain():
    with pytest.raises(DomainError):
        fd_algorithmic_probability(10, 30)
    with pytest.raises(DomainError):
        fd_algorithmic_probability(10, 4, spin_degeneracy=3)
