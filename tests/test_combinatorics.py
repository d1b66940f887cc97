"""Counting-identity checks: exact big-integer binomials as the oracle
for the two-term expansions, and the numerically hardened net-disorder
forms against their textbook renderings."""
import math
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kolgas
from kolgas.combinatorics import (
    EXACT_BINOMIAL_CAP,
    FIRST_ORDER_COEFF,
    _DOT_SLICE,
    _prime_log_table,
    fd_half_log_bits,
    log2_binomial_be_expansion,
    log2_binomial_exact,
    log2_binomial_fd_expansion,
    net_disorder_fd,
    net_disorder_intensive,
)
from kolgas.errors import DomainError

LN2 = math.log(2.0)


@pytest.mark.parametrize("m, n", [(5, 2), (10, 0), (10, 10), (52, 5), (1000, 500)])
def test_exact_binomial_matches_math_comb(m, n):
    assert log2_binomial_exact(m, n) == pytest.approx(
        math.log2(math.comb(m, n)), abs=1e-12
    )


def test_exact_binomial_rejects_bad_input():
    with pytest.raises(DomainError):
        log2_binomial_exact(5, 7)
    with pytest.raises(DomainError):
        log2_binomial_exact(-1, 0)
    with pytest.raises(DomainError):
        log2_binomial_exact(EXACT_BINOMIAL_CAP + 1, 2)
    with pytest.raises(DomainError):
        log2_binomial_exact(10.5, 2)


@pytest.mark.parametrize("m, n", [(4096, 1111), (4097, 1111), (20_000, 7_777)])
def test_exact_binomial_paths_agree(m, n):
    # the factored large-argument path continues the big-integer path
    assert log2_binomial_exact(m, n) == pytest.approx(
        math.log2(math.comb(m, n)), rel=1e-13
    )


def _factorial_prime_exponents(n, primes):
    """Exponent of each prime in n!, by Legendre's formula."""
    exponents = np.zeros(primes.shape[0], dtype=np.int64)
    powers = primes.copy()
    live = np.flatnonzero(powers <= n)
    while live.size:
        exponents[live] += n // powers[live]
        powers[live] *= primes[live]
        live = live[powers[live] <= n]
    return exponents


def _log2_binomial_three_factorials(m, n):
    """The factored path as three whole Legendre sums, m! over n! (m-n)!,
    dotted with log2(p) in the same slices; the exact binomial must give
    this very float."""
    primes, log2p = _prime_log_table(1 << (m - 1).bit_length())
    cut = int(np.searchsorted(primes, m, side="right"))
    primes, log2p = primes[:cut], log2p[:cut]
    exponents = (_factorial_prime_exponents(m, primes)
                 - _factorial_prime_exponents(n, primes)
                 - _factorial_prime_exponents(m - n, primes)).astype(np.float64)
    return float(sum(np.dot(exponents[i:i + _DOT_SLICE],
                            log2p[i:i + _DOT_SLICE])
                     for i in range(0, cut, _DOT_SLICE)))


@settings(deadline=None)
@given(st.integers(4097, EXACT_BINOMIAL_CAP).flatmap(
    lambda m: st.tuples(st.just(m), st.integers(1, m - 1))))
def test_factored_binomial_is_bit_identical(mn):
    m, n = mn
    assert log2_binomial_exact(m, n) == _log2_binomial_three_factorials(m, n)


_BINOMIALS_SCRIPT = """
import numpy as np
from kolgas.combinatorics import log2_binomial_exact
rng = np.random.default_rng(5)
for m in (104_743, 110_000, 10**6):
    for n in rng.integers(1, m, size=10).tolist():
        print(log2_binomial_exact(m, n).hex())
"""


def test_exact_binomial_is_independent_of_blas_threads():
    # above 10^4 primes (m >= 104 743) one dot product would be split
    # across OpenBLAS threads, changing its rounding with the thread count
    env = dict(os.environ,
               PYTHONPATH=str(pathlib.Path(kolgas.__file__).parents[1]))
    floats = []
    for threads in ("1", "2"):
        env["OPENBLAS_NUM_THREADS"] = threads
        floats.append(subprocess.run(
            [sys.executable, "-c", _BINOMIALS_SCRIPT], env=env,
            capture_output=True, text=True, check=True).stdout.split())
    assert len(floats[0]) == 30 and floats[0] == floats[1]


# m = p^2 for a prime p: p itself is the one prime at sqrt(m), and the only
# one whose exponent needs the p^2 term
@pytest.mark.parametrize("m", [67**2, 997**2])
@pytest.mark.parametrize("part", ["one", "all_but_one", "half"])
def test_factored_binomial_at_a_prime_square(m, part):
    n = {"one": 1, "all_but_one": m - 1, "half": m // 2}[part]
    assert log2_binomial_exact(m, n) == _log2_binomial_three_factorials(m, n)


@pytest.mark.parametrize("m, n", [
    (100, 1), (100, 50), (100, 99), (10_000, 3), (10_000, 7_300),
    (99_991, 49_000), (12, 6),
])
def test_fd_expansion_within_two_bits_of_exact(m, n):
    exact = log2_binomial_exact(m, n)
    assert abs(log2_binomial_fd_expansion(m, n) - exact) <= 2.0


@pytest.mark.parametrize("m, n", [
    (100, 1), (100, 100), (50, 120), (10_000, 9), (90_000, 45_000), (3, 3),
])
def test_be_expansion_within_two_bits_of_exact(m, n):
    exact = log2_binomial_exact(m + n, n)
    assert abs(log2_binomial_be_expansion(m, n) - exact) <= 2.0


def test_half_log_term():
    # the sub-extensive half of the expansion, in bits
    assert fd_half_log_bits(1000, 10) == pytest.approx(
        0.5 * math.log2(1000 / (10 * 990)), abs=1e-12
    )


# --- net disorder -----------------------------------------------------------

def _naive_net_disorder(m, n_s, g):
    """Three-term textbook form; fine at comfortable x, catastrophic near
    x -> 1 and for x >> 1 (that is the point of the hardened version)."""
    return g * LN2 * (
        m * math.log2(m) - n_s * math.log2(n_s)
        - (m - n_s) * math.log2(m - n_s)
    )


@pytest.mark.parametrize("m, n, g", [
    (50.0, 20.0, 2),
    (1000.0, 450.0, 2),
    (777.5, 300.25, 1),
    (10.0, 4.0, 1),
])
def test_net_disorder_fd_matches_naive_form_at_moderate_x(m, n, g):
    got = net_disorder_fd(m, n, g)
    want = _naive_net_disorder(m, n / g, g)
    assert got == pytest.approx(want, rel=1e-12)


def test_net_disorder_fd_full_occupation_is_zero():
    # every slot filled: exactly one arrangement, zero disorder
    assert net_disorder_fd(100.0, 200.0, 2) == 0.0


def test_net_disorder_fd_overfull_raises():
    with pytest.raises(DomainError):
        net_disorder_fd(100.0, 201.0, 2)


def test_net_disorder_fd_spin_doubles_slots():
    # g=2 with the same per-spin filling is twice the g=1 ledger
    one = net_disorder_fd(500.0, 100.0, 1)
    two = net_disorder_fd(500.0, 200.0, 2)
    assert two == pytest.approx(2.0 * one, rel=1e-12)


def test_net_disorder_intensive_matches_direct_form():
    x = 5.0
    direct = math.log(x - 1.0) - x * math.log(1.0 - 1.0 / x)
    assert net_disorder_intensive(x, 1.0) == pytest.approx(direct, rel=1e-13)
    assert net_disorder_intensive(x, 7.0) == pytest.approx(7 * direct, rel=1e-13)


def test_net_disorder_intensive_branch_continuity():
    # the two evaluation branches meet at x = 2
    below = net_disorder_intensive(2.0 - 1e-12, 1.0)
    above = net_disorder_intensive(2.0 + 1e-12, 1.0)
    assert abs(below - above) < 1e-11


def test_net_disorder_intensive_domain():
    with pytest.raises(DomainError):
        net_disorder_intensive(1.0, 1.0)


def test_net_disorder_extensive_intensive_consistency():
    # per-slot-pair form times N equals the extensive ledger
    m, n = 1.0e9, 2.0e6
    x = 2.0 * m / n
    assert net_disorder_fd(m, n, 2) == pytest.approx(
        net_disorder_intensive(x, n / 2.0) * 2.0, rel=1e-10
    )


def test_fd_expansion_matches_net_disorder_at_scale():
    # two spin ledgers of the binomial expansion against the extensive
    # net disorder: they differ only by sub-extensive terms
    total = 2.0 * log2_binomial_fd_expansion(1e9, 1.5e6)
    assert total == pytest.approx(net_disorder_fd(1e9, 3e6, 2) / LN2, rel=1e-4)


def test_first_order_coefficient_frozen():
    assert FIRST_ORDER_COEFF == -0.5


def test_stability_near_full_occupation():
    """x barely above 1: the hardened form must stay finite and positive
    where the naive three-term difference has lost every digit."""
    x = 1.0 + 1e-9
    val = net_disorder_intensive(x, 1.0)
    # kappa(x) = ln(x-1) - x ln(1-1/x) -> ln(x-1) + x ln(x/(x-1))
    assert math.isfinite(val)
    assert val > 0.0
    # leading behaviour: -(x-1) ln(x-1) + ... stays tiny but positive
    assert val < 1e-6


def test_stability_at_huge_dilution():
    # x = 2A ~ 1e12: naive cancellation loses ~ all precision; the
    # hardened branch keeps full accuracy against the series form
    x = 1.0e12
    series = math.log(x) + 1.0 - 1.0 / (2.0 * x) - 1.0 / (6.0 * x * x)
    assert net_disorder_intensive(x, 1.0) == pytest.approx(series, rel=1e-13)
