"""Occupation-count combinatorics: exact binomial logs, their large-count
expansions, and the extensive "net disorder" built from them.

Base discipline: every function returns the logarithm base named in its
signature or docstring; the conversion constant ``ln 2`` appears exactly
once per formula.
"""
from __future__ import annotations

import math
from functools import lru_cache
from typing import Final

import numpy as np

from .errors import DomainError

LN2: Final[float] = math.log(2.0)

#: Largest integer accepted by the exact big-integer path.
EXACT_BINOMIAL_CAP: Final[int] = 10**6

#: At or below this size the exact binomial log is taken straight off the
#: big integer.  Above it, Python's O(n) multiply loop for ``math.comb``
#: gets expensive (seconds near the cap on 3.10), so the log is assembled
#: from the exact prime factorization of the binomial instead.
_BIGINT_PATH_LIMIT: Final[int] = 4096

#: Most terms one ``np.dot`` sums.  OpenBLAS splits a longer dot product
#: across its threads, so its float would depend on the thread count.
_DOT_SLICE: Final[int] = 10**4


@lru_cache(maxsize=8)
def _prime_log_table(limit: int) -> tuple[np.ndarray, np.ndarray]:
    sieve = np.ones(limit + 1, dtype=bool)
    sieve[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if sieve[p]:
            sieve[p * p :: p] = False
    primes = np.flatnonzero(sieve).astype(np.int64)
    return primes, np.log2(primes.astype(np.float64))


#: Coefficient of the 1/(2A) term in the dilute expansion of the intensive
#: net disorder, ``n (ln 2A + 1 + c1/(2A))``.  Frozen from the numerical
#: series oracle in the test suite; see ``tests/test_acceptance.py``.
FIRST_ORDER_COEFF: Final[float] = -0.5


def log2_binomial_exact(m: int, n: int) -> float:
    """log2 C(m, n) by exact integer arithmetic.

    Supported for 0 <= n <= m <= 10**6; larger inputs belong to the
    expansion routines.  Small arguments take the log of the big integer
    directly; large ones sum exact prime-factorization exponents against
    log2(p), whose only rounding is the final float dot product, summed
    in slices of ``_DOT_SLICE`` terms so that it does not depend on the
    BLAS thread count.
    """
    if not (isinstance(m, int) and isinstance(n, int)):
        raise DomainError("log2_binomial_exact needs integer arguments")
    if m > EXACT_BINOMIAL_CAP:
        raise DomainError(
            f"m={m} exceeds exact-path cap {EXACT_BINOMIAL_CAP}; "
            "use an expansion"
        )
    if not (0 <= n <= m):
        raise DomainError(f"need 0 <= n <= m, got m={m}, n={n}")
    if m <= _BIGINT_PATH_LIMIT:
        return math.log2(math.comb(m, n))
    if n == 0 or n == m:
        return 0.0
    primes, log2p = _prime_log_table(1 << (m - 1).bit_length())
    cut = int(np.searchsorted(primes, m, side="right"))
    primes, log2p = primes[:cut], log2p[:cut]
    # Legendre's formula gives the exponent of p in m!/(n!(m-n)!) as the
    # sum over powers q = p^i <= m of m//q - n//q - (m-n)//q.  A prime
    # above sqrt(m) has p^2 > m, so only its first term survives and all
    # of them are one vector expression; the few below take the full sum.
    w = m - n
    split = int(np.searchsorted(primes, math.isqrt(m), side="right"))
    exponents = np.empty(cut, dtype=np.int64)
    for i, p in enumerate(primes[:split].tolist()):
        e, q = 0, p
        while q <= m:
            e += m // q - n // q - w // q
            q *= p
        exponents[i] = e
    big = primes[split:]
    exponents[split:] = m // big - n // big - w // big
    terms = exponents.astype(np.float64)
    return float(sum(np.dot(terms[i:i + _DOT_SLICE], log2p[i:i + _DOT_SLICE])
                     for i in range(0, cut, _DOT_SLICE)))


def fd_half_log_bits(m: float, n: float) -> float:
    """Half-log correction (1/2) log2( m / (n (m - n)) ), in bits.

    This is the sub-extensive remainder separating the binomial expansion
    from its extensive part.  For occupation-style counts it is negative
    with magnitude about (1/2) log2 n.
    """
    if not (m > n > 0.0):
        raise DomainError(f"need m > n > 0, got m={m}, n={n}")
    w = m - n
    return 0.5 * (math.log2(m) - math.log2(n) - math.log2(w))


def _extensive_fd_bits(m: float, n: float) -> float:
    # m log2 m - n log2 n - (m-n) log2 (m-n), regrouped as
    # m log2(m/(m-n)) + n log2((m-n)/n) so no large-term cancellation occurs.
    w = m - n
    return -m * math.log1p(-n / m) / LN2 + n * math.log2(w / n)


def log2_binomial_fd_expansion(m: float, n: float) -> float:
    """Large-count expansion of log2 C(m, n) for exclusive occupation.

    Value: m log2 m - n log2 n - (m-n) log2 (m-n)
           + (1/2) log2( m / (n (m-n)) ).
    Accurate to an O(1) constant (about -1.33 bits, from Stirling).
    """
    if not (m > n > 0.0):
        raise DomainError(f"need m > n > 0, got m={m}, n={n}")
    return _extensive_fd_bits(m, n) + fd_half_log_bits(m, n)


def log2_binomial_be_expansion(m: float, n: float) -> float:
    """Large-count expansion of log2 C(m + n - 1, n), multiplicity of
    unrestricted occupation, in the same style as the exclusive expansion.

    Value: (m+n) log2 (m+n) - m log2 m - n log2 n
           + (1/2) log2( (m+n) / (m n) ).
    """
    if not (m > 0.0 and n > 0.0):
        raise DomainError(f"need m > 0 and n > 0, got m={m}, n={n}")
    s = m + n
    extensive = m * math.log2(s / m) + n * math.log2(s / n)
    half = 0.5 * (math.log2(s) - math.log2(m) - math.log2(n))
    return extensive + half


def net_disorder_fd(m: float, n: float, spin_degeneracy: int = 2) -> float:
    """Extensive net disorder of n exclusive markers over m slots per spin
    state, in nats.

    Value: g ln2 (m log2 m - n_s log2 n_s - (m - n_s) log2 (m - n_s))
    with n_s = n / g, summed over the g spin states.  The boundary
    m == n_s uses the 0 log 0 := 0 convention and returns 0.

    The three-term form is evaluated in its intensive regrouping
    n_s (x log2 x - (x-1) log2 (x-1)), x = m/n_s, because the literal
    difference of large terms loses about nine digits at the range ends.
    """
    g = spin_degeneracy
    if g not in (1, 2):
        raise DomainError("spin_degeneracy must be 1 or 2")
    if n <= 0.0 or m <= 0.0:
        raise DomainError(f"need m > 0 and n > 0, got m={m}, n={n}")
    n_s = n / g
    if m < n_s:
        raise DomainError(
            f"cannot place {n_s} exclusive markers on {m} slots (m < n/g)"
        )
    if m == n_s:
        return 0.0
    x = m / n_s
    if x <= 2.0:
        ext_bits = n_s * (x * math.log2(x) - (x - 1.0) * math.log2(x - 1.0))
    else:
        ext_bits = n_s * (math.log2(x - 1.0) - x * math.log1p(-1.0 / x) / LN2)
    return g * LN2 * ext_bits


def net_disorder_intensive(x: float, n: float) -> float:
    """Net disorder in intensive form, n [ ln(x-1) - x ln(1 - 1/x) ], nats.

    ``x`` is the slots-per-marker ratio of one spin state (2A for a
    spin-1/2 gas).  Only defined for x > 1.
    """
    if x <= 1.0:
        raise DomainError(f"intensive form needs x > 1, got x={x}")
    if n <= 0.0:
        raise DomainError(f"need n > 0, got n={n}")
    # Same two regroupings as net_disorder_fd, here in natural logs.
    if x <= 2.0:
        kappa = x * math.log(x) - (x - 1.0) * math.log(x - 1.0)
    else:
        kappa = math.log(x - 1.0) - x * math.log1p(-1.0 / x)
    return n * kappa

