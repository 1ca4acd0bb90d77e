"""Number-theoretic basics: factorization, totients and cyclotomic polynomials,
and the reader of every integer that comes in as text.

Polynomials are plain tuples of integer coefficients in ascending degree, so
``(-1, 0, 1)`` is x^2 - 1.  Everything here is exact integer arithmetic; no
floating point is used anywhere.  All functions are pure and thread-safe.
"""

from __future__ import annotations

import functools
import itertools
from math import gcd

IntPolynomial = tuple[int, ...]


# Most decimal digits of an integer that ``read_int`` reads: Python's default
# limit on int-str conversion, which int(), print and json.dumps obey.
MAX_INT_DIGITS = 4_300


class DigitLimitError(ValueError):
    """An integer word with more than ``MAX_INT_DIGITS`` digits."""


def read_int(word: str) -> int:
    """int(word).  A word of more than ``MAX_INT_DIGITS`` decimal digits
    raises DigitLimitError, whose message names the limit and does not echo
    the digits; any other bad word raises int()'s ValueError.

    >>> read_int("-12")
    -12
    """
    if len(word) > MAX_INT_DIGITS:
        digits = sum(map(str.isdecimal, word))
        if digits > MAX_INT_DIGITS:
            raise DigitLimitError(f"an integer of {digits} digits is past the limit MAX_INT_DIGITS = {MAX_INT_DIGITS}")
    return int(word)


def read_ints(words: list[str]) -> list[int]:
    """``read_int`` of each word, by int() alone while no word is longer
    than ``MAX_INT_DIGITS``."""
    if max(map(len, words), default=0) > MAX_INT_DIGITS:
        return list(map(read_int, words))
    return list(map(int, words))


# Largest trial divisor of ``factorize``.  A cofactor left with no divisor up
# to it is prime when below its square; every n below 10^12 factors.
FACTORIZE_MAX_TRIAL = 1_000_000


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization of ``n`` as (prime, exponent) pairs, primes ascending.

    By trial division up to ``FACTORIZE_MAX_TRIAL``; a cofactor left over
    that is at least (FACTORIZE_MAX_TRIAL + 1)^2 raises ValueError.

    >>> factorize(12)
    [(2, 2), (3, 1)]
    >>> factorize(1)
    []
    """
    if n < 1:
        raise ValueError(f"factorize expects a positive integer, got {n}")
    out = []
    m = n
    p = 2
    while p * p <= m and p <= FACTORIZE_MAX_TRIAL:
        if m % p == 0:
            e = 0
            while m % p == 0:
                m //= p
                e += 1
            out.append((p, e))
        p += 1 if p == 2 else 2
    if p * p <= m:
        raise ValueError(
            f"cannot factor {n}: a cofactor of {len(str(m))} digits has no divisor up to "
            f"the trial-division limit FACTORIZE_MAX_TRIAL = {FACTORIZE_MAX_TRIAL}"
        )
    if m > 1:
        out.append((m, 1))
    return out


@functools.lru_cache(maxsize=None)
def totient(n: int) -> int:
    """Euler's phi function; totient(1) == 1.

    >>> totient(9)
    6
    >>> totient(12)
    4
    """
    if n < 1:
        raise ValueError(f"totient expects a positive integer, got {n}")
    result = n
    for p, _ in factorize(n):
        result = result // p * (p - 1)
    return result


def totient_bound(r: int) -> int:
    """An n0 >= every n with phi(n) <= r: floor(r prod p_i / (p_i - 1)) over
    the first s primes p_i, s the largest count with prod (p_i - 1) <= r,
    and at least r.

    Proof: if n has s' distinct primes q_i, then phi(n) >= prod (q_i - 1)
    >= prod_{i <= s'} (p_i - 1), so s' <= s; and n / phi(n) = prod q_i /
    (q_i - 1) is at most the same product over the first s' primes, and so
    over the first s.  The largest such n is 60 at r = 18 and 840 at r = 200.

    >>> totient_bound(18), totient_bound(200)
    (67, 875)
    """
    num = den = 1
    p = 2
    while den * (p - 1) <= r:
        num *= p
        den *= p - 1
        while gcd(p, num) > 1:  # every prime up to p divides num: on to the next
            p += 1
    return max(r, r * num // den)


def divisors(n: int) -> list[int]:
    """All positive divisors of ``n``, ascending."""
    if n < 1:
        raise ValueError(f"divisors expects a positive integer, got {n}")
    divs = [1]
    for p, e in factorize(n):
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return sorted(divs)


def poly_mul(a: IntPolynomial, b: IntPolynomial) -> IntPolynomial:
    """Product of two coefficient tuples (ascending degree)."""
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                out[i + j] += ca * cb
    return tuple(out)


# Largest n that ``cyclotomic`` accepts: Phi_n has phi(n) + 1 <= n coefficients.
CYCLOTOMIC_MAX_N = 1_000_000


@functools.lru_cache(maxsize=None)
def cyclotomic(n: int) -> IntPolynomial:
    """Coefficients of the n-th cyclotomic polynomial, ascending degree.

    With r the product of the distinct primes of n, Phi_n(x) = Phi_r(x^(n/r)),
    and for r > 1 Moebius inversion of x^r - 1 = prod_{d | r} Phi_d gives
    Phi_r = prod_{d | r} (1 - x^d)^mu(r/d).  Each factor is one pass over the
    phi(r) + 1 coefficients of a power series truncated at degree phi(r)
    (multiply by 1 - x^d, or divide by it as a running sum with stride d), so
    the cost is 2^omega(n) passes; the truncation is exact because the
    product is a polynomial of that degree.  n above ``CYCLOTOMIC_MAX_N``
    raises ValueError.

    >>> cyclotomic(1)
    (-1, 1)
    >>> cyclotomic(2)
    (1, 1)
    >>> cyclotomic(9)
    (1, 0, 0, 1, 0, 0, 1)
    """
    if n < 1:
        raise ValueError(f"cyclotomic expects a positive integer, got {n}")
    if n > CYCLOTOMIC_MAX_N:
        raise ValueError(f"cyclotomic n = {n} exceeds the limit CYCLOTOMIC_MAX_N = {CYCLOTOMIC_MAX_N}")
    if n == 1:
        return (-1, 1)
    primes = [p for p, _ in factorize(n)]
    r = 1
    for p in primes:
        r *= p
    deg = totient(r)
    coeffs = [1] + [0] * deg
    # the divisors d of r with the sign of mu(r/d), as subsets of its primes
    divs = [(1, len(primes) % 2 == 0)]
    for p in primes:
        divs += [(d * p, not even) for d, even in divs]
    for d, even in divs:
        if d > deg:
            continue  # 1 - x^d is 1 modulo x^(deg + 1)
        if even:
            coeffs[d:] = [a - b for a, b in zip(coeffs[d:], coeffs)]
        else:
            for i in range(d):
                coeffs[i::d] = itertools.accumulate(coeffs[i::d])
    stride = n // r
    if stride == 1:
        return tuple(coeffs)
    out = [0] * (deg * stride + 1)
    out[::stride] = coeffs
    return tuple(out)

