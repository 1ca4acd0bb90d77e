"""Number-theoretic basics: factorization, totients, cyclotomic polynomials and factors.

Polynomials are plain tuples of integer coefficients in ascending degree, so
``(-1, 0, 1)`` is x^2 - 1.  Everything here is exact integer arithmetic; no
floating point is used anywhere.  All functions are pure and thread-safe.
"""

from __future__ import annotations

import functools
import itertools
from math import comb, gcd

IntPolynomial = tuple[int, ...]


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


def trace_form(g: list[int]) -> list[int]:
    """G with g(x) = x^s G(x + 1/x) for g palindromic of degree 2s, each top t^j = sum_i C(j, i) x^(j - 2i)
    of x^-s g taken off the x^(j - 2i) + x^(2i - j) below it.  Psi_n = trace_form(Phi_n), n >= 3, is the
    minimal polynomial of 2 cos(2 pi / n) (Lehmer, Amer. Math. Monthly 40, 1933); Psi_5 = t^2 + t - 1."""
    s = len(g) // 2
    h = g[s:]
    for j in range(s, 1, -1):
        for i in range(1, j // 2 + 1):
            h[j - 2 * i] -= h[j] * comb(j, i)
    return h


_totient = functools.lru_cache(maxsize=None)(totient)  # the factor search asks for the same n per request


@functools.lru_cache(maxsize=None)
def _trace_terms(n: int, p: int) -> tuple[tuple[int, int], ...]:
    """The nonzero terms of Psi_n (``trace_form``) mod p below its leading one, as (j - deg, c)."""
    psi = trace_form(list(cyclotomic(n)))
    return tuple((j - len(psi) + 1, c % p) for j, c in enumerate(psi[:-1]) if c % p)


def _divide_out(g: list[int], k: int, terms, p: int, n: int, ns: list[int]) -> list[int]:
    """g divided modulo p by x^k + sum c x^(k + j), (j, c) in ``terms``, while it divides; n joins ns each time."""
    while len(g) > k:
        r = g[:]
        for i in range(len(g) - 1, k - 1, -1):
            c = r[i] = r[i] % p
            if c:
                for j, cj in terms:
                    r[i + j] -= c * cj
        if any(c % p for c in r[:k]):
            break
        g = r[k:]
        ns.append(n)
    return g


def cyclotomic_factors(poly: list[int], p: int) -> tuple[int, ...] | None:
    """The n, ascending with multiplicity, with ``poly`` = prod Phi_n mod the odd prime p (``poly`` monic, residues
    ascending); else None.  Phi_1 and Phi_2 go by synthetic division at 1 and -1; of G, g = x^s G(x + 1/x) the rest,
    each Psi_n of degree at most s/2 is divided out mod p while it divides, and what is left, with at most one factor
    of larger degree, is 1 or one Psi_n (``exactlin.cyclotomic_type`` proves Phi_n | g iff Psi_n | G)."""
    ns: list[int] = []
    poly = _divide_out(_divide_out(poly, 1, ((-1, -1),), p, 1, ns), 1, ((-1, 1),), p, 2, ns)
    if poly[::-1] != poly:
        return None
    g = [c % p for c in trace_form(poly)]
    for n in range(3, totient_bound(len(g) - 1) + 1):
        if _totient(n) < len(g):  # degree phi(n)/2 at most half of what is left
            g = _divide_out(g, _totient(n) // 2, _trace_terms(n, p), p, n, ns)
    for n in range(3, totient_bound(2 * len(g) - 2) + 1):  # then at most one Psi_n is left
        if _totient(n) == 2 * len(g) - 2:
            g = _divide_out(g, _totient(n) // 2, _trace_terms(n, p), p, n, ns)
    return None if len(g) > 1 else tuple(sorted(ns))
