import pytest

from nctori.arith import (
    CYCLOTOMIC_MAX_N,
    FACTORIZE_MAX_TRIAL,
    cyclotomic,
    divisors,
    factorize,
    poly_mul,
    totient,
    totient_bound,
)
from oracles import poly_divmod


def test_factorize_examples():
    assert factorize(12) == [(2, 2), (3, 1)]
    assert factorize(1) == []
    assert factorize(54) == [(2, 1), (3, 3)]


def test_factorize_rejects_zero():
    with pytest.raises(ValueError):
        factorize(0)


def test_factorize_reconstructs():
    for n in range(1, 500):
        prod = 1
        prev_p = 0
        for p, e in factorize(n):
            assert p > prev_p and e >= 1
            prev_p = p
            prod *= p**e
        assert prod == n


def test_totient_examples():
    assert totient(9) == 6
    assert totient(1) == 1
    assert totient(12) == 4


def test_totient_rejects_zero():
    with pytest.raises(ValueError):
        totient(0)


def test_totient_counts_units():
    from math import gcd

    for n in range(1, 200):
        assert totient(n) == sum(1 for k in range(1, n + 1) if gcd(k, n) == 1)


def test_totient_bound_covers_every_preimage():
    # phi(n) >= sqrt(n / 2), so every n with phi(n) <= r is at most 2 r^2
    top = 2 * 300**2
    phi = list(range(top + 1))
    for p in range(2, top + 1):
        if phi[p] == p:  # p is prime
            for m in range(p, top + 1, p):
                phi[m] -= phi[m] // p
    largest = [0] * 301
    for n in range(1, top + 1):
        if phi[n] <= 300:
            largest[phi[n]] = max(largest[phi[n]], n)
    for r in range(1, 301):
        largest[r] = max(largest[r], largest[r - 1])
        assert largest[r] <= totient_bound(r), r
    assert (largest[18], totient_bound(18)) == (60, 67)
    assert (largest[200], totient_bound(200)) == (840, 875)


def _local_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return out


def _local_exact_div(num, den):
    # plain long division, checked exact; independent of arith.poly_divmod
    num = list(num)
    q = [0] * (len(num) - len(den) + 1)
    for i in range(len(num) - 1, len(den) - 2, -1):
        c = num[i]
        assert c % den[-1] == 0
        q[i - len(den) + 1] = c // den[-1]
        for j, cd in enumerate(den):
            num[i - len(den) + 1 + j] -= (c // den[-1]) * cd
    assert all(c == 0 for c in num)
    return q


def test_cyclotomic_small():
    assert cyclotomic(1) == (-1, 1)
    assert cyclotomic(2) == (1, 1)


def test_cyclotomic_9_against_division_oracle():
    # x^9 - 1 divided by phi_1 * phi_3, both written down by hand
    phi1_phi3 = _local_mul([-1, 1], [1, 1, 1])
    expected = _local_exact_div([-1] + [0] * 8 + [1], phi1_phi3)
    assert expected == [1, 0, 0, 1, 0, 0, 1]
    assert cyclotomic(9) == tuple(expected)


def test_cyclotomic_12_against_division_oracle():
    # x^12 - 1 divided by the product of the lower cyclotomics
    lower = [-1, 1]
    for coeffs in ([1, 1], [1, 1, 1], [1, 0, 1], [1, -1, 1]):  # phi_2, phi_3, phi_4, phi_6
        lower = _local_mul(lower, coeffs)
    expected = _local_exact_div([-1] + [0] * 11 + [1], lower)
    assert expected == [1, 0, -1, 0, 1]
    assert cyclotomic(12) == tuple(expected)


def test_cyclotomic_rejects_zero():
    with pytest.raises(ValueError):
        cyclotomic(0)


def test_cyclotomic_product_identity():
    for n in range(1, 201):
        prod = (1,)
        for d in divisors(n):
            prod = poly_mul(prod, cyclotomic(d))
        assert prod == (-1,) + (0,) * (n - 1) + (1,), n


def test_cyclotomic_degree_is_totient():
    for n in range(1, 201):
        assert len(cyclotomic(n)) - 1 == totient(n)


def test_totient_divisor_sum():
    for n in range(1, 1001):
        assert sum(totient(d) for d in divisors(n)) == n


def test_poly_divmod_remainder():
    q, r = poly_divmod((1, 2, 3), (1, 1))  # 3x^2+2x+1 by x+1
    assert poly_mul(q, (1, 1)) == (1, 2, 3) if not r else True
    recombined = list(poly_mul(q, (1, 1)))
    for i, c in enumerate(r):
        recombined[i] += c
    assert tuple(recombined) == (1, 2, 3)


def test_cyclotomic_limit():
    assert len(cyclotomic(CYCLOTOMIC_MAX_N)) - 1 == totient(CYCLOTOMIC_MAX_N)
    for n in (CYCLOTOMIC_MAX_N + 1, 10**48 + 1):
        with pytest.raises(ValueError, match=f"CYCLOTOMIC_MAX_N = {CYCLOTOMIC_MAX_N}"):
            cyclotomic(n)


def test_cyclotomic_composite_orders_by_division():
    # Phi_n = (x^n - 1) / prod_{d | n, d < n} Phi_d for orders with many divisors
    for n in (210, 360, 420, 1155, 2310, 2520):
        lower = (1,)
        for d in divisors(n):
            if d < n:
                lower = poly_mul(lower, cyclotomic(d))
        assert cyclotomic(n) == tuple(_local_exact_div([-1] + [0] * (n - 1) + [1], list(lower))), n


def test_factorize_caps_trial_division():
    # a cofactor below FACTORIZE_MAX_TRIAL^2 with no smaller divisor is prime
    cases = {
        999_999_999_989: [(999_999_999_989, 1)],  # the largest prime below 10^12
        999_983 * 999_979: [(999_979, 1), (999_983, 1)],
        2**39: [(2, 39)],
        10**12 + 39: [(10**12 + 39, 1)],  # prime, below (FACTORIZE_MAX_TRIAL + 1)^2
    }
    for n, expected in cases.items():
        assert factorize(n) == expected, n
    for n in (10**48 + 1, (FACTORIZE_MAX_TRIAL + 3) ** 2, (FACTORIZE_MAX_TRIAL + 3) * (FACTORIZE_MAX_TRIAL + 33)):
        with pytest.raises(ValueError, match=f"FACTORIZE_MAX_TRIAL = {FACTORIZE_MAX_TRIAL}"):
            factorize(n)
