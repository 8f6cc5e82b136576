"""The integer-numerator representation of CycNumber against a Fraction oracle.

Every operation is recomputed here on plain lists of Fractions: products by
schoolbook multiplication and long division by the cyclotomic polynomial,
inverses by Gaussian elimination on the multiplication matrix (not by the
extended Euclidean algorithm the package uses).  Operands mix denominators,
negative numerators, zeros and coefficients above 2^64.
"""

import math
import random
from fractions import Fraction

import pytest

from qplumb.cyclotomic import CycNumber, brace, make_context, zeta_pow

BIG = 2**70


def frac_mul(ctx, a, b):
    conv = [Fraction(0)] * (2 * ctx.degree - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            conv[i + j] += ai * bj
    phi = ctx.phi_poly
    for k in range(len(conv) - 1, ctx.degree - 1, -1):
        c = conv[k]
        for j, p in enumerate(phi):
            conv[k - ctx.degree + j] -= c * p
    return conv[: ctx.degree]


def frac_inv(ctx, b):
    """Solve b * y = 1 by elimination on the columns b * zeta^j."""
    d = ctx.degree
    cols = [frac_mul(ctx, b, [Fraction(int(i == j)) for i in range(d)]) for j in range(d)]
    rows = [[cols[j][i] for j in range(d)] + [Fraction(int(i == 0))] for i in range(d)]
    for c in range(d):
        p = next(i for i in range(c, d) if rows[i][c])
        rows[c], rows[p] = rows[p], rows[c]
        pivot = rows[c][c]
        rows[c] = [v / pivot for v in rows[c]]
        for i in range(d):
            if i != c and rows[i][c]:
                f = rows[i][c]
                rows[i] = [v - f * w for v, w in zip(rows[i], rows[c])]
    return [row[d] for row in rows]


def frac_pow(ctx, a, e):
    base = frac_inv(ctx, a) if e < 0 else list(a)
    out = [Fraction(int(i == 0)) for i in range(ctx.degree)]
    for _ in range(abs(e)):
        out = frac_mul(ctx, out, base)
    return out


def random_coeffs(ctx, rng):
    """Mixed denominators, negative numerators, zeros and >2^64 magnitudes."""
    out = []
    for _ in range(ctx.degree):
        kind = rng.random()
        if kind < 0.2:
            out.append(Fraction(0))
        elif kind < 0.4:
            out.append(Fraction(rng.randint(-BIG, BIG), rng.choice([1, 3, 2**67 + 1])))
        else:
            out.append(Fraction(rng.randint(-9, 9), rng.choice([1, 2, 4, 6, 35])))
    return out


def assert_canonical(x):
    assert len(x.num) == x.ctx.degree
    assert all(type(n) is int for n in x.num) and type(x.den) is int
    assert x.den > 0
    assert math.gcd(x.den, *x.num) == 1
    if not any(x.num):
        assert x.den == 1


def check(x, expected):
    assert_canonical(x)
    assert list(x.coeffs) == list(expected)
    assert all(c.denominator == q and c.numerator == n for c, (n, q) in zip(x.coeffs, x.pairs()))


@pytest.mark.parametrize("r", range(2, 13))
def test_operations_match_fraction_oracle(r):
    ctx = make_context(r)
    rng = random.Random(7000 + r)
    for _ in range(4):
        fa, fb = random_coeffs(ctx, rng), random_coeffs(ctx, rng)
        a, b = CycNumber(ctx, fa), CycNumber(ctx, fb)
        check(a, fa)
        check(a + b, [x + y for x, y in zip(fa, fb)])
        check(a - b, [x - y for x, y in zip(fa, fb)])
        check(-a, [-x for x in fa])
        check(a * b, frac_mul(ctx, fa, fb))
        k = Fraction(rng.randint(-BIG, BIG), rng.randint(1, BIG))
        check(a.scale(k), [k * x for x in fa])
        check(a * k, [k * x for x in fa])
        check(3 - a, [Fraction(3 * (i == 0)) - x for i, x in enumerate(fa)])
        check(a**3, frac_pow(ctx, fa, 3))
        # a sparser divisor keeps the inverse's coefficients to a few thousand bits
        fc = [Fraction(0)] * ctx.degree
        fc[rng.randrange(ctx.degree)] += Fraction(rng.randint(1, BIG), rng.choice([1, 5]))
        fc[rng.randrange(ctx.degree)] -= Fraction(rng.randint(1, 9), rng.choice([2, 3]))
        c = CycNumber(ctx, fc)
        fc_inv = frac_inv(ctx, fc)
        check(c.inv(), fc_inv)
        check(a / c, frac_mul(ctx, fa, fc_inv))
        check(c**-2, frac_pow(ctx, fc, -2))


@pytest.mark.parametrize("r", range(2, 13))
def test_zero_is_stored_over_one(r):
    ctx = make_context(r)
    rng = random.Random(r)
    a = CycNumber(ctx, random_coeffs(ctx, rng))
    for zero in (a - a, a * ctx.zero, a.scale(0), ctx.zero, CycNumber(ctx, [Fraction(0, 7)] * ctx.degree)):
        assert_canonical(zero)
        assert zero.den == 1 and zero.is_zero
        assert zero == ctx.zero and hash(zero) == hash(ctx.zero)


@pytest.mark.parametrize("r", range(2, 13))
def test_equal_values_from_different_routes_hash_alike(r):
    ctx = make_context(r)
    rng = random.Random(100 + r)
    fa = random_coeffs(ctx, rng)
    a = CycNumber(ctx, fa)
    b = brace(ctx, 1)
    k = Fraction(-5, 12)
    routes = [
        (a * b) * b.inv(),
        (a / 3) * 3,
        a.scale(k).scale(1 / k),
        CycNumber(ctx, [x * 2 / 2 for x in fa]),
        a,
    ]
    for x in routes:
        assert_canonical(x)
        assert x == a and hash(x) == hash(a)
    for i in range(ctx.conductor):
        product = zeta_pow(ctx, 1) ** i if i else ctx.one
        fractions = CycNumber(ctx, zeta_pow(ctx, i).coeffs)
        for x in (product, fractions, zeta_pow(ctx, i + ctx.conductor)):
            assert x == zeta_pow(ctx, i) and hash(x) == hash(zeta_pow(ctx, i))
    half = CycNumber(ctx, [Fraction(1, 2)] + [0] * (ctx.degree - 1))
    assert half == ctx.scalar(Fraction(2, 4)) and hash(half) == hash(ctx.one / 2)
