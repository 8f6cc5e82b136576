"""Exact-field tests: cyclotomic polynomial, canonical form, field axioms.

Oracles used here are independent of the implementation under test:
  * cyclotomic polynomials are re-derived numerically as the monic product
    over primitive roots of unity, then integer-rounded;
  * multiplication is checked against naive polynomial multiplication
    followed by long division by the cyclotomic polynomial;
  * numeric embeddings are cross-checked with cmath (the package itself
    evaluates through mpmath).
"""

import cmath
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qplumb.cyclotomic import (
    CycNumber,
    brace,
    cyclotomic_poly,
    make_context,
    q_pow,
    qint,
    to_complex,
    zeta_pow,
)
from qplumb.cyclotomic import _qint_cached


def oracle_cyclotomic(n):
    """Monic product of (x - w) over primitive n-th roots w, rounded to ints."""
    poly = [complex(1.0)]
    for k in range(1, n + 1):
        if math.gcd(k, n) == 1:
            w = cmath.exp(2j * cmath.pi * k / n)
            new = [0j] * (len(poly) + 1)
            for i, c in enumerate(poly):
                new[i + 1] += c
                new[i] -= w * c
            poly = new
    out = []
    for c in poly:
        assert abs(c.imag) < 1e-7 and abs(c.real - round(c.real)) < 1e-7
        out.append(round(c.real))
    return tuple(out)


def oracle_mul(a, b):
    """Schoolbook multiply then long-divide by phi, all in Fractions."""
    ctx = a.ctx
    conv = [Fraction(0)] * (2 * ctx.degree - 1)
    for i, ai in enumerate(a.coeffs):
        for j, bj in enumerate(b.coeffs):
            conv[i + j] += Fraction(int(ai.numerator), int(ai.denominator)) * Fraction(
                int(bj.numerator), int(bj.denominator)
            )
    phi = [Fraction(c) for c in ctx.phi_poly]
    for k in range(len(conv) - 1, ctx.degree - 1, -1):
        c = conv[k]
        if c:
            for j in range(len(phi)):
                conv[k - ctx.degree + j] -= c * phi[j]
    return tuple(conv[: ctx.degree])


def random_element(ctx, rng, span=6):
    coeffs = [
        Fraction(rng.randint(-span, span), rng.randint(1, 4)) for _ in range(ctx.degree)
    ]
    return CycNumber(ctx, coeffs)


def embed(x):
    return complex(to_complex(x))


class TestContext:
    def test_phi8(self):
        ctx = make_context(2)
        assert ctx.conductor == 8
        assert ctx.phi_poly == (1, 0, 0, 0, 1)  # x^4 + 1
        assert ctx.degree == 4

    def test_phi12(self):
        ctx = make_context(3)
        assert ctx.phi_poly == (1, 0, -1, 0, 1)  # x^4 - x^2 + 1

    @pytest.mark.parametrize("r", range(2, 10))
    def test_phi_matches_numeric_product_oracle(self, r):
        assert cyclotomic_poly(4 * r) == oracle_cyclotomic(4 * r)

    @pytest.mark.parametrize("r", range(2, 10))
    def test_phi_is_monic_of_totient_degree(self, r):
        n = 4 * r
        phi = cyclotomic_poly(n)
        totient = sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)
        assert phi[-1] == 1
        assert len(phi) - 1 == totient

    @pytest.mark.parametrize("r", range(2, 8))
    def test_phi_vanishes_at_primitive_root(self, r):
        n = 4 * r
        w = cmath.exp(2j * cmath.pi / n)
        val = sum(c * w**k for k, c in enumerate(cyclotomic_poly(n)))
        assert abs(val) < 1e-9

    def test_r_below_two_rejected(self):
        with pytest.raises(ValueError):
            make_context(1)
        with pytest.raises(ValueError):
            make_context(0)


class TestZetaPowers:
    def test_full_order_is_identity(self):
        ctx = make_context(2)
        assert zeta_pow(ctx, 8) == ctx.one

    def test_primitive_order(self):
        for r in (2, 3, 4):
            ctx = make_context(r)
            for k in range(1, ctx.conductor):
                assert zeta_pow(ctx, k) != ctx.one
            assert zeta_pow(ctx, ctx.conductor) == ctx.one

    def test_q_to_the_r_is_minus_one(self):
        for r in range(2, 8):
            ctx = make_context(r)
            assert zeta_pow(ctx, 2 * r) == ctx.scalar(-1)
            assert q_pow(ctx, r) == ctx.scalar(-1)

    def test_r3_q_cubed(self):
        ctx = make_context(3)
        assert zeta_pow(ctx, 6) == ctx.scalar(-1)

    def test_r2_q_is_sqrt_minus_one(self):
        ctx = make_context(2)
        q = zeta_pow(ctx, 2)
        # x^2 reduced mod x^4 + 1 stays x^2; numerically it is i
        assert q.coeffs == (0, 0, 1, 0)
        assert abs(embed(q) - 1j) < 1e-12
        assert q * q == ctx.scalar(-1)

    @given(st.integers(min_value=-50, max_value=50), st.integers(min_value=2, max_value=6))
    @settings(max_examples=60, deadline=None)
    def test_periodicity(self, k, r):
        ctx = make_context(r)
        assert zeta_pow(ctx, k + ctx.conductor) == zeta_pow(ctx, k)

    def test_half_power_needs_half_integers(self):
        ctx = make_context(2)
        with pytest.raises(ValueError):
            q_pow(ctx, Fraction(1, 3))


class TestBraceAndQint:
    def test_brace_zero(self):
        for r in (2, 3, 5):
            assert brace(make_context(r), 0).is_zero

    def test_brace_at_r_vanishes(self):
        for r in range(2, 9):
            assert brace(make_context(r), r).is_zero

    def test_brace_r3_numeric(self):
        val = embed(brace(make_context(3), 1))
        assert abs(val - 2j * math.sin(math.pi / 3)) < 1e-12
        assert abs(val - 1.7320508075688772j) < 1e-7

    @given(
        st.integers(min_value=-40, max_value=40),
        st.integers(min_value=2, max_value=6),
    )
    @settings(max_examples=60, deadline=None)
    def test_brace_is_odd(self, two_z, r):
        ctx = make_context(r)
        z = Fraction(two_z, 2)
        assert brace(ctx, -z) == -brace(ctx, z)

    def test_qint_one(self):
        for r in (2, 3, 4):
            assert qint(make_context(r), 1) == make_context(r).one

    def test_qint_r_is_zero(self):
        for r in (2, 3, 4):
            assert qint(make_context(r), r).is_zero

    def test_qint_two_at_r3(self):
        # [2] = q + 1/q = 2 cos(pi/3) = 1 exactly
        ctx = make_context(3)
        assert qint(ctx, 2) == ctx.one

    def test_qint_cache_holds_one_period(self):
        ctx = make_context(3)
        inv_one = brace(ctx, 1).inv()
        _qint_cached.cache_clear()
        for z in range(-2500, 2500):
            assert qint(ctx, z) == brace(ctx, z) * inv_one
        assert _qint_cached.cache_info().currsize <= 2 * ctx.r

    def test_brace_matches_cmath(self):
        for r in (2, 3, 5):
            ctx = make_context(r)
            for z in range(-8, 9):
                expect = cmath.exp(1j * math.pi * z / r) - cmath.exp(-1j * math.pi * z / r)
                assert abs(embed(brace(ctx, z)) - expect) < 1e-11


class TestFieldOperations:
    def test_inv_one(self):
        ctx = make_context(3)
        assert ctx.one.inv() == ctx.one

    def test_q_times_q_inverse(self):
        for r in (2, 3, 4):
            ctx = make_context(r)
            q = zeta_pow(ctx, 2)
            assert q * q.inv() == ctx.one

    def test_inv_brace_one_at_r2(self):
        ctx = make_context(2)
        val = embed(brace(ctx, 1).inv())
        assert abs(val - (-0.5j)) < 1e-12  # 1/(2i)

    def test_inv_zero_raises(self):
        ctx = make_context(2)
        with pytest.raises(ZeroDivisionError):
            ctx.zero.inv()

    def test_mul_against_naive_oracle_and_numeric(self):
        rng = random.Random(20240811)
        for r in (2, 3, 5):
            ctx = make_context(r)
            for _ in range(70):
                a = random_element(ctx, rng)
                b = random_element(ctx, rng)
                prod = a * b
                assert tuple(Fraction(int(c.numerator), int(c.denominator)) for c in prod.coeffs) == oracle_mul(a, b)
                lhs = embed(prod)
                rhs = embed(a) * embed(b)
                assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))

    def test_inv_roundtrip_random(self):
        rng = random.Random(99)
        for r in (2, 3, 5):
            ctx = make_context(r)
            done = 0
            while done < 70:
                x = random_element(ctx, rng, span=4)
                if x.is_zero:
                    continue
                assert x * x.inv() == ctx.one
                done += 1

    def test_pow_negative(self):
        ctx = make_context(3)
        q = zeta_pow(ctx, 2)
        assert q**-3 == (q**3).inv()
        assert q**0 == ctx.one

    def test_scalar_mixing(self):
        ctx = make_context(2)
        q = zeta_pow(ctx, 2)
        assert 2 * q - q == q
        assert (q + 1) - 1 == q
        assert q / q == ctx.one

    def test_context_mixing_rejected(self):
        a = make_context(2).one
        b = make_context(3).one
        with pytest.raises(ValueError):
            a + b


class TestNumericEmbedding:
    def test_zero(self):
        assert embed(make_context(4).zero) == 0

    def test_q_at_r2_is_i(self):
        assert abs(embed(zeta_pow(make_context(2), 2)) - 1j) < 1e-12

    def test_brace_one_r3(self):
        assert abs(embed(brace(make_context(3), 1)) - 2j * math.sin(math.pi / 3)) < 1e-12

    def test_higher_precision(self):
        import mpmath

        ctx = make_context(3)
        val = to_complex(brace(ctx, 1), bits=200)
        with mpmath.workprec(220):
            expect = 2j * mpmath.sin(mpmath.pi / 3)
            assert abs(val - expect) < mpmath.mpf(10) ** -55

    def test_precision_floor(self):
        with pytest.raises(ValueError):
            to_complex(make_context(2).one, bits=10)
