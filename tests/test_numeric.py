"""Numeric-lane tests; expected values come from direct cmath evaluation."""

import cmath
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qplumb.cyclotomic import brace, make_context, to_complex
from qplumb.errors import PoleError
from qplumb.numeric import (
    NumericContext,
    brace_c,
    is_pole,
    mod_dim,
    q_pow,
    qdim_typical_check,
)


def approx(x):
    return complex(x)


class TestContext:
    def test_defaults(self):
        ctx = NumericContext(3)
        assert ctx.precision_bits == 53
        assert ctx.tolerance == 1e-9

    def test_higher_precision_tolerance(self):
        ctx = NumericContext(3, precision_bits=160)
        assert ctx.tolerance == pytest.approx(10.0**-20)

    def test_validation(self):
        with pytest.raises(ValueError):
            NumericContext(1)
        with pytest.raises(ValueError):
            NumericContext(3, precision_bits=16)
        with pytest.raises(ValueError):
            NumericContext(3, tolerance=-1.0)

    def test_rejects_non_integer_r(self):
        with pytest.raises(ValueError):
            NumericContext(2.5)

    def test_rejects_bool_r(self):
        with pytest.raises(ValueError):
            NumericContext(True)


class TestQPow:
    def test_zero(self):
        assert approx(q_pow(NumericContext(5), 0)) == 1

    def test_q_to_r_is_minus_one(self):
        ctx = NumericContext(3)
        assert abs(approx(q_pow(ctx, 3)) + 1) < 1e-12

    def test_half_exponent(self):
        ctx = NumericContext(2)
        expect = cmath.exp(1j * math.pi / 4)
        assert abs(approx(q_pow(ctx, 0.5)) - expect) < 1e-12
        assert abs(approx(q_pow(ctx, 0.5)) - (0.70710678 + 0.70710678j)) < 1e-7

    def test_complex_argument(self):
        ctx = NumericContext(4)
        z = 1.3 - 0.7j
        expect = cmath.exp(1j * math.pi * z / 4)
        assert abs(approx(q_pow(ctx, z)) - expect) < 1e-12


class TestBrace:
    def test_zero_and_r(self):
        ctx = NumericContext(2)
        assert abs(approx(brace_c(ctx, 0))) < 1e-15
        assert abs(approx(brace_c(ctx, 2))) < 1e-12

    def test_value_r2(self):
        assert abs(approx(brace_c(NumericContext(2), 1)) - 2j) < 1e-12

    @given(
        st.complex_numbers(max_magnitude=20, allow_nan=False, allow_infinity=False),
        st.integers(min_value=2, max_value=6),
    )
    @settings(max_examples=80, deadline=None)
    def test_odd(self, z, r):
        ctx = NumericContext(r)
        assert abs(approx(brace_c(ctx, -z)) + approx(brace_c(ctx, z))) < 1e-9 * max(
            1.0, abs(approx(brace_c(ctx, z)))
        )

    def test_agrees_with_exact_brace(self):
        for r in range(2, 7):
            ctx = NumericContext(r)
            ectx = make_context(r)
            for z in range(-4 * r, 4 * r + 1):
                exact = complex(to_complex(brace(ectx, z)))
                assert abs(approx(brace_c(ctx, z)) - exact) < 1e-10 * max(1.0, abs(exact))


class TestModDim:
    def test_value_r2(self):
        # (-1) * 2 * {0.5}/{1} = -2 sin(pi/4)/sin(pi/2) = -sqrt(2)
        val = approx(mod_dim(NumericContext(2), 0.5))
        assert abs(val - (-1.41421356)) < 1e-7

    def test_pole_at_integers(self):
        ctx = NumericContext(3)
        for alpha in (-2, 0, 1, 5):
            with pytest.raises(PoleError):
                mod_dim(ctx, alpha)

    def test_guard_band(self):
        ctx = NumericContext(3)
        assert is_pole(ctx, 1 + 1e-15)
        assert not is_pole(ctx, 1.01)

    def test_defining_identity(self):
        rng = random.Random(4242)
        for r in range(2, 7):
            ctx = NumericContext(r)
            sign = (-1) ** (r - 1)
            for _ in range(100):
                alpha = complex(rng.uniform(-5, 5) + 0.01, rng.uniform(0.05, 2))
                lhs = approx(mod_dim(ctx, alpha)) * approx(brace_c(ctx, r * alpha))
                rhs = sign * r * approx(brace_c(ctx, alpha))
                assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(rhs))

    def test_even_function(self):
        rng = random.Random(7)
        for r in (2, 4, 5):
            ctx = NumericContext(r)
            for _ in range(25):
                alpha = complex(rng.uniform(-3, 3), rng.uniform(0.1, 1.5))
                assert abs(
                    approx(mod_dim(ctx, alpha)) - approx(mod_dim(ctx, -alpha))
                ) < 1e-10 * max(1.0, abs(approx(mod_dim(ctx, alpha))))

    def test_identity_at_declared_point(self):
        ctx = NumericContext(3)
        alpha = 1.5
        lhs = approx(mod_dim(ctx, alpha)) * approx(brace_c(ctx, 3 * alpha))
        rhs = ((-1) ** 2) * 3 * approx(brace_c(ctx, alpha))
        assert abs(lhs - rhs) < 1e-12


class TestQdimTypical:
    @pytest.mark.parametrize(
        "r,alpha", [(2, 0.3), (3, 1.7), (2, 0.9 + 0.4j), (5, -2.2 + 1.1j)]
    )
    def test_vanishes(self, r, alpha):
        assert abs(approx(qdim_typical_check(NumericContext(r), alpha))) < 1e-10

    def test_geometric_sum_oracle(self):
        # The trace telescopes to q^((r-1)alpha) * sum_i q^((r-1)(r-1-2i)),
        # and the pure sum sum_i q^(-2i(r-1)) is a full geometric cycle = 0.
        for r in range(2, 8):
            q = cmath.exp(1j * math.pi / r)
            total = sum(q ** ((-2 * i * (r - 1)) % (2 * r)) for i in range(r))
            assert abs(total) < 1e-10
