"""Floating-point complex evaluation of q-powers, braces and modified dimensions.

The generic-color companion of :mod:`qplumb.cyclotomic`: colors are complex,
q^z = exp(pi*i*z/r), and everything is computed with mpmath at the context's
working precision (53 bits by default).  It serves limit experiments and
cross-checks of the exact evaluators.
"""

from __future__ import annotations

from functools import lru_cache
from types import SimpleNamespace

import mpmath

from ._record import FrozenRecord
from .errors import PoleError


class NumericContext(FrozenRecord):
    """Order parameter, working precision and comparison tolerance."""

    _fields = ("r", "precision_bits", "tolerance")

    def __init__(self, r: int, precision_bits: int = 53, tolerance: float | None = None):
        for name, n, low in (("r", r, 2), ("precision_bits", precision_bits, 53)):
            if isinstance(n, bool) or not isinstance(n, int) or n < low:
                raise ValueError(f"{name} must be an integer >= {low}, got {n!r}")
        if tolerance is None:
            # relative 1e-9 at double precision, 10^-(bits/8) beyond
            tolerance = 1e-9 if precision_bits == 53 else 10.0 ** -(precision_bits / 8)
        elif tolerance <= 0:
            raise ValueError("tolerance must be positive")
        self._set(r, precision_bits, tolerance)

    def workprec(self):
        return mpmath.workprec(self.precision_bits)


def r_sign(r: int) -> int:
    """The sign (-1)^(r-1) of the modified dimension and the Hopf values."""
    return -1 if (r - 1) % 2 else 1


@lru_cache(maxsize=None)
def _consts(bits: int) -> SimpleNamespace:
    """pi, i*pi, 2i and the pole guard 10^(-bits/4) at ``bits``, for the _*_at
    helpers: they take mpmath numbers and run in the caller's ``workprec``."""
    with mpmath.workprec(bits):
        ipi, guard = mpmath.mpc(0, 1) * mpmath.pi, mpmath.mpf(10) ** (-(bits / 4))
        return SimpleNamespace(pi=+mpmath.pi, ipi=ipi, two_i=mpmath.mpc(0, 2), guard=guard)


def _q_pow_at(c, r: int, z):
    return mpmath.exp(c.ipi * z / r)


def _brace_at(c, r: int, z):
    return c.two_i * mpmath.sin(c.pi * z / r)


def _sin_pi_at(c, a):
    """sin(pi*a), and whether a lies in the pole guard band."""
    s = mpmath.sin(c.pi * a)
    return s, abs(s) < c.guard * max(1, abs(a))


def q_pow(ctx: NumericContext, z) -> mpmath.mpc:
    """q^z = exp(pi*i*z/r) for any complex z."""
    with ctx.workprec():
        return _q_pow_at(_consts(ctx.precision_bits), ctx.r, mpmath.mpmathify(z))


def brace_c(ctx: NumericContext, z) -> mpmath.mpc:
    """{z} = q^z - q^{-z} = 2i sin(pi z / r)."""
    with ctx.workprec():
        return _brace_at(_consts(ctx.precision_bits), ctx.r, mpmath.mpmathify(z))


def qint_c(ctx: NumericContext, z) -> mpmath.mpc:
    """[z] = {z}/{1}."""
    with ctx.workprec():
        c = _consts(ctx.precision_bits)
        return _brace_at(c, ctx.r, mpmath.mpmathify(z)) / _brace_at(c, ctx.r, mpmath.mpf(1))


def is_pole(ctx: NumericContext, alpha) -> bool:
    """Whether alpha falls in the guard band around the integers, where
    sin(pi*alpha) vanishes; the band scales with the precision and with |alpha|.
    """
    with ctx.workprec():
        return _sin_pi_at(_consts(ctx.precision_bits), mpmath.mpmathify(alpha))[1]


def mod_dim(ctx: NumericContext, alpha) -> mpmath.mpc:
    """Modified quantum dimension (-1)^(r-1) * r * {alpha} / {r*alpha}.

    Defined away from the integers; integer alpha (within the precision guard
    band) raises :class:`PoleError` since {r*alpha} vanishes there.  Three
    sines; the closed forms use {r*alpha} = 2i sin(pi*alpha) and take two.
    """
    with ctx.workprec():
        c, r, a = _consts(ctx.precision_bits), ctx.r, mpmath.mpmathify(alpha)
        if _sin_pi_at(c, a)[1]:
            raise PoleError(f"modified dimension has a pole at integer color {alpha}")
        return r_sign(r) * r * _brace_at(c, r, a) / _brace_at(c, r, r * a)


def _dyadic_sum(m0: int, e0: int, m: int, e: int) -> tuple[int, int]:
    """m0*2^e0 + m*2^e, exactly, as (mantissa, exponent)."""
    return (m0 + (m << (e - e0)), e0) if e >= e0 else ((m0 << (e0 - e)) + m, e)


class DyadicPhase:
    """An exact complex exponent Phi of q^Phi = exp(pi*i*Phi/r).

    Binary floats are dyadic rationals, so sums of products of colors are kept
    exactly: each part of Phi is one signed integer mantissa over a running
    binary exponent.  :meth:`value` reduces the real part mod 2r (q^(2r) = 1)
    before it rounds anything, then evaluates one exponential.
    """

    __slots__ = ("re_man", "re_exp", "im_man", "im_exp")

    def __init__(self):
        self.re_man = self.re_exp = self.im_man = self.im_exp = 0

    @staticmethod
    def parts(z) -> tuple[int, int, int, int]:
        """z after mpmathify at the working precision, exactly, as signed
        (re_man, re_exp, im_man, im_exp): re_man*2^re_exp + i*im_man*2^im_exp.
        Infinities and NaN raise ValueError.
        """
        v = mpmath.mpmathify(z)
        if isinstance(v, mpmath.mpc):
            (rsign, rman, rexp, rbc), (isign, iman, iexp, ibc) = v._mpc_
        else:
            (rsign, rman, rexp, rbc), (isign, iman, iexp, ibc) = v._mpf_, (0, 0, 0, 0)
        # (sign, man, exp, bc): zero is all zeros, inf and nan have man 0 and bc != 0
        if (not rman and rbc) or (not iman and ibc):
            raise ValueError(f"colors must be finite, got {z!r}")
        return (-rman if rsign else rman), rexp, (-iman if isign else iman), iexp

    def add_real(self, man: int, exp: int) -> None:
        """Phi += man * 2^exp."""
        self.re_man, self.re_exp = _dyadic_sum(self.re_man, self.re_exp, man, exp)

    def add_imag(self, man: int, exp: int) -> None:
        """Phi += i * man * 2^exp."""
        self.im_man, self.im_exp = _dyadic_sum(self.im_man, self.im_exp, man, exp)

    def add_product(self, a, b, c: int = 1, shift: int = 0) -> None:
        """Phi += c * 2^shift * a * b, for ``a`` and ``b`` given by :meth:`parts`."""
        am, ae, aim, aie = a
        bm, be, bim, bie = b
        if am and bm:
            self.add_real(c * am * bm, ae + be + shift)
        if aim and bim:
            self.add_real(-c * aim * bim, aie + bie + shift)
        if am and bim:
            self.add_imag(c * am * bim, ae + bie + shift)
        if aim and bm:
            self.add_imag(c * aim * bm, aie + be + shift)

    def value(self, ctx: NumericContext) -> mpmath.mpc:
        """q^Phi, rounded once to ``ctx``'s working precision, which the
        caller holds with ``ctx.workprec()``.

        Re Phi is reduced mod 2r exactly.  Each part is rounded once, with as
        many guard bits as |Im Phi| has integer bits, so the one exponential
        keeps its relative accuracy when the modulus exp(-pi Im Phi / r) is
        large or small.
        """
        man, exp = self.re_man, self.re_exp
        if exp >= 0:
            man, exp = (man << exp) % (2 * ctx.r), 0
        else:
            man %= (2 * ctx.r) << -exp
        guard = max(0, self.im_man.bit_length() + self.im_exp)
        with mpmath.workprec(ctx.precision_bits + guard):
            phi = mpmath.mpc(mpmath.mpf((man, exp)), mpmath.mpf((self.im_man, self.im_exp)))
            val = mpmath.expjpi(phi / ctx.r)
        return +val


def qdim_typical_check(ctx: NumericContext, alpha) -> mpmath.mpc:
    """Pivotal trace of K^(r-1) on the r-dimensional module of weight alpha.

    It vanishes identically, which is why the modified dimension is needed;
    it is summed term by term so tests can confirm the cancellation.
    """
    with ctx.workprec():
        c, r, a = _consts(ctx.precision_bits), ctx.r, mpmath.mpmathify(alpha)
        total = mpmath.mpc(0)
        for i in range(r):
            total += _q_pow_at(c, r, (r - 1) * (a + r - 1 - 2 * i))
        return total
