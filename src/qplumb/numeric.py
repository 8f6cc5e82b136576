"""Floating-point complex evaluation of q-powers, braces and modified dimensions.

This is the generic-color companion of :mod:`qplumb.cyclotomic`: colors are
arbitrary complex numbers, q^z = exp(pi*i*z/r), and everything is computed
with mpmath at the context's working precision (53 bits, i.e. double, by
default).  It is the lane used for limit experiments and for cross-checking
the exact evaluators.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import mpmath

from .errors import PoleError


@dataclass(frozen=True)
class NumericContext:
    """Order parameter, working precision and comparison tolerance."""

    r: int
    precision_bits: int = 53
    tolerance: float | None = None

    def __post_init__(self):
        if isinstance(self.r, bool) or not isinstance(self.r, int) or self.r < 2:
            raise ValueError(f"r must be an integer >= 2, got {self.r!r}")
        if self.precision_bits < 53:
            raise ValueError("precision_bits must be at least 53")
        if self.tolerance is None:
            # relative 1e-9 at double precision, 10^-(bits/8) beyond
            tol = 1e-9 if self.precision_bits == 53 else 10.0 ** -(self.precision_bits / 8)
            object.__setattr__(self, "tolerance", tol)
        elif self.tolerance <= 0:
            raise ValueError("tolerance must be positive")

    def workprec(self):
        return mpmath.workprec(self.precision_bits)


def r_sign(r: int) -> int:
    """The sign (-1)^(r-1) of the modified dimension and the Hopf values."""
    return -1 if (r - 1) % 2 else 1


def q_pow(ctx: NumericContext, z) -> mpmath.mpc:
    """q^z = exp(pi*i*z/r) for any complex z."""
    with ctx.workprec():
        return +mpmath.exp(mpmath.mpc(0, 1) * mpmath.pi * mpmath.mpmathify(z) / ctx.r)


def brace_c(ctx: NumericContext, z) -> mpmath.mpc:
    """{z} = q^z - q^{-z} = 2i sin(pi z / r)."""
    with ctx.workprec():
        return +(mpmath.mpc(0, 2) * mpmath.sin(mpmath.pi * mpmath.mpmathify(z) / ctx.r))


def qint_c(ctx: NumericContext, z) -> mpmath.mpc:
    """[z] = {z}/{1}."""
    with ctx.workprec():
        return +(brace_c(ctx, z) / brace_c(ctx, 1))


@lru_cache(maxsize=None)
def _pole_guard(bits: int) -> mpmath.mpf:
    with mpmath.workprec(bits):
        return mpmath.mpf(10) ** (-(bits / 4))


def is_pole(ctx: NumericContext, alpha) -> bool:
    """Whether alpha falls in the guard band around the integers.

    The singular set of the modified dimension is where sin(pi*alpha)
    vanishes; the band width scales with both the working precision and the
    magnitude of alpha so that classification stays robust for large colors.
    """
    with ctx.workprec():
        a = mpmath.mpmathify(alpha)
        guard = _pole_guard(ctx.precision_bits)
        return abs(mpmath.sin(mpmath.pi * a)) < guard * max(1, abs(a))


def mod_dim(ctx: NumericContext, alpha) -> mpmath.mpc:
    """Modified quantum dimension (-1)^(r-1) * r * {alpha} / {r*alpha}.

    Defined away from the integers; integer alpha (within the precision guard
    band) raises :class:`PoleError` since {r*alpha} vanishes there.
    """
    if is_pole(ctx, alpha):
        raise PoleError(f"modified dimension has a pole at integer color {alpha}")
    with ctx.workprec():
        return +(r_sign(ctx.r) * ctx.r * brace_c(ctx, alpha) / brace_c(ctx, ctx.r * mpmath.mpmathify(alpha)))


class DyadicPhase:
    """An exact complex exponent Phi of q^Phi = exp(pi*i*Phi/r).

    A binary float is a dyadic rational, so sums of products of colors are
    kept exactly: each part of Phi is one signed integer mantissa over a
    running binary exponent.  :meth:`value` reduces the real part mod 2r
    (q^(2r) = 1) before it rounds anything, so the value is accurate however
    large the framings, and then evaluates one exponential.
    """

    __slots__ = ("re_man", "re_exp", "im_man", "im_exp")

    def __init__(self):
        self.re_man = self.re_exp = self.im_man = self.im_exp = 0

    @staticmethod
    def parts(z) -> tuple[int, int, int, int]:
        """z after mpmathify at the working precision, exactly, as
        (re_man, re_exp, im_man, im_exp): re_man*2^re_exp + i*im_man*2^im_exp.

        mpmath keeps the sign apart from the mantissa; it is folded in here.
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
        if exp >= self.re_exp:
            self.re_man += man << (exp - self.re_exp)
        else:
            self.re_man = (self.re_man << (self.re_exp - exp)) + man
            self.re_exp = exp

    def add_imag(self, man: int, exp: int) -> None:
        """Phi += i * man * 2^exp."""
        if exp >= self.im_exp:
            self.im_man += man << (exp - self.im_exp)
        else:
            self.im_man = (self.im_man << (self.im_exp - exp)) + man
            self.im_exp = exp

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
        """q^Phi, rounded once to the working precision.

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
        with ctx.workprec():
            return +val


def qdim_typical_check(ctx: NumericContext, alpha) -> mpmath.mpc:
    """Pivotal trace of K^(r-1) on the r-dimensional module of weight alpha.

    Vanishes identically (the geometric sum over the weights telescopes to
    zero), which is exactly why the modified dimension is needed; returned
    unsimplified so tests can confirm the cancellation numerically.
    """
    with ctx.workprec():
        a = mpmath.mpmathify(alpha)
        total = mpmath.mpc(0)
        for i in range(ctx.r):
            total += q_pow(ctx, (ctx.r - 1) * (a + ctx.r - 1 - 2 * i))
        return +total
