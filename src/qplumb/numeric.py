"""Floating-point complex evaluation of q-powers, braces and modified dimensions.

This is the generic-color companion of :mod:`qplumb.cyclotomic`: colors are
arbitrary complex numbers, q^z = exp(pi*i*z/r), and everything is computed
with mpmath at the context's working precision (53 bits, i.e. double, by
default).  It is the lane used for limit experiments and for cross-checking
the exact evaluators.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def is_pole(ctx: NumericContext, alpha) -> bool:
    """Whether alpha falls in the guard band around the integers.

    The singular set of the modified dimension is where sin(pi*alpha)
    vanishes; the band width scales with both the working precision and the
    magnitude of alpha so that classification stays robust for large colors.
    """
    with ctx.workprec():
        a = mpmath.mpmathify(alpha)
        guard = mpmath.mpf(10) ** (-(ctx.precision_bits / 4))
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
