"""Exact arithmetic in the cyclotomic field Q(zeta), zeta = exp(pi*i/(2r)).

zeta is the principal primitive 4r-th root of unity and q = zeta^2, so every
half-integer power of q (framing twists have exponents in (1/2)Z) is an honest
field element.  An element is its polynomial in zeta reduced modulo the 4r-th
cyclotomic polynomial, stored as d = phi(4r) integer numerators ``num`` over
one denominator ``den`` > 0 with gcd(den, *num) = 1 (zero is zeros over 1).
The form is canonical, so equality is tuple comparison, and the exact identity
checks elsewhere in the package reduce to it.  Only `inv` goes through
fractions.Fraction; no floating point enters any exact operation.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import zip_longest
from math import gcd, lcm
from numbers import Rational

import mpmath

from .errors import PoleError

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _poly_div_exact(num, den):
    """Divide integer polynomials (ascending coeffs), den monic, no remainder."""
    num = list(num)
    dd = len(den) - 1
    out = [0] * (len(num) - dd)
    for k in range(len(num) - 1, dd - 1, -1):
        c = num[k]
        if c:
            out[k - dd] = c
            for j in range(dd + 1):
                num[k - dd + j] -= c * den[j]
    if any(num):
        raise ArithmeticError("polynomial division left a remainder")
    return out


@functools.lru_cache(maxsize=None)
def cyclotomic_poly(n: int) -> tuple[int, ...]:
    """Integer coefficients (ascending) of the n-th cyclotomic polynomial.

    Computed by the divisor recursion: x^n - 1 divided by the product of the
    cyclotomic polynomials of the proper divisors of n.
    """
    if n < 1:
        raise ValueError("n must be positive")
    if n == 1:
        return (-1, 1)
    num = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            num = _poly_div_exact(num, cyclotomic_poly(d))
    return tuple(num)


@dataclass(frozen=True)
class RootContext:
    """Order parameter r >= 2 together with the precomputed data for Q(zeta_{4r})."""

    r: int

    def __post_init__(self):
        if not isinstance(self.r, int) or self.r < 2:
            raise ValueError(
                f"r must be an integer >= 2, got {self.r!r} "
                "(r = 1 makes the normalizing factor {1} = q - 1/q vanish)"
            )

    @property
    def conductor(self) -> int:
        return 4 * self.r

    @cached_property
    def phi_poly(self) -> tuple[int, ...]:
        return cyclotomic_poly(self.conductor)

    @cached_property
    def degree(self) -> int:
        return len(self.phi_poly) - 1

    @cached_property
    def _power_rows(self) -> tuple[tuple[int, ...], ...]:
        """zeta^k reduced mod phi_poly, k = 0 .. conductor - 1."""
        d = self.degree
        rows = [(0,) * k + (1,) + (0,) * (d - k - 1) for k in range(d)]
        low = [-c for c in self.phi_poly[:d]]
        for _ in range(d, self.conductor):
            c, shifted = rows[-1][-1], (0,) + rows[-1][:-1]
            rows.append(tuple([a + c * b for a, b in zip(shifted, low)]) if c else shifted)
        return tuple(rows)

    def scalar(self, value) -> "CycNumber":
        """Embed a rational number into the field."""
        c = Fraction(value)
        return _raw(self, (c.numerator,) + (0,) * (self.degree - 1), c.denominator)

    @cached_property
    def zero(self) -> "CycNumber":
        return self.scalar(0)

    @cached_property
    def one(self) -> "CycNumber":
        return self.scalar(1)


def make_context(r: int) -> RootContext:
    """Context for the 2r-th root of unity q = exp(pi*i/r), carried in Q(zeta_{4r})."""
    return RootContext(r)


def _coerce_rat(value):
    if isinstance(value, (int, Rational)):
        return Fraction(value)
    return None


def _raw(ctx: RootContext, num: tuple, den: int) -> "CycNumber":
    """Wrap numerators and a denominator already in canonical form."""
    x = object.__new__(CycNumber)
    x.ctx, x.num, x.den = ctx, num, den
    return x


def _canonical(ctx: RootContext, num: list, den: int) -> "CycNumber":
    """Canonical form of num/den for den > 0: divide out gcd(den, *num)."""
    g = gcd(den, *num)
    if g != 1:
        num = [n // g for n in num]
        den //= g
    return _raw(ctx, tuple(num), den)


def _mod_phi(ctx: RootContext, conv: list) -> list:
    """Integer coefficients of degree below 4r, reduced to the d of the field:
    zeta^(2r) = -1 folds the top half down, rows of zeta^k clear d .. 2r-1."""
    d, h = ctx.degree, 2 * ctx.r
    out = conv[:h] + [0] * (d - len(conv))
    for k in range(h, len(conv)):
        out[k - h] -= conv[k]
    top = out[d:]
    del out[d:]
    for k, c in enumerate(top, d):
        if c:
            out = [o + c * x for o, x in zip(out, ctx._power_rows[k])]
    return out


class CycNumber:
    """Element of Q(zeta_{4r}) in canonical reduced form.

    Immutable; supports +, -, *, /, ** (integer exponents, negative allowed),
    and exact equality.  Mixed arithmetic with ints and rationals works.
    """

    __slots__ = ("ctx", "num", "den")

    def __init__(self, ctx: RootContext, coeffs):
        coeffs = [Fraction(c) for c in coeffs]
        if len(coeffs) != ctx.degree:
            raise ValueError(f"expected {ctx.degree} coefficients, got {len(coeffs)}")
        den = lcm(*(c.denominator for c in coeffs))
        self.ctx, self.den = ctx, den
        self.num = tuple(c.numerator * (den // c.denominator) for c in coeffs)

    # -- helpers ---------------------------------------------------------

    def _check(self, other) -> "CycNumber | None":
        if isinstance(other, CycNumber):
            if other.ctx.r != self.ctx.r:
                raise ValueError("cannot mix elements from different root contexts")
            return other
        c = _coerce_rat(other)
        return None if c is None else self.ctx.scalar(c)

    def pairs(self) -> list:
        """Each coefficient as (numerator, denominator) in lowest terms."""
        den = self.den
        return [(n // g, den // g) for n in self.num for g in (gcd(n, den),)]

    @property
    def coeffs(self) -> tuple:
        """The d coefficients as Fractions in lowest terms."""
        return tuple(Fraction(n, self.den) for n in self.num)

    @property
    def is_zero(self) -> bool:
        return not any(self.num)

    # -- ring operations -------------------------------------------------

    def _add(self, o: "CycNumber", sign: int) -> "CycNumber":
        da, db = self.den, o.den
        if da == db:
            return _canonical(self.ctx, [a + sign * b for a, b in zip(self.num, o.num)], da)
        den = da // gcd(da, db) * db
        fa, fb = den // da, sign * (den // db)
        return _canonical(self.ctx, [a * fa + b * fb for a, b in zip(self.num, o.num)], den)

    def __add__(self, other):
        o = self._check(other)
        return NotImplemented if o is None else self._add(o, 1)

    __radd__ = __add__

    def __neg__(self):
        return _raw(self.ctx, tuple(-a for a in self.num), self.den)

    def __sub__(self, other):
        o = self._check(other)
        return NotImplemented if o is None else self._add(o, -1)

    def __rsub__(self, other):
        o = self._check(other)
        return NotImplemented if o is None else o._add(self, -1)

    def scale(self, c) -> "CycNumber":
        """Multiply by the rational c coefficient by coefficient: O(degree)."""
        k = _coerce_rat(c)
        if k is None:
            raise TypeError(f"scale needs a rational factor, got {c!r}")
        p = k.numerator
        return _canonical(self.ctx, [a * p for a in self.num], self.den * k.denominator)

    def __mul__(self, other):
        if not isinstance(other, CycNumber):
            return NotImplemented if _coerce_rat(other) is None else self.scale(other)
        if other.ctx.r != self.ctx.r:
            raise ValueError("cannot mix elements from different root contexts")
        ctx = self.ctx
        conv = [0] * (2 * ctx.degree - 1)
        nonzero = [(j, b) for j, b in enumerate(other.num) if b]
        for i, a in enumerate(self.num):
            if a:
                for j, b in nonzero:
                    conv[i + j] += a * b
        return _canonical(ctx, _mod_phi(ctx, conv), self.den * other.den)

    __rmul__ = __mul__

    def inv(self) -> "CycNumber":
        """Multiplicative inverse, by the extended Euclidean algorithm mod phi."""
        if self.is_zero:
            raise ZeroDivisionError("inverse of zero in Q(zeta)")
        # Work over Q[x]: gcd(self, phi) is a nonzero constant since phi is irreducible.
        r0 = [Fraction(c) for c in self.ctx.phi_poly]
        r1 = list(self.coeffs)
        s0, s1 = [_ZERO], [_ONE]
        while True:
            while r1 and not r1[-1]:
                r1.pop()
            if len(r1) == 1:
                break
            q, rem = _poly_divmod(r0, r1)
            r0, r1 = r1, rem
            s0, s1 = s1, _poly_sub(s0, _poly_mul(q, s1))
        s1 = [si / r1[0] for si in s1]
        den = lcm(*(c.denominator for c in s1))
        conv = [c.numerator * (den // c.denominator) for c in s1]
        return _canonical(self.ctx, _mod_phi(self.ctx, conv), den)

    def __truediv__(self, other):
        o = self._check(other)
        return NotImplemented if o is None else self * o.inv()

    def __rtruediv__(self, other):
        o = self._check(other)
        return NotImplemented if o is None else o * self.inv()

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int):
            return NotImplemented
        base = self
        if exponent < 0:
            base = self.inv()
            exponent = -exponent
        result = None
        while exponent:
            if exponent & 1:
                result = base if result is None else result * base
            exponent >>= 1
            if exponent:
                base = base * base
        return self.ctx.one if result is None else result

    # -- comparison ------------------------------------------------------

    def __eq__(self, other):
        o = self._check(other)
        return NotImplemented if o is None else self.num == o.num and self.den == o.den

    def __hash__(self):
        return hash((self.ctx.r, self.num, self.den))

    def __complex__(self):
        return complex(to_complex(self))

    def __repr__(self):
        return f"CycNumber(r={self.ctx.r}, {self.as_poly_str()})"

    def as_poly_str(self) -> str:
        """Human-readable polynomial in zeta, e.g. '1/2 - z^3'."""
        terms = []
        for k, c in enumerate(self.coeffs):
            if not c:
                continue
            mono = "1" if k == 0 else ("z" if k == 1 else f"z^{k}")
            if k == 0:
                terms.append(str(c))
            elif c == 1:
                terms.append(mono)
            elif c == -1:
                terms.append(f"-{mono}")
            else:
                terms.append(f"{c}*{mono}")
        if not terms:
            return "0"
        out = terms[0]
        for t in terms[1:]:
            out += f" - {t[1:]}" if t.startswith("-") else f" + {t}"
        return out


def _poly_divmod(num, den):
    """Quotient and remainder of rational coefficient lists (ascending)."""
    num = list(num)
    dd = len(den) - 1
    lead = den[-1]
    if len(num) - 1 < dd:
        return [_ZERO], num
    q = [_ZERO] * (len(num) - dd)
    for k in range(len(num) - 1, dd - 1, -1):
        c = num[k]
        if c:
            f = c / lead
            q[k - dd] = f
            for j in range(dd + 1):
                num[k - dd + j] -= f * den[j]
    return q, num[:dd]


def _poly_mul(a, b):
    out = [_ZERO] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                if bj:
                    out[i + j] += ai * bj
    return out


def _poly_sub(a, b):
    return [x - y for x, y in zip_longest(a, b, fillvalue=_ZERO)]


@functools.lru_cache(maxsize=None)
def _zeta_reduced(ctx: RootContext, k: int) -> CycNumber:
    return _raw(ctx, ctx._power_rows[k], 1)


def zeta_pow(ctx: RootContext, k: int) -> CycNumber:
    """zeta^k in canonical form; zeta_pow(ctx, 2k) is q^k and exponents wrap mod 4r."""
    return _zeta_reduced(ctx, k % ctx.conductor)


def q_pow(ctx: RootContext, z) -> CycNumber:
    """q^z for integer or half-integer z (an exact element of Q(zeta))."""
    two_z = Fraction(z) * 2
    if two_z.denominator != 1:
        raise ValueError(f"q^{z} is not an element of Q(zeta_(4r)); need 2*{z} integral")
    return zeta_pow(ctx, int(two_z))


def _brace_two_z(z) -> int:
    if isinstance(z, int):
        return 2 * z
    two_z = Fraction(z) * 2
    if two_z.denominator != 1:
        raise ValueError(f"brace needs an integer or half-integer argument, got {z}")
    return int(two_z)


@functools.lru_cache(maxsize=None)
def _brace_cached(ctx: RootContext, two_z: int) -> CycNumber:
    return zeta_pow(ctx, two_z) - zeta_pow(ctx, -two_z)


def brace(ctx: RootContext, z) -> CycNumber:
    """{z} = q^z - q^{-z} for integer or half-integer z."""
    return _brace_cached(ctx, _brace_two_z(z) % ctx.conductor)


@functools.lru_cache(maxsize=None)
def _brace_inv_cached(ctx: RootContext, two_z: int) -> CycNumber:
    # {z} = q^-z (w - 1) with w = q^2z; w^n = 1 != w, so (w - 1) * sum_{k<n} k w^k = n
    n = ctx.conductor
    poly = [0] * n
    for k in range(1, n):
        poly[two_z * (2 * k + 1) % n] += k
    return _canonical(ctx, _mod_phi(ctx, poly), n)


def brace_inv(ctx: RootContext, z) -> CycNumber:
    """1/{z}, from a table filled on first use.

    {z + r} = -{z}, so the table is keyed by 2z mod 2r and holds at most 2r
    entries per context.  Each entry is the closed form
    1/{z} = (1/4r) sum_{k=1}^{4r-1} k q^(z(2k+1)), summed in integers without
    an inversion.  A vanishing {z} (z a multiple of r) raises
    :class:`PoleError`.
    """
    two_z = _brace_two_z(z) % ctx.conductor
    half = 2 * ctx.r
    if two_z % half == 0:
        raise PoleError(f"{{{z}}} vanishes at r = {ctx.r}; it has no inverse")
    if two_z < half:
        return _brace_inv_cached(ctx, two_z)
    return -_brace_inv_cached(ctx, two_z - half)


@functools.lru_cache(maxsize=None)
def inv_brace_one(ctx: RootContext) -> CycNumber:
    """1/{1}, inverted on its own and not read from the :func:`brace_inv`
    table, so that qint and the Hopf value stay independent of that table."""
    return brace(ctx, 1).inv()


@functools.lru_cache(maxsize=None)
def _qint_cached(ctx: RootContext, z) -> CycNumber:
    return brace(ctx, z) * inv_brace_one(ctx)


def qint(ctx: RootContext, z: int) -> CycNumber:
    """Quantum integer [z] = {z}/{1}; cached on z mod 2r, the period of {z}."""
    return _qint_cached(ctx, z % (2 * ctx.r))


@functools.lru_cache(maxsize=4096)
def to_complex(x: CycNumber, bits: int = 53) -> mpmath.mpc:
    """Numeric embedding at the principal root zeta = exp(pi*i/(2r)).

    The polynomial is evaluated at the requested working precision (>= 53 bits),
    so the result is reliable even when the rational coefficients are large.
    The last 4096 embeddings are kept: the form of x is canonical, so a repeated
    value gets the same bits as a fresh evaluation, without the evaluation.
    """
    if bits < 53:
        raise ValueError("bits must be at least 53")
    with mpmath.workprec(bits):
        zeta = mpmath.exp(mpmath.mpc(0, 1) * mpmath.pi / (2 * x.ctx.r))
        acc = mpmath.mpc(0)
        for n, d in reversed(x.pairs()):
            acc = acc * zeta
            if n:
                acc += mpmath.mpf(n) / d
        return +acc
