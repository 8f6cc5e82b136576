"""Exact arithmetic in the cyclotomic field Q(zeta), zeta = exp(pi*i/(2r)).

zeta is the principal primitive 4r-th root of unity and q = zeta^2, so every
half-integer power of q (framing twists have exponents in (1/2)Z) is an honest
field element.  An element is stored as the coefficient vector of a rational
polynomial in zeta reduced modulo the 4r-th cyclotomic polynomial; the
representation is canonical, so equality is coefficient comparison and the
exact identity checks elsewhere in the package reduce to tuple equality.

Coefficients are arbitrary-precision rationals (gmpy2.mpq when available,
fractions.Fraction otherwise); no floating point enters any exact operation.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from numbers import Rational

import mpmath

from .errors import PoleError

try:  # gmpy2 rationals are several times faster; the stdlib is a full fallback
    from gmpy2 import mpq as _Rat
except ImportError:  # pragma: no cover
    _Rat = Fraction

_ZERO = _Rat(0)
_ONE = _Rat(1)


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
        """zeta^k reduced mod phi_poly, k = 0 .. max(2*degree - 2, conductor - 1)."""
        d = self.degree
        top = max(2 * d - 2, self.conductor - 1)
        rows = [[0] * d for _ in range(top + 1)]
        for k in range(min(d, top + 1)):
            rows[k][k] = 1
        if top >= d:
            rows[d] = [-c for c in self.phi_poly[:d]]
            for k in range(d + 1, top + 1):
                prev = rows[k - 1]
                nxt = [0] + prev[: d - 1]
                carry = prev[d - 1]
                if carry:
                    base = rows[d]
                    for j in range(d):
                        nxt[j] += carry * base[j]
                rows[k] = nxt
        return tuple(tuple(row) for row in rows)

    def _make(self, coeffs) -> "CycNumber":
        return CycNumber(self, tuple(coeffs), _internal=True)

    def scalar(self, value) -> "CycNumber":
        """Embed a rational number into the field."""
        c = _Rat(value) if not isinstance(value, type(_ZERO)) else value
        return self._make((c,) + (_ZERO,) * (self.degree - 1))

    @cached_property
    def zero(self) -> "CycNumber":
        return self.scalar(0)

    @cached_property
    def one(self) -> "CycNumber":
        return self.scalar(1)

    def __repr__(self):
        return f"RootContext(r={self.r})"


def make_context(r: int) -> RootContext:
    """Context for the 2r-th root of unity q = exp(pi*i/r), carried in Q(zeta_{4r})."""
    return RootContext(r)


def _coerce_rat(value):
    if isinstance(value, type(_ZERO)):
        return value
    if isinstance(value, (int, Rational)):
        return _Rat(value)
    return None


class CycNumber:
    """Element of Q(zeta_{4r}) in canonical reduced form.

    Immutable; supports +, -, *, /, ** (integer exponents, negative allowed),
    and exact equality.  Mixed arithmetic with ints and rationals works.
    """

    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx: RootContext, coeffs, _internal: bool = False):
        if not _internal:
            coeffs = tuple(_Rat(c) for c in coeffs)
            if len(coeffs) != ctx.degree:
                raise ValueError(f"expected {ctx.degree} coefficients, got {len(coeffs)}")
        self.ctx = ctx
        self.coeffs = coeffs

    # -- helpers ---------------------------------------------------------

    def _check(self, other) -> "CycNumber | None":
        if isinstance(other, CycNumber):
            if other.ctx.r != self.ctx.r:
                raise ValueError("cannot mix elements from different root contexts")
            return other
        c = _coerce_rat(other)
        if c is None:
            return None
        return self.ctx.scalar(c)

    @property
    def is_zero(self) -> bool:
        return not any(self.coeffs)

    # -- ring operations -------------------------------------------------

    def __add__(self, other):
        o = self._check(other)
        if o is None:
            return NotImplemented
        return self.ctx._make(a + b for a, b in zip(self.coeffs, o.coeffs))

    __radd__ = __add__

    def __neg__(self):
        return self.ctx._make(-a for a in self.coeffs)

    def __sub__(self, other):
        o = self._check(other)
        if o is None:
            return NotImplemented
        return self.ctx._make(a - b for a, b in zip(self.coeffs, o.coeffs))

    def __rsub__(self, other):
        o = self._check(other)
        if o is None:
            return NotImplemented
        return o - self

    def scale(self, c) -> "CycNumber":
        """Multiply by the rational c coefficient by coefficient: O(degree)."""
        k = _coerce_rat(c)
        if k is None:
            raise TypeError(f"scale needs a rational factor, got {c!r}")
        return self.ctx._make(a * k for a in self.coeffs)

    def __mul__(self, other):
        if not isinstance(other, CycNumber):
            return NotImplemented if _coerce_rat(other) is None else self.scale(other)
        if other.ctx.r != self.ctx.r:
            raise ValueError("cannot mix elements from different root contexts")
        a, b = self.coeffs, other.coeffs
        d = self.ctx.degree
        conv = [_ZERO] * (2 * d - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    if bj:
                        conv[i + j] += ai * bj
        rows = self.ctx._power_rows
        out = list(conv[:d])
        for k in range(d, 2 * d - 1):
            c = conv[k]
            if c:
                row = rows[k]
                for j in range(d):
                    if row[j]:
                        out[j] += c * row[j]
        return self.ctx._make(out)

    __rmul__ = __mul__

    def inv(self) -> "CycNumber":
        """Multiplicative inverse, by the extended Euclidean algorithm mod phi."""
        if self.is_zero:
            raise ZeroDivisionError("inverse of zero in Q(zeta)")
        # Work over Q[x]: gcd(self, phi) is a nonzero constant since phi is irreducible.
        r0 = [_Rat(c) for c in self.ctx.phi_poly]
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
        c = r1[0]
        d = self.ctx.degree
        inv_coeffs = [si / c for si in s1]
        # s1 may exceed the field degree; reduce it mod phi.
        rows = self.ctx._power_rows
        out = [_ZERO] * d
        for k, ck in enumerate(inv_coeffs):
            if ck:
                row = rows[k]
                for j in range(d):
                    if row[j]:
                        out[j] += ck * row[j]
        return self.ctx._make(out)

    def __truediv__(self, other):
        o = self._check(other)
        if o is None:
            return NotImplemented
        return self * o.inv()

    def __rtruediv__(self, other):
        o = self._check(other)
        if o is None:
            return NotImplemented
        return o * self.inv()

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
        if o is None:
            return NotImplemented
        return self.coeffs == o.coeffs

    def __hash__(self):
        return hash((self.ctx.r, self.coeffs))

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
    n = max(len(a), len(b))
    a = list(a) + [_ZERO] * (n - len(a))
    b = list(b) + [_ZERO] * (n - len(b))
    return [x - y for x, y in zip(a, b)]


@functools.lru_cache(maxsize=None)
def _zeta_reduced(ctx: RootContext, k: int) -> CycNumber:
    row = ctx._power_rows[k]
    return ctx._make(_Rat(c) for c in row)


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
    return _brace_cached(ctx, two_z).inv()


def brace_inv(ctx: RootContext, z) -> CycNumber:
    """1/{z}, from a table filled on first use.

    {z + r} = -{z}, so the table is keyed by 2z mod 2r and holds at most 2r
    entries per context; each entry costs one inversion per process.  A
    vanishing {z} (z a multiple of r) raises :class:`PoleError`.
    """
    two_z = _brace_two_z(z) % ctx.conductor
    half = 2 * ctx.r
    if two_z % half == 0:
        raise PoleError(f"{{{z}}} vanishes at r = {ctx.r}; it has no inverse")
    if two_z < half:
        return _brace_inv_cached(ctx, two_z)
    return -_brace_inv_cached(ctx, two_z - half)


@functools.lru_cache(maxsize=None)
def _qint_cached(ctx: RootContext, z) -> CycNumber:
    return brace(ctx, z) * brace_inv(ctx, 1)


def qint(ctx: RootContext, z: int) -> CycNumber:
    """Quantum integer [z] = {z}/{1}; cached on z mod 2r, the period of {z}."""
    return _qint_cached(ctx, z % (2 * ctx.r))


def to_complex(x: CycNumber, bits: int = 53) -> mpmath.mpc:
    """Numeric embedding at the principal root zeta = exp(pi*i/(2r)).

    The polynomial is evaluated at the requested working precision (>= 53 bits),
    so the result is reliable even when the rational coefficients are large.
    """
    if bits < 53:
        raise ValueError("bits must be at least 53")
    with mpmath.workprec(bits):
        zeta = mpmath.exp(mpmath.mpc(0, 1) * mpmath.pi / (2 * x.ctx.r))
        acc = mpmath.mpc(0)
        for c in reversed(x.coeffs):
            acc = acc * zeta
            if c:
                acc += mpmath.mpf(int(c.numerator)) / int(c.denominator)
        return +acc
