"""Reference values for the benchmark's correctness checks.

Imports nothing from qplumb.  Every formula is written out here from the
closed forms and evaluated with mpmath well above double precision, so a
wrong program output cannot agree with it by sharing code with it.

Conventions: q = exp(pi*i/r), zeta = exp(pi*i/(2r)) with zeta^2 = q, and
{z} = q^z - q^-z = 2i sin(pi z / r), so [z] = {z}/{1} = sin(pi z/r)/sin(pi/r).
A graph is a framing map {vertex: int} and a list of (u, w) edges.
"""

from __future__ import annotations

from math import gcd

import mpmath

REF_BITS = 200


def totient(n: int) -> int:
    """Euler's phi, the degree of the n-th cyclotomic field."""
    out, m, p = n, n, 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            out -= out // p
        p += 1
    if m > 1:
        out -= out // m
    return out


def degrees(framing, edges) -> dict:
    deg = {v: 0 for v in framing}
    for u, w in edges:
        deg[u] += 1
        deg[w] += 1
    return deg


def embed(coeffs, r: int) -> mpmath.mpc:
    """Value of sum_k (n_k/d_k) zeta^k for a list of [n_k, d_k] pairs.

    The working precision grows with the coefficients' size, so that
    cancellation between large coefficients cannot eat the result.
    """
    extra = max((abs(n).bit_length() + d.bit_length() for n, d in coeffs), default=0)
    with mpmath.workprec(REF_BITS + extra):
        zeta = mpmath.expjpi(mpmath.mpf(1) / (2 * r))
        acc = mpmath.mpc(0)
        for n, d in reversed(coeffs):
            acc = acc * zeta + mpmath.mpf(n) / d
        return +acc


def is_canonical(pair) -> bool:
    """A coefficient [n, d] is a reduced fraction with a positive denominator."""
    n, d = pair
    return isinstance(n, int) and isinstance(d, int) and d > 0 and gcd(n, d) == 1


def rt_value(r: int, framing, edges, colors) -> mpmath.mpc:
    """RT invariant of a plumbed tree at S-module colors n_v in 0..r-1.

    Product of the twists (-1)^(n f) q^(f (n^2 + 2n)/2), one Hopf factor
    (-1)^(m+n) [(m+1)(n+1)] per edge, and qdim(n)^(1 - deg) per vertex with
    qdim(n) = (-1)^n [n+1].
    """
    deg = degrees(framing, edges)
    with mpmath.workprec(REF_BITS):
        s1 = mpmath.sinpi(mpmath.mpf(1) / r)
        qints = {}

        def qint(k):
            if k not in qints:
                qints[k] = mpmath.sinpi(mpmath.mpf(k % (2 * r)) / r) / s1
            return qints[k]

        val = mpmath.mpc(1)
        for v, f in framing.items():
            n = colors[v]
            # q^(f(n^2+2n)/2) = zeta^(f(n^2+2n)); zeta has order 4r
            k = (f * (n * n + 2 * n)) % (4 * r)
            twist = mpmath.expjpi(mpmath.mpf(k) / (2 * r))
            val *= -twist if (n * f) % 2 else twist
            if deg[v] != 1:
                qdim = -qint(n + 1) if n % 2 else qint(n + 1)
                val *= qdim ** (1 - deg[v])
        for u, w in edges:
            m, n = colors[u], colors[w]
            hopf = qint((m + 1) * (n + 1))
            val *= -hopf if (m + n) % 2 else hopf
        return +val


def identity_lhs(r: int, framing, edges, x) -> mpmath.mpc:
    """Left-hand side of the identity: RT at colors r-1-x."""
    return rt_value(r, framing, edges, {v: r - 1 - xv for v, xv in x.items()})


def rn_value(r: int, framing, edges, alphas) -> mpmath.mpc:
    """Re-normalized invariant at complex colors off the integers.

    Product of the twists q^(f (a^2 - (r-1)^2)/2), one factor
    (-1)^(r-1) r q^(a_u a_w) per edge, and d(a)^(1 - deg) per vertex with the
    modified dimension d(a) = (-1)^(r-1) r {a}/{r a}
    = (-1)^(r-1) r sin(pi a/r)/sin(pi a).
    """
    deg = degrees(framing, edges)
    sign = -1 if (r - 1) % 2 else 1
    with mpmath.workprec(REF_BITS):
        a = {v: mpmath.mpmathify(alphas[v]) for v in framing}
        val = mpmath.mpc(1)
        for v, f in framing.items():
            val *= mpmath.expjpi(f * (a[v] * a[v] - (r - 1) ** 2) / (2 * r))
            if deg[v] != 1:
                mod_dim = sign * r * mpmath.sinpi(a[v] / r) / mpmath.sinpi(a[v])
                val *= mod_dim ** (1 - deg[v])
        for u, w in edges:
            val *= sign * r * mpmath.expjpi(a[u] * a[w] / r)
        return +val


def rel_err(value, ref, floor: float = 0.0) -> float:
    """|value - ref| / max(floor, |ref|), at the reference precision."""
    with mpmath.workprec(REF_BITS):
        scale = max(mpmath.mpf(floor), abs(ref))
        if scale == 0:
            return 0.0 if value == ref else float("inf")
        return float(abs(mpmath.mpmathify(value) - ref) / scale)
