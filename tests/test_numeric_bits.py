"""The numeric primitives return the very bits they returned before the lane
moved its constants into one table per precision.

For each primitive and precision, the pinned digest covers the signed
(mantissa, exponent) pairs of the real and imaginary parts of every value on
20 seeded complex colors at r = 2, 3, 5, 7.  The digests were recorded from
the code at commit b14ba2b, before that change.
"""

import hashlib
import random

import pytest

from qplumb.invariants import rn_hopf, rn_twist
from qplumb.numeric import NumericContext, brace_c, mod_dim, q_pow, qint_c

_rng = random.Random(9090)
COLORS = [complex(_rng.uniform(-3, 3), _rng.uniform(-1, 1)) for _ in range(20)]

PRIMITIVES = {
    "q_pow": lambda ctx, i, a: q_pow(ctx, a),
    "brace_c": lambda ctx, i, a: brace_c(ctx, a),
    "qint_c": lambda ctx, i, a: qint_c(ctx, a),
    "mod_dim": lambda ctx, i, a: mod_dim(ctx, a),
    "rn_twist": lambda ctx, i, a: rn_twist(ctx, a, i % 7 - 3),
    "rn_hopf": lambda ctx, i, a: rn_hopf(ctx, a, COLORS[i - 1]),
}


def _signed(x):
    man, exp = x.man_exp
    return (-man if x < 0 else man, exp)


def _digest(name, bits):
    pairs = []
    for r in (2, 3, 5, 7):
        ctx = NumericContext(r, precision_bits=bits)
        for i, a in enumerate(COLORS):
            value = PRIMITIVES[name](ctx, i, a)
            pairs.append((_signed(value.real), _signed(value.imag)))
    return hashlib.sha256(repr(pairs).encode()).hexdigest()[:16]


PINNED = {
    ("q_pow", 53): "7f1c9319af7ea518",
    ("q_pow", 120): "88c599b5cc49a379",
    ("brace_c", 53): "22e1c5d297ac2dac",
    ("brace_c", 120): "4b838ad43a7aa718",
    ("qint_c", 53): "c0a6fc2dee2ade2a",
    ("qint_c", 120): "2b7e613917a25b7c",
    ("mod_dim", 53): "5f170ffb9ecfb5dd",
    ("mod_dim", 120): "066d50a68396b338",
    ("rn_twist", 53): "b2b9747444f582b8",
    ("rn_twist", 120): "069c6094efdc22af",
    ("rn_hopf", 53): "795311d70cbc8970",
    ("rn_hopf", 120): "5422c14208dd9d3a",
}


@pytest.mark.parametrize("name, bits", sorted(PINNED))
def test_bits_match_the_recorded_values(name, bits):
    assert _digest(name, bits) == PINNED[name, bits]
