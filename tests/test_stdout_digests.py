"""Byte identity of CLI stdout for fixed invocations.

The sha256 digests and exit codes below were recorded from the code at commit
798cd31, before CycNumber moved from Fraction coefficients to integer
numerators over one denominator, by running each invocation from the checkout
root.  Any change to an exact value, a numeric embedding or the JSON layout
changes a digest.
"""

import hashlib
import pathlib

import pytest

from qplumb.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent

PINNED = [
    (
        "check-theorem --r 2..8 --graph graphs/hopf.json --colors all",
        0,
        "5f462406b1c8891416f6f4f8ce68a97c604353f018b56c7aa56098204a4e9175",
    ),
    (
        "check-theorem --r 2..8 --graph graphs/hopf.json --colors all --negate-prefactor",
        3,
        "dd6362255cef0f376b89b6a681bea65b6380d52c660f4c97c1e2b596939990d9",
    ),
    (
        "check-theorem --r 11,13 --graph graphs/path3.json --seed 3",
        0,
        "d00a9af4646e6c1284d39feca5df98520758ea79345dd9da5fa55d002ccba114",
    ),
    (
        "compute-ado --r 3 --graph graphs/path3.json --colors 1,2,-1 --regularized",
        0,
        "ca039c2f6749b32571d3c1ec16761d758f1869ff6a2b297d5147dcef27227ec1",
    ),
    (
        "compute-rt --r 3 --graph graphs/hopf.json --colors 1,2",
        0,
        "05c8ec7e2843167ddd1dcbfcc3a95d42d96e08d4faf8b26d35c12b02bedf6ef8",
    ),
]


@pytest.mark.parametrize("argv, code, digest", PINNED, ids=[p[0] for p in PINNED])
def test_stdout_is_byte_identical(argv, code, digest, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)  # the graph path is echoed into every record
    assert main(argv.split()) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest
