"""Byte identity of CLI stdout for fixed invocations.

The sha256 digests and exit codes below were recorded by running each
invocation from the checkout root: the first five from the code at commit
798cd31, before CycNumber moved from Fraction coefficients to integer
numerators over one denominator; the two numeric `compute-ado` ones from the
code at commit 6f477b1, before `rn_plumbed_numeric` summed its phase exactly;
the last four, and the `--out` file, from the code at commit 433192b, before
the JSON and CSV output were streamed to the file and `to_complex` kept its
recent results.  Any change to an exact value, a numeric embedding or the
JSON or CSV layout changes a digest.
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
    (
        "compute-ado --r 3 --graph graphs/path3.json --colors 0.5,1.5+0.25j,-0.75",
        0,
        "141d4954cc2dc13502236a1c0e13a7b6f2e4d60d202808db9fe180a3011243b3",
    ),
    (
        "compute-ado --r 5 --graph graphs/star3.json --colors 0.3,1.7+0.2j,0.51,2.25-0.4j"
        " --precision 120",
        0,
        "e650dcffa539fb5b267eaa2061100ca8188211e2a65f562d2d1d5c63bf5fd45b",
    ),
    (
        "check-theorem --r 2..4 --graph graphs/star3.json --colors all --format csv",
        0,
        "fdebe696e40e8a1539085d3ec19c471fc110a6b0825012c72d459e7d16eff072",
    ),
    (
        "sweep --r 2..3 --graph graphs/path3.json --seed 7",
        0,
        "936f3db2a01aba004a30f6d118e48efeb921fb43106a99a02189412dcc75d1cf",
    ),
    (
        "check-relations --r 2..3 --samples 3",
        0,
        "c70cb1849dfec454a49e73474e094b9c51a9e01e514514f5874c29e5c83d0f4e",
    ),
    (
        "compute-rt --r 7 --graph graphs/star3.json --colors 1,2,3,4 --precision 90",
        0,
        "a0b6be7407791ead32ce23048f709e6a5dae4b0f41ababd527a335e4f0ae3b08",
    ),
]


@pytest.mark.parametrize("argv, code, digest", PINNED, ids=[p[0] for p in PINNED])
def test_stdout_is_byte_identical(argv, code, digest, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)  # the graph path is echoed into every record
    assert main(argv.split()) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


def test_out_file_is_byte_identical(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(ROOT)
    target = tmp_path / "report.json"
    argv = ["check-theorem", "--r", "2..5", "--graph", "graphs/hopf.json", "--out", str(target)]
    assert main(argv) == 0
    assert capsys.readouterr().out == ""
    digest = hashlib.sha256(target.read_bytes()).hexdigest()
    assert digest == "34096cba6fe1b996c05c8cbc363021711a13d13aeeb4ca3acbce408d010c0102"
