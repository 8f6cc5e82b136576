"""CLI behavior: exit codes, record schemas, determinism."""

import itertools
import json
import pathlib

import pytest

from qplumb.cli import main
from qplumb.cyclotomic import make_context, to_complex
from qplumb.invariants import theorem_check
from qplumb.plumbing import load_graph

GRAPHS = pathlib.Path(__file__).resolve().parent.parent / "graphs"
HOPF = str(GRAPHS / "hopf.json")
PATH3 = str(GRAPHS / "path3.json")
STAR3 = str(GRAPHS / "star3.json")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestCheckTheorem:
    def test_bundled_hopf_all_colors(self, capsys):
        code, out, err = run(
            capsys, "check-theorem", "--r", "2..4", "--graph", HOPF, "--colors", "all"
        )
        assert code == 0, err
        doc = json.loads(out)
        assert doc["command"] == "check-theorem"
        recs = doc["records"]
        assert len(recs) == sum((r - 1) ** 2 for r in (2, 3, 4))
        assert all(rec["equal"] for rec in recs)
        sample = recs[0]
        for key in ("graph", "r", "x", "lhs", "rhs", "equal", "lhs_numeric", "rhs_numeric"):
            assert key in sample
        assert sample["lhs"]["conductor"] == 8
        assert isinstance(sample["lhs"]["coeffs"][0], list)

    def test_negated_prefactor_fails_with_exit_3(self, capsys):
        code, out, err = run(
            capsys,
            "check-theorem", "--r", "3", "--graph", HOPF,
            "--colors", "all", "--negate-prefactor",
        )
        assert code == 3
        doc = json.loads(out)
        assert any(not rec["equal"] for rec in doc["records"])

    def test_explicit_colors(self, capsys):
        code, out, _ = run(
            capsys, "check-theorem", "--r", "3", "--graph", PATH3, "--colors", "2,1,2"
        )
        assert code == 0
        doc = json.loads(out)
        assert len(doc["records"]) == 1
        assert doc["records"][0]["x"] == {"a": 2, "b": 1, "c": 2}

    def test_deterministic_output(self, capsys):
        args = ("check-theorem", "--r", "2..3", "--graph", STAR3, "--colors", "all", "--seed", "5")
        code1, out1, _ = run(capsys, *args)
        code2, out2, _ = run(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_base_override(self, capsys):
        code, out, _ = run(
            capsys,
            "check-theorem", "--r", "3", "--graph", PATH3,
            "--colors", "1,2,1", "--base", "c",
        )
        assert code == 0
        assert json.loads(out)["records"][0]["base"] == "c"

    def test_framing_override(self, capsys):
        code, out, _ = run(
            capsys,
            "check-theorem", "--r", "2", "--graph", HOPF,
            "--colors", "1,1", "--framings", "3,-3",
        )
        assert code == 0
        assert json.loads(out)["records"][0]["equal"]


class TestComputeCommands:
    def test_compute_rt(self, capsys):
        code, out, _ = run(
            capsys, "compute-rt", "--r", "3", "--graph", HOPF, "--colors", "1,2"
        )
        assert code == 0
        rec = json.loads(out)["records"][0]
        assert rec["mode"] == "exact"
        assert rec["value"]["conductor"] == 12
        assert "approx" in rec["value"]

    def test_compute_ado_numeric(self, capsys):
        code, out, _ = run(
            capsys,
            "compute-ado", "--r", "3", "--graph", PATH3, "--colors", "0.5,1.5+0.25j,-0.75",
        )
        assert code == 0
        rec = json.loads(out)["records"][0]
        assert rec["mode"] == "numeric"
        assert rec["precision_bits"] == 53

    def test_compute_ado_pole_exits_2(self, capsys):
        code, out, err = run(
            capsys, "compute-ado", "--r", "3", "--graph", PATH3, "--colors", "0.5,1,0.5"
        )
        assert code == 2
        assert "pole" in err.lower() or "integer" in err.lower()

    def test_compute_ado_regularized(self, capsys):
        code, out, _ = run(
            capsys,
            "compute-ado", "--r", "3", "--graph", PATH3,
            "--colors", "1,2,-1", "--regularized",
        )
        assert code == 0
        rec = json.loads(out)["records"][0]
        assert rec["mode"] == "exact-regularized"
        assert rec["value"]["conductor"] == 12

    def test_precision_env_default(self, capsys, monkeypatch):
        monkeypatch.setenv("QP_PRECISION_BITS", "80")
        code, out, _ = run(
            capsys, "compute-ado", "--r", "2", "--graph", HOPF, "--colors", "0.5,0.25"
        )
        assert code == 0
        assert json.loads(out)["records"][0]["precision_bits"] == 80

    def test_precision_env_invalid_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv("QP_PRECISION_BITS", "abc")
        code, out, err = run(
            capsys, "compute-ado", "--r", "2", "--graph", HOPF, "--colors", "0.5,0.25"
        )
        assert code == 1
        assert out == ""
        assert err.startswith("usage error:") and "'abc'" in err

    def test_precision_flag_overrides_invalid_env(self, capsys, monkeypatch):
        monkeypatch.setenv("QP_PRECISION_BITS", "abc")
        code, out, _ = run(
            capsys, "compute-ado", "--r", "2", "--graph", HOPF, "--colors", "0.5,0.25",
            "--precision", "64",
        )
        assert code == 0
        assert json.loads(out)["records"][0]["precision_bits"] == 64

    @pytest.mark.parametrize(
        "argv",
        [
            ("compute-rt", "--r", "3", "--graph", HOPF, "--colors", "1,2"),
            ("compute-ado", "--r", "3", "--graph", PATH3, "--colors", "0.5,1.5,-0.75"),
            ("compute-ado", "--r", "3", "--graph", PATH3, "--colors", "1,2,-1", "--regularized"),
        ],
    )
    def test_seed_key_is_zero(self, capsys, argv):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert json.loads(out)["seed"] == 0


class TestSweep:
    def test_small_sweep_passes(self, capsys):
        code, out, _ = run(
            capsys,
            "sweep", "--r", "2..3", "--graph", HOPF,
            "--framing-min", "-1", "--framing-max", "1", "--seed", "3",
        )
        assert code == 0
        doc = json.loads(out)
        # full framing grid (9 combos) for the 2-vertex graph, all colors
        assert len(doc["records"]) == 9 * (1 + 4)
        assert all(rec["equal"] for rec in doc["records"])

    def test_sweep_samples_large_graphs(self, capsys):
        code, out, _ = run(
            capsys,
            "sweep", "--r", "2", "--graph", STAR3,
            "--framing-samples", "4", "--seed", "9",
        )
        assert code == 0
        doc = json.loads(out)
        assert len(doc["records"]) == 4 * 1  # sampled framings x the single r=2 color

    def test_sweep_deterministic(self, capsys):
        args = ("sweep", "--r", "2", "--graph", STAR3, "--framing-samples", "3", "--seed", "4")
        _, out1, _ = run(capsys, *args)
        _, out2, _ = run(capsys, *args)
        assert out1 == out2


class TestSweepFramings:
    def test_sampled_record_rechecks_through_check_theorem(self, capsys):
        # star3 has 5^4 framing combinations, more than the grid cap, so the
        # framings are sampled from the seed
        code, out, _ = run(
            capsys, "sweep", "--r", "3", "--graph", STAR3, "--framing-samples", "5", "--seed", "12"
        )
        assert code == 0
        records = json.loads(out)["records"]
        vertices = load_graph(STAR3).vertices
        assert all(list(rec["framings"]) == list(vertices) for rec in records)
        assert len({tuple(rec["framings"].values()) for rec in records}) > 1
        rec = records[-1]
        code, out, _ = run(
            capsys,
            "check-theorem", "--r", "3", "--graph", STAR3,
            # "=" keeps a leading negative framing from reading as a flag
            "--framings=" + ",".join(str(rec["framings"][v]) for v in vertices),
            "--colors", ",".join(str(rec["x"][v]) for v in vertices),
        )
        assert code == 0
        (again,) = json.loads(out)["records"]
        assert again["lhs"] == rec["lhs"]
        assert "framings" not in again

    def test_csv_carries_framings(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "--r", "2", "--graph", HOPF, "--framing-min", "0",
            "--framing-max", "1", "--format", "csv",
        )
        assert code == 0
        header, first = out.splitlines()[:2]
        assert header.split(",")[-1] == "framings"
        assert first.endswith("v1=0;v2=0")


class TestCheckRelations:
    def test_passes(self, capsys):
        code, out, _ = run(capsys, "check-relations", "--r", "2..3", "--samples", "5")
        assert code == 0
        doc = json.loads(out)
        kinds = {rec["kind"] for rec in doc["records"]}
        assert kinds == {"simple", "verma"}
        assert all(rec["ok"] for rec in doc["records"])
        # 2 + 3 simple modules, 5 verma samples per r
        assert len(doc["records"]) == (2 + 3) + 2 * 5


class TestErrorsAndFormats:
    def test_usage_error_exit_1(self, capsys):
        code, _, err = run(capsys, "check-theorem", "--graph", HOPF)
        assert code == 1
        assert "usage" in err.lower()

    @pytest.mark.parametrize(
        "argv",
        [
            ("check-relations", "--r", "2", "--samples", "1", "--graph", HOPF),
            ("check-relations", "--r", "2", "--samples", "1", "--colors", "all"),
            ("sweep", "--r", "2", "--graph", HOPF, "--colors", "1,1"),
            ("sweep", "--r", "2", "--graph", HOPF, "--framings", "0,0"),
            ("sweep", "--r", "2", "--graph", HOPF, "--negate-prefactor"),
            ("compute-rt", "--r", "3", "--graph", HOPF, "--colors", "1,2", "--mode", "exact"),
            ("compute-ado", "--r", "3", "--graph", HOPF, "--colors", "1,2", "--mode", "exact"),
            ("compute-rt", "--r", "3", "--graph", HOPF, "--colors", "1,2", "--seed", "1"),
            ("check-theorem", "--r", "2", "--colors", "all"),
            ("compute-rt", "--r", "3", "--graph", HOPF),
            ("compute-ado", "--r", "3", "--colors", "0.5,0.5"),
        ],
    )
    def test_unread_or_missing_flag_is_usage_error(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 1
        assert out == ""
        assert err.startswith("usage error:")

    def test_unknown_command_exit_1(self, capsys):
        code, _, _ = run(capsys, "frobnicate")
        assert code == 1

    def test_missing_file_exit_2(self, capsys):
        code, _, err = run(
            capsys, "check-theorem", "--r", "2", "--graph", "/nonexistent.json", "--colors", "all"
        )
        assert code == 2
        assert err

    def test_malformed_graph_exit_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        code, _, err = run(capsys, "check-theorem", "--r", "2", "--graph", str(bad), "--colors", "all")
        assert code == 2
        assert "JSON" in err

    def test_bad_r_exit_2(self, capsys):
        code, _, _ = run(capsys, "compute-rt", "--r", "1", "--graph", HOPF, "--colors", "0,0")
        assert code == 2

    def test_low_precision_exit_2(self, capsys):
        code, _, _ = run(
            capsys, "compute-rt", "--r", "2", "--graph", HOPF, "--colors", "0,0", "--precision", "10"
        )
        assert code == 2

    def test_csv_output(self, capsys):
        code, out, _ = run(
            capsys,
            "check-theorem", "--r", "2", "--graph", HOPF, "--colors", "all", "--format", "csv",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0].startswith("graph,")
        assert len(lines) == 2  # header + the single r=2 record

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        code, out, _ = run(
            capsys,
            "check-theorem", "--r", "2", "--graph", HOPF, "--colors", "all", "--out", str(target),
        )
        assert code == 0
        assert out == ""
        assert json.loads(target.read_text())["records"]


class TestColorsAllEnumerates:
    """`--colors all` enumerates {1..r-1}^V whenever that is at most 10000
    colorings, whatever the number of vertices."""

    CATERPILLAR6 = str(GRAPHS / "caterpillar6.json")

    def records(self, capsys, r):
        code, out, err = run(
            capsys, "check-theorem", "--r", str(r), "--graph", self.CATERPILLAR6, "--colors", "all"
        )
        assert code == 0, err
        return json.loads(out)["records"]

    def test_single_coloring_at_r2(self, capsys):
        recs = self.records(capsys, 2)
        assert len(recs) == 1
        assert set(recs[0]["x"].values()) == {1}

    def test_every_coloring_in_product_order_at_r3(self, capsys):
        import itertools

        recs = self.records(capsys, 3)
        vertices = load_graph(self.CATERPILLAR6).vertices  # the JSON sorts the keys of "x"
        assert len(vertices) == 6
        want = [dict(zip(vertices, combo)) for combo in itertools.product((1, 2), repeat=6)]
        assert [rec["x"] for rec in recs] == want
        assert all(rec["equal"] for rec in recs)


class TestNegativeListFlags:
    """A list flag whose value starts with a negative number is the same
    request as its --flag=value form."""

    @pytest.mark.parametrize(
        "argv, flag, value",
        [
            (("check-theorem", "--r", "3", "--graph", STAR3, "--colors", "1,1,1,1"),
             "--framings", "-1,0,0,0"),
            (("check-theorem", "--r", "2", "--graph", HOPF, "--colors", "1,1"),
             "--framings", "-3,3"),
            (("compute-ado", "--r", "3", "--graph", HOPF), "--colors", "-0.5,1.5"),
            (("compute-ado", "--r", "3", "--graph", HOPF), "--colors", "-.5+0.25j,1.5"),
        ],
    )
    def test_separate_value_equals_joined_form(self, capsys, argv, flag, value):
        joined = run(capsys, *argv, f"{flag}={value}")
        assert joined[0] == 0, joined[2]
        assert run(capsys, *argv, flag, value) == joined

    def test_flag_without_value_stays_a_usage_error(self, capsys):
        code, out, err = run(
            capsys, "check-theorem", "--r", "2", "--graph", HOPF, "--framings", "--colors", "1,1"
        )
        assert code == 1
        assert out == ""
        assert err.startswith("usage error:")


def test_to_complex_embeds_each_distinct_value_once(capsys, monkeypatch):
    """The embedding cache: one evaluation per distinct lhs of a
    `--colors all` run, and a hit has the bits of a fresh evaluation."""
    monkeypatch.chdir(GRAPHS.parent)
    to_complex.cache_clear()
    assert main(["check-theorem", "--r", "8", "--graph", "graphs/hopf.json", "--colors", "all"]) == 0
    capsys.readouterr()
    misses = to_complex.cache_info().misses
    graph, ctx = load_graph("graphs/hopf.json"), make_context(8)
    lhs = {
        theorem_check(ctx, graph, dict(zip(graph.vertices, x))).lhs
        for x in itertools.product(range(1, 8), repeat=2)
    }
    assert to_complex.cache_info().misses == misses == len(lhs) < 49
    cached = {value: to_complex(value) for value in lhs}
    to_complex.cache_clear()
    for value, z in cached.items():
        fresh = to_complex(value)
        assert fresh is not z
        assert fresh._mpc_ == z._mpc_  # (sign, man, exp, bc) of both parts
