"""The benchmark's own tests: reference values, checks (with negative
controls), inputs and tracing.

    python3 -m pytest -q bench/selftest.py

Named so that a plain `pytest` run of the repository does not collect it.
The tests that run the program start it in a subprocess with ./src on
PYTHONPATH, as the benchmark does.
"""

from __future__ import annotations

import copy
import json
import time
from pathlib import Path

import mpmath
import pytest

import checks
import inputs
import run
import spans
from refeval import degrees, embed, rel_err, rn_value, rt_value, totient


@pytest.fixture
def run_dir():
    path = run.OUT / "selftest"
    path.mkdir(parents=True, exist_ok=True)
    return path


# -- reference evaluator -----------------------------------------------------------


def test_totient():
    assert [totient(4 * r) for r in (2, 3, 5, 23, 29, 32, 40)] == [4, 4, 8, 44, 56, 64, 64]


def test_embed_monomials_and_fractions():
    r = 7
    for k in range(4 * r):
        coeffs = [[0, 1]] * k + [[3, 4]]
        with mpmath.workprec(200):
            want = mpmath.mpf(3) / 4 * mpmath.expjpi(mpmath.mpf(k) / (2 * r))
        assert rel_err(embed(coeffs, r), want) < 1e-50


def test_rt_unknot_is_the_quantum_dimension_as_a_sum_of_q_powers():
    # [n+1] = sum_{i=0..n} q^(n-2i), written independently of the sine form
    for r in (3, 5, 8):
        with mpmath.workprec(200):
            q = mpmath.expjpi(mpmath.mpf(1) / r)
            for n in range(r):
                for f in (-2, 0, 3):
                    qdim = (-1) ** n * sum(q ** (n - 2 * i) for i in range(n + 1))
                    twist = (-1) ** (n * f) * q ** (mpmath.mpf(f * (n * n + 2 * n)) / 2)
                    got = rt_value(r, {"a": f}, [], {"a": n})
                    assert abs(got - twist * qdim) < 1e-50


def test_rt_hopf_and_connected_sum():
    r = 5
    framing = {"a": 1, "b": -2, "c": 0}
    edges = [("a", "b"), ("b", "c")]
    colors = {"a": 1, "b": 2, "c": 3}
    path = rt_value(r, framing, edges, colors)
    ab = rt_value(r, {"a": 1, "b": -2}, [("a", "b")], colors)
    bc = rt_value(r, {"b": 0, "c": 0}, [("b", "c")], colors)
    qdim_b = rt_value(r, {"b": 0}, [], colors)
    with mpmath.workprec(200):
        assert rel_err(path, ab * bc / qdim_b) < 1e-50


def test_rn_modified_dimension_matches_exponential_form():
    r = 4
    for alpha in (0.3, 1.7 + 0.2j, -2.45 - 0.1j):
        with mpmath.workprec(200):
            a = mpmath.mpmathify(alpha)
            q = lambda z: mpmath.exp(1j * mpmath.pi * z / r)  # noqa: E731
            mod_dim = (-1) ** (r - 1) * r * (q(a) - q(-a)) / (q(r * a) - q(-r * a))
            twist = q(2 * (a * a - (r - 1) ** 2) / 2)
            got = rn_value(r, {"v": 2}, [], {"v": alpha})
            assert rel_err(got, twist * mod_dim) < 1e-40


# -- checks of program output, with negative controls --------------------------------


def _hopf_call(run_dir) -> inputs.CliCall:
    g = inputs.Graph({"v1": 1, "v2": -2}, [("v1", "v2")], "v1")
    call = inputs.CliCall(g, f"{run_dir.relative_to(run.ROOT).as_posix()}/hopf.json", (3, 4), "all")
    (run.ROOT / call.path).write_text(g.to_json(), encoding="utf-8")
    return call


@pytest.fixture
def hopf_output(run_dir):
    call = _hopf_call(run_dir)
    code, out, _, peak_kb = run._spawn(["cli"] + call.argv)
    assert code == 0 and peak_kb > 0
    return call, json.loads(out)


def test_correct_output_passes(hopf_output):
    call, doc = hopf_output
    assert checks.check_cli_output(doc, call) == []


def test_negative_control_one_coefficient_changed(hopf_output):
    call, doc = hopf_output
    assert checks.record_is_rejected(doc, call)
    bad = copy.deepcopy(doc)
    bad["records"][2]["rhs"]["coeffs"][1][0] -= 1
    assert any("differ" in p for p in checks.check_cli_output(bad, call))


def test_lhs_and_rhs_changed_alike_fail_the_reference(hopf_output):
    call, doc = hopf_output
    bad = copy.deepcopy(doc)
    rec = bad["records"][0]
    for side in ("lhs", "rhs"):
        rec[side]["coeffs"][0][0] += rec[side]["coeffs"][0][1]
    problems = checks.check_cli_output(bad, call)
    assert problems and all("reference" in p for p in problems)


def test_equal_flag_is_not_trusted(hopf_output):
    call, doc = hopf_output
    bad = copy.deepcopy(doc)
    bad["records"][0]["equal"] = False
    assert checks.check_cli_output(bad, call)


def test_missing_or_foreign_records_fail(hopf_output):
    call, doc = hopf_output
    short = copy.deepcopy(doc)
    short["records"].pop()
    assert checks.check_cli_output(short, call)
    dup = copy.deepcopy(doc)
    dup["records"][1] = dup["records"][0]
    assert any("cover" in p for p in checks.check_cli_output(dup, call))


def _run_main(capsys, monkeypatch, rewrite) -> tuple:
    """run.main on one short tree-check round, with every CLI argv rewritten."""
    spawn = run._spawn
    monkeypatch.setattr(run, "_spawn", lambda argv: spawn(rewrite(argv) if argv[0] == "cli" else argv))
    code = run.main(["--workload", "tree-check", "--seed", "1", "--seconds", "0.01"])
    captured = capsys.readouterr()
    return code, json.loads(captured.out.strip().splitlines()[-1]), captured.err


def test_failed_identity_makes_the_run_incorrect(capsys, monkeypatch):
    # with --negate-prefactor, check-theorem prints its records and exits 3
    code, result, err = _run_main(capsys, monkeypatch, lambda argv: argv + ["--negate-prefactor"])
    assert code == 1 and result["correct"] is False
    assert result["failed"] == result["attempted"]
    assert "exit code 3" in err
    assert "lhs and rhs coefficient lists differ" in err
    assert "equal=False" in err


def test_crashing_program_makes_the_run_incorrect(capsys, monkeypatch):
    code, result, err = _run_main(capsys, monkeypatch, lambda argv: ["cli", "no-such-command"])
    assert code == 1 and result["correct"] is False
    assert result["failed"] == result["attempted"]
    assert "not JSON" in err


def test_lib_result_checked_against_reference(run_dir):
    lib = inputs.big_tree(3)[0]
    n = 40
    keep = list(lib.graph.framing)[:n]
    g = inputs.Graph(
        {v: lib.graph.framing[v] for v in keep},
        [(u, w) for u, w in lib.graph.edges if u in keep and w in keep],
        lib.graph.base,
    )
    small = inputs.LibGraph(
        "small", g, lib.r, {v: lib.rt_colors[v] for v in keep}, {v: lib.rn_colors[v] for v in keep}
    )
    assert len(g.edges) == n - 1  # attachment order keeps a prefix connected
    wl = run.LibWorkload([small], run_dir)
    rnd = wl.run_round(traced=False)
    assert wl.check(rnd) == []
    res = json.loads(rnd.outputs[0])
    assert checks.lib_result_is_rejected(res, small)
    bad = copy.deepcopy(res)
    bad["rn"][0] = str(mpmath.mpf(bad["rn"][0]) * (1 + 1e-7))
    assert any("rn_plumbed_numeric" in p for p in checks.check_lib_result(bad, small))


# -- inputs ----------------------------------------------------------------------------


def _degrees(graph):
    return sorted(degrees(graph.framing, graph.edges).values())


def test_inputs_depend_only_on_the_seed():
    a, b, c = (inputs.tree_check(s, "d") for s in (5, 5, 6))
    assert [x.argv for x in a] == [x.argv for x in b]
    assert [x.graph for x in a] == [x.graph for x in b]
    assert [x.graph for x in a] != [x.graph for x in c]
    assert [x.job() for x in inputs.big_tree(2)] == [x.job() for x in inputs.big_tree(2)]


def test_tree_shapes_are_fixed_trees():
    for seed in range(20):
        for call in inputs.tree_check(seed, "d"):
            n = len(call.graph.framing)
            mults = inputs.TREE_SHAPES[n]
            want = sorted([1] * (n - len(mults)) + [m + 1 for m in mults])
            assert _degrees(call.graph) == want
            seen, todo = {call.graph.base}, [call.graph.base]
            while todo:
                u = todo.pop()
                for a, b in call.graph.edges:
                    for s, t in ((a, b), (b, a)):
                        if s == u and t not in seen:
                            seen.add(t)
                            todo.append(t)
            assert seen == set(call.graph.framing)


# -- tracing -------------------------------------------------------------------------


def _busy(seconds):
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


def test_self_time_and_nesting(tmp_path):
    tracer = spans.Tracer()

    def inner():
        _busy(0.002)

    inner_t = tracer.wrap("a.inner", inner)

    def outer(depth):
        _busy(0.002)
        inner_t()
        if depth:
            outer_t(depth - 1)

    outer_t = tracer.wrap("b.outer", outer)
    outer_t(2)
    prefix = str(tmp_path / "t")
    tracer.dump(prefix)
    stats = spans.aggregate([prefix])
    assert stats["calls"] == {"b.outer": 3, "a.inner": 3}
    total = stats["time"]["b.outer"]  # the outermost span only
    assert total == pytest.approx(sum(stats["layer_self"].values()), rel=1e-9)
    assert stats["layer_self"]["a"] == pytest.approx(stats["time"]["a.inner"], rel=1e-9)
    assert 0.010 < total < 0.5


def test_generator_items_are_counted(tmp_path):
    tracer = spans.Tracer()
    gen = tracer.wrap_generator("p.items", lambda n: (i for i in range(n)))
    assert list(gen(4)) == [0, 1, 2, 3]
    prefix = str(tmp_path / "g")
    tracer.dump(prefix)
    stats = spans.aggregate([prefix])
    assert stats["yields"]["p.items"] == 4
    assert stats["calls"]["p.items"] == 5  # the last step raises StopIteration


def test_traced_counts_match_the_inputs(run_dir):
    wl = run.CliWorkload(inputs.tree_check(1, run_dir.relative_to(run.ROOT).as_posix())[:2], run_dir)
    rnd = wl.run_round(traced=True)
    assert wl.check(rnd) == []
    stats = spans.aggregate(rnd.trace_prefixes)
    assert run.trace_problems([stats], wl.expected_counts()) == []
    wrong = dict(wl.expected_counts(), sign_terms=wl.expected_counts()["sign_terms"] + 1)
    assert len(run.trace_problems([stats], wrong)) == 2
    metrics = run.layer_metrics(stats, [rnd])
    assert metrics["invariants.terms_per_check"][0] == 16
    assert metrics["cyclotomic.mul_calls"][0] > 0


def test_peak_rss_is_the_program_process_own():
    # a spawned child's ru_maxrss would include this process's 200 MB
    ballast = bytearray(200 * 1024 * 1024)
    ballast[:: 4096] = b"\1" * len(ballast[:: 4096])
    _, _, peak_kb = run.setup_probe("tree-check")
    assert 0 < peak_kb < 100 * 1024
    del ballast


def test_benchmark_refuses_to_run_without_the_program(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "SRC", Path(tmp_path))
    assert run.main(["--workload", "tree-check", "--seed", "1", "--seconds", "1"]) == 2


def test_metric_names_and_units_match_benchmark_json(run_dir):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["bench"]
    assert {w["name"] for w in spec["workloads"]} == set(inputs.SETUP_R)
    stats = {"calls": {}, "time": {}, "layer_self": {}, "yields": {}, "inv_distinct": 0}
    rnd = run.Round()
    rnd.walls, rnd.output_bytes = [1.0], 0
    per_layer = {k: u for k, (_, u) in run.layer_metrics(stats, [rnd]).items()}
    assert per_layer == {m["name"]: m["unit"] for m in spec["per_layer"]}
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert e2e == {"instances_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}
