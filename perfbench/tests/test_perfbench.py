"""Tests of the benchmark itself: tracing, exact counts and the metric contract.

Run from the root of a checkout:

    python3 -m pytest perfbench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import rkca  # noqa: E402
from rkca import cli, data, fileio, model, variants  # noqa: E402

import layers  # noqa: E402
import workloads  # noqa: E402
from spans import TRACED_MODULES, Span, Tracer, summarise  # noqa: E402

SPEC = data.SynthSpec(m=20, n=18, n_slices=6, rank_a=3, rank_b=3, p_clean=0.8, seed=5)
CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bindings():
    """Every function-valued attribute of the package, modules and classes."""
    out = {}
    for key, mod in sys.modules.items():
        if key == "rkca" or key.startswith("rkca."):
            for attr, value in vars(mod).items():
                if callable(value):
                    out[(key, attr)] = value
                if isinstance(value, type) and value.__module__ == key:
                    for meth, fn in vars(value).items():
                        out[(key, attr, meth)] = fn
    return out


def _solve_all(X, mask=None):
    out = []
    for variant, alpha in (("admm2", 1e-2), ("ladmm2", 1e-2), ("ladmm3_fro", 1e-5),
                           ("ladmm3_nuc", 1e-5), ("admm3_fro", 1e-5), ("admm3_nuc", 1e-5)):
        cfg = model.SolverConfig(rank=4, alpha=alpha, tol=1e-8, max_iters=40,
                                 variant=variant, mask=mask)
        fm, e_hat, report = variants.solve_variant(X, cfg)
        out.append((fm.a, fm.b, fm.core, e_hat, report.n_iterations))
    return out


def test_tracing_leaves_results_unchanged_and_is_removed():
    _, _, X = data.synth_generate(SPEC)
    mask = data.make_mask(X.shape, 0.6, 3)
    before = _bindings()
    plain = _solve_all(X) + _solve_all(np.where(mask, X, 0.0), mask)
    tracer = Tracer()
    tracer.install(rkca)
    try:
        assert cli.solve_variant is not before[("rkca.cli", "solve_variant")]
        with tracer.solve():
            traced = _solve_all(X) + _solve_all(np.where(mask, X, 0.0), mask)
    finally:
        tracer.uninstall()
    assert _bindings() == before
    for got, want in zip(traced, plain):
        for g, w in zip(got, want):
            assert np.array_equal(g, w)
    names = {span.name for span in tracer.take()}
    for module in TRACED_MODULES:
        if module not in ("fileio", "cli", "data"):
            assert any(n.startswith(module + ".") for n in names), module


def test_traced_cli_writes_identical_files(tmp_path):
    low_rank, _, X = data.synth_generate(SPEC)
    mask = data.make_mask(X.shape, 0.6, 3)
    fileio.write_rkt(tmp_path / "X.rkt", np.where(mask, X, 0.0))
    fileio.write_rkt(tmp_path / "M.rkt", mask.astype(float))

    def run(out, tracer=None):
        argv = ["complete", "--input", str(tmp_path / "X.rkt"), "--mask",
                str(tmp_path / "M.rkt"), "--out-dir", str(out), "--rank", "4",
                "--tol", "1e-8", "--max-iters", "40"]
        if tracer is None:
            return cli.main(argv)
        tracer.install(rkca)
        try:
            with tracer.solve():
                return cli.main(argv)
        finally:
            tracer.uninstall()

    tracer = Tracer()
    assert run(tmp_path / "plain") == 0
    assert run(tmp_path / "traced", tracer) == 0
    for name in ("A", "B", "R", "L", "E"):
        plain = (tmp_path / "plain" / f"{name}.rkt").read_bytes()
        assert plain == (tmp_path / "traced" / f"{name}.rkt").read_bytes()
    rows = summarise(tracer.take())
    assert rows["fileio.read_rkt"]["mb"] == pytest.approx(
        sum(os.path.getsize(tmp_path / f) for f in ("X.rkt", "M.rkt")) / 1e6
    )
    assert rows["fileio.write_rkt"]["calls"] == 5


def test_self_time_subtracts_children():
    spans = [
        Span("outer", 0.0, 10.0, None, 0),
        Span("inner", 1.0, 4.0, 0, 0),
        Span("leaf", 2.0, 3.0, 1, 0),
        Span("inner", 5.0, 6.0, 0, 0),
    ]
    rows = summarise(spans)
    assert rows["outer"]["self_s"] == pytest.approx(6.0)
    assert rows["inner"]["calls"] == 2
    assert rows["inner"]["s"] == pytest.approx(4.0)
    assert rows["inner"]["self_s"] == pytest.approx(3.0)
    assert summarise(spans, keep=lambda s: s.name == "leaf").keys() == {"leaf"}


def test_err_rec_disagreement_is_a_failure():
    low_rank, sparse, X = data.synth_generate(SPEC)
    inst = workloads.Instance(low_rank, sparse, X, None, Path("."))
    cfg = model.SolverConfig(rank=4, tol=1e-8, max_iters=40)
    fm, e_hat, report = variants.solve_variant(X, cfg)
    honest = report.iterations[-1].err_rec
    for claimed, ok in ((honest, True), (honest * 0.5, False)):
        res = workloads.SolveResult("admm2", 0.0)
        workloads._check_factors(res, inst, 4, fm.a, fm.b, fm.core, e_hat, claimed)
        assert res.ok is ok
    res = workloads.SolveResult("admm2", 0.0)
    workloads._check_factors(res, inst, 4, fm.a, fm.b, fm.core[:, :, :-1], e_hat, honest)
    assert not res.ok


def test_reference_pass_never_calls_rkca():
    tracer = Tracer()
    tracer.install(rkca)
    try:
        assert workloads.reference_seconds(workloads.WORKLOADS["accept-50"]) > 0
    finally:
        tracer.uninstall()
    assert tracer.take() == []


def test_contract_names_match_code():
    assert [w["name"] for w in CONTRACT["workloads"]] == list(workloads.WORKLOADS)
    per_layer = {m["name"]: m["unit"] for m in CONTRACT["per_layer"]}
    assert per_layer == layers.metric_units()


def _run(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170, check=False)
    return proc


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_untraced_run_reports_every_end_to_end_metric():
    out = _result(_run("--workload", "accept-50", "--seed", "3", "--seconds", "1", "--trace", "0"))
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 6
    expected = {m["name"]: m["unit"] for m in CONTRACT["end_to_end"]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in out["metrics"].values())


EXACT = ("variants.iters.", "tensor.reconstruct.calls_per_iter", "fileio.")


@pytest.mark.parametrize("workload", ["accept-50", "complete-cli"])
def test_exact_counts_repeat_between_processes(workload):
    args = ("--workload", workload, "--seed", "7", "--seconds", "1", "--trace", "1")
    first, second = _result(_run(*args)), _result(_run(*args))
    assert first["correct"] and second["correct"]
    for key, metric in first["metrics"].items():
        if key.startswith(EXACT) and not key.endswith(".share"):
            assert metric["value"] == second["metrics"][key]["value"], key


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = _run("--workload", "accept-50", "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
