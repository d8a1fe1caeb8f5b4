"""End-to-end CLI tests driving main() in-process."""

import json
import tracemalloc
import warnings

import numpy as np
import pytest

from rkca import admm, cli, data, fileio, linalg, tensor, variants
from rkca.admm import SolverAbort
from rkca.model import FactorModel, RunReport, SolverConfig

import reference


def run_cli(*args):
    return cli.main([str(a) for a in args])


def synth_args(out_dir, **overrides):
    base = {
        "m": 20, "n": 18, "N": 5, "rank-a": 3, "rank-b": 3,
        "p-clean": 0.8, "seed": 42,
    }
    base.update(overrides)
    args = ["synth"]
    for key, val in base.items():
        args += [f"--{key}", val]
    return args + ["--out-dir", out_dir]


def test_synth_writes_files_and_manifest(tmp_path):
    out = tmp_path / "gen"
    assert run_cli(*synth_args(out)) == 0
    for name in ("L_true.rkt", "E_true.rkt", "X.rkt", "spec.json"):
        assert (out / name).exists()
    manifest = json.loads((out / "spec.json").read_text())
    assert manifest == {
        "m": 20, "n": 18, "N": 5, "rank_a": 3, "rank_b": 3,
        "p_clean": 0.8, "seed": 42,
    }
    low_rank = fileio.read_rkt(out / "L_true.rkt")
    sparse = fileio.read_rkt(out / "E_true.rkt")
    observed = fileio.read_rkt(out / "X.rkt")
    assert np.array_equal(observed, low_rank + sparse)


def test_synth_deterministic_bytes(tmp_path):
    first = tmp_path / "a"
    second = tmp_path / "b"
    run_cli(*synth_args(first))
    run_cli(*synth_args(second))
    for name in ("L_true.rkt", "E_true.rkt", "X.rkt"):
        assert (first / name).read_bytes() == (second / name).read_bytes()


def test_synth_clean_probability_one(tmp_path):
    out = tmp_path / "clean"
    run_cli(*synth_args(out, **{"p-clean": 1.0}))
    assert not fileio.read_rkt(out / "E_true.rkt").any()


def test_decompose_zero_input(tmp_path):
    x_path = tmp_path / "X.rkt"
    fileio.write_rkt(x_path, np.zeros((8, 7, 3)))
    out = tmp_path / "dec"
    assert run_cli("decompose", "--input", x_path, "--rank", 3,
                   "--out-dir", out) == 0
    report = json.loads((out / "report.json").read_text())
    assert len(report["iterations"]) == 1
    assert report["termination"] == "tol"
    assert not fileio.read_rkt(out / "L.rkt").any()
    assert not fileio.read_rkt(out / "E.rkt").any()
    assert fileio.read_rkt(out / "A.rkt").shape == (8, 3, 1)
    assert fileio.read_rkt(out / "R.rkt").shape == (3, 3, 3)


def test_decompose_records_lambda_heuristic(tmp_path):
    gen = tmp_path / "gen"
    run_cli(*synth_args(gen))
    out = tmp_path / "dec"
    assert run_cli("decompose", "--input", gen / "X.rkt", "--rank", 6,
                   "--out-dir", out) == 0
    report = json.loads((out / "report.json").read_text())
    dims = fileio.read_rkt(gen / "X.rkt").shape
    assert report["config"]["lambda"] == pytest.approx(
        1.0 / np.sqrt(dims[2] * max(dims[0], dims[1]))
    )
    assert report["variant"] == "admm2"


def test_decompose_reproduces_synthetic_recovery(tmp_path):
    # End-to-end through files: the 50x50x20 30%-corruption protocol meets
    # the same recovery thresholds as the in-process acceptance run.
    gen = tmp_path / "gen"
    assert run_cli(*synth_args(
        gen, m=50, n=50, N=20, **{"rank-a": 5, "rank-b": 5,
                                  "p-clean": 0.7, "seed": 20260808},
    )) == 0
    out = tmp_path / "dec"
    assert run_cli("decompose", "--input", gen / "X.rkt", "--rank", 10,
                   "--alpha", 1e-2, "--tol", 1e-10, "--max-iters", 2000,
                   "--out-dir", out) == 0
    metrics_file = tmp_path / "metrics.json"
    assert run_cli("eval", "--estimate", out / "L.rkt",
                   "--truth", gen / "L_true.rkt",
                   "--sparse-estimate", out / "E.rkt",
                   "--sparse-truth", gen / "E_true.rkt",
                   "--out", metrics_file) == 0
    result = json.loads(metrics_file.read_text())
    true_density = float(np.mean(fileio.read_rkt(gen / "E_true.rkt") != 0))
    assert result["rel_error_L"] <= 1e-4
    assert result["rel_error_E"] <= 1e-4
    assert abs(result["density_E"] - true_density) <= 1e-3
    assert result["support_f1"] >= 0.999


def test_decompose_usage_and_data_errors(tmp_path):
    x_path = tmp_path / "X.rkt"
    fileio.write_rkt(x_path, np.zeros((6, 6, 2)))
    with pytest.raises(SystemExit) as exc:
        run_cli("decompose", "--input", x_path, "--rank", 3,
                "--variant", "nonsense", "--out-dir", tmp_path / "o")
    assert exc.value.code == 2
    # Rank exceeding min(m, n) is a data-level error.
    assert run_cli("decompose", "--input", x_path, "--rank", 7,
                   "--out-dir", tmp_path / "o") == 3
    # Mask dims must match.
    mask_path = tmp_path / "mask.rkt"
    fileio.write_rkt(mask_path, np.ones((6, 6, 3)))
    assert run_cli("decompose", "--input", x_path, "--rank", 3,
                   "--mask", mask_path, "--out-dir", tmp_path / "o") == 3
    # Missing input file.
    assert run_cli("decompose", "--input", tmp_path / "nope.rkt", "--rank", 3,
                   "--out-dir", tmp_path / "o") == 3


def test_decompose_numeric_abort_exit_code(tmp_path, monkeypatch):
    x_path = tmp_path / "X.rkt"
    fileio.write_rkt(x_path, np.ones((4, 4, 2)))
    out = tmp_path / "out"

    def boom(X, cfg):
        raise SolverAbort(
            "non-finite values in E at iteration 1",
            RunReport(variant="admm2", config={}, termination="abort"),
        )

    monkeypatch.setattr(cli, "solve_variant", boom)
    assert run_cli("decompose", "--input", x_path, "--rank", 2,
                   "--out-dir", out) == 4
    assert json.loads((out / "report.json").read_text())["termination"] == "abort"


@pytest.mark.parametrize("variant", sorted(cli.VARIANT_FLAGS))
def test_decompose_overflow_aborts_every_variant(tmp_path, variant):
    # Finite entries whose slice norms overflow drive the initial penalties to
    # zero and the first E step to NaN: every variant must exit 4 and still
    # write its partial report.
    x_path = tmp_path / "X.rkt"
    fileio.write_rkt(x_path, np.full((4, 4, 2), 1e160))
    out = tmp_path / "out"
    with np.errstate(all="ignore"):
        code = run_cli("decompose", "--input", x_path, "--rank", 2, "--max-iters", 5,
                       "--variant", variant, "--out-dir", out)
    assert code == 4
    assert json.loads((out / "report.json").read_text())["termination"] == "abort"


@pytest.mark.parametrize("variant", sorted(cli.VARIANT_FLAGS))
def test_kernel_failure_mid_run_aborts_every_variant(tmp_path, monkeypatch, variant):
    # A symmetric eigensolve that fails partway through a run must end it as a
    # numeric abort (exit 4) with the partial report, not a traceback.
    gen = tmp_path / "gen"
    assert run_cli(*synth_args(gen)) == 0
    real_eig, calls = linalg.symmetric_eig, []

    def failing_eig(x):
        calls.append(1)
        if len(calls) >= 10:
            raise linalg.NumericalError("symmetric eigendecomposition failed")
        return real_eig(x)

    monkeypatch.setattr(linalg, "symmetric_eig", failing_eig)
    out = tmp_path / "out"
    code = run_cli("decompose", "--input", gen / "X.rkt", "--rank", 3, "--tol", 1e-12,
                   "--variant", variant, "--out-dir", out)
    assert code == 4
    report = json.loads((out / "report.json").read_text())
    assert report["termination"] == "abort"
    assert len(report["iterations"]) >= 1


@pytest.mark.parametrize("variant, module, name, error", [
    ("ladmm2", linalg, "symmetric_eig", linalg.NumericalError),
    ("admm2", linalg, "symmetric_eig", linalg.NumericalError),
    ("admm3-fro", linalg, "symmetric_eig", linalg.NumericalError),
])
def test_failed_start_writes_report(tmp_path, monkeypatch, variant, module, name, error):
    # A kernel failure in a solver's start is a numeric abort like one in the
    # loop: exit 4 and a report with no iterations.
    gen = tmp_path / "gen"
    assert run_cli(*synth_args(gen)) == 0
    _assert_failed_start(tmp_path, monkeypatch, module, name, error,
                         "decompose", "--input", gen / "X.rkt", "--variant", variant)


def test_failed_masked_start_writes_report(tmp_path, monkeypatch):
    # A masked admm2 solve starts from per-slice SVDs; a failed one aborts
    # the same way.
    gen = tmp_path / "gen"
    assert run_cli(*synth_args(gen)) == 0
    mask = data.make_mask((20, 18, 5), 0.7, seed=5)
    fileio.write_rkt(tmp_path / "mask.rkt", mask.astype(float))
    _assert_failed_start(tmp_path, monkeypatch, np.linalg, "svd", np.linalg.LinAlgError,
                         "complete", "--input", gen / "X.rkt", "--mask", tmp_path / "mask.rkt")


def _assert_failed_start(tmp_path, monkeypatch, module, name, error, *command):
    def failing(*args, **kwargs):
        raise error("injected failure")

    monkeypatch.setattr(module, name, failing)
    out = tmp_path / "out"
    assert run_cli(*command, "--rank", 3, "--out-dir", out) == 4
    report = json.loads((out / "report.json").read_text())
    assert report["termination"] == "abort"
    assert report["iterations"] == []


def test_decompose_config_file(tmp_path):
    x_path = tmp_path / "X.rkt"
    fileio.write_rkt(x_path, np.zeros((8, 7, 3)))
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"rank": 4, "alpha": 0.5, "max-iters": 7}))
    out = tmp_path / "dec"
    assert run_cli("decompose", "--input", x_path, "--rank", 2,
                   "--config", config, "--out-dir", out) == 0
    report = json.loads((out / "report.json").read_text())
    # Explicit flags win; unset flags come from the config file.
    assert report["config"]["rank"] == 2
    assert report["config"]["alpha"] == 0.5
    assert report["config"]["max_iters"] == 7


def test_abbreviated_flags_are_refused(tmp_path, capsys):
    # A flag given on the command line beats --config, which knows it by its
    # full spelling; an abbreviation such as --max-it is a usage error, not a
    # flag the config file silently overrides.
    x_path = tmp_path / "X.rkt"
    fileio.write_rkt(x_path, np.ones((8, 7, 3)))
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"max_iters": 7}))
    out = tmp_path / "dec"
    with pytest.raises(SystemExit) as exc:
        run_cli("decompose", "--input", x_path, "--rank", 2, "--config", config,
                "--max-it", 3, "--out-dir", out)
    assert exc.value.code == 2
    assert "--max-it" in capsys.readouterr().err
    assert not out.exists()


def test_config_file_alone_can_set_rank(tmp_path):
    # README: the file takes the same keys as the flags, rank included.
    x_path = tmp_path / "X.rkt"
    fileio.write_rkt(x_path, np.ones((8, 7, 3)))
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"rank": 3, "max-iters": 2}))
    out = tmp_path / "dec"
    assert run_cli("decompose", "--input", x_path, "--config", config,
                   "--out-dir", out) == 0
    assert json.loads((out / "report.json").read_text())["config"]["rank"] == 3


@pytest.mark.parametrize("command", ["decompose", "complete", "denoise"])
def test_missing_rank_is_a_usage_error(tmp_path, capsys, command):
    # Neither a --rank flag nor a config file's rank: exit 2 with one line,
    # before any file is read or written.
    config = tmp_path / "run.json"
    config.write_text(json.dumps({"alpha": 0.5}))
    out = tmp_path / "out"
    inputs = {"decompose": ["--input", tmp_path / "X.rkt"],
              "complete": ["--input", tmp_path / "X.rkt", "--mask", tmp_path / "m.rkt"],
              "denoise": ["--images", tmp_path / "imgs"]}[command]
    capsys.readouterr()
    for extra in ([], ["--config", config]):
        assert run_cli(command, *inputs, *extra, "--out-dir", out) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --rank is required") and err.count("\n") == 1
        assert not out.exists()


@pytest.mark.parametrize("flag", ["--rho", "--alpha"])
def test_extreme_flags_run_without_warnings(tmp_path, flag):
    # rho = 1e308 overflows rho*mu and alpha = 1e308 the R step's threshold
    # alpha/mu_K.  Both must take their limits without a RuntimeWarning:
    # every penalty held at its cap from the first growth on, or R = 0.
    gen = tmp_path / "gen"
    assert run_cli(*synth_args(gen, m=12, n=10, N=4)) == 0
    out = tmp_path / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli("decompose", "--input", gen / "X.rkt", "--rank", 3, flag, "1e308",
                       "--out-dir", out) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["termination"] == "tol"
    if flag == "--rho":
        for key in ("mu", "mu_K"):
            held = {rec[key] for rec in report["iterations"]}
            assert len(held) == 1, key
    else:
        assert not fileio.read_rkt(out / "R.rkt").any()


@pytest.mark.parametrize("command", ["decompose", "complete"])
def test_cli_solve_holds_one_copy_of_the_input(tmp_path, command):
    # Beyond what the solve itself allocates (timed on a slice-major input
    # built beforehand), the command holds one copy of X and the mask: the
    # file's column-major array and a zero-filled copy are not kept.
    low_rank, sparse, X = data.synth_generate(data.SynthSpec(60, 50, 40, 3, 3, 0.8, 5))
    mask = data.make_mask(X.shape, 0.6, 7)
    fileio.write_rkt(tmp_path / "X.rkt", X)
    fileio.write_rkt(tmp_path / "mask.rkt", mask.astype(float))
    masked = command == "complete"
    argv = [command, "--input", tmp_path / "X.rkt", "--rank", 4, "--max-iters", 2,
            "--out-dir", tmp_path / "out", *(["--mask", tmp_path / "mask.rkt"] * masked)]
    solve_input = tensor.slice_major(np.where(mask, X, 0.0) if masked else X)
    cfg = SolverConfig(rank=4, max_iters=2, mask=tensor.slice_major(mask) if masked else None)

    def peak(call):
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    solve_peak = peak(lambda: variants.solve_variant(solve_input, cfg))
    assert peak(lambda: run_cli(*argv)) - solve_peak <= 1.5 * X.nbytes


@pytest.mark.parametrize("variant, module, step, name", [
    ("admm2", admm, "_ascend", "Y"),
    ("admm3-fro", admm, "_ascend", "Y"),
    ("admm3-fro", admm, "_ascend", "Y_U"),
    ("admm3-nuc", admm, "_ascend", "Y_V"),
    ("admm2", admm, "update_R", "R"),
    ("ladmm3-fro", variants, "ladmm_update_R", "R"),
])
def test_non_finite_mid_run_names_the_array(tmp_path, monkeypatch, capsys, variant, module,
                                             step, name):
    # A nan in a dual after its ascent, or in a block step's output, at
    # iteration 3: the run aborts there (exit 4) and names that array.
    gen = tmp_path / "gen"
    assert run_cli(*synth_args(gen)) == 0
    real = getattr(module, step)

    def poisoned(state, *args):
        result = real(state, *args)
        if state.iters == 3:
            target = getattr(state, name) if step == "_ascend" else result
            target.flat[0] = np.nan
        return result

    monkeypatch.setattr(module, step, poisoned)
    out = tmp_path / "out"
    capsys.readouterr()
    assert run_cli("decompose", "--input", gen / "X.rkt", "--rank", 3, "--tol", 1e-12,
                   "--variant", variant, "--out-dir", out) == 4
    assert f"non-finite values in {name} at iteration 3" in capsys.readouterr().err
    report = json.loads((out / "report.json").read_text())
    assert report["termination"] == "abort" and len(report["iterations"]) == 3


@pytest.mark.parametrize("flags, config", [
    (["--tol", "nan"], None),
    (["--rho", "inf"], None),
    (["--alpha", "nan"], None),
    ([], {"alpha": "0.1"}),
    ([], {"max_iters": 2.5}),
    ([], [{"rank": 2}]),
    ([], {"alpha": 10**400}),
    ([], {"variant": "bogus"}),
], ids=["tol-nan", "rho-inf", "alpha-nan", "config-str-alpha", "config-float-iters",
        "config-list", "config-huge-int", "config-bad-choice"])
def test_bad_solver_settings_are_usage_errors(tmp_path, capsys, flags, config):
    # Non-finite flags and mistyped config values stop before any solve, with
    # exit 2 and a one-line message.
    x_path = tmp_path / "X.rkt"
    fileio.write_rkt(x_path, np.ones((6, 5, 2)))
    if config is not None:
        (tmp_path / "run.json").write_text(json.dumps(config))
        flags = ["--config", tmp_path / "run.json"]
    capsys.readouterr()
    code = run_cli("decompose", "--input", x_path, "--rank", 2, *flags,
                   "--out-dir", tmp_path / "out")
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("raw, code", [
    (b'\xef\xbb\xbf{"max_iters": 3}', 0),
    (b'{"max_iters": 3, "variant": "admm2"}', 0),
    (b'{"max_iters": 3, "variant": "\xff"}', 2),
    (b'\xef\xbb\xbf{"alpha": 0.1, "\xce\xb1": 1}', 2),
    (b'{"alpha": "\xe9"}', 2),
    (b'\xff\xfe{\x00}\x00', 2),
], ids=["bom", "ascii", "undecodable", "bom-non-ascii-key", "latin-1", "utf-16"])
def test_config_file_is_utf8_json_text(tmp_path, capsys, raw, code):
    # The config file is read as JSON text: UTF-8, a leading BOM tolerated.
    # Bytes that are not UTF-8 are a usage error, like malformed JSON.
    x_path = tmp_path / "X.rkt"
    fileio.write_rkt(x_path, np.ones((6, 5, 2)))
    (tmp_path / "run.json").write_bytes(raw)
    capsys.readouterr()
    out = tmp_path / "out"
    assert run_cli("decompose", "--input", x_path, "--rank", 2,
                   "--config", tmp_path / "run.json", "--out-dir", out) == code
    if code == 0:
        assert json.loads((out / "report.json").read_text())["config"]["max_iters"] == 3
    else:
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()


def test_eval_matches_library_bitwise(tmp_path):
    gen = tmp_path / "gen"
    run_cli(*synth_args(gen, **{"p-clean": 0.7}))
    low_rank = fileio.read_rkt(gen / "L_true.rkt")
    sparse = fileio.read_rkt(gen / "E_true.rkt")
    est_l = low_rank + 0.01
    est_e = sparse.copy()
    fileio.write_rkt(tmp_path / "est_l.rkt", est_l)
    fileio.write_rkt(tmp_path / "est_e.rkt", est_e)
    out_file = tmp_path / "metrics.json"
    assert run_cli("eval", "--estimate", tmp_path / "est_l.rkt",
                   "--truth", gen / "L_true.rkt",
                   "--sparse-estimate", tmp_path / "est_e.rkt",
                   "--sparse-truth", gen / "E_true.rkt",
                   "--range", 2.0, "--out", out_file) == 0
    emitted = json.loads(out_file.read_text())
    reference = data.metrics(est_l, est_e, low_rank, sparse, 2.0).to_dict()
    assert emitted == reference


@pytest.mark.parametrize("support", ["mixed", "empty", "full"])
def test_eval_reports_sparse_roc_auc(tmp_path, support):
    # roc_auc ranks |E_hat| against the support of E_true; a truth of one
    # class has no AUC, which is reported as null with exit code 0.
    rng = np.random.default_rng(12)
    shape = (6, 5, 3)
    sparse_truth = {"mixed": np.where(rng.random(shape) < 0.3, 1.0, 0.0),
                    "empty": np.zeros(shape), "full": np.ones(shape)}[support]
    sparse_est = sparse_truth * rng.random(shape) + 0.1 * rng.standard_normal(shape)
    paths = {}
    for name, arr in (("L", rng.standard_normal(shape)), ("E_est", sparse_est),
                      ("E_true", sparse_truth)):
        paths[name] = tmp_path / f"{name}.rkt"
        fileio.write_rkt(paths[name], arr)
    out_file = tmp_path / "metrics.json"
    assert run_cli("eval", "--estimate", paths["L"], "--truth", paths["L"],
                   "--sparse-estimate", paths["E_est"], "--sparse-truth", paths["E_true"],
                   "--out", out_file) == 0
    want = None
    if support == "mixed":
        want = data.roc_auc(np.abs(sparse_est), sparse_truth != 0)
        assert 0.5 < want < 1.0
    assert json.loads(out_file.read_text())["roc_auc"] == want


def test_eval_exact_estimate_psnr_sentinel(tmp_path, capsys):
    t = np.ones((3, 3, 2))
    fileio.write_rkt(tmp_path / "t.rkt", t)
    assert run_cli("eval", "--estimate", tmp_path / "t.rkt",
                   "--truth", tmp_path / "t.rkt") == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["rel_error_L"] == 0.0
    assert payload["psnr"] == float("inf")


def test_eval_without_sparse_pair_matches_metrics_bitwise(tmp_path, capsys):
    rng = np.random.default_rng(14)
    estimate, truth = rng.standard_normal((6, 5, 3)), rng.standard_normal((6, 5, 3))
    fileio.write_rkt(tmp_path / "est.rkt", estimate)
    fileio.write_rkt(tmp_path / "truth.rkt", truth)
    assert run_cli("eval", "--estimate", tmp_path / "est.rkt",
                   "--truth", tmp_path / "truth.rkt") == 0
    payload = json.loads(capsys.readouterr().out)
    zeros = np.zeros_like(truth)
    assert payload["rel_error_L"] == data.metrics(estimate, zeros, truth, zeros).rel_error_L


def test_complete_full_mask_equals_decompose(tmp_path):
    gen = tmp_path / "gen"
    run_cli(*synth_args(gen, **{"p-clean": 0.7}))
    mask_path = tmp_path / "mask.rkt"
    fileio.write_rkt(mask_path, np.ones((20, 18, 5)))
    out_c = tmp_path / "comp"
    out_d = tmp_path / "dec"
    common = ["--rank", 6, "--tol", 1e-8]
    assert run_cli("complete", "--input", gen / "X.rkt", "--mask", mask_path,
                   "--out-dir", out_c, *common) == 0
    assert run_cli("decompose", "--input", gen / "X.rkt",
                   "--out-dir", out_d, *common) == 0
    assert (out_c / "L.rkt").read_bytes() == (out_d / "L.rkt").read_bytes()


@pytest.mark.parametrize("variant", ["ladmm2", "admm3-fro"])
def test_complete_full_mask_equals_decompose_for_tucker_starts(tmp_path, variant):
    # A mask that hides nothing is no mask: the Tucker-2 start raises mu as
    # for a decomposition, and the report says the run was not masked.
    gen = tmp_path / "gen"
    run_cli(*synth_args(gen, **{"p-clean": 0.7}))
    mask_path = tmp_path / "mask.rkt"
    fileio.write_rkt(mask_path, np.ones((20, 18, 5)))
    out_c, out_d = tmp_path / "comp", tmp_path / "dec"
    common = ["--rank", 6, "--tol", 1e-8, "--variant", variant]
    assert run_cli("complete", "--input", gen / "X.rkt", "--mask", mask_path,
                   "--out-dir", out_c, *common) == 0
    assert run_cli("decompose", "--input", gen / "X.rkt",
                   "--out-dir", out_d, *common) == 0
    assert (out_c / "L.rkt").read_bytes() == (out_d / "L.rkt").read_bytes()
    report = json.loads((out_c / "report.json").read_text())
    assert report["config"]["masked"] is False


def test_complete_empty_mask_rejected(tmp_path):
    fileio.write_rkt(tmp_path / "X.rkt", np.ones((5, 5, 2)))
    fileio.write_rkt(tmp_path / "mask.rkt", np.zeros((5, 5, 2)))
    assert run_cli("complete", "--input", tmp_path / "X.rkt",
                   "--mask", tmp_path / "mask.rkt", "--rank", 2,
                   "--out-dir", tmp_path / "o") == 3


def test_decompose_empty_mask_rejected(tmp_path):
    # A mask that observes nothing leaves nothing to fit: a data error, as
    # for complete, before any solve.
    gen = tmp_path / "gen"
    run_cli(*synth_args(gen, m=8, n=7, N=4))
    fileio.write_rkt(tmp_path / "mask.rkt", np.zeros((8, 7, 4)))
    out = tmp_path / "o"
    assert run_cli("decompose", "--input", gen / "X.rkt", "--mask", tmp_path / "mask.rkt",
                   "--rank", 2, "--out-dir", out) == 3
    assert not out.exists()


@pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
@pytest.mark.parametrize("command", ["eval", "complete"])
def test_range_must_be_positive_finite(tmp_path, capsys, command, value):
    # --range is the data range of the PSNR: anything but a positive finite
    # number is a usage error at parse time, before any solve or output.
    gen = tmp_path / "gen"
    run_cli(*synth_args(gen, m=8, n=7, N=4))
    fileio.write_rkt(tmp_path / "mask.rkt", np.ones((8, 7, 4)))
    out = tmp_path / "out"
    args = {"eval": ["--estimate", gen / "X.rkt", "--out", out],
            "complete": ["--input", gen / "X.rkt", "--mask", tmp_path / "mask.rkt",
                         "--rank", 2, "--out-dir", out]}[command]
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        run_cli(command, *args, "--truth", gen / "L_true.rkt", f"--range={value}")
    assert exc.value.code == 2
    assert "--range: must be a positive finite number" in capsys.readouterr().err
    assert not out.exists()


def test_complete_improves_psnr(tmp_path):
    gen = tmp_path / "gen"
    run_cli(*synth_args(gen, **{"p-clean": 1.0, "m": 30, "n": 30, "N": 8}))
    truth = fileio.read_rkt(gen / "L_true.rkt")
    mask = data.make_mask(truth.shape, 0.7, seed=3)
    fileio.write_rkt(tmp_path / "mask.rkt", mask.astype(float))
    out = tmp_path / "comp"
    assert run_cli("complete", "--input", gen / "X.rkt",
                   "--mask", tmp_path / "mask.rkt",
                   "--truth", gen / "L_true.rkt",
                   "--rank", 6, "--lambda", 1e4, "--tol", 1e-10,
                   "--range", float(truth.max() - truth.min()),
                   "--out-dir", out) == 0
    result = json.loads((out / "metrics.json").read_text())
    assert result["rel_error_unobserved"] <= 0.1
    assert result["psnr_completed"] >= result["psnr_zero_filled"] + 10.0


def write_grayscale_stack(directory, stack):
    directory.mkdir(parents=True, exist_ok=True)
    for i in range(stack.shape[2]):
        fileio.write_pgm(directory / f"img_{i:02d}.pgm", stack[:, :, i])


def low_rank_images(m=24, n=24, n_img=6, seed=8):
    rng = np.random.default_rng(seed)
    a = rng.random((m, 2))
    b = rng.random((n, 2))
    stack = np.stack([a @ np.diag(rng.random(2)) @ b.T for _ in range(n_img)], axis=2)
    stack /= stack.max()
    return np.rint(stack * 255) / 255.0


def test_denoise_identity_when_clean(tmp_path):
    stack = low_rank_images()
    src = tmp_path / "imgs"
    write_grayscale_stack(src, stack)
    out = tmp_path / "out"
    assert run_cli("denoise", "--images", src, "--clean", src,
                   "--rank", 4, "--lambda", 1e4, "--tol", 1e-12,
                   "--out-dir", out) == 0
    result = json.loads((out / "metrics.json").read_text())
    assert result["psnr_denoised"] >= 40.0
    for i in range(stack.shape[2]):
        assert (out / f"img_{i:02d}.pgm").exists()


def test_denoise_improves_psnr_with_noise(tmp_path):
    stack = low_rank_images()
    src = tmp_path / "imgs"
    write_grayscale_stack(src, stack)
    out = tmp_path / "out"
    assert run_cli("denoise", "--images", src, "--clean", src,
                   "--noise-level", 0.3, "--seed", 5,
                   "--rank", 4, "--tol", 1e-10,
                   "--out-dir", out) == 0
    result = json.loads((out / "metrics.json").read_text())
    assert result["psnr_denoised"] > result["psnr_noisy"]


def test_denoise_color_stacks_three_slices(tmp_path):
    rng = np.random.default_rng(9)
    a = rng.random((16, 2))
    b = rng.random((16, 2))
    img = np.stack([a @ np.diag(rng.random(2)) @ b.T for _ in range(3)], axis=2)
    img /= img.max()
    src = tmp_path / "imgs"
    src.mkdir()
    fileio.write_ppm(src / "color.ppm", img)
    out = tmp_path / "out"
    assert run_cli("denoise", "--images", src,
                   "--rank", 4, "--lambda", 1e4, "--tol", 1e-10,
                   "--out-dir", out) == 0
    assert fileio.read_rkt(out / "E.rkt").shape == (16, 16, 3)
    assert fileio.read_ppm(out / "color.ppm").shape == (16, 16, 3)


def test_denoise_rejects_mixed_dims(tmp_path):
    src = tmp_path / "imgs"
    src.mkdir()
    fileio.write_pgm(src / "a.pgm", np.zeros((4, 4)))
    fileio.write_pgm(src / "b.pgm", np.zeros((5, 4)))
    assert run_cli("denoise", "--images", src, "--rank", 2,
                   "--out-dir", tmp_path / "o") == 3


def _count_reconstructs(monkeypatch):
    calls, real = [], FactorModel.reconstruct

    def counting(self):
        calls.append(1)
        return real(self)

    monkeypatch.setattr(FactorModel, "reconstruct", counting)
    return calls


@pytest.mark.parametrize("command", ["decompose", "complete", "denoise"])
def test_each_command_reconstructs_once(tmp_path, monkeypatch, command):
    # The L written to L.rkt is the one the command's own outputs use.
    gen = tmp_path / "gen"
    run_cli(*synth_args(gen, **{"p-clean": 0.9}))
    fileio.write_rkt(tmp_path / "mask.rkt", data.make_mask((20, 18, 5), 0.7, seed=4) * 1.0)
    write_grayscale_stack(tmp_path / "imgs", low_rank_images(m=12, n=10, n_img=3))
    args = {
        "decompose": ["--input", gen / "X.rkt"],
        "complete": ["--input", gen / "X.rkt", "--mask", tmp_path / "mask.rkt",
                     "--truth", gen / "L_true.rkt"],
        "denoise": ["--images", tmp_path / "imgs", "--clean", tmp_path / "imgs"],
    }[command]
    calls = _count_reconstructs(monkeypatch)
    out = tmp_path / "out"
    assert run_cli(command, *args, "--rank", 3, "--max-iters", 5, "--out-dir", out) == 0
    assert len(calls) == 1
    low_rank = fileio.read_rkt(out / "L.rkt")
    if command == "denoise":
        for i in range(3):
            got = fileio.read_pgm(out / f"img_{i:02d}.pgm")
            want = np.clip(low_rank[:, :, i], 0.0, 1.0)
            assert np.max(np.abs(got - want)) <= 0.5 / 255 + 1e-12


def test_complete_metrics_match_the_indexed_forms(tmp_path):
    # The hidden-entry error is taken without boolean-index copies; it agrees
    # with the indexed form to round-off, and the PSNRs are unchanged.
    gen = tmp_path / "gen"
    run_cli(*synth_args(gen, **{"p-clean": 1.0, "m": 30, "n": 30, "N": 8}))
    truth = fileio.read_rkt(gen / "L_true.rkt")
    mask = data.make_mask(truth.shape, 0.6, seed=5)
    fileio.write_rkt(tmp_path / "mask.rkt", mask.astype(float))
    out = tmp_path / "comp"
    assert run_cli("complete", "--input", gen / "X.rkt", "--mask", tmp_path / "mask.rkt",
                   "--truth", gen / "L_true.rkt", "--rank", 6, "--lambda", 1e4,
                   "--max-iters", 20, "--out-dir", out) == 0
    result = json.loads((out / "metrics.json").read_text())
    completed = fileio.read_rkt(out / "L.rkt")
    observed = np.where(mask, fileio.read_rkt(gen / "X.rkt"), 0.0)
    want = (np.linalg.norm((completed - truth)[~mask]) / np.linalg.norm(truth[~mask]))
    assert sorted(result) == ["psnr_completed", "psnr_zero_filled", "rel_error_unobserved"]
    assert abs(result["rel_error_unobserved"] - want) <= 1e-12 * want
    assert result["psnr_completed"] == data.psnr(completed, truth, 1.0)
    assert result["psnr_zero_filled"] == data.psnr(observed, truth, 1.0)


@pytest.mark.parametrize("command", ["decompose", "complete"])
def test_report_records_the_support_size_of_E(tmp_path, command):
    # Every record in report.json carries nnz(E) as an integer; the last is
    # the support size of the E that the command writes.
    gen = tmp_path / "gen"
    run_cli(*synth_args(gen))
    fileio.write_rkt(tmp_path / "mask.rkt", data.make_mask((20, 18, 5), 0.7, seed=4) * 1.0)
    mask = ["--mask", tmp_path / "mask.rkt"] if command == "complete" else []
    out = tmp_path / "out"
    assert run_cli(command, "--input", gen / "X.rkt", *mask, "--rank", 3,
                   "--out-dir", out) == 0
    records = json.loads((out / "report.json").read_text())["iterations"]
    assert all(type(rec["nnz_E"]) is int for rec in records)
    assert records[-1]["nnz_E"] == np.count_nonzero(fileio.read_rkt(out / "E.rkt"))


def test_hidden_norms_keep_the_bits_of_the_where_form():
    # The mask-multiplied norms equal the where= form's bit for bit over the
    # layouts a completion mixes: a column-major truth, slice-major
    # reconstruction and mask, and C-order arrays.
    rng = np.random.default_rng(12)
    shape = (9, 7, 5)
    for seed in range(3):
        completed, truth = rng.standard_normal(shape), rng.standard_normal(shape)
        hidden = data.make_mask(shape, 0.4, seed)
        layouts = [(tensor.slice_major(completed), np.asfortranarray(truth),
                    tensor.slice_major(hidden)),
                   (completed, truth, hidden),
                   (np.asfortranarray(completed), tensor.slice_major(truth), hidden)]
        for args in layouts:
            assert cli._hidden_norms(*args) == reference.hidden_norms(*args)
    none = np.zeros(shape, dtype=bool)
    assert cli._hidden_norms(completed, truth, none) == (0.0, 0.0)


@pytest.mark.parametrize("truth", ["missing", "mismatched", "truncated", "nan", "inf"])
def test_complete_checks_the_truth_before_the_solve(tmp_path, truth):
    # A missing truth file, one whose header or size disagrees with the data,
    # or one that holds a non-finite value, is a data error found before the
    # solve: exit 3, and no factor file or report is written.
    gen = tmp_path / "gen"
    run_cli(*synth_args(gen))
    fileio.write_rkt(tmp_path / "mask.rkt", data.make_mask((20, 18, 5), 0.7, seed=4) * 1.0)
    path = tmp_path / "truth.rkt"
    if truth == "mismatched":
        fileio.write_rkt(path, np.ones((20, 18, 4)))
    elif truth == "truncated":
        path.write_bytes((gen / "L_true.rkt").read_bytes()[:-8])
    elif truth in ("nan", "inf"):
        bad = fileio.read_rkt(gen / "L_true.rkt")
        bad[3, 4, 2] = float(truth)
        fileio.write_rkt(path, bad)
    out = tmp_path / "out"
    assert run_cli("complete", "--input", gen / "X.rkt", "--mask", tmp_path / "mask.rkt",
                   "--truth", path, "--rank", 3, "--max-iters", 3, "--out-dir", out) == 3
    assert not out.exists()


def test_denoise_checks_the_clean_stack_before_the_solve(tmp_path):
    # A clean reference of other dims is a data error found before the
    # solve: exit 3, and no factor file or report is written.
    write_grayscale_stack(tmp_path / "imgs", low_rank_images(m=12, n=10, n_img=3))
    write_grayscale_stack(tmp_path / "clean", low_rank_images(m=12, n=10, n_img=2))
    out = tmp_path / "out"
    assert run_cli("denoise", "--images", tmp_path / "imgs", "--clean", tmp_path / "clean",
                   "--rank", 3, "--max-iters", 3, "--out-dir", out) == 3
    assert not out.exists()
