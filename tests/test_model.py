"""Config, factor-model and report contract tests."""

import json
import math
import numbers
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rkca import admm, variants
from rkca.model import (
    VARIANTS,
    FactorModel,
    IterationRecord,
    RunReport,
    SolverConfig,
    default_lambda,
)


def test_default_lambda_heuristic():
    assert default_lambda((50, 40, 20)) == pytest.approx(1.0 / np.sqrt(20 * 50))


def test_factor_model_validation():
    with pytest.raises(ValueError):
        FactorModel(a=np.zeros((4, 5)), b=np.zeros((4, 5)), core=np.zeros((5, 5, 2)))
    with pytest.raises(ValueError):
        FactorModel(a=np.zeros((4, 2)), b=np.zeros((4, 3)), core=np.zeros((2, 2, 2)))
    model = FactorModel(a=np.zeros((4, 2)), b=np.zeros((5, 2)), core=np.zeros((2, 2, 3)))
    assert model.rank == 2 and model.dims == (4, 5, 3)


def test_solver_config_validation():
    for bad in (
        dict(rank=0),
        dict(rank=2, alpha=-1.0),
        dict(rank=2, lam=0.0),
        dict(rank=2, rho=1.0),
        dict(rank=2, tol=0.0),
        dict(rank=2, max_iters=0),
        dict(rank=2, variant="bogus"),
    ):
        with pytest.raises(ValueError):
            SolverConfig(**bad)
    cfg = SolverConfig(rank=4)
    with pytest.raises(ValueError):
        cfg.validate_for((3, 3, 2))
    resolved = cfg.resolved((10, 8, 4))
    assert resolved["lambda"] == pytest.approx(default_lambda((10, 8, 4)))
    assert resolved["variant"] == "admm2"


def test_solver_config_rejects_nonfinite_and_mistyped_values():
    for bad in (
        dict(rank=2, tol=float("nan")),
        dict(rank=2, rho=float("inf")),
        dict(rank=2, alpha=float("nan")),
        dict(rank=2, lam=float("inf")),
        dict(rank=2, mu_cap_factor=float("inf")),
        dict(rank=2, alpha="0.1"),
        dict(rank=2, max_iters=2.5),
        dict(rank=2.0),
        dict(rank=True),
        dict(rank=2, tol=None),
    ):
        with pytest.raises(ValueError):
            SolverConfig(**bad)
    cfg = SolverConfig(rank=np.int64(3), alpha=0, rho=2, tol=np.float64(1e-8))
    assert cfg.rank == 3 and cfg.rho == 2


CONFIG_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(),
    st.sampled_from([10**400, -10**400, np.int64(3), np.float64(0.5), "0.1", "admm2"]),
    st.text(max_size=3), st.lists(st.integers(), max_size=2),
)


@settings(max_examples=150, deadline=None)
@given(field=st.sampled_from(["rank", "alpha", "lam", "rho", "mu_cap_factor", "tol",
                              "max_iters", "variant"]),
       value=CONFIG_VALUES)
def test_solver_config_accepts_only_valid_values(field, value):
    # Any value either raises ValueError or leaves a field the solvers can use.
    try:
        cfg = SolverConfig(**{"rank": 2, field: value})
    except ValueError:
        return
    got = getattr(cfg, field)
    if field in ("rank", "max_iters"):
        assert isinstance(got, numbers.Integral) and not isinstance(got, bool) and got >= 1
    elif field == "variant":
        assert got in VARIANTS
    elif not (field == "lam" and got is None):
        assert not isinstance(got, bool) and math.isfinite(float(got))


def test_numpy_typed_config_reports_as_the_python_typed_one():
    # numpy scalars pass the checks and are kept as Python numbers, so the
    # run's report serialises, to the JSON that Python numbers give.
    X = np.random.default_rng(3).standard_normal((6, 5, 4))
    given = dict(rank=3, max_iters=5, alpha=0.02, lam=0.3, rho=1.2, mu_cap_factor=1e6, tol=1e-6)
    typed = {k: (np.int32 if isinstance(v, int) else np.float64)(v) for k, v in given.items()}
    reports = []
    for fields in (given, typed):
        cfg = SolverConfig(**fields)
        assert {type(getattr(cfg, k)) for k in given} == {int, float}
        _, _, report = variants.solve_variant(X, cfg)
        for rec in report.iterations:
            rec.elapsed_ms = 0.0
        reports.append(report.to_json())
    assert reports[0] == reports[1]


def test_report_round_trips_through_json():
    report = RunReport(variant="admm2", config={"rank": 3})
    report.append(IterationRecord(iter=1, err_rec=0.5, mu=1.0, elapsed_ms=2.0,
                                  err_R=0.25, mu_K=0.5))
    report.termination = "tol"
    report.warn("A-update system ill-conditioned (cond=1e13)")
    payload = json.loads(report.to_json())
    assert payload["termination"] == "tol"
    assert payload["iterations"][0]["err_R"] == 0.25
    assert "err_A" not in payload["iterations"][0]
    assert payload["warnings"]


def test_update_A_warns_on_ill_conditioning():
    # Core slices with a 1e8 column-scale spread make the normal-equation
    # system condition exceed 1e12.
    rng = np.random.default_rng(0)
    r, m, n, N = 3, 6, 5, 2
    scale = np.diag([1e8, 1.0, 1e-8])
    model = FactorModel(
        a=rng.standard_normal((m, r)),
        b=rng.standard_normal((n, r)),
        core=np.stack([scale, scale], axis=2),
    )
    state = admm.SolverState(
        model=model,
        E=np.zeros((m, n, N)),
        K=np.stack([scale, scale], axis=2),
        Lam=np.zeros((m, n, N)),
        Y=np.zeros((r, r, N)),
        mu=1.0, mu_K=1.0, mu_cap=1e7, mu_K_cap=1e7,
    )
    report = RunReport(variant="admm2", config={})
    out = admm.update_A(state, rng.standard_normal((m, n, N)), report)
    assert out.shape == (m, r)
    assert np.all(np.isfinite(out))
    assert any(w.startswith("A-update") for w in report.warnings)

    # The degree-3 U copy goes through the same guarded solve.
    d3 = admm.SolverState(
        model=model,
        E=np.zeros((m, n, N)),
        K=np.stack([scale, scale], axis=2),
        Lam=np.zeros((m, n, N)),
        Y=np.zeros((r, r, N)),
        U=rng.standard_normal((m, r)),
        V=rng.standard_normal((n, r)),
        Y_U=np.zeros((m, r)),
        Y_V=np.zeros((n, r)),
        mu=1.0, mu_K=1.0, mu_U=1.0, mu_V=1.0,
        mu_cap=1e7, mu_K_cap=1e7, mu_U_cap=1e7, mu_V_cap=1e7,
    )
    report = RunReport(variant="admm3_fro", config={})
    out = variants.degree3_update_U(d3, rng.standard_normal((m, n, N)), report)
    assert out.shape == (m, r)
    assert np.all(np.isfinite(out))
    assert any(w.startswith("U-update") for w in report.warnings)


def test_validate_for_checks_the_mask_without_copying_it():
    mask = np.random.default_rng(16).random((100, 100, 50)) < 0.5
    cfg = SolverConfig(rank=4, mask=mask)
    tracemalloc.start()
    try:
        cfg.validate_for(mask.shape)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= mask.nbytes / 8, peak / mask.nbytes
    with pytest.raises(ValueError, match="mask shape"):
        cfg.validate_for((100, 100, 49))
    # A mask must observe at least one entry; a solve refuses one that does not.
    empty = SolverConfig(rank=2, mask=np.zeros((6, 5, 3), dtype=bool))
    with pytest.raises(ValueError, match="empty observation mask"):
        variants.solve_variant(np.ones((6, 5, 3)), empty)
