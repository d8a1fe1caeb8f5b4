"""The solvers' r x r kernels, and the starts' opened splits, give the bits
of their direct forms in ``reference``: random inputs at r in {1, 10, 15},
with zero slices, a zero basis and a single slice, and for the split ascents
inputs that are not contiguous."""

import copy
import math
from operator import attrgetter

import numpy as np
import pytest

from rkca import admm, linalg, tensor, variants
from rkca.model import FactorModel, SolverConfig

import reference

M, N_SLICES = 20, 6
CASES = ["random", "zero-slices", "zero-basis", "one-slice"]


def make_state(r, case, seed=0):
    """A degree-3 state (it holds every split) with slice-major cores, and
    X; ``case`` zeroes some core and data slices, zeroes B, or keeps one
    slice."""
    rng = np.random.default_rng(seed + 100 * r)
    N = 1 if case == "one-slice" else N_SLICES
    m, n = M, M - 3
    core = lambda: admm._stack(rng.standard_normal((N, r, r)))  # noqa: E731
    state = admm.SolverState(
        model=FactorModel(rng.standard_normal((m, r)), rng.standard_normal((n, r)), core()),
        E=tensor.slice_major(rng.standard_normal((m, n, N))),
        Lam=tensor.slice_major(rng.standard_normal((m, n, N))),
        mu=1.7, mu_cap=1e6, K=core(), Y=core(), mu_K=0.6, mu_K_cap=1e6,
        U=rng.standard_normal((m, r)), V=rng.standard_normal((n, r)),
        Y_U=rng.standard_normal((m, r)), Y_V=rng.standard_normal((n, r)),
        mu_U=0.9, mu_V=1.3, mu_U_cap=1e6, mu_V_cap=1.4,
    )
    X = tensor.slice_major(rng.standard_normal((m, n, N)))
    if case == "zero-slices":
        for arr in (state.model.core, state.K, X):
            arr[:, :, 1::3] = 0.0
    elif case == "zero-basis":
        state.model.b[:] = 0.0
    return state, X


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("r", [1, 10, 15])
def test_basis_solves_and_cross_grams_keep_the_bits(r, case):
    state, X = make_state(r, case)
    a, b = state.model.a, state.model.b
    delta = X + state.Lam
    g = a.T @ admm._slices(delta)
    for core in (state.model.core, state.K):
        for other in (a, b):
            for row in (False, True):
                assert np.array_equal(admm._cross_gram(core, other, row),
                                      reference.cross_gram(core, other, row))
    solves = [
        (admm._solve_basis(state, delta, b, False, 2.5, None, "A"),
         reference.solve_basis(state, delta, b, False, 2.5)),
        (admm._solve_basis(state, g, a, True, 2.5, None, "B"),
         reference.solve_basis(state, g, a, True, 2.5)),
        (admm._solve_basis(state, delta, b, False, 0.7, None, "U", anchor=state.U, mu_anchor=0.9),
         reference.solve_basis(state, delta, b, False, 0.7, anchor=state.U, mu_anchor=0.9)),
    ]
    for got, want in solves:
        assert np.array_equal(got, want)


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("r", [1, 10, 15])
def test_stein_kernels_keep_the_bits(r, case):
    state, X = make_state(r, case)
    a, b = state.model.a, state.model.b
    gram_a, gram_b = reference.sym(a.T @ a), reference.sym(b.T @ b)
    for F, G in ((-0.4 * gram_a, gram_b), (-0.4 * gram_a, gram_b[:1, :1])):
        got, want = linalg.stein_factors(F, G), reference.stein_factors(F, G)
        for part, (x, y) in enumerate(zip(got, want)):
            assert np.array_equal(x, y), part
        H = admm._slices(state.Y)[:, :, :G.shape[0]]
        assert np.array_equal(linalg.stein_apply(got, H), reference.stein_apply(want, H))
    g = a.T @ admm._slices(X + state.Lam)
    assert np.array_equal(admm._stein_core(state, g, a, b), reference.stein_core(state, g, a, b))


def test_a_singular_pencil_is_refused_as_the_reference_refuses_it():
    F, G = np.diag([2.0, 1.0]), np.diag([0.5, 3.0])
    assert reference.stein_factors(F, G) is None
    with pytest.raises(linalg.SteinSingularError):
        linalg.stein_factors(F, G)


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("r", [1, 10, 15])
def test_rec_ratio_keeps_the_bits(r, case):
    state, X = make_state(r, case)
    rng = np.random.default_rng(r)
    N = X.shape[2]
    num = rng.random(N)
    cross = rng.standard_normal((N, r, r))
    if case == "zero-slices":
        num[::2] = 0.0
    norms = admm._sq_norms(X)
    delta = admm._slices(admm._split_diff(state, admm.CORE_SPLIT))
    for passed in (cross, None):
        got = admm._rec_ratio(state, norms, num.copy(), None if passed is None else passed.copy(),
                              delta)
        assert got == reference.rec_ratio(state, norms, num, passed, state.K)


@pytest.mark.parametrize("case", [*CASES, "non-contiguous"])
@pytest.mark.parametrize("r", [1, 10, 15])
def test_ascents_keep_the_bits(r, case):
    # "non-contiguous" holds F-ordered bases and C-ordered (r, r, N) cores,
    # whose slices the residual kernel copies before its dots.
    splits = (admm.CORE_SPLIT, admm.Split("err_A", "model.a", "U", "Y_U", "mu_U"),
              admm.Split("err_B", "model.b", "V", "Y_V", "mu_V"))
    cfg = SolverConfig(rank=r, rho=1.25)
    state = make_state(r, "random" if case == "non-contiguous" else case)[0]
    if case == "zero-basis":
        state.V[:] = 0.0
    if case == "non-contiguous":
        model = state.model
        model.a, model.b, state.U, state.V, state.Y_U, state.Y_V = map(
            np.asfortranarray, (model.a, model.b, state.U, state.V, state.Y_U, state.Y_V))
        model.core, state.K, state.Y = map(np.ascontiguousarray, (model.core, state.K, state.Y))
    twin = copy.deepcopy(state)
    diffs = [admm._split_diff(state, row) for row in splits]
    assert admm._ascend(state, splits, diffs, cfg.rho) == reference.ascend(twin, splits, cfg)
    for name in ("Y", "Y_U", "Y_V", "mu_K", "mu_U", "mu_V"):
        assert np.array_equal(getattr(state, name), getattr(twin, name)), name


@pytest.mark.parametrize("case", [*CASES, "zero-input"])
@pytest.mark.parametrize("r", [1, 10, 15])
@pytest.mark.parametrize("masked", [False, True], ids=["unmasked", "masked"])
def test_tucker_start_keeps_the_bits(r, case, masked, monkeypatch):
    # Blocks of 2 slices, so the residual's blocks are checked against the
    # slice-by-slice maximum too.
    _, X = make_state(r, case)
    if case == "zero-input":
        X[:] = 0.0
    monkeypatch.setattr(admm, "_BLOCK_BYTES", 2 * X[:, :, 0].nbytes)
    mask = tensor.slice_major(np.random.default_rng(r).random(X.shape) < 0.6) if masked else None
    cfg = SolverConfig(rank=r, lam=0.3, mask=mask)
    state = admm._init_tucker(X, cfg)
    a, b, core_t, mu = reference.tucker_start(X, cfg)
    assert np.array_equal(state.model.a, a) and np.array_equal(state.model.b, b)
    assert np.array_equal(admm._slices(state.model.core), core_t)
    assert state.mu == mu and state.mu_cap == cfg.mu_cap_factor * mu
    assert admm._init_tucker(X, cfg, admm._data_penalty(X)).mu == mu


@pytest.mark.parametrize("case", [*CASES, "zero-input"])
@pytest.mark.parametrize("r", [1, 10, 15])
@pytest.mark.parametrize("masked", [False, True], ids=["unmasked", "masked"])
def test_opened_splits_keep_the_bits(r, case, masked):
    # Each start opens its splits as the hand-written set-ups did; the masked
    # start's mu_K now sums the norms of diag(s_i[:r]), not of s_i[:r].
    _, X = make_state(r, case)
    if case == "zero-input":
        X[:] = 0.0
    mask = tensor.slice_major(np.random.default_rng(r).random(X.shape) < 0.6) if masked else None
    cfg = SolverConfig(rank=r, lam=0.3, mask=mask)
    data_mu = admm._data_penalty(X)
    for start, setup, splits in (
            (admm.initialize, reference.initialize_splits, (admm.CORE_SPLIT,)),
            (admm._init_balanced, reference.balanced_splits, (admm.CORE_SPLIT,)),
            (variants._init_degree3, reference.degree3_splits, variants.DEGREE3_SPLITS)):
        state = start(X, cfg)
        want = setup(state, data_mu)
        for row in splits:
            for name in (row.copy, row.dual):
                got, ref = getattr(state, name), want[name]
                assert np.array_equal(got, ref) and got.strides == ref.strides, name
            assert not np.shares_memory(getattr(state, row.copy), attrgetter(row.primal)(state))
            got = getattr(state, row.penalty)
            if start is admm.initialize:
                assert abs(got - want[row.penalty]) <= 4 * np.spacing(want[row.penalty])
            else:
                assert got == want[row.penalty], (start.__name__, row.penalty)
            assert getattr(state, row.penalty + "_cap") == cfg.mu_cap_factor * got


def test_degree3_splits_scale_by_the_correctly_rounded_root():
    # glibc's pow(f, 0.5) rounds this f's root one ulp below sqrt(f), which
    # the degree-3 start takes.
    f = 255.12039825715397
    state, X = make_state(10, "random")
    state.mu = f
    admm._open_splits(state, SolverConfig(rank=10), variants.DEGREE3_SPLITS, 1.0, p=0.5)
    for row in variants.DEGREE3_SPLITS:
        want = math.sqrt(f) * admm._data_penalty(attrgetter(row.primal)(state), X.shape[2])
        assert getattr(state, row.penalty) == want, row.penalty
