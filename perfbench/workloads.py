"""The benchmark workloads: instances, solve rounds and output checks.

A workload is one synthetic instance plus the solves run on it in every
round, each to tol 1e-10.  The instance seed is a benchmark argument; without
one the seeds are the repo's own fixtures (conftest ``BENCH_SPEC``, the A10
scaling spec and a 100x100x50 version of A4's completion instance).  Why each
workload exists is in ``README.md`` next to this file.

Every solve is checked here, outside its timed region, against the benchmark's
own recomputation of the factorisation, so a solver that reports a residual it
did not reach counts as failed.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import shutil
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from rkca import cli, data, fileio, model, variants

TOL = 1e-10
RANK_A = RANK_B = 5

# Quality floors, from the repo's acceptance bounds: A1 for the exact ADMM
# variants, A4 for completion.  LADMM variants have no floor at these
# settings; their quality is recorded as it stands.
FLOOR_REL_L = 1e-4
FLOOR_F1 = 0.999
FLOOR_HIDDEN = 0.1

# Agreement required between the report's last err_rec and the benchmark's
# recomputation from the returned factors.  Both are ~1e-11 at termination;
# round-off in the recomputation is ~1e-10 relative.
ERR_REC_RTOL = 1e-6


@dataclass(frozen=True)
class Solve:
    variant: str  # CLI spelling, e.g. "ladmm3-fro"
    rank: int
    alpha: float
    gated: bool  # held to the A1 quality floor


@dataclass(frozen=True)
class Workload:
    name: str
    dims: tuple[int, int, int]
    p_clean: float
    default_seed: int
    # Passes per sample of the reference kernel, sized to ~2 % of a solve.
    reference_reps: int
    solves: tuple[Solve, ...] = ()
    # Completion through the CLI: observed fraction and default mask seed.
    observed_fraction: float | None = None
    default_mask_seed: int | None = None

    @property
    def via_cli(self):
        return self.observed_fraction is not None

    def seeds(self, seed):
        """(instance seed, mask seed); explicit seeds derive the mask seed."""
        if seed is None:
            return self.default_seed, self.default_mask_seed
        return seed, seed + 1

    @property
    def variant_names(self):
        return ("admm2",) if self.via_cli else tuple(s.variant for s in self.solves)

    @property
    def rank(self):
        return CLI_RANK if self.via_cli else max(s.rank for s in self.solves)


def _accept(variant, alpha, gated):
    return Solve(variant, rank=10, alpha=alpha, gated=gated)


WORKLOADS = {
    wl.name: wl
    for wl in (
        Workload(
            "accept-50", (50, 50, 20), 0.7, 20260808, reference_reps=10,
            solves=(
                _accept("admm2", 1e-2, True),
                _accept("ladmm2", 1e-2, False),
                _accept("ladmm3-fro", 1e-5, False),
                _accept("ladmm3-nuc", 1e-5, False),
                _accept("admm3-fro", 1e-5, True),
                _accept("admm3-nuc", 1e-5, True),
            ),
        ),
        Workload(
            "large-100", (100, 100, 100), 0.7, 123, reference_reps=8,
            solves=(Solve("admm2", 15, 1e-2, True), Solve("ladmm2", 15, 1e-2, False)),
        ),
        Workload(
            "complete-cli", (100, 100, 50), 1.0, 4242, reference_reps=6,
            observed_fraction=0.5, default_mask_seed=11,
        ),
    )
}

VARIANTS = tuple(cli.VARIANT_FLAGS)
CLI_RANK = 10
# Samples of the reference kernel taken after every solve of a round.
REFERENCE_SAMPLES = 3
CLI_ARGS = ("--rank", str(CLI_RANK), "--lambda", "1e4", "--tol", "1e-10")


@dataclass
class Instance:
    low_rank: np.ndarray
    sparse: np.ndarray
    X: np.ndarray  # what the solver sees (zeros at unobserved entries)
    mask: np.ndarray | None
    workdir: Path
    files: dict[str, Path] = field(default_factory=dict)

    @property
    def mb(self):
        return self.X.nbytes / 1e6


def prepare(workload, seed, workdir):
    """Generate the instance and, for the CLI workload, write its input files."""
    m, n, N = workload.dims
    inst_seed, mask_seed = workload.seeds(seed)
    spec = data.SynthSpec(m, n, N, RANK_A, RANK_B, workload.p_clean, inst_seed)
    low_rank, sparse, observed = data.synth_generate(spec)
    inst = Instance(low_rank, sparse, observed, None, Path(workdir))
    if workload.via_cli:
        inst.mask = data.make_mask(observed.shape, workload.observed_fraction, mask_seed)
        inst.X = np.where(inst.mask, observed, 0.0)
        inst.workdir.mkdir(parents=True, exist_ok=True)
        inst.files = {
            "input": inst.workdir / "X.rkt",
            "mask": inst.workdir / "mask.rkt",
            "truth": inst.workdir / "L_true.rkt",
        }
        fileio.write_rkt(inst.files["input"], inst.X)
        fileio.write_rkt(inst.files["mask"], inst.mask.astype(np.float64))
        fileio.write_rkt(inst.files["truth"], low_rank)
    return inst


@dataclass
class SolveResult:
    variant: str
    seconds: float
    iterations: int = 0
    termination: str = ""
    rel_error_L: float | None = None
    support_f1: float | None = None
    rel_error_hidden: float | None = None
    err_rec_report: float | None = None
    err_rec_check: float | None = None
    iter_ms: list[float] = field(default_factory=list)
    cond_warnings: int = 0
    report_kb: float = 0.0
    digest: str = ""
    failures: list[str] = field(default_factory=list)

    @property
    def ok(self):
        return not self.failures

    def summary(self):
        """Everything but the per-iteration times, for the run's record."""
        return {k: v for k, v in asdict(self).items() if k != "iter_ms"}


def low_rank_of(a, core, b):
    """The benchmark's own A R_i B^T, independent of rkca.tensor."""
    return np.einsum("ir,rsk,js->ijk", a, core, b, optimize=True)


def max_slice_ratio(X, resid):
    """max_i ||resid_i||^2 / ||X_i||^2, falling back to ||resid_i||^2 at 0."""
    num = np.einsum("ijk,ijk->k", resid, resid)
    den = np.einsum("ijk,ijk->k", X, X)
    return float(np.max(np.where(den > 0, num / np.where(den > 0, den, 1.0), num)))


def _digest(*arrays):
    h = hashlib.sha256()
    for arr in arrays:
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def _check_factors(res, inst, rank, a, b, core, e_hat, err_rec_report):
    """Shape, finiteness and err_rec agreement; appends to res.failures."""
    m, n, N = inst.X.shape
    expected = {"A": (m, rank), "B": (n, rank), "R": (rank, rank, N), "E": (m, n, N)}
    got = {"A": a, "B": b, "R": core, "E": e_hat}
    for name, arr in got.items():
        if arr.shape != expected[name]:
            res.failures.append(f"{name} has shape {arr.shape}, expected {expected[name]}")
        elif not np.all(np.isfinite(arr)):
            res.failures.append(f"{name} has non-finite entries")
    if res.failures:
        return None
    l_hat = low_rank_of(a, core, b)
    res.err_rec_report = err_rec_report
    res.err_rec_check = max_slice_ratio(inst.X, inst.X - l_hat - e_hat)
    gap = abs(res.err_rec_check - err_rec_report)
    if not gap <= ERR_REC_RTOL * max(abs(err_rec_report), abs(res.err_rec_check)):
        res.failures.append(
            f"report err_rec {err_rec_report:.6e} != recomputed {res.err_rec_check:.6e}"
        )
    return l_hat


def solve_in_process(inst, solve, span=contextlib.nullcontext):
    """One ``solve_variant`` call to tol, timed, then checked."""
    cfg = model.SolverConfig(
        rank=solve.rank, alpha=solve.alpha, tol=TOL, variant=cli.VARIANT_FLAGS[solve.variant]
    )
    t0 = time.perf_counter()
    try:
        with span():
            fm, e_hat, report = variants.solve_variant(inst.X, cfg)
    except Exception as exc:  # a failed solve is counted, not fatal
        return SolveResult(solve.variant, time.perf_counter() - t0,
                           failures=[f"raised {type(exc).__name__}: {exc}"])
    res = SolveResult(solve.variant, time.perf_counter() - t0)
    res.iterations = report.n_iterations
    res.termination = report.termination
    res.iter_ms = [rec.elapsed_ms for rec in report.iterations]
    res.cond_warnings = sum("ill-conditioned" in w for w in report.warnings)
    res.report_kb = (len(json.dumps(report.to_dict(), indent=2, sort_keys=True)) + 1) / 1e3
    res.digest = _digest(fm.a, fm.b, fm.core, e_hat)
    l_hat = _check_factors(res, inst, solve.rank, fm.a, fm.b, fm.core, e_hat,
                           report.iterations[-1].err_rec)
    if l_hat is None:
        return res
    quality = data.metrics(l_hat, e_hat, inst.low_rank, inst.sparse)
    res.rel_error_L = quality.rel_error_L
    res.support_f1 = quality.support_f1
    if solve.gated and not (res.rel_error_L <= FLOOR_REL_L and res.support_f1 >= FLOOR_F1):
        res.failures.append(
            f"quality floor missed: rel_error_L {res.rel_error_L:.2e} (<= {FLOOR_REL_L}), "
            f"support F1 {res.support_f1:.4f} (>= {FLOOR_F1})"
        )
    return res


def read_rkt_plain(path):
    """The benchmark's own RKT1 reader: 32-byte header, column-major float64."""
    raw = Path(path).read_bytes()
    if raw[:8] != fileio.RKT_MAGIC:
        raise ValueError(f"{path}: not an RKT1 file")
    dims = tuple(int(d) for d in np.frombuffer(raw, "<u8", count=3, offset=8))
    return np.frombuffer(raw, "<f8", offset=32).reshape(dims, order="F"), raw


def _cli_argv(inst, out_dir, *extra):
    return ["complete", "--input", str(inst.files["input"]), "--mask",
            str(inst.files["mask"]), "--out-dir", str(out_dir), *CLI_ARGS, *extra]


def _check_cli_outputs(res, inst, out_dir):
    """Fill ``res`` from the files one ``rkca complete`` call wrote."""
    report = json.loads((out_dir / "report.json").read_text(encoding="ascii"))
    hidden = json.loads((out_dir / "metrics.json").read_text(encoding="ascii"))
    res.iterations = len(report["iterations"])
    res.termination = report["termination"]
    res.iter_ms = [rec["elapsed_ms"] for rec in report["iterations"]]
    res.cond_warnings = sum("ill-conditioned" in w for w in report["warnings"])
    res.report_kb = (out_dir / "report.json").stat().st_size / 1e3
    arrays, raws = {}, []
    for name in ("A", "B", "R", "E"):
        arrays[name], raw = read_rkt_plain(out_dir / f"{name}.rkt")
        raws.append(raw)
    res.digest = hashlib.sha256(b"".join(raws)).hexdigest()
    a, b = arrays["A"][:, :, 0], arrays["B"][:, :, 0]
    l_hat = _check_factors(res, inst, CLI_RANK, a, b, arrays["R"], arrays["E"],
                           report["iterations"][-1]["err_rec"])
    if l_hat is None:
        return
    res.rel_error_L = data.metrics(l_hat, arrays["E"], inst.low_rank, inst.sparse).rel_error_L
    res.rel_error_hidden = float(hidden["rel_error_unobserved"])
    if not res.rel_error_hidden <= FLOOR_HIDDEN:
        res.failures.append(
            f"quality floor missed: rel_error_hidden {res.rel_error_hidden:.2e} "
            f"(<= {FLOOR_HIDDEN})"
        )


def solve_via_cli(inst, out_dir, span=contextlib.nullcontext):
    """One in-process ``rkca complete`` call, timed, then its files checked."""
    argv = _cli_argv(inst, out_dir, "--truth", str(inst.files["truth"]))
    t0 = time.perf_counter()
    try:
        try:
            with span():
                code = cli.main(argv)
        except Exception as exc:  # a failed solve is counted, not fatal
            return SolveResult("admm2", time.perf_counter() - t0,
                               failures=[f"raised {type(exc).__name__}: {exc}"])
        res = SolveResult("admm2", time.perf_counter() - t0)
        if code != 0:
            res.failures.append(f"rkca complete exited with {code}")
            return res
        try:
            _check_cli_outputs(res, inst, Path(out_dir))
        except (OSError, ValueError, KeyError, IndexError) as exc:
            res.failures.append(f"unreadable outputs: {type(exc).__name__}: {exc}")
        return res
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)


def reference_seconds(workload):
    """Time a fixed plain-numpy pass shaped like ADMM iterations on a workload.

    It never calls rkca, so a change to the package leaves its time alone.
    Timed between solves, it measures how fast the machine runs at that
    moment: dividing a round's time by it cancels drift in machine speed.
    Its arrays are freed on return, so they do not add to the solves' memory.
    """
    rng = np.random.default_rng(0)
    m, n, N = workload.dims
    r = workload.rank
    a, b = rng.standard_normal((m, r)), rng.standard_normal((n, r))
    core, x = rng.standard_normal((N, r, r)), rng.standard_normal((N, m, n))
    t0 = time.perf_counter()
    for _ in range(workload.reference_reps):
        resid = x - a @ core @ b.T
        shrunk = np.sign(resid) * np.maximum(np.abs(resid) - 0.5, 0.0)
        np.max(np.einsum("kij,kij->k", shrunk, shrunk) / np.einsum("kij,kij->k", x, x))
        gram = np.sum(core @ (b.T @ b) @ core.transpose(0, 2, 1), axis=0)
        _, q = np.linalg.eigh(gram + gram.T)
        q.T @ core @ q
    return time.perf_counter() - t0


def run_round(workload, inst, index, span=contextlib.nullcontext, reference=False):
    """Every solve of the workload once.

    Returns the results and, with ``reference``, ``REFERENCE_SAMPLES`` times
    of the reference pass taken after each solve.
    """
    if workload.via_cli:
        runs = [lambda: solve_via_cli(inst, inst.workdir / f"out-{index}", span)]
    else:
        runs = [lambda solve=solve: solve_in_process(inst, solve, span)
                for solve in workload.solves]
    results, samples = [], []
    for run in runs:
        results.append(run())
        if reference:
            samples += [reference_seconds(workload) for _ in range(REFERENCE_SAMPLES)]
    return results, samples


def warm_up(workload, inst):
    """Untimed short solves so lazy imports and first-touch costs are paid."""
    if workload.via_cli:
        out = inst.workdir / "warm-up"
        cli.main(_cli_argv(inst, out, "--max-iters", "2"))
        shutil.rmtree(out, ignore_errors=True)
        return
    for solve in workload.solves:
        cfg = model.SolverConfig(rank=solve.rank, alpha=solve.alpha, tol=TOL, max_iters=2,
                                 variant=cli.VARIANT_FLAGS[solve.variant])
        variants.solve_variant(inst.X, cfg)
