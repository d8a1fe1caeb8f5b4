"""Command-line front end: generation, decomposition, denoising, completion, eval.

Exit codes: 0 success, 2 usage error, 3 data/IO error, 4 numeric abort.
Every command is deterministic given its flags; reports always record the
fully-resolved configuration so a run can be replayed exactly.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import partial
from pathlib import Path

import numpy as np

from . import data, fileio, tensor
from .admm import SolverAbort
from .linalg import NumericalError
from .model import VARIANTS, SolverConfig
from .variants import solve_variant

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4

VARIANT_FLAGS = {v.replace("_", "-"): v for v in VARIANTS}

# What a --config value of a flag with this argparse type must be in JSON.
JSON_KINDS = {int: ((int,), "an integer"), float: ((int, float), "a number"),
              None: ((str,), "a string")}


class UsageError(ValueError):
    """Bad flags or config file: exit code 2."""


def _write_json(path, payload):
    with open(path, "w", encoding="ascii") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _positive_range(text):
    """The --range flag's type: a positive finite number, else a usage error."""
    try:
        if 0.0 < float(text) < float("inf"):
            return float(text)
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"must be a positive finite number, got {text!r}")


def _add_solver_flags(parser):
    """Add the solver flags; returns their argparse actions."""
    return [
        parser.add_argument(
            "--variant", choices=sorted(VARIANT_FLAGS), default="admm2",
            help="solver variant (default admm2)",
        ),
        parser.add_argument("--rank", type=int, help="rank upper bound r (required)"),
        parser.add_argument("--alpha", type=float, default=1e-2),
        parser.add_argument(
            "--lambda", dest="lam", type=float, default=None,
            help="sparsity weight; defaults to 1/sqrt(N*max(m,n))",
        ),
        parser.add_argument("--rho", type=float, default=1.1),
        parser.add_argument("--tol", type=float, default=1e-5),
        parser.add_argument("--max-iters", type=int, default=1000),
    ]


def _solver_config(args):
    """The solver flags as a SolverConfig (no mask yet); bad values and a
    missing rank are usage errors."""
    if args.rank is None:
        raise UsageError("--rank is required, on the command line or in the --config file")
    try:
        return SolverConfig(
            rank=args.rank,
            alpha=args.alpha,
            lam=args.lam,
            rho=args.rho,
            tol=args.tol,
            max_iters=args.max_iters,
            variant=VARIANT_FLAGS[args.variant],
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def cmd_synth(args):
    spec = data.SynthSpec(
        m=args.m,
        n=args.n,
        n_slices=args.N,
        rank_a=args.rank_a,
        rank_b=args.rank_b,
        p_clean=args.p_clean,
        seed=args.seed,
    )
    low_rank, sparse, observed = data.synth_generate(spec)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    fileio.write_rkt(out / "L_true.rkt", low_rank)
    fileio.write_rkt(out / "E_true.rkt", sparse)
    fileio.write_rkt(out / "X.rkt", observed)
    _write_json(
        out / "spec.json",
        {
            "m": spec.m,
            "n": spec.n,
            "N": spec.n_slices,
            "rank_a": spec.rank_a,
            "rank_b": spec.rank_b,
            "p_clean": spec.p_clean,
            "seed": spec.seed,
        },
    )
    return EXIT_OK


def _run_solver(X, cfg, out):
    """Solve and write the factors, L, E and the report to ``out``; returns the
    reconstruction L, or None after an abort (its report written if any)."""
    try:
        model, sparse, report = solve_variant(X, cfg)
    except SolverAbort as exc:
        if exc.report is not None:
            _write_json(out / "report.json", exc.report.to_dict())
        print(f"error: {exc}", file=sys.stderr)
        return None
    fileio.write_rkt(out / "A.rkt", model.a[:, :, None])
    fileio.write_rkt(out / "B.rkt", model.b[:, :, None])
    fileio.write_rkt(out / "R.rkt", model.core)
    low_rank = model.reconstruct()
    fileio.write_rkt(out / "L.rkt", low_rank)
    fileio.write_rkt(out / "E.rkt", sparse)
    _write_json(out / "report.json", report.to_dict())
    return low_rank


def _read_input(path):
    """A tensor file, slice-major so that the solve takes no second copy."""
    return tensor.slice_major(fileio.read_rkt(path))


def cmd_decompose(args):
    cfg = _solver_config(args)
    X = _read_input(args.input)
    if args.mask is not None:
        cfg.mask = fileio.read_rkt(args.mask) != 0
    cfg.validate_for(X.shape)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    low_rank = _run_solver(X, cfg, out)
    return EXIT_OK if low_rank is not None else EXIT_NUMERIC


def _load_image_stack(directory):
    directory = Path(directory)
    pgm = sorted(directory.glob("*.pgm"))
    ppm = sorted(directory.glob("*.ppm"))
    if pgm and ppm:
        raise ValueError(f"{directory}: mixed PGM and PPM inputs")
    if ppm:
        if len(ppm) != 1:
            raise ValueError(f"{directory}: color stacking expects one PPM image")
        return fileio.read_ppm(ppm[0]), ppm, "ppm"
    if not pgm:
        raise ValueError(f"{directory}: no PGM or PPM images found")
    slices = [fileio.read_pgm(p) for p in pgm]
    dims = {s.shape for s in slices}
    if len(dims) != 1:
        raise ValueError(f"{directory}: images have mixed dimensions {sorted(dims)}")
    return np.stack(slices, axis=2), pgm, "pgm"


def cmd_denoise(args):
    cfg = _solver_config(args)
    X, paths, kind = _load_image_stack(args.images)
    # References are checked before the solve, which writes the factors.
    clean = None if args.clean is None else _load_image_stack(args.clean)[0]
    if clean is not None and clean.shape != X.shape:
        raise ValueError("clean reference dims do not match input images")
    noisy = X
    if args.noise_level > 0:
        noisy, _ = data.add_salt_pepper(X, args.noise_level, 0.0, 1.0, args.seed)
    cfg.validate_for(noisy.shape)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    low_rank = _run_solver(noisy, cfg, out)
    if low_rank is None:
        return EXIT_NUMERIC
    denoised = np.clip(low_rank, 0.0, 1.0, out=low_rank)
    if kind == "ppm":
        fileio.write_ppm(out / paths[0].name, denoised)
    else:
        for i, path in enumerate(paths):
            fileio.write_pgm(out / path.name, denoised[:, :, i])
    summary = {"images": [p.name for p in paths], "noise_level": args.noise_level}
    if clean is not None:
        summary["psnr_noisy"] = data.psnr(noisy, clean, 1.0)
        summary["psnr_denoised"] = data.psnr(denoised, clean, 1.0)
    _write_json(out / "metrics.json", summary)
    return EXIT_OK


def _hidden_norms(completed, truth, hidden):
    """||completed - truth|| and ||truth|| over the ``hidden`` entries, in one
    scratch array that a product with the mask zeroes elsewhere; both
    arrays are finite, so no nan*0 enters the norms."""
    scratch = np.subtract(completed, truth, out=np.empty(truth.shape))
    scratch *= hidden
    diff = float(np.linalg.norm(scratch))
    np.multiply(truth, hidden, out=scratch)
    return diff, float(np.linalg.norm(scratch))


def cmd_complete(args):
    cfg = _solver_config(args)
    observed = _read_input(args.input)
    mask = cfg.mask = tensor.slice_major(fileio.read_rkt(args.mask) != 0)
    cfg.validate_for(observed.shape)
    # The truth is scanned before the solve, which writes the factors.
    if args.truth is not None and fileio.scan_rkt(args.truth) != observed.shape:
        raise ValueError("truth dims do not match data dims")
    # Zero-filled in place: the solve holds this one copy of the input.
    np.copyto(observed, 0.0, where=~mask)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    completed = _run_solver(observed, cfg, out)
    if completed is None:
        return EXIT_NUMERIC
    if args.truth is not None:
        truth = fileio.read_rkt(args.truth)
        diff, ref = _hidden_norms(completed, truth, ~mask)
        _write_json(
            out / "metrics.json",
            {
                "rel_error_unobserved": diff / ref if ref > 0 else diff,
                "psnr_completed": data.psnr(completed, truth, args.range),
                "psnr_zero_filled": data.psnr(observed, truth, args.range),
            },
        )
    return EXIT_OK


def cmd_eval(args):
    estimate = fileio.read_rkt(args.estimate)
    truth = fileio.read_rkt(args.truth)
    if estimate.shape != truth.shape:
        raise ValueError("estimate and truth dims differ")
    if (args.sparse_estimate is None) != (args.sparse_truth is None):
        raise ValueError("--sparse-estimate and --sparse-truth go together")
    if args.sparse_estimate is not None:
        sparse_est = fileio.read_rkt(args.sparse_estimate)
        sparse_tru = fileio.read_rkt(args.sparse_truth)
        result = data.metrics(estimate, sparse_est, truth, sparse_tru, args.range)
        payload = result.to_dict()
    else:
        payload = {
            "rel_error_L": data._rel_error(estimate, truth),
            "psnr": data.psnr(estimate, truth, args.range),
        }
    text = json.dumps(payload, indent=2, sort_keys=True)
    if args.out is not None:
        Path(args.out).write_text(text + "\n", encoding="ascii")
    else:
        print(text)
    return EXIT_OK


def _config_value(action, key, value):
    """Convert a config value as its flag converts a command-line value.

    The JSON value must already be of the flag's kind: "0.1" is not a
    number and 2.5 is not an integer.
    """
    kinds, noun = JSON_KINDS[action.type]
    if isinstance(value, bool) or not isinstance(value, kinds):
        raise UsageError(f"config key {key!r} must be {noun}, got {value!r}")
    try:
        value = value if action.type is None else action.type(value)
    except OverflowError as exc:
        raise UsageError(f"config key {key!r}: {exc}") from exc
    if action.choices is not None and value not in action.choices:
        raise UsageError(
            f"config key {key!r} must be one of {', '.join(action.choices)}, got {value!r}"
        )
    return value


def _apply_config_file(args, argv):
    """Fill solver flags from the --config JSON object; flags given on the
    command line win."""
    if getattr(args, "config", None) is None:
        return args
    raw = Path(args.config).read_bytes()
    try:  # JSON text is UTF-8 (RFC 8259); a leading BOM is tolerated
        overrides = json.loads(raw.decode("utf-8-sig"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise UsageError(f"config file {args.config}: {exc}") from exc
    if not isinstance(overrides, dict):
        raise UsageError(f"config file {args.config} must hold a JSON object")
    actions = {}
    for action in _add_solver_flags(argparse.ArgumentParser(add_help=False)):
        actions[action.dest] = action
        actions.update((opt.lstrip("-"), action) for opt in action.option_strings)
    given = {tok.split("=", 1)[0] for tok in argv if tok.startswith("--")}
    for key, value in overrides.items():
        action = actions.get(key) or actions.get(key.replace("_", "-"))
        if action is None:
            raise UsageError(f"unknown config key {key!r}")
        if given.isdisjoint(action.option_strings):
            setattr(args, action.dest, _config_value(action, key, value))
    return args


def build_parser():
    # Flags are spelled in full, the only spelling _apply_config_file knows.
    parser = argparse.ArgumentParser(
        prog="rkca",
        description="Robust Kronecker-separable low-rank tensor decomposition",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    add = partial(sub.add_parser, allow_abbrev=False)

    p_synth = add("synth", help="generate a synthetic instance")
    p_synth.add_argument("--m", type=int, required=True)
    p_synth.add_argument("--n", type=int, required=True)
    p_synth.add_argument("--N", type=int, required=True)
    p_synth.add_argument("--rank-a", dest="rank_a", type=int, required=True)
    p_synth.add_argument("--rank-b", dest="rank_b", type=int, required=True)
    p_synth.add_argument("--p-clean", dest="p_clean", type=float, required=True)
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.add_argument("--out-dir", required=True)
    p_synth.set_defaults(func=cmd_synth)

    p_dec = add("decompose", help="decompose a tensor file")
    p_dec.add_argument("--input", required=True)
    p_dec.add_argument("--mask", default=None)
    p_dec.add_argument("--out-dir", required=True)
    p_dec.add_argument("--config", default=None, help="JSON file with flag defaults")
    _add_solver_flags(p_dec)
    p_dec.set_defaults(func=cmd_decompose)

    p_den = add("denoise", help="denoise a directory of images")
    p_den.add_argument("--images", required=True)
    p_den.add_argument("--clean", default=None, help="clean reference directory")
    p_den.add_argument("--noise-level", dest="noise_level", type=float, default=0.0)
    p_den.add_argument("--seed", type=int, default=0)
    p_den.add_argument("--out-dir", required=True)
    p_den.add_argument("--config", default=None)
    _add_solver_flags(p_den)
    p_den.set_defaults(func=cmd_denoise)

    p_com = add("complete", help="complete a partially observed tensor")
    p_com.add_argument("--input", required=True)
    p_com.add_argument("--mask", required=True)
    p_com.add_argument("--truth", default=None)
    p_com.add_argument("--range", type=_positive_range, default=1.0)
    p_com.add_argument("--out-dir", required=True)
    p_com.add_argument("--config", default=None)
    _add_solver_flags(p_com)
    p_com.set_defaults(func=cmd_complete)

    p_eval = add("eval", help="compare estimates against ground truth")
    p_eval.add_argument("--estimate", required=True)
    p_eval.add_argument("--truth", required=True)
    p_eval.add_argument("--sparse-estimate", dest="sparse_estimate", default=None)
    p_eval.add_argument("--sparse-truth", dest="sparse_truth", default=None)
    p_eval.add_argument("--range", type=_positive_range, default=1.0)
    p_eval.add_argument("--out", default=None)
    p_eval.set_defaults(func=cmd_eval)

    return parser


def main(argv=None):
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args = _apply_config_file(args, argv)
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
