"""Command-line front end: generation, decomposition, denoising, completion, eval.

Exit codes: 0 success, 2 usage error, 3 data/IO error, 4 numeric abort.
Every command is deterministic given its flags; reports always record the
fully-resolved configuration so a run can be replayed exactly.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from functools import partial
from pathlib import Path

import numpy as np

from . import data, fileio
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
    """Add --config and the solver flags, each None unless given; returns
    the solver flags' argparse actions, whose dests are SolverConfig's fields."""
    parser.add_argument("--config", help="JSON file with flag defaults")
    return [
        parser.add_argument("--variant", choices=sorted(VARIANT_FLAGS),
                            help=f"solver variant (default {SolverConfig.variant})"),
        parser.add_argument("--rank", type=int, help="rank upper bound r (required)"),
        parser.add_argument("--alpha", type=float),
        parser.add_argument(
            "--lambda", dest="lam", type=float,
            help="sparsity weight; defaults to 1/sqrt(N*max(m,n))",
        ),
        parser.add_argument("--rho", type=float),
        parser.add_argument("--tol", type=float),
        parser.add_argument("--max-iters", type=int),
    ]


_SOLVER_FLAGS = _add_solver_flags(argparse.ArgumentParser(add_help=False))
# A config key is a solver flag's dest or its spelling without the dashes.
_CONFIG_KEYS = {key: action.dest for action in _SOLVER_FLAGS
               for key in (action.dest, *(opt.lstrip("-") for opt in action.option_strings))}


def _usage_checked(build, *args, **kwargs):
    """``build(*args, **kwargs)``; a ValueError from it is a usage error."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


def _solver_config(args):
    """The solver settings as a SolverConfig (no mask yet): each flag that is
    set, else the --config object's value under either spelling of its key,
    else the default.  SolverConfig checks a file's value as a flag's; a
    refused value, a null, an unknown key and a missing rank are usage errors."""
    settings = {}
    if args.config is not None:
        # JSON text is UTF-8 (RFC 8259), a leading BOM tolerated; bad UTF-8,
        # malformed JSON, an int past the digit limit or deep nesting is refused.
        try:
            overrides = json.loads(Path(args.config).read_bytes().decode("utf-8-sig"))
        except (ValueError, RecursionError) as exc:
            raise UsageError(f"config file {args.config}: {exc}") from exc
        if not isinstance(overrides, dict):
            raise UsageError(f"config file {args.config} must hold a JSON object")
        for key, value in overrides.items():
            if key not in _CONFIG_KEYS:
                raise UsageError(f"unknown config key {key!r}")
            settings[_CONFIG_KEYS[key]] = value
    for action in _SOLVER_FLAGS:
        if getattr(args, action.dest) is not None:
            settings[action.dest] = getattr(args, action.dest)
        elif action.dest in settings and settings[action.dest] is None:
            raise UsageError(f"{action.option_strings[0]} is null in the --config file")
    if "rank" not in settings:
        raise UsageError("--rank is required, on the command line or in the --config file")
    if "variant" in settings:
        variant = settings["variant"]
        if not isinstance(variant, str) or variant not in VARIANT_FLAGS:
            raise UsageError(f"--variant must be one of {', '.join(sorted(VARIANT_FLAGS))}, "
                             f"got {variant!r}")
        settings["variant"] = VARIANT_FLAGS[variant]
    return _usage_checked(SolverConfig, **settings)


def cmd_synth(args):
    fields = dataclasses.fields(data.SynthSpec)
    spec = _usage_checked(data.SynthSpec, **{f.name: getattr(args, f.name) for f in fields})
    low_rank, sparse, observed = data.synth_generate(spec)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    fileio.write_rkt(out / "L_true.rkt", low_rank)
    fileio.write_rkt(out / "E_true.rkt", sparse)
    fileio.write_rkt(out / "X.rkt", observed)
    manifest = dataclasses.asdict(spec)
    manifest["N"] = manifest.pop("n_slices")
    _write_json(out / "spec.json", manifest)
    return EXIT_OK


def _run_solver(X, cfg, out):
    """Check ``cfg`` against X's dims, then make ``out`` and solve, writing the
    factors, L, E and the report there; returns the reconstruction L, or None
    after an abort (its report written if any)."""
    cfg.validate_for(X.shape)
    out.mkdir(parents=True, exist_ok=True)
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


def cmd_decompose(args):
    cfg = _solver_config(args)
    X = fileio.read_rkt(args.input)
    if args.mask is not None:
        cfg.mask = fileio.read_rkt(args.mask) != 0
    low_rank = _run_solver(X, cfg, Path(args.out_dir))
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
    if args.noise_level != 0:  # so a nan or negative level is refused too
        noisy, _ = _usage_checked(data.add_salt_pepper, X, args.noise_level, 0.0, 1.0,
                                  args.seed)
    out = Path(args.out_dir)
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


def cmd_complete(args):
    cfg = _solver_config(args)
    observed = fileio.read_rkt(args.input)
    mask = cfg.mask = fileio.read_rkt(args.mask) != 0
    cfg.validate_for(observed.shape)
    # The truth is scanned before the solve, which writes the factors.
    if args.truth is not None and fileio.scan_rkt(args.truth) != observed.shape:
        raise ValueError("truth dims do not match data dims")
    hidden = ~mask
    # Zero-filled in place: the solve holds this one copy of the input.
    np.copyto(observed, 0.0, where=hidden)
    out = Path(args.out_dir)
    completed = _run_solver(observed, cfg, out)
    if completed is None:
        return EXIT_NUMERIC
    if args.truth is not None:
        truth = fileio.read_rkt(args.truth)
        _write_json(
            out / "metrics.json",
            {
                "rel_error_unobserved": data._rel_error(completed, truth, hidden),
                "psnr_completed": data.psnr(completed, truth, args.range),
                "psnr_zero_filled": data.psnr(observed, truth, args.range),
            },
        )
    return EXIT_OK


def cmd_eval(args):
    if (args.sparse_estimate is None) != (args.sparse_truth is None):
        raise UsageError("--sparse-estimate and --sparse-truth go together")
    estimate = fileio.read_rkt(args.estimate)
    truth = fileio.read_rkt(args.truth)
    if estimate.shape != truth.shape:
        raise ValueError("estimate and truth dims differ")
    if args.sparse_estimate is not None:
        sparse_est = fileio.read_rkt(args.sparse_estimate)
        sparse_tru = fileio.read_rkt(args.sparse_truth)
        result = data.metrics(estimate, sparse_est, truth, sparse_tru, args.range)
        payload = result.to_dict()
    else:
        rel_error, psnr = data._error_and_psnr(estimate, truth, args.range)
        payload = {"rel_error_L": rel_error, "psnr": psnr}
    text = json.dumps(payload, indent=2, sort_keys=True)
    if args.out is not None:
        Path(args.out).write_text(text + "\n", encoding="ascii")
    else:
        print(text)
    return EXIT_OK


def build_parser():
    # Each flag has one spelling, the one its config key uses.
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
    p_synth.add_argument("--N", dest="n_slices", metavar="N", type=int, required=True)
    p_synth.add_argument("--rank-a", type=int, required=True)
    p_synth.add_argument("--rank-b", type=int, required=True)
    p_synth.add_argument("--p-clean", type=float, required=True)
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.add_argument("--out-dir", required=True)
    p_synth.set_defaults(func=cmd_synth)

    p_dec = add("decompose", help="decompose a tensor file")
    p_dec.add_argument("--input", required=True)
    p_dec.add_argument("--mask")
    p_dec.add_argument("--out-dir", required=True)
    _add_solver_flags(p_dec)
    p_dec.set_defaults(func=cmd_decompose)

    p_den = add("denoise", help="denoise a directory of images")
    p_den.add_argument("--images", required=True)
    p_den.add_argument("--clean", help="clean reference directory")
    p_den.add_argument("--noise-level", type=float, default=0.0)
    p_den.add_argument("--seed", type=int, default=0)
    p_den.add_argument("--out-dir", required=True)
    _add_solver_flags(p_den)
    p_den.set_defaults(func=cmd_denoise)

    p_com = add("complete", help="complete a partially observed tensor")
    p_com.add_argument("--input", required=True)
    p_com.add_argument("--mask", required=True)
    p_com.add_argument("--truth")
    p_com.add_argument("--range", type=_positive_range, default=1.0)
    p_com.add_argument("--out-dir", required=True)
    _add_solver_flags(p_com)
    p_com.set_defaults(func=cmd_complete)

    p_eval = add("eval", help="compare estimates against ground truth")
    p_eval.add_argument("--estimate", required=True)
    p_eval.add_argument("--truth", required=True)
    p_eval.add_argument("--sparse-estimate")
    p_eval.add_argument("--sparse-truth")
    p_eval.add_argument("--range", type=_positive_range, default=1.0)
    p_eval.add_argument("--out")
    p_eval.set_defaults(func=cmd_eval)

    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
