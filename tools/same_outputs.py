"""Run one fixed CLI set in two checkouts and report every output that differs.

    python3 tools/same_outputs.py --parent ../rkca-parent --change .
    python3 tools/same_outputs.py --parent ../rkca-parent --change . --work ../outputs

``--parent`` and ``--change`` are checkouts (``git archive`` copies will do).
For each, one fresh process with ``PYTHONPATH=<checkout>/src`` and BLAS
pinned to one thread runs the set below through ``rkca.cli.main`` on a small
instance, writing under ``--work`` (a temporary directory by default):

- ``synth`` (12 x 10 x 5);
- ``decompose`` in all six variants, with and without ``--mask``;
- ``decompose --config`` with a file that sets the variant, alpha, lambda,
  the iteration cap and a rank that ``--rank`` overrides;
- ``complete --truth``;
- ``denoise`` on a PGM stack of the synthetic low-rank slices, with
  ``--clean`` and salt-and-pepper noise;
- ``eval`` of admm2's decomposition with the sparse pair, and of its L
  alone with ``--range 255``.

The mask and the PGM stack are written by the checkout's own
``data.make_mask``, ``fileio.write_rkt`` and ``fileio.write_pgm``, the
config file by this script (``CONFIG``), and each
command's exit code goes to ``exit_codes.json``; these files are compared
too.  Every file either side wrote is compared byte by byte, a
``report.json`` after its ``elapsed_ms`` values are zeroed.  Each file that
differs, or that only one side wrote, is printed; the exit status is 1 if
any is, else 0.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

VARIANTS = ("admm2", "ladmm2", "ladmm3-fro", "ladmm3-nuc", "admm3-fro", "admm3-nuc")
SOLVER = ("--rank", "3", "--tol", "1e-8", "--max-iters", "100")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# The --config run's file: lambda under its dest, max-iters under its flag's
# spelling, and a rank that the run's --rank overrides.
CONFIG = {"variant": "ladmm2", "alpha": 0.02, "lam": 0.3, "max-iters": 40, "rank": 2}


def commands():
    """(name, argv) of the CLI set, with paths relative to the side's directory."""
    yield "synth", ["synth", "--m", "12", "--n", "10", "--N", "5", "--rank-a", "2",
                    "--rank-b", "2", "--p-clean", "0.8", "--seed", "42", "--out-dir", "gen"]
    for variant in VARIANTS:
        for mask in ([], ["--mask", "inputs/mask.rkt"]):
            name = f"decompose-{variant}" + ("-masked" if mask else "")
            yield name, ["decompose", "--input", "gen/X.rkt", *mask, "--variant", variant,
                         *SOLVER, "--out-dir", name]
    yield "decompose-config", ["decompose", "--input", "gen/X.rkt", "--config",
                               "inputs/config.json", "--rank", "3", "--out-dir",
                               "decompose-config"]
    yield "complete", ["complete", "--input", "gen/X.rkt", "--mask", "inputs/mask.rkt",
                       "--truth", "gen/L_true.rkt", *SOLVER, "--out-dir", "complete"]
    yield "denoise", ["denoise", "--images", "inputs/images", "--clean", "inputs/images",
                      "--noise-level", "0.1", "--seed", "1", *SOLVER, "--out-dir", "denoise"]
    yield "eval", ["eval", "--estimate", "decompose-admm2/L.rkt", "--truth", "gen/L_true.rkt",
                   "--sparse-estimate", "decompose-admm2/E.rkt",
                   "--sparse-truth", "gen/E_true.rkt", "--out", "eval.json"]
    yield "eval-range", ["eval", "--estimate", "decompose-admm2/L.rkt", "--truth",
                         "gen/L_true.rkt", "--range", "255", "--out", "eval-range.json"]


def run_side(out):
    """Run the CLI set with the rkca on the path, in ``out``."""
    import numpy as np
    from rkca import cli, data, fileio

    os.chdir(out)
    codes = {}
    for name, argv in commands():
        codes[name] = cli.main(argv)
        if name == "synth":
            low_rank = fileio.read_rkt("gen/L_true.rkt")
            Path("inputs/images").mkdir(parents=True)
            fileio.write_rkt("inputs/mask.rkt", data.make_mask(low_rank.shape, 0.7, 5) * 1.0)
            Path("inputs/config.json").write_text(json.dumps(CONFIG))
            lo, hi = low_rank.min(), low_rank.max()
            for i in range(low_rank.shape[2]):
                fileio.write_pgm(f"inputs/images/slice{i}.pgm",
                                 (low_rank[:, :, i] - lo) / ((hi - lo) or 1.0))
    Path("exit_codes.json").write_text(json.dumps(codes, indent=2) + "\n")


def normalised(path):
    """A file's bytes; a report.json's as JSON with every elapsed_ms zeroed."""
    raw = path.read_bytes()
    if path.name != "report.json":
        return raw
    report = json.loads(raw)
    for record in report.get("iterations", []):
        if "elapsed_ms" in record:
            record["elapsed_ms"] = 0
    return json.dumps(report, sort_keys=True).encode()


def differing(parent, change):
    """The relative paths of the files under ``parent`` or ``change``, and,
    sorted, those that differ (after :func:`normalised`) or that only one
    of them holds."""
    files = [{p.relative_to(root) for p in root.rglob("*") if p.is_file()}
             for root in (parent, change)]
    every = files[0] | files[1]
    return every, sorted(rel for rel in every
                         if rel not in files[0] or rel not in files[1]
                         or normalised(parent / rel) != normalised(change / rel))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", type=Path, help="checkout of the parent")
    parser.add_argument("--change", type=Path, help="checkout of the change")
    parser.add_argument("--work", type=Path, help="directory for the outputs")
    parser.add_argument("--side", type=Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.side is not None:  # the per-checkout process
        run_side(args.side)
        return 0
    if args.parent is None or args.change is None:
        parser.error("--parent and --change are required")
    with tempfile.TemporaryDirectory() as tmp:
        work = args.work or Path(tmp)
        for side in ("parent", "change"):
            checkout, out = getattr(args, side).resolve(), work / side
            out.mkdir(parents=True)
            env = {**os.environ, "PYTHONPATH": str(checkout / "src"),
                   **dict.fromkeys(THREAD_VARS, "1")}
            subprocess.run([sys.executable, str(Path(__file__).resolve()), "--side", str(out)],
                           env=env, check=True, stdout=subprocess.DEVNULL)
        every, diffs = differing(work / "parent", work / "change")
    for rel in diffs:
        print(f"differs: {rel}")
    print(f"{len(diffs)} of {len(every)} files differ")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
