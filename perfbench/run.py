"""rkca benchmark: time to tolerance per workload, and a traced run per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload accept-50 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seconds 30

Each workload runs in a fresh process with BLAS pinned to one thread.  With
``--trace 0`` the run repeats rounds of the workload's solves for
``--seconds`` and reports the end-to-end metrics; with ``--trace 1`` it
alternates untraced and traced rounds and reports the per-layer metrics.
Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  Spans, per-solve records and the environment are written to
``.perfbench_out/`` when the run ends.  See README.md in this directory.
"""

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

T0 = time.perf_counter()
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# Pinned before numpy is imported: BLAS reads these once, at load time.
for _var in THREAD_VARS:
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
WORK_DIR = ROOT / ".perfbench_work"

# Fresh processes timed for setup_s; the median is reported.
SETUP_REPEATS = 5
SUBPROCESS_TIMEOUT_S = 170
CACHE_DIR = Path("/sys/devices/system/cpu/cpu0/cache")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="accept-50, large-100, complete-cli, or all")
    parser.add_argument("--seed", type=int, default=None,
                        help="instance seed; default: the repo's fixture seeds")
    parser.add_argument("--seconds", type=float, default=35.0,
                        help="measuring time; at least one round always runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed is not None and args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def load_package():
    """Import rkca from this checkout's src/, refusing any other copy."""
    if not (SRC / "rkca" / "__init__.py").is_file():
        raise SystemExit(f"error: no rkca sources under {SRC}; run from a checkout")
    sys.path.insert(0, str(SRC))
    import rkca

    if Path(rkca.__file__).resolve().parent != (SRC / "rkca").resolve():
        raise SystemExit(f"error: imported rkca from {rkca.__file__}, not {SRC}")
    return rkca


def work_dir(workload):
    return WORK_DIR / f"{workload}-{os.getpid()}"


def remove_work_dir(workload):
    shutil.rmtree(work_dir(workload), ignore_errors=True)
    try:
        WORK_DIR.rmdir()  # only once no other run is using it
    except OSError:
        pass


# -- environment ------------------------------------------------------------


def _cache_sizes():
    sizes = {}
    for index in sorted(CACHE_DIR.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction":
            sizes[f"L{level}"] = size
    return sizes


def environment(inst):
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_vars": {var: os.environ.get(var) for var in THREAD_VARS},
        "nproc": len(os.sched_getaffinity(0)),
        "caches": _cache_sizes(),
        "tensor_mb": round(inst.mb, 3),
        "bytes_note": "MB figures for tensors and reconstruct are computed from "
                      "shapes, not measured; file MB are file sizes",
    }


# -- statistics -------------------------------------------------------------


def timing_summary(samples):
    """Median, the highest percentile with >= 10 samples beyond it, and n."""
    import numpy as np

    out = {"n": len(samples), "median": statistics.median(samples)}
    for q in (99.9, 99.0, 90.0):
        if len(samples) * (1 - q / 100) >= 10:
            out[f"p{q:g}"] = float(np.percentile(samples, q))
            break
    return out


def _fmt_summary(summary, unit):
    text = f"median {summary['median']:.4g} {unit}"
    for key, value in summary.items():
        if key.startswith("p"):
            text += f", {key} {value:.4g} {unit}"
    return text + f" (n={summary['n']})"


def nondeterminism(reference, rounds):
    """Solves whose outputs or iteration counts differ from ``reference``."""
    found = []
    for rnd in rounds:
        for ref, res in zip(reference, rnd):
            if ref.ok and res.ok and (ref.digest, ref.iterations) != (res.digest, res.iterations):
                found.append(
                    f"{res.variant}: iterations {ref.iterations} vs {res.iterations}, "
                    f"outputs {'equal' if ref.digest == res.digest else 'differ'}"
                )
    return found


# -- modes ------------------------------------------------------------------


def setup_probe(args):
    """Time import + instance generation + input files in this fresh process."""
    from workloads import WORKLOADS, prepare

    try:
        prepare(WORKLOADS[args.workload], args.seed, work_dir(args.workload))
        print(time.perf_counter() - T0)
    finally:
        remove_work_dir(args.workload)
    return 0


def measure_setup(args):
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--setup-probe"]
    if args.seed is not None:
        cmd += ["--seed", str(args.seed)]
    samples = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False,
                              timeout=SUBPROCESS_TIMEOUT_S, cwd=ROOT)
        if proc.returncode != 0:
            raise SystemExit(f"error: set-up probe failed:\n{proc.stderr}")
        samples.append(float(proc.stdout.strip().splitlines()[-1]))
    return samples


def run_rounds(wl, inst, seconds):
    """Rounds for ``seconds``; returns results, reference times and RSS."""
    from workloads import REFERENCE_SAMPLES, reference_seconds, run_round

    reference_s = [reference_seconds(wl) for _ in range(REFERENCE_SAMPLES)]
    rounds, rss = [], []
    start = time.perf_counter()
    while True:
        t = time.perf_counter()
        results, samples = run_round(wl, inst, len(rounds), reference=True)
        rounds.append(results)
        reference_s += samples
        rss.append(peak_rss_mb())
        if time.perf_counter() + (time.perf_counter() - t) > start + seconds:
            return rounds, reference_s, rss


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def accuracy_digits(wl, results):
    """-log10 of admm2's relative error: all of L, or its unobserved entries."""
    res = next(res for res in results if res.variant == "admm2")
    error = res.rel_error_hidden if wl.via_cli else res.rel_error_L
    return -math.log10(error) if error else 0.0


def end_to_end(wl, rounds, reference_s, setup_samples):
    round_s = [sum(res.seconds for res in rnd) for rnd in rounds]
    relative = statistics.median(round_s) / statistics.median(reference_s)
    return {
        "time_to_tol_rel": {"value": relative, "unit": "x"},
        "accuracy_digits": {"value": accuracy_digits(wl, rounds[0]), "unit": "digits"},
        "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
        "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
    }


def run_untraced(args, wl, inst):
    from workloads import warm_up

    setup_samples = measure_setup(args)
    warm_up(wl, inst)
    rounds, reference_s, rss = run_rounds(wl, inst, args.seconds)
    metrics = end_to_end(wl, rounds, reference_s, setup_samples)
    extra = {
        "setup_s_samples": setup_samples,
        "peak_rss_mb_after_round": rss,
        "round_s": timing_summary([sum(r.seconds for r in rnd) for rnd in rounds]),
        "reference_s": timing_summary(reference_s),
    }
    return rounds, nondeterminism(rounds[0], rounds[1:]), metrics, extra, []


def run_traced(args, wl, seed):
    import rkca
    from layers import compute
    from spans import Tracer, spans_to_json
    from workloads import prepare, run_round, warm_up

    tracer = Tracer()
    tracer.install(rkca)
    try:
        inst = prepare(wl, seed, work_dir(wl.name))
    finally:
        tracer.uninstall()
    setup_spans = tracer.take()
    warm_up(wl, inst)
    untraced, traced, ratios = [], [], []
    start = time.perf_counter()
    while True:
        t = time.perf_counter()
        plain, _ = run_round(wl, inst, 2 * len(traced))
        tracer.install(rkca)
        try:
            with_spans, _ = run_round(wl, inst, 2 * len(traced) + 1, span=tracer.solve)
        finally:
            tracer.uninstall()
        untraced.append(plain)
        traced.append((tracer.take(), with_spans))
        ratios.append(sum(r.seconds for r in with_spans) / sum(r.seconds for r in plain))
        if time.perf_counter() + (time.perf_counter() - t) > start + args.seconds:
            break
    rounds = untraced + [results for _, results in traced]
    issues = nondeterminism(untraced[0], rounds[1:])
    metrics = compute(setup_spans, traced, ratios)
    extra = {"overhead_ratios": ratios}
    spans = {"setup": spans_to_json(setup_spans),
             "rounds": [spans_to_json(s) for s, _ in traced]}
    return inst, rounds, issues, metrics, extra, spans


def run_workload(args):
    from workloads import WORKLOADS, prepare

    wl = WORKLOADS[args.workload]
    seed = args.seed
    inst_seed, mask_seed = wl.seeds(seed)
    started = time.perf_counter()
    try:
        if args.trace:
            inst, rounds, issues, metrics, extra, spans = run_traced(args, wl, seed)
        else:
            inst = prepare(wl, seed, work_dir(wl.name))
            rounds, issues, metrics, extra, spans = run_untraced(args, wl, inst)
    finally:
        remove_work_dir(wl.name)
    env = environment(inst)
    results = [res for rnd in rounds for res in rnd]
    failed = sum(not res.ok for res in results)

    print(f"workload {wl.name}: instance {'x'.join(map(str, wl.dims))} seed {inst_seed}"
          + (f" mask seed {mask_seed}" if wl.via_cli else "")
          + f", trace {args.trace}, {len(rounds)} rounds in "
          f"{time.perf_counter() - started:.1f} s")
    print("environment " + json.dumps(env, sort_keys=True))
    for variant in wl.variant_names:
        runs = [res for res in results if res.variant == variant]
        first = runs[0]
        line = (f"  {variant:<11} iters {first.iterations:>4} {first.termination:<9} "
                f"solve {_fmt_summary(timing_summary([r.seconds for r in runs]), 's')}; "
                f"per iter {_fmt_summary(timing_summary([ms for r in runs for ms in r.iter_ms]), 'ms')}")
        if first.rel_error_L is not None:
            line += f"; rel_error_L {first.rel_error_L:.3e}"
        if first.support_f1 is not None:
            line += f" F1 {first.support_f1:.4f}"
        if first.rel_error_hidden is not None:
            line += f"; rel_error_hidden {first.rel_error_hidden:.3e}"
        print(line)
    for res in results:
        for failure in res.failures:
            print(f"  FAILED {res.variant}: {failure}")
    for issue in issues:
        print(f"  NONDETERMINISM {issue}")
    print("extra " + json.dumps(extra))
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")

    OUT_DIR.mkdir(exist_ok=True)
    record = {
        "workload": wl.name, "seed": inst_seed, "mask_seed": mask_seed, "trace": args.trace,
        "environment": env, "metrics": metrics, "extra": extra,
        "nondeterminism": issues,
        "rounds": [[res.summary() for res in rnd] for rnd in rounds],
        "spans": spans,
    }
    out_path = OUT_DIR / f"{wl.name}-seed{inst_seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record) + "\n", encoding="ascii")
    print(f"record written to {out_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed == 0 and not issues,
        "attempted": len(results),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def run_all(args):
    """Every workload in its own fresh process, then one summary line."""
    from workloads import WORKLOADS

    summary, code = {}, 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.seed is not None:
            cmd += ["--seed", str(args.seed)]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False, cwd=ROOT)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not proc.stdout.strip():
            code = 1
            continue
        summary[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps(summary))
    return code


def main(argv=None):
    args = parse_args(sys.argv[1:] if argv is None else argv)
    load_package()
    from workloads import WORKLOADS

    if args.workload == "all":
        return run_all(args)
    if args.workload not in WORKLOADS:
        raise SystemExit(f"error: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(WORKLOADS)} or all")
    if args.setup_probe:
        return setup_probe(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
