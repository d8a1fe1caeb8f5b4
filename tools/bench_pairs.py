"""Run alternating parent/change pairs of the benchmark and write a BENCH file.

    python3 tools/bench_pairs.py --parent ../rkca-parent --change . \
        --parent-rev 7f93ddf --change-rev HEAD \
        --pairs large-100=10 accept-50=5 complete-cli=5 \
        --records ../bench-records --out BENCH_6.json
    python3 tools/bench_pairs.py ... --seed 7 --pairs large-100=3 --out BENCH_6.json

``--parent`` and ``--change`` are checkouts (``git archive`` copies will do).
Pair i runs ``python3 perfbench/run.py --workload W [--seed N]`` in both,
parent first when i is odd, change first when even, each in a fresh process
with the benchmark's other defaults.  The record each run writes and names
on its ``record written to`` line, ``.perfbench_out/<workload>-seed<seed>-
trace0.json`` (the workload's default seed without ``--seed``), is copied to
``--records`` as
``<workload>[-seed<N>]-<side>-<i>.json``; a record already there is reused,
so an interrupted run resumes where it stopped.  The BENCH file holds, per
workload and seed, q25/median/q75 of each end-to-end metric named in
BENCHMARK.json for both sides, the pairs the change won, attempted and
failed solves, each variant's distinct iteration counts and terminations,
each variant's solve time relative to the run's reference kernel
(``variant_time_rel``: the ``time_to_tol_rel`` normalisation applied to one
variant) and its solve seconds per iteration likewise
(``variant_iter_rel``: the median of solve seconds over iterations; the
seconds include the start, so a change that only cuts iterations reads as
slower iterations), each side's per-run medians of
the round seconds and of the reference kernel's seconds (``round_s`` and
``reference_s``, the numerator and denominator of ``time_to_tol_rel``),
nondeterminism reports, the seeds and the environment, all read from the
records.  An existing ``--out`` file for the same two
revisions is extended, so a held-out seed's pairs join the default ones.

Each end-to-end metric also gets a verdict.  ``claim_met``: the change won
at least 9 of every 10 pairs (a tie counts for neither side) and its median
beats the parent's by more than the parent's q25-q75 spread.
``within_bound``: the change's median is no worse than the parent's by more
than the metric's bound, a share of the parent's median.  One verdict line
per workload is printed, ending in the change/parent ratios of the median
``round_s`` and ``reference_s``, so that a shift in the reference pass shows
next to ``time_to_tol_rel``.
"""

import argparse
import json
import re
import shutil
import statistics
import subprocess
import sys
from pathlib import Path


def command(workload, seed):
    cmd = ["python3", "perfbench/run.py", "--workload", workload]
    return cmd if seed is None else [*cmd, "--seed", str(seed)]


def record_path(checkout, stdout):
    """The record a run wrote, by the exact name its output gives; records of
    other seeds in the same directory are left alone."""
    (name,) = re.findall(r"^record written to (\S+)$", stdout, re.M)
    return checkout / name


def run_once(checkout, workload, seed, dest):
    """One benchmark run, unless ``dest`` holds its record already; returns it."""
    if not dest.exists():
        run = subprocess.run([sys.executable, *command(workload, seed)[1:]], cwd=checkout,
                             capture_output=True, check=True, text=True)
        shutil.copyfile(record_path(checkout, run.stdout), dest)
    return json.loads(dest.read_text())


def quartiles(values):
    q25, median, q75 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q25": q25, "median": median, "q75": q75}


def distinct(results, key):
    """``{variant: sorted distinct values of key}`` over solve summaries."""
    seen = {}
    for res in results:
        seen.setdefault(res["variant"], set()).add(res[key])
    return {variant: sorted(values) for variant, values in seen.items()}


def compare(values, lower):
    """Quartiles of ``values[side]`` (one value per pair, in pair order), the
    pairs the change won (``lower``: lower is better) and the ratio of the
    medians."""
    wins = sum((c < p) if lower else (c > p)
               for p, c in zip(values["parent"], values["change"]))
    parent, change = quartiles(values["parent"]), quartiles(values["change"])
    return {"parent": parent, "change": change, "change_wins": wins,
            "pairs": len(values["change"]), "median_ratio": change["median"] / parent["median"]}


def claim_met(result, lower):
    """Whether ``compare``'s ``result`` shows a gain: at least 9 of 10 pairs
    won, and the medians apart by more than the parent's q25-q75 spread."""
    parent, change = result["parent"], result["change"]
    gain = parent["median"] - change["median"] if lower else change["median"] - parent["median"]
    return (10 * result["change_wins"] >= 9 * result["pairs"]
            and gain > parent["q75"] - parent["q25"])


def within_bound(result, lower, bound):
    """Whether the change's median is worse than the parent's by at most
    ``bound`` times the parent's median."""
    parent, change = result["parent"]["median"], result["change"]["median"]
    return change <= parent * (1 + bound) if lower else change >= parent * (1 - bound)


def verdict(workload, summary):
    """One line from ``summarise``'s ``summary``: the metrics whose claim is
    met, those out of bound, and the change/parent ratios of the medians of
    ``round_s`` and ``reference_s``."""
    metrics = summary["metrics"]
    met = [name for name, res in metrics.items() if res["claim_met"]]
    out = [name for name, res in metrics.items() if not res["within_bound"]]
    ratios = ", ".join(f"{name} {summary[name]['median_ratio']:.3f}"
                       for name in ("round_s", "reference_s"))
    return (f"{workload}: claim met: {', '.join(met) or 'none'}; "
            f"out of bound: {', '.join(out) or 'none'}; change/parent medians: {ratios}")


def solve_seconds(res):
    return res["seconds"]


def iteration_seconds(res):
    """Seconds per iteration of one solve; None for a solve that took none."""
    return res["seconds"] / res["iterations"] if res["iterations"] else None


def variant_times(record, per_solve=solve_seconds):
    """``{variant: median of per_solve(solve) / the run's reference median}``,
    over the solves where ``per_solve`` gives a value."""
    seconds = {}
    for rnd in record["rounds"]:
        for res in rnd:
            value = per_solve(res)
            if value is not None:
                seconds.setdefault(res["variant"], []).append(value)
    reference = record["extra"]["reference_s"]["median"]
    return {variant: statistics.median(s) / reference for variant, s in seconds.items()}


def summarise(runs, metrics):
    """Per-workload summary of ``runs[side]``, lists of records in pair order."""
    first = runs["change"][0]
    out = {"pairs": len(runs["change"]), "seed": first["seed"],
           "mask_seed": first["mask_seed"], "environment": first["environment"],
           "metrics": {}}
    solves = {side: [res for r in recs for rnd in r["rounds"] for res in rnd]
              for side, recs in runs.items()}
    out["attempted"] = {side: len(res) for side, res in solves.items()}
    out["failed"] = {side: sum(bool(res["failures"]) for res in results)
                     for side, results in solves.items()}
    out["iterations"] = {side: distinct(res, "iterations") for side, res in solves.items()}
    out["terminations"] = {side: distinct(res, "termination") for side, res in solves.items()}
    out["nondeterminism"] = {side: sum(len(r["nondeterminism"]) for r in recs)
                             for side, recs in runs.items()}
    for metric in metrics:
        name = metric["name"]
        values = {side: [r["metrics"][name]["value"] for r in recs]
                  for side, recs in runs.items()}
        lower = metric["better"] == "lower"
        result = compare(values, lower)
        out["metrics"][name] = {
            "unit": metric["unit"], "better": metric["better"], "bound": metric["bound"],
            **result, "claim_met": claim_met(result, lower),
            "within_bound": within_bound(result, lower, metric["bound"]),
        }
    for name in ("round_s", "reference_s"):
        out[name] = compare({side: [r["extra"][name]["median"] for r in recs]
                             for side, recs in runs.items()}, lower=True)
    for name, per_solve in (("variant_time_rel", solve_seconds),
                            ("variant_iter_rel", iteration_seconds)):
        times = {side: [variant_times(r, per_solve) for r in recs] for side, recs in runs.items()}
        out[name] = {
            variant: compare({side: [t[variant] for t in per_run]
                              for side, per_run in times.items()}, lower=True)
            for variant in sorted(times["change"][0])
        }
    return out


def parse_pairs(parser, specs, workloads):
    """``{workload: N}`` from the ``WORKLOAD=N`` specs.  A spec without
    ``=N``, a non-integer N, N < 2 (the quartiles need two runs a side) or a
    workload not in ``workloads`` is a usage error (exit 2), raised before
    any run."""
    pairs = {}
    for spec in specs:
        workload, _, count = spec.partition("=")
        if workload not in workloads:
            parser.error(f"--pairs {spec}: unknown workload {workload!r}; "
                         f"BENCHMARK.json has {', '.join(workloads)}")
        try:
            pairs[workload] = int(count)
        except ValueError:
            parser.error(f"--pairs {spec}: expected {workload}=N with an integer N")
        if pairs[workload] < 2:
            parser.error(f"--pairs {spec}: N must be at least 2")
    return pairs


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--parent-rev", required=True)
    parser.add_argument("--change-rev", required=True)
    parser.add_argument("--pairs", nargs="+", required=True, metavar="WORKLOAD=N")
    parser.add_argument("--records", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--seed", type=int, default=None,
                        help="instance seed passed to perfbench/run.py; "
                             "default: the benchmark's own")
    args = parser.parse_args(argv)
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    benchmark = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())
    pairs = parse_pairs(parser, args.pairs, [w["name"] for w in benchmark["workloads"]])
    args.records.mkdir(parents=True, exist_ok=True)
    bench = {"parent": args.parent_rev, "change": args.change_rev,
             "command": "python3 perfbench/run.py --workload <workload> [--seed <seed>]",
             "order": "alternating: parent first in odd pairs, change first in even",
             "workloads": {}}
    if args.out.exists():
        old = json.loads(args.out.read_text())
        if (old["parent"], old["change"]) == (args.parent_rev, args.change_rev):
            bench = old
    tag = "" if args.seed is None else f"-seed{args.seed}"
    for workload, n_pairs in pairs.items():
        runs = {"parent": [], "change": []}
        for i in range(1, n_pairs + 1):
            for side in ("parent", "change") if i % 2 else ("change", "parent"):
                dest = args.records / f"{workload}{tag}-{side}-{i}.json"
                runs[side].append(run_once(checkouts[side], workload, args.seed, dest))
                print(f"{workload}{tag} pair {i} {side}:",
                      json.dumps(runs[side][-1]["metrics"]), flush=True)
        summary = summarise(runs, benchmark["end_to_end"])
        summary["command"] = " ".join(command(workload, args.seed))
        bench["workloads"][workload + tag] = summary
        print(verdict(workload + tag, summary), flush=True)
    args.out.write_text(json.dumps(bench, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
