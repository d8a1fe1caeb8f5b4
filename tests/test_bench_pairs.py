"""tools/bench_pairs.py: the BENCH summary and the record lookup, without
running the benchmark."""

import importlib.util
import json
import types
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"


@pytest.fixture(scope="module")
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


METRICS = [
    {"name": "time_to_tol_rel", "unit": "x", "better": "lower", "bound": 0.25},
    {"name": "accuracy_digits", "unit": "digits", "better": "higher", "bound": 0.1},
]


def record(time_to_tol, digits, failed=0, nondeterminism=(), iterations=(51, 28, 51),
           seconds=(2.0, 1.0, 2.0), reference=1.0, round_s=3.0):
    solves = [{"variant": variant, "iterations": its, "termination": "tol", "seconds": sec,
               "failures": ["quality floor missed"] if i < failed else []}
              for i, (variant, its, sec) in enumerate(zip(("admm2", "ladmm2", "admm2"),
                                                          iterations, seconds))]
    return {
        "seed": 123, "mask_seed": None, "environment": {"numpy": "x"},
        "metrics": {"time_to_tol_rel": {"value": time_to_tol},
                    "accuracy_digits": {"value": digits}},
        "extra": {"reference_s": {"median": reference, "n": 9},
                  "round_s": {"median": round_s, "n": 2}},
        "rounds": [solves[:2], solves[2:]],
        "nondeterminism": list(nondeterminism),
    }


def test_summarise_quartiles_wins_and_ratio(bench_pairs):
    parent = [record(t, 5.0) for t in (10.0, 20.0, 30.0, 40.0, 50.0)]
    change = [record(t, d) for t, d in ((9.0, 6.0), (20.0, 5.0), (31.0, 4.0),
                                        (35.0, 6.0), (45.0, 5.0))]
    change[1] = record(20.0, 5.0, failed=1, nondeterminism=["digest differs"])
    out = bench_pairs.summarise({"parent": parent, "change": change}, METRICS)
    time = out["metrics"]["time_to_tol_rel"]
    assert time["parent"] == {"q25": 20.0, "median": 30.0, "q75": 40.0}
    assert time["change"] == {"q25": 20.0, "median": 31.0, "q75": 35.0}
    # Lower is better: pairs 1, 4 and 5 won; the tie in pair 2 counts for neither.
    assert time["change_wins"] == 3
    assert time["median_ratio"] == 31.0 / 30.0
    # Higher is better: pairs 1 and 4 won; ties in pairs 2 and 5 count for neither.
    assert out["metrics"]["accuracy_digits"]["change_wins"] == 2
    assert out["metrics"]["accuracy_digits"]["median_ratio"] == 1.0
    assert out["pairs"] == 5 and out["seed"] == 123
    assert out["attempted"] == {"parent": 15, "change": 15}
    assert out["failed"] == {"parent": 0, "change": 1}
    assert out["nondeterminism"] == {"parent": 0, "change": 1}


def test_summarise_records_distinct_iterations_and_terminations(bench_pairs):
    # Per side and variant, the sorted distinct counts and stop reasons of
    # every solve of every round, so "iterations unchanged" can be read off.
    parent = [record(10.0, 5.0), record(11.0, 5.0)]
    change = [record(9.0, 5.0), record(9.5, 5.0, iterations=(51, 27, 52))]
    change[1]["rounds"][1][0]["termination"] = "max_iters"
    out = bench_pairs.summarise({"parent": parent, "change": change}, METRICS)
    assert out["iterations"] == {"parent": {"admm2": [51], "ladmm2": [28]},
                                 "change": {"admm2": [51, 52], "ladmm2": [27, 28]}}
    assert out["terminations"] == {"parent": {"admm2": ["tol"], "ladmm2": ["tol"]},
                                   "change": {"admm2": ["max_iters", "tol"],
                                              "ladmm2": ["tol"]}}


def test_summarise_breaks_time_down_by_variant(bench_pairs):
    # Each run's median solve seconds of a variant over the run's reference
    # median, then quartiles per side, pairs won and the ratio of medians.
    parent = [record(10.0, 5.0, seconds=(4.0, 1.0, 2.0), reference=r) for r in (1.0, 2.0, 1.0)]
    change = [record(9.0, 5.0, seconds=(3.0, 1.0, 3.0), reference=1.0),
              record(9.0, 5.0, seconds=(2.0, 2.0, 2.0), reference=2.0),
              record(9.0, 5.0, seconds=(1.0, 2.0, 9.0), reference=1.0)]
    out = bench_pairs.summarise({"parent": parent, "change": change}, METRICS)
    admm2, ladmm2 = out["variant_time_rel"]["admm2"], out["variant_time_rel"]["ladmm2"]
    # admm2: parent 3, 1.5, 3; change 3, 1, 5 (medians of two solves each).
    assert admm2["parent"] == {"q25": 2.25, "median": 3.0, "q75": 3.0}
    assert admm2["change"] == {"q25": 2.0, "median": 3.0, "q75": 4.0}
    assert admm2["change_wins"] == 1 and admm2["median_ratio"] == 1.0
    # ladmm2: parent 1, 0.5, 1; change 1, 1, 2.
    assert ladmm2["parent"]["median"] == 1.0 and ladmm2["change"]["median"] == 1.0
    assert ladmm2["change_wins"] == 0 and ladmm2["median_ratio"] == 1.0
    assert sorted(out["variant_time_rel"]) == ["admm2", "ladmm2"]


def test_summarise_breaks_time_per_iteration_down_by_variant(bench_pairs):
    # Each run's median of a variant's solve seconds over its iterations,
    # over the run's reference median: iteration counts fall out, and a
    # solve that took no iteration is left out.
    parent = [record(10.0, 5.0, seconds=(4.0, 1.0, 2.0), iterations=(40, 20, 10),
                     reference=r) for r in (1.0, 2.0, 1.0)]
    change = [record(9.0, 5.0, seconds=(3.0, 1.0, 3.0), iterations=(30, 10, 0))
              for _ in range(3)]
    out = bench_pairs.summarise({"parent": parent, "change": change}, METRICS)
    admm2, ladmm2 = out["variant_iter_rel"]["admm2"], out["variant_iter_rel"]["ladmm2"]
    # admm2: parent median(0.1, 0.2) over 1, 2, 1; change 0.1 alone.
    assert admm2["parent"] == pytest.approx({"q25": 0.1125, "median": 0.15, "q75": 0.15})
    assert admm2["change"] == {"q25": 0.1, "median": 0.1, "q75": 0.1}
    # The change wins where the parent reads 0.15, not where it reads 0.075.
    assert admm2["change_wins"] == 2 and admm2["median_ratio"] == pytest.approx(2 / 3)
    # ladmm2: parent 0.05, 0.025, 0.05; change 0.1.
    assert ladmm2["parent"]["median"] == 0.05 and ladmm2["change"]["median"] == 0.1
    assert ladmm2["change_wins"] == 0
    # Solve times are unchanged by the per-iteration breakdown.
    assert out["variant_time_rel"]["admm2"]["change"]["median"] == 3.0


def test_summarise_splits_the_ratio_into_round_and_reference_seconds(bench_pairs):
    # Each run's median round seconds and reference seconds, the metric's
    # numerator and denominator, summarised per side like a metric.
    parent = [record(3.0, 5.0, round_s=s, reference=r) for s, r in ((3.0, 1.0), (4.0, 1.0),
                                                                     (6.0, 2.0))]
    change = [record(2.0, 5.0, round_s=s, reference=r) for s, r in ((2.0, 1.0), (4.0, 2.0),
                                                                     (2.5, 0.5))]
    out = bench_pairs.summarise({"parent": parent, "change": change}, METRICS)
    rounds, reference = out["round_s"], out["reference_s"]
    assert rounds["parent"]["median"] == 4.0 and rounds["change"]["median"] == 2.5
    # Lower wins: pairs 1 and 3; pair 2 ties.
    assert rounds["change_wins"] == 2 and rounds["median_ratio"] == 2.5 / 4.0
    assert reference["parent"] == {"q25": 1.0, "median": 1.0, "q75": 1.5}
    assert reference["change"] == {"q25": 0.75, "median": 1.0, "q75": 1.5}
    # Pair 3 only; pair 1 ties.
    assert reference["change_wins"] == 1 and reference["median_ratio"] == 1.0


def test_run_once_takes_the_record_the_run_wrote(bench_pairs, tmp_path, monkeypatch):
    # Two seeds' records sit side by side; the run's own is the one copied.
    checkout, out_dir = tmp_path / "checkout", tmp_path / "checkout" / ".perfbench_out"
    out_dir.mkdir(parents=True)
    for seed in (20260808, 3):
        (out_dir / f"accept-50-seed{seed}-trace0.json").write_text(
            json.dumps({"seed": seed}))
    calls = []

    def fake_run(cmd, cwd, **kwargs):
        calls.append(cmd)
        stdout = ("workload accept-50: instance 50x50x20 seed 3, trace 0\n"
                  "record written to .perfbench_out/accept-50-seed3-trace0.json\n{}\n")
        return types.SimpleNamespace(stdout=stdout)

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    dest = tmp_path / "accept-50-seed3-change-1.json"
    assert bench_pairs.run_once(checkout, "accept-50", 3, dest) == {"seed": 3}
    assert calls[0][-4:] == ["--workload", "accept-50", "--seed", "3"]
    # A record already copied is reused without a run.
    assert bench_pairs.run_once(checkout, "accept-50", 3, dest) == {"seed": 3}
    assert len(calls) == 1


@pytest.mark.parametrize("spec", ["accept-50=1", "accept-50", "accept-50=x", "accept-50=2.5",
                                  "accept50=3", "large-100=3 bogus=3"])
def test_bad_pairs_fail_before_any_run(bench_pairs, tmp_path, monkeypatch, capsys, spec):
    # One pair cannot give quartiles, and a misspelt workload or a missing
    # count would fail only after minutes of runs: all exit 2 up front.
    def no_run(*args, **kwargs):
        raise AssertionError("a benchmark run was started")

    monkeypatch.setattr(bench_pairs.subprocess, "run", no_run)
    out, records = tmp_path / "BENCH.json", tmp_path / "records"
    argv = ["--parent", str(SCRIPT.parent.parent), "--change", str(SCRIPT.parent.parent),
            "--parent-rev", "a", "--change-rev", "b", "--records", str(records),
            "--out", str(out), "--pairs", *spec.split()]
    with pytest.raises(SystemExit) as excinfo:
        bench_pairs.main(argv)
    assert excinfo.value.code == 2
    assert "--pairs" in capsys.readouterr().err
    assert not out.exists() and not records.exists()


PARENT_TIMES = [10.0, 10.2, 9.8, 10.1, 9.9, 10.0, 10.3, 9.7, 10.0, 10.1]


def summary_of(bench_pairs, change_times, digits=5.0):
    parent = [record(t, 5.0) for t in PARENT_TIMES]
    change = [record(t, digits) for t in change_times]
    return bench_pairs.summarise({"parent": parent, "change": change}, METRICS)


def time_verdict(bench_pairs, change_times, digits=5.0):
    out = summary_of(bench_pairs, change_times, digits)["metrics"]
    return out["time_to_tol_rel"], out["accuracy_digits"]


def test_claim_needs_nine_of_ten_wins_beyond_the_parent_spread(bench_pairs):
    # The parent's quartiles are 9.925 / 10.0 / 10.1: a spread of 0.175.
    # Exactly 9 wins and a tie, the medians 1.0 apart: met.
    time, _ = time_verdict(bench_pairs, [9.0] * 9 + [10.1])
    assert time["change_wins"] == 9 and time["pairs"] == 10 and time["claim_met"]
    # 9 wins and a loss: met.
    assert time_verdict(bench_pairs, [9.0] * 9 + [11.0])[0]["claim_met"]
    # 8 wins and two ties: a tie counts for neither side, so not met.
    time, _ = time_verdict(bench_pairs, [9.0] * 8 + PARENT_TIMES[8:])
    assert time["change_wins"] == 8 and not time["claim_met"]
    # 10 wins, but the gain (0.01) is inside the parent's spread: not met.
    time, _ = time_verdict(bench_pairs, [t - 0.01 for t in PARENT_TIMES])
    assert time["change_wins"] == 10 and not time["claim_met"]
    # Equal runs: no wins, no claim, within bound.
    time, digits = time_verdict(bench_pairs, PARENT_TIMES)
    assert time["change_wins"] == 0 and not time["claim_met"] and time["within_bound"]
    assert digits["change_wins"] == 0 and not digits["claim_met"] and digits["within_bound"]


def test_bound_is_a_share_of_the_parent_median(bench_pairs):
    # time_to_tol_rel may rise by 25 % of 10.0, accuracy_digits fall by 10 % of 5.0.
    assert time_verdict(bench_pairs, [12.4] * 10)[0]["within_bound"]
    assert not time_verdict(bench_pairs, [12.6] * 10)[0]["within_bound"]
    assert time_verdict(bench_pairs, PARENT_TIMES, digits=4.6)[1]["within_bound"]
    assert not time_verdict(bench_pairs, PARENT_TIMES, digits=4.4)[1]["within_bound"]
    # Higher is better: more digits in every pair, far beyond a zero spread.
    assert time_verdict(bench_pairs, PARENT_TIMES, digits=6.0)[1]["claim_met"]


def test_verdict_line_names_met_claims_and_broken_bounds(bench_pairs):
    line = bench_pairs.verdict("accept-50", summary_of(bench_pairs, [9.0] * 10, digits=4.0))
    assert line == ("accept-50: claim met: time_to_tol_rel; out of bound: accuracy_digits; "
                    "change/parent medians: round_s 1.000, reference_s 1.000")
    line = bench_pairs.verdict("large-100", summary_of(bench_pairs, PARENT_TIMES))
    assert line == ("large-100: claim met: none; out of bound: none; "
                    "change/parent medians: round_s 1.000, reference_s 1.000")


def test_verdict_line_ends_in_the_round_and_reference_ratios(bench_pairs):
    # The ratio of time_to_tol_rel's medians splits into its numerator's and
    # its denominator's: here the reference pass, not the rounds, moved.
    parent = [record(3.0, 5.0, round_s=3.0, reference=1.0) for _ in range(3)]
    change = [record(3.3, 5.0, round_s=3.0, reference=0.9) for _ in range(3)]
    out = bench_pairs.summarise({"parent": parent, "change": change}, METRICS)
    assert bench_pairs.verdict("complete-cli", out) == (
        "complete-cli: claim met: none; out of bound: none; "
        "change/parent medians: round_s 1.000, reference_s 0.900")

