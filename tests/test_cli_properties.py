"""Property test of the CLI's exit-code contract: 0 success, 2 usage error,
3 data/IO error, 4 numeric abort, each leaving the outputs it promises.

Drawn runs of ``decompose`` (with and without ``--mask``) and ``complete``
over all six variants, on small RKT inputs whose entries mix N(0,1) values
with zeros, subnormals and values near the largest float, under drawn masks,
flags and ``--config`` objects.  Every run stops within 20 iterations, and
the examples are derandomized, so the module runs in a few seconds.
"""

import json
import math
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from rkca import cli, fileio

SETTINGS = settings(max_examples=100, deadline=None, derandomize=True, database=None)

SPECIAL = (0.0, 5e-324, -5e-324, 1e-300, -1e-300, 1e300, -1e300, 1.7e308, -1.7e308)
OUTPUTS = ("A.rkt", "B.rkt", "R.rkt", "L.rkt", "E.rkt", "report.json")
# Each flag's valid values, and the values a check refuses.
FLAG_VALUES = {
    "rank": (st.sampled_from([1, 1, 2, 3]), st.sampled_from([0, 7])),
    "alpha": (st.sampled_from([1e-2, 1e-5, 0.0, 1.0]), st.just(-1.0)),
    "lambda": (st.sampled_from([1e-3, 0.3, 1e4, 1e308]), st.sampled_from([0.0, -1.0])),
    "rho": (st.sampled_from([1.1, 1.5, 1e10]), st.just(1.0)),
    "tol": (st.sampled_from([1e-5, 1e-10, 1e-2]), st.just(0.0)),
    "max-iters": (st.integers(1, 20), st.just(0)),
}
# A config key is a flag's spelling or its dest.
SPELLINGS = {"lambda": ["lambda", "lam"], "max-iters": ["max-iters", "max_iters"]}
# --config values beyond the flags': mistyped, out of range or not finite.
CONFIG_EXTRAS = st.sampled_from([True, None, "0.1", 2.5, -3, 10**400, float("inf"), [1]])


def one_in(n):
    """True one time in ``n``."""
    return st.sampled_from([True] + [False] * (n - 1))


def flag_values(flag, refused=st.nothing()):
    """A value for ``flag``: valid, or one time in ten refused."""
    valid, bad = FLAG_VALUES[flag]
    return one_in(10).flatmap(lambda no: (bad | refused) if no else valid)


@st.composite
def tensors(draw):
    """An m x n x N tensor, each dim at most 6: N(0,1) values with at times
    a few entries replaced by zeros, subnormals, tiny or huge values."""
    shape = tuple(draw(st.sampled_from(range(1, 7))) for _ in range(3))
    X = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).standard_normal(shape)
    for _ in range(draw(st.sampled_from([0, 0, 1, 2, 4]))):
        X[tuple(draw(st.integers(0, d - 1)) for d in shape)] = draw(st.sampled_from(SPECIAL))
    if draw(one_in(8)):  # at times, one value everywhere
        X[:] = draw(st.sampled_from(SPECIAL))
    return X


@st.composite
def masks(draw, shape):
    """A mask of ``shape``: drawn entries, or all observed, or none."""
    kind = draw(st.sampled_from(["drawn"] * 6 + ["full", "empty"]))
    if kind != "drawn":
        return np.full(shape, kind == "full")
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return rng.random(shape) < draw(st.sampled_from([0.3, 0.7, 0.95]))


@st.composite
def configs(draw):
    """A --config JSON value: an object of drawn keys, in either spelling, or
    at times an unknown key or no object at all."""
    if draw(one_in(20)):
        return draw(st.sampled_from([[], "admm2", 3]))
    obj = {}
    for flag in FLAG_VALUES:
        if draw(one_in(3)):
            key = draw(st.sampled_from(SPELLINGS.get(flag, [flag])))
            obj[key] = draw(flag_values(flag, CONFIG_EXTRAS))
    if draw(st.booleans()):
        obj["variant"] = draw(st.sampled_from(sorted(cli.VARIANT_FLAGS) + ["admm4"]))
    if draw(one_in(20)):
        obj["unknown"] = 1
    return obj


def _finite_numbers(value):
    """Whether every number in a parsed JSON value is finite."""
    if isinstance(value, dict):
        return all(_finite_numbers(v) for v in value.values())
    if isinstance(value, list):
        return all(_finite_numbers(v) for v in value)
    return not isinstance(value, float) or math.isfinite(value)


@SETTINGS
@given(data=st.data())
def test_every_run_keeps_the_exit_code_contract(data):
    X = data.draw(tensors())
    command = data.draw(st.sampled_from(["decompose", "decompose-masked", "complete"]))
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        fileio.write_rkt(tmp / "X.rkt", X)
        args = [command.split("-")[0], "--input", tmp / "X.rkt"]
        if not data.draw(one_in(4)):
            args.append(f"--variant={data.draw(st.sampled_from(sorted(cli.VARIANT_FLAGS)))}")
        # At most 20 iterations: --max-iters is always on the command line,
        # which a --config file does not override.
        for flag in FLAG_VALUES:
            if flag == "max-iters" or data.draw(one_in(8)) != (flag == "rank"):
                args.append(f"--{flag}={data.draw(flag_values(flag))}")
        if command != "decompose":
            fileio.write_rkt(tmp / "mask.rkt", data.draw(masks(X.shape)).astype(float))
            args += ["--mask", tmp / "mask.rkt"]
        if command == "complete" and data.draw(st.booleans()):
            fileio.write_rkt(tmp / "truth.rkt", np.random.default_rng(1).random(X.shape))
            args += ["--truth", tmp / "truth.rkt"]
        if data.draw(st.booleans()):
            (tmp / "config.json").write_text(json.dumps(data.draw(configs())))
            args += ["--config", tmp / "config.json"]
        out = tmp / "out"
        try:
            code = cli.main([str(a) for a in [*args, "--out-dir", out]])
        except SystemExit as exc:  # argparse refuses the flags
            code = exc.code
        assert code in (0, 2, 3, 4)
        if code in (2, 3):
            assert not out.exists()
        elif code == 4:
            assert json.loads((out / "report.json").read_text())["termination"] == "abort"
        else:
            assert all((out / name).exists() for name in OUTPUTS)
            if "--truth" in args:
                assert (out / "metrics.json").exists()
            assert _finite_numbers(json.loads((out / "report.json").read_text()))
