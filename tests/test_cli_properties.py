"""Property tests of the CLI's exit-code contract: 0 success, 2 usage error,
3 data/IO error, 4 numeric abort, each leaving the outputs it promises.

Drawn runs of ``decompose`` (with and without ``--mask``) and ``complete``
(at drawn ``--range`` values) over all six variants, on small RKT inputs
whose entries mix N(0,1) values with zeros, subnormals and values near the
largest float, under drawn masks, flags and ``--config`` objects; and
drawn runs of ``denoise`` on small PGM stacks or a PPM image, at times a
directory that it refuses, with drawn ``--clean``, ``--noise-level`` and
``--seed`` flags.  Every run stops within 20 iterations, and the examples
are derandomized, so the module runs in a few seconds.  A third test, which
runs no solve, checks the settings that ``--config`` objects and solver
flags resolve to against the CLI's former checker of config values, kept in
``reference``.
"""

import json
import math
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from rkca import cli, fileio

import reference

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
# --range values of complete: the default, a pixel range, and ranges whose
# square underflows or overflows.
RANGES = (1.0, 255.0, 1e-200, 1e200)
# --noise-level values: valid, then out of [0, 1] or not a number.
NOISE_LEVELS = st.sampled_from([0.0, 0.1, 1.0, float("nan"), -0.1, 2.0])


# One generator per example, seeded by a drawn integer, as ``tensors`` draws
# its values: hypothesis repeats and favours small integers, so a seed per
# choice would not give each share its 1/n.
EXAMPLE_RNG = st.shared(st.integers(0, 2**32 - 1).map(np.random.default_rng), key="one_in")


def one_in(n):
    """True one time in ``n``: the example's generator's next uniform draw
    falls below 1/n."""
    return EXAMPLE_RNG.map(lambda rng: rng.random() * n < 1)


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


def solver_flags(data):
    """Drawn solver flags: at times a variant, then at times each of
    FLAG_VALUES' flags, with --max-iters always set (at most 20 iterations,
    which a --config file does not override) and --rank most times."""
    args = []
    if not data.draw(one_in(4)):
        args.append(f"--variant={data.draw(st.sampled_from(sorted(cli.VARIANT_FLAGS)))}")
    for flag in FLAG_VALUES:
        if flag == "max-iters" or data.draw(one_in(8)) != (flag == "rank"):
            args.append(f"--{flag}={data.draw(flag_values(flag))}")
    return args


def assert_contract(code, out):
    """The exit code is in {0, 2, 3, 4}; a refusal (2 or 3) leaves no output
    directory, an abort a report that says so, and a success every output
    and a finite report."""
    assert code in (0, 2, 3, 4)
    if code in (2, 3):
        assert not out.exists()
    elif code == 4:
        assert json.loads((out / "report.json").read_text())["termination"] == "abort"
    else:
        assert all((out / name).exists() for name in OUTPUTS)
        assert _finite_numbers(json.loads((out / "report.json").read_text()))


def run_main(argv):
    """``cli.main``'s exit code for ``argv``, or argparse's when it refuses."""
    try:
        return cli.main([str(a) for a in argv])
    except SystemExit as exc:
        return exc.code


@SETTINGS
@given(data=st.data())
def test_every_run_keeps_the_exit_code_contract(data):
    X = data.draw(tensors())
    command = data.draw(st.sampled_from(["decompose", "decompose-masked", "complete"]))
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        fileio.write_rkt(tmp / "X.rkt", X)
        args = [command.split("-")[0], "--input", tmp / "X.rkt", *solver_flags(data)]
        if command != "decompose":
            fileio.write_rkt(tmp / "mask.rkt", data.draw(masks(X.shape)).astype(float))
            args += ["--mask", tmp / "mask.rkt"]
        if command == "complete" and data.draw(st.booleans()):
            fileio.write_rkt(tmp / "truth.rkt", np.random.default_rng(1).random(X.shape))
            args += ["--truth", tmp / "truth.rkt"]
        if command == "complete":
            args.append(f"--range={data.draw(st.sampled_from(RANGES))}")
        if data.draw(st.booleans()):
            (tmp / "config.json").write_text(json.dumps(data.draw(configs())))
            args += ["--config", tmp / "config.json"]
        out = tmp / "out"
        code = run_main([*args, "--out-dir", out])
        assert_contract(code, out)
        if code == 0 and "--truth" in args:
            assert (out / "metrics.json").exists()


@st.composite
def image_dirs(draw, root, name, shape=None):
    """A directory ``root/name`` for ``denoise``: most times a stack of PGM
    images, of ``shape`` if given, else of drawn dims (each at most 6), or
    at times one PPM image, or images it refuses: PGM and PPM mixed, PGMs of
    two dims, two PPMs, or none.  Returns the directory and the images'
    (m, n, N), or None for a refused directory."""
    directory = root / name
    directory.mkdir()
    kind = draw(st.sampled_from(["pgm"] * 10 + ["ppm"] * 2 + ["mixed-kinds", "mixed-dims",
                                                               "two-ppm", "empty"]))
    m, n, count = shape or (draw(st.integers(1, 6)), draw(st.integers(1, 6)),
                            draw(st.integers(1, 4)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if kind in ("pgm", "mixed-kinds", "mixed-dims"):
        for i in range(count):
            fileio.write_pgm(directory / f"img{i}.pgm", rng.random((m, n)))
    if kind == "mixed-dims":
        fileio.write_pgm(directory / "other.pgm", rng.random((m + 1, n)))
    if kind in ("ppm", "mixed-kinds", "two-ppm"):
        for i in range(1 + (kind == "two-ppm")):
            fileio.write_ppm(directory / f"color{i}.ppm", rng.random((m, n, 3)))
    return directory, {"pgm": (m, n, count), "ppm": (m, n, 3)}.get(kind)


@SETTINGS
@given(data=st.data())
def test_every_denoise_run_keeps_the_exit_code_contract(data):
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        images, dims = data.draw(image_dirs(tmp, "images"))
        args = ["denoise", "--images", images, *solver_flags(data),
                f"--noise-level={data.draw(NOISE_LEVELS)}",
                f"--seed={data.draw(st.integers(-1, 6))}"]
        clean = data.draw(st.sampled_from(["none", "same", "drawn"]))
        if clean == "same":
            args += ["--clean", images]
        elif clean == "drawn":  # matching dims at times, else drawn ones
            shape = dims if dims is not None and data.draw(st.booleans()) else None
            args += ["--clean", data.draw(image_dirs(tmp, "clean", shape))[0]]
        if data.draw(one_in(4)):
            (tmp / "config.json").write_text(json.dumps(data.draw(configs())))
            args += ["--config", tmp / "config.json"]
        out = tmp / "out"
        code = run_main([*args, "--out-dir", out])
        assert_contract(code, out)
        if code == 0:
            metrics = json.loads((out / "metrics.json").read_text())
            assert ("psnr_denoised" in metrics) == ("--clean" in args)
            assert all((out / name).exists() for name in metrics["images"])


@SETTINGS
@given(data=st.data())
def test_config_objects_resolve_as_the_former_config_checker(data):
    # The config file's values, under the command line's solver flags, give
    # the SolverConfig that the CLI's former checker of config values gave,
    # or both refuse them as usage errors.  At times the file holds a value
    # that SolverConfig alone would take or choke on: a null lambda, read as
    # the default, or a null, list or underscore-spelled variant.
    obj = data.draw(configs())
    if isinstance(obj, dict) and data.draw(one_in(3)):
        key, value = data.draw(st.sampled_from([("lambda", None), ("lam", None),
                                                ("variant", None), ("variant", ["admm2"]),
                                                ("variant", "admm3_fro")]))
        obj[key] = value
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(obj))
        config = ["--config", path] if not data.draw(one_in(5)) else []
        argv = ["decompose", "--input", "X.rkt", *solver_flags(data), *config,
                "--out-dir", "out"]
        parser, resolved = cli.build_parser(), []
        for solver_config in (cli._solver_config, reference.solver_config):
            args = parser.parse_args([str(a) for a in argv])
            try:
                resolved.append(solver_config(args).resolved((6, 5, 4)))
            except cli.UsageError:
                resolved.append("usage error")
    assert resolved[0] == resolved[1]
