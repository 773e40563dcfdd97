"""Tests of the benchmark's own output checks.

Run from the repository root:

    python3 -m pytest -q perfbench/test_checks.py

A check that passes on the program's real outputs must fail when one byte
of an output is flipped or when it is handed a wrong persistence diagram.
"""

from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks as ck  # noqa: E402
import inputs  # noqa: E402
import workloads  # noqa: E402
from checks import CheckFailed  # noqa: E402

import topofield  # noqa: E402
from topofield import cli  # noqa: E402

README_OPS = ("stats", "normalize", "channels", "persistence-a", "bottleneck", "fuse",
              "regularize", "losses-2014-07-16", "stratify", "evaluate")
NO_OUTPUT_FILES = ("bottleneck", "regularize", "losses-2014-07-16")


@pytest.fixture(scope="module")
def readme(tmp_path_factory):
    """The readme-cli inputs and the outputs of a subset of its ops, made in process."""
    work = tmp_path_factory.mktemp("readme")
    inputs.readme_cli(work, seed=3)
    ctx = workloads.Ctx(work, seed=3, threads=1)
    ops = {op.label: op for op in workloads.readme_cli(ctx)}
    cli.run(["synth", "--spec", str(work / "climate.json"), "--output", str(work / "climate.gfs")])
    results = {}
    for label in ("stats", "normalize", "channels", "persistence-a", "persistence-b") + README_OPS[4:]:
        op = ops[label]
        argv = [op.command] + [str(work / a) if str(a).endswith((".gfs", ".json", ".csv", ".txt")) else a
                               for a in op.args] + ["--threads", "1"] + (["--json"] if op.json else [])
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.run(argv) == 0, label
        results[label] = workloads.Result(op, stdout=out.getvalue().encode())
    return ctx, ops, results


def flip(path: Path, at: int) -> bytes:
    raw = path.read_bytes()
    bad = bytearray(raw)
    bad[at] ^= 0xFF
    path.write_bytes(bytes(bad))
    return raw


@pytest.mark.parametrize("label", README_OPS)
def test_check_passes_on_real_outputs(readme, label):
    ctx, ops, results = readme
    ctx.cache.clear()
    ops[label].check(ctx, results[label])


@pytest.mark.parametrize("label", [label for label in README_OPS if label not in NO_OUTPUT_FILES])
@pytest.mark.parametrize("where", [0, 0.5, -1])
def test_flipping_one_output_byte_fails_the_check(readme, label, where):
    ctx, ops, results = readme
    op = ops[label]
    for name in op.outputs:
        path = ctx.work / name
        size = path.stat().st_size
        at = int(size * where) if where != -1 else size - 1
        raw = flip(path, at)
        ctx.cache.clear()
        try:
            with pytest.raises(CheckFailed):
                op.check(ctx, results[label])
        finally:
            path.write_bytes(raw)


@pytest.mark.parametrize("label", NO_OUTPUT_FILES + ("stratify",))
def test_flipping_one_stdout_byte_fails_the_check(readme, label):
    ctx, ops, results = readme
    res = results[label]
    for at in (0, len(res.stdout) // 2, len(res.stdout) - 2):
        bad = bytearray(res.stdout)
        bad[at] ^= 0xFF
        ctx.cache.clear()
        with pytest.raises(CheckFailed):
            ops[label].check(ctx, workloads.Result(res.op, stdout=bytes(bad)))


def test_every_single_byte_flip_of_a_diagram_csv_is_caught():
    field = np.random.default_rng(0).random((6, 7))
    raw = topofield.diagrams_to_csv([topofield.sublevel_persistence(field, d) for d in (0, 1)]).encode()
    ck.diagram_csv(raw)
    for at in range(len(raw)):
        bad = bytearray(raw)
        bad[at] ^= 0xFF
        with pytest.raises(CheckFailed):
            ck.diagram_csv(bytes(bad))


def test_sign_flip_of_a_zero_in_a_stack_is_caught():
    field = np.random.default_rng(1).random((9, 11))
    stack = topofield.FieldStack((topofield.gfs.days_to_date(0),), field[None, None])
    raw = topofield.stack_to_bytes(topofield.build_structural_stack(stack))
    _, values = ck.read_gfs(raw)
    want = ck.gfs_bytes([topofield.gfs.days_to_date(0)], ck.structural_channels(field)[None])
    ck.same_bytes(raw, want, "channels")
    zero = int(np.flatnonzero(values.ravel() == 0.0)[0])
    bad = bytearray(raw)
    bad[len(raw) - 4 * values.size + 4 * zero + 3] ^= 0x80  # 0.0 -> -0.0
    with pytest.raises(CheckFailed):
        ck.same_bytes(bytes(bad), want, "channels")


def test_wrong_diagram_fails_the_bottleneck_bound():
    rng = np.random.default_rng(2)
    a, b = rng.random((12, 14)), rng.random((12, 14))
    da, db = (topofield.sublevel_persistence(x, 1) for x in (a, b))
    d = topofield.bottleneck_distance(da, db)
    ck.bottleneck_within_bound(d, da.pairs, db.pairs)
    flat = [(x, x + 1e-6) for x, _ in da.pairs]
    with pytest.raises(CheckFailed):
        ck.bottleneck_within_bound(d, flat, flat)


def test_wrong_diagram_fails_the_h0_minima_count():
    field = np.random.default_rng(4).random((10, 13))
    pairs = topofield.sublevel_persistence(field, 0).pairs
    ck.h0_births_are_minima(pairs, field, "field")
    with pytest.raises(CheckFailed):
        ck.h0_births_are_minima(pairs[1:], field, "field")


@pytest.mark.parametrize("seed", range(5))
def test_numpy_channels_reference_matches_library(seed):
    field = np.random.default_rng(seed).random((17, 23))
    field[field < 0.1] = 0.0  # ties, as clipping makes them
    got = topofield.build_structural_channels(topofield.ScalarField(field)).to_array()
    assert got.tobytes() == ck.structural_channels(field).tobytes()
