import argparse
import contextlib
import datetime as dt
import io
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from topofield import (
    FieldStack,
    LambdaMap,
    NormStats,
    PersistenceDiagram,
    RegWeights,
    apply_residual,
    bottleneck_distance,
    build_structural_stack,
    denormalize,
    diagrams_to_csv,
    entropy_term,
    filter_by_persistence,
    fuse,
    l_reg,
    make_eval_record,
    mean_balance,
    read_diagram_csv,
    stack_to_bytes,
    sublevel_persistence,
    tv,
    write_diagram_csv,
)
from topofield import cli, persistence
from topofield.cli import run
from topofield.errors import OutOfRange
from topofield.field import normalized
from topofield.gfs import read_stack, stack_from_bytes, write_stack
from topofield.temporal import TAU_MAX, TAU_MIN

from test_bottleneck import augmenting_chain

# a stray numpy warning means a value went through a cast or a formula unchecked
pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")


@pytest.fixture
def raw_stack(tmp_path):
    rng = np.random.default_rng(21)
    n = 8
    dates = tuple(dt.date(2015, 1, 1) + dt.timedelta(days=k) for k in range(n))
    vals = rng.uniform(260.0, 300.0, size=(n, 1, 12, 14))
    path = tmp_path / "raw.gfs"
    write_stack(FieldStack(dates, vals), path)
    return path


@pytest.fixture
def stats_file(tmp_path, raw_stack):
    path = tmp_path / "stats.json"
    code = run(["stats", "--input", str(raw_stack), "--train-years", "2015", "--output", str(path)])
    assert code == 0
    return path


def test_stats_writes_percentiles(stats_file):
    d = json.loads(stats_file.read_text())
    assert set(d) == {"p1", "p99"}
    assert d["p99"] > d["p1"]


def test_stats_json_mode(raw_stack, capsys):
    assert run(["stats", "--input", str(raw_stack), "--train-years", "2015", "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert "p1" in out and "p99" in out


def test_normalize_round_trip(tmp_path, raw_stack, stats_file):
    norm = tmp_path / "norm.gfs"
    back = tmp_path / "back.gfs"
    assert run(["normalize", "--input", str(raw_stack), "--stats", str(stats_file), "--output", str(norm)]) == 0
    stack = read_stack(norm)
    assert stack.values.min() >= 0.0 and stack.values.max() <= 1.0
    assert run(["normalize", "--input", str(norm), "--stats", str(stats_file), "--output", str(back), "--invert"]) == 0
    d = json.loads(stats_file.read_text())
    raw = read_stack(raw_stack)
    restored = read_stack(back)
    clipped = np.clip(raw.values, d["p1"], d["p99"]).astype(np.float32)
    assert np.allclose(restored.values, clipped, atol=1e-4 * (d["p99"] - d["p1"]))


def test_channels_builds_4_channel_stack(tmp_path, raw_stack, stats_file):
    out = tmp_path / "x.gfs"
    assert run(["channels", "--input", str(raw_stack), "--stats", str(stats_file), "--output", str(out)]) == 0
    stack = read_stack(out)
    assert stack.channels == 4
    t_channel = stack.values[:, 1]
    assert set(np.unique(np.round(t_channel * 3))) <= {0.0, 1.0, 2.0, 3.0}


def test_persistence_csv_matches_library(tmp_path, raw_stack, capsys):
    out = tmp_path / "pd.csv"
    code = run([
        "persistence", "--input", str(raw_stack), "--date", "2015-01-03",
        "--output", str(out), "--json",
    ])
    assert code == 0
    result = json.loads(capsys.readouterr().out)
    assert result["filtration"]["construction"] == "V"
    stack = read_stack(raw_stack)
    idx = stack.index_of(dt.date(2015, 1, 3))
    expected = {d: sublevel_persistence(stack.field(idx), d) for d in (0, 1)}
    got = read_diagram_csv(out)
    assert got[0].pairs == expected[0].pairs
    assert got.get(1, expected[1]).pairs == expected[1].pairs


def test_persistence_ranks_the_field_once_for_both_dimensions(tmp_path, raw_stack, monkeypatch, capsys):
    calls = []
    vertex_ranks = persistence.vertex_ranks

    def spy(values):
        calls.append(values.shape)
        return vertex_ranks(values)

    monkeypatch.setattr(persistence, "vertex_ranks", spy)
    out = tmp_path / "pd.csv"
    assert run(["persistence", "--input", str(raw_stack), "--date", "2015-01-03", "--output", str(out)]) == 0
    assert calls == [(12, 14)]
    field = read_stack(raw_stack).values[2, 0]
    assert out.read_text() == diagrams_to_csv([sublevel_persistence(field, 0), sublevel_persistence(field, 1)])


def test_bottleneck_matches_library(tmp_path, raw_stack, capsys):
    stack = read_stack(raw_stack)
    a_csv, b_csv = tmp_path / "a.csv", tmp_path / "b.csv"
    run(["persistence", "--input", str(raw_stack), "--date", "2015-01-01", "--output", str(a_csv)])
    run(["persistence", "--input", str(raw_stack), "--date", "2015-01-02", "--output", str(b_csv)])
    capsys.readouterr()
    assert run(["bottleneck", str(a_csv), str(b_csv), "--dim", "1", "--json"]) == 0
    result = json.loads(capsys.readouterr().out)
    want = bottleneck_distance(
        sublevel_persistence(stack.field(0), 1), sublevel_persistence(stack.field(1), 1)
    )
    assert result["distance"] == want


@pytest.mark.filterwarnings("error")
def test_bottleneck_of_a_half_persistence_that_overflows(tmp_path, capsys):
    wide, empty = tmp_path / "wide.csv", tmp_path / "empty.csv"
    wide.write_text("dim,birth,death\n1,-1e308,1e308\n")
    empty.write_text("dim,birth,death\n")
    assert run(["bottleneck", str(wide), str(empty), "--dim", "1", "--json"]) == 0
    out, err = capsys.readouterr()
    assert json.loads(out) == {"dim": 1, "distance": 1e308}
    assert err == ""


def test_bottleneck_of_a_long_augmenting_chain(tmp_path, capsys):
    paths = []
    for name, pd in zip("ab", augmenting_chain(3000)):
        path = tmp_path / f"{name}.csv"
        path.write_text("dim,birth,death\n" + "".join(f"1,{b!r},{d!r}\n" for b, d in pd.pairs))
        paths.append(str(path))
    assert run(["bottleneck", *paths, "--dim", "1", "--json"]) == 0
    out, err = capsys.readouterr()
    assert json.loads(out) == {"dim": 1, "distance": 1.0 + 2.0**-13}
    assert err == ""


def make_norm_stack(tmp_path, name, n=3, shape=(12, 14), seed=1, start=dt.date(2020, 1, 1)):
    rng = np.random.default_rng(seed)
    dates = tuple(start + dt.timedelta(days=k) for k in range(n))
    vals = rng.uniform(0.0, 1.0, size=(n, 1, *shape))
    path = tmp_path / name
    write_stack(FieldStack(dates, vals), path)
    return path


def test_fuse_identity_when_lambda_one(tmp_path, capsys):
    inter = make_norm_stack(tmp_path, "inter.gfs", seed=2)
    intra = make_norm_stack(tmp_path, "intra.gfs", seed=3)
    ones = tmp_path / "lam.gfs"
    stack = read_stack(inter)
    write_stack(FieldStack(stack.dates, np.ones_like(stack.values)), ones)
    out = tmp_path / "fused.gfs"
    assert run(["fuse", "--inter", str(inter), "--intra", str(intra), "--lambda", str(ones), "--output", str(out)]) == 0
    assert np.array_equal(read_stack(out).values, read_stack(inter).values)


def test_fuse_with_residual_and_clamp(tmp_path):
    inter = make_norm_stack(tmp_path, "inter.gfs", seed=4)
    intra = make_norm_stack(tmp_path, "intra.gfs", seed=5)
    lam = make_norm_stack(tmp_path, "lam.gfs", seed=6)
    resid = tmp_path / "resid.gfs"
    stack = read_stack(inter)
    write_stack(FieldStack(stack.dates, np.full_like(stack.values, 0.5)), resid)
    out = tmp_path / "fused.gfs"
    code = run([
        "fuse", "--inter", str(inter), "--intra", str(intra), "--lambda", str(lam),
        "--residual", str(resid), "--clamp", "--output", str(out),
    ])
    assert code == 0
    vals = read_stack(out).values
    assert vals.max() <= 1.0


def test_regularize_reports_terms(tmp_path, capsys):
    lam = make_norm_stack(tmp_path, "lam.gfs", n=1, seed=7)
    assert run(["regularize", "--lambda", str(lam), "--eta1", "1", "--eta2", "1", "--eta3", "1", "--json"]) == 0
    result = json.loads(capsys.readouterr().out)
    entry = result["maps"][0]
    assert set(entry) >= {"tv", "entropy", "mean_balance", "l_reg"}


def test_losses_command_gate(tmp_path, capsys):
    pred = make_norm_stack(tmp_path, "p.gfs", n=1, seed=8)
    truth = make_norm_stack(tmp_path, "t.gfs", n=1, seed=9)
    fake = tmp_path / "fake.json"
    fake.write_text("[0.5, -0.5]")
    real = tmp_path / "real.json"
    real.write_text("[1.0, 2.0]")
    code = run([
        "losses", "--pred", str(pred), "--truth", str(truth),
        "--real-scores", str(real), "--fake-scores", str(fake),
        "--alpha", "1", "--beta", "1", "--delta", "1",
        "--step", "15", "--warmup", "10", "--every", "5", "--json",
    ])
    assert code == 0
    rep = json.loads(capsys.readouterr().out)
    assert rep["topo_gate_open"] is True
    assert rep["hinge_d"] == 1.0  # mean(max(0,1-[1,2])) + mean(max(0,1+[.5,-.5]))
    assert rep["adv"] == 0.0
    assert rep["total"] == pytest.approx(rep["content"] + rep["adv"] + rep["topo"])


def test_losses_lambda_adds_the_date_s_regularizer(tmp_path, capsys):
    pred = make_norm_stack(tmp_path, "p.gfs", seed=70)
    truth = make_norm_stack(tmp_path, "t.gfs", seed=71)
    lam = make_norm_stack(tmp_path, "lam.gfs", seed=72)
    argv = ["losses", "--pred", str(pred), "--truth", str(truth), "--date", "2020-01-02", "--gamma", "0.5",
            "--eta1", "0.7", "--eta2", "1.3", "--eta3", "2.9", "--target", "0.35", "--json"]
    assert run(argv + ["--lambda", str(lam)]) == 0
    rep = json.loads(capsys.readouterr().out)
    expect = l_reg(LambdaMap.of(read_stack(lam).values[1, 0]), RegWeights(0.7, 1.3, 2.9, 0.35))
    assert rep["reg"] == expect and expect != 0.0
    assert rep["total"] == rep["content"] + 0.5 * rep["reg"]  # alpha 1; beta and delta 0
    other = make_norm_stack(tmp_path, "other.gfs", n=1, seed=73, start=dt.date(2020, 1, 3))
    assert run(argv + ["--lambda", str(other)]) == 1
    assert capsys.readouterr().err == "error [format_error]: --lambda has no field for 2020-01-02\n"


def test_evaluate_and_summary(tmp_path, capsys):
    rng = np.random.default_rng(10)
    dates = tuple(dt.date(2020, m, 15) for m in (1, 4, 7, 10))
    truth_vals = rng.uniform(0.3, 0.7, size=(4, 1, 12, 14))
    pred_vals = np.clip(truth_vals + rng.normal(0, 0.02, truth_vals.shape), 0, 1)
    clim_vals = np.clip(truth_vals + rng.normal(0, 0.05, truth_vals.shape), 0, 1)
    for name, vals in [("truth.gfs", truth_vals), ("pred.gfs", pred_vals), ("clim.gfs", clim_vals)]:
        write_stack(FieldStack(dates, vals), tmp_path / name)
    stats = tmp_path / "stats.json"
    stats.write_text(json.dumps({"p1": 260.0, "p99": 300.0}))
    records_csv = tmp_path / "records.csv"
    summary_csv = tmp_path / "summary.csv"
    code = run([
        "evaluate", "--pred", str(tmp_path / "pred.gfs"), "--truth", str(tmp_path / "truth.gfs"),
        "--clim", str(tmp_path / "clim.gfs"), "--stats", str(stats), "--tau", "45",
        "--output", str(records_csv), "--summary", str(summary_csv), "--json",
    ])
    assert code == 0
    result = json.loads(capsys.readouterr().out)
    assert result["n_records"] == 4
    seasons = {r["season"] for r in result["records"]}
    assert seasons == {"DJF", "MAM", "JJA", "SON"}
    assert records_csv.read_text().splitlines()[0].startswith("target_date,tau,season,rmse")
    summary_lines = summary_csv.read_text().splitlines()
    assert summary_lines[0] == "season,n,mean_rmse,std_rmse,mean_acc,overlap"
    # pooled per-season overlap is present for every season
    assert all(line.split(",")[-1] for line in summary_lines[1:])
    assert all(0.0 <= float(v["overlap"]) <= 1.001 for v in result["seasonal_summary"].values())


def test_stratify_reference_bins(tmp_path, capsys):
    lam = np.array([[0.687, 0.698, 0.737, 0.742]] * 4).T.repeat(3, axis=1)
    err = np.array([[2.0, 3.5, 4.5, 6.0]] * 4).T.repeat(3, axis=1)
    dates = (dt.date(2020, 1, 15),)
    write_stack(FieldStack(dates, lam[None, None]), tmp_path / "lam.gfs")
    write_stack(FieldStack(dates, err[None, None]), tmp_path / "err.gfs")
    out = tmp_path / "strat.csv"
    code = run([
        "stratify", "--lambda", str(tmp_path / "lam.gfs"), "--rmse", str(tmp_path / "err.gfs"),
        "--bins", "3,4,5", "--season", "DJF", "--output", str(out), "--json",
    ])
    assert code == 0
    result = json.loads(capsys.readouterr().out)
    assert result["season"] == "DJF"
    # GFS stores float32, so medians come back float32-quantized
    quantized = [float(np.float32(x)) for x in (0.687, 0.698, 0.737, 0.742)]
    assert result["medians"] == quantized
    assert result["delta"] == pytest.approx(0.055, abs=1e-6)
    assert result["bins"] == ["3-", "3-4", "4-5", "5+"]
    assert out.read_text() == (
        "season,median_3-,median_3-4,median_4-5,median_5+,delta,n_3-,n_3-4,n_4-5,n_5+\n"
        "DJF,0.68699997663497925,0.69800001382827759,0.7369999885559082,0.74199998378753662,"
        "0.055000007152557373,12,12,12,12\n"
    )


CLIMATE_SPEC = {
    "n_years": 4,
    "height": 6,
    "width": 7,
    "annual_amp": 1.0,
    "interannual_amp": 0.3,
    "weather_amp": 0.4,
    "ar1_coeff": 0.7,
    "seed": 11,
}


def test_synth_deterministic(tmp_path):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(CLIMATE_SPEC))
    out1, out2 = tmp_path / "a.gfs", tmp_path / "b.gfs"
    assert run(["synth", "--spec", str(spec), "--output", str(out1)]) == 0
    assert run(["synth", "--spec", str(spec), "--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_sample_command(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(CLIMATE_SPEC))
    raw = tmp_path / "climate.gfs"
    run(["synth", "--spec", str(spec), "--output", str(raw)])
    stats = tmp_path / "stats.json"
    run(["stats", "--input", str(raw), "--train-years", "2010-2012", "--output", str(stats)])
    x = tmp_path / "x.gfs"
    run(["channels", "--input", str(raw), "--stats", str(stats), "--output", str(x)])
    capsys.readouterr()
    manifest = tmp_path / "manifest.txt"
    code = run([
        "sample", "--input", str(x), "--date", "2013-06-01", "--tau", "45",
        "--output", str(manifest), "--json",
    ])
    assert code == 0
    result = json.loads(capsys.readouterr().out)
    assert result["n_samples"] == 1
    line = manifest.read_text().strip().split(",")
    assert line[0] == "2013-06-01" and line[1] == "45"


SPLIT_MANIFESTS = {
    ("count", "train"): "2013-03-09,58,2010-03-09,2011-03-09,2012-03-09,2012-09-16,2012-11-13,2013-01-10\n"
                        "2013-03-31,61,2010-03-31,2011-03-31,2012-03-31,2012-09-29,2012-11-29,2013-01-29\n"
                        "2013-01-12,76,2010-01-12,2011-01-12,2012-01-12,2012-05-29,2012-08-13,2012-10-28\n",
    ("count", "test"): "2014-04-03,58,2011-04-03,2012-04-03,2013-04-03,2013-10-11,2013-12-08,2014-02-04\n"
                       "2014-01-25,61,2011-01-25,2012-01-25,2013-01-25,2013-07-26,2013-09-25,2013-11-25\n"
                       "2014-07-25,76,2011-07-25,2012-07-25,2013-07-25,2013-12-09,2014-02-23,2014-05-10\n",
    ("date", "train"): "2013-06-01,45,2010-06-01,2011-06-01,2012-06-01,2013-01-17,2013-03-03,2013-04-17\n",
    ("date", "test"): None,  # a 2013 target is not a test sample
}


def test_sample_with_a_split_keeps_only_the_role_s_samples(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({**CLIMATE_SPEC, "n_years": 5}))
    raw, stats, x = tmp_path / "climate.gfs", tmp_path / "stats.json", tmp_path / "x.gfs"
    assert run(["synth", "--spec", str(spec), "--output", str(raw)]) == 0
    assert run(["stats", "--input", str(raw), "--train-years", "2010-2013", "--output", str(stats)]) == 0
    assert run(["channels", "--input", str(raw), "--stats", str(stats), "--output", str(x)]) == 0
    capsys.readouterr()
    modes = {"count": ["--count", "3"], "date": ["--date", "2013-06-01", "--tau", "45"]}
    for (mode, role), want in SPLIT_MANIFESTS.items():
        manifest = tmp_path / f"{mode}-{role}.txt"
        code = run(["sample", "--input", str(x), *modes[mode], "--train-years", "2010-2013",
                    "--test-years", "2014", "--role", role, "--output", str(manifest)])
        if want is None:
            assert code == 1 and not manifest.exists()
            assert capsys.readouterr().err == "error [format_error]: sample fails split validation for role test\n"
        else:
            assert code == 0 and manifest.read_text() == want


def test_unknown_flag_is_usage_error(raw_stack):
    assert run(["stats", "--input", str(raw_stack), "--train-years", "2015", "--bogus"]) == 2


def test_unknown_command_is_usage_error():
    assert run(["frobnicate"]) == 2


def test_domain_error_is_exit_1(tmp_path, capsys):
    missing = tmp_path / "nope.gfs"
    assert run(["stats", "--input", str(missing), "--train-years", "2015"]) == 1


def test_bad_magic_is_exit_1(tmp_path, capsys):
    bad = tmp_path / "bad.gfs"
    bad.write_bytes(b"NOPE" + b"\x00" * 64)
    assert run(["persistence", "--input", str(bad)]) == 1
    assert "bad_magic" in capsys.readouterr().err


def test_threads_do_not_change_channels_output(tmp_path):
    raw = make_norm_stack(tmp_path, "raw.gfs", n=40, shape=(64, 64), seed=12)  # three chunks of dates
    outs = [tmp_path / f"x{threads}.gfs" for threads in (1, 2)]
    for threads, out in zip((1, 2), outs):
        assert run(["channels", "--input", str(raw), "--output", str(out), "--threads", str(threads)]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()


def test_config_file_supplies_defaults(tmp_path, raw_stack, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"train_years": "2015", "threads": 1}))
    assert run(["stats", "--input", str(raw_stack), "--config", str(cfg), "--json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert "p99" in out


def test_explicit_flag_beats_config(tmp_path, raw_stack, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"train_years": "1999"}))  # would select nothing
    code = run(["stats", "--input", str(raw_stack), "--train-years", "2015",
                "--config", str(cfg), "--json"])
    assert code == 0  # the explicit flag overrode the config's empty year


def test_config_alone_cannot_find_training_years(tmp_path, raw_stack, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"train_years": "1999"}))
    code = run(["stats", "--input", str(raw_stack), "--config", str(cfg)])
    assert code == 1  # config applied, no training dates found
    assert "empty_training_set" in capsys.readouterr().err


def test_unknown_config_key_is_usage_error(tmp_path, raw_stack, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"bogus_key": 1}))
    assert run(["stats", "--input", str(raw_stack), "--train-years", "2015", "--config", str(cfg)]) == 2


def _seed_configs(tmp_path, *seeds):
    """A climate spec with seed 11, and one config file per seed that overrides it."""
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(CLIMATE_SPEC))
    configs = [tmp_path / f"cfg{k}.json" for k in range(len(seeds))]
    for cfg, seed in zip(configs, seeds):
        cfg.write_text(json.dumps({"seed": seed}))
    return spec, configs


@pytest.mark.parametrize("flag", ["--conf", "--confi"])
def test_config_abbreviation_is_usage_error(tmp_path, flag, capsys):
    spec, (cfg,) = _seed_configs(tmp_path, 9)
    out = tmp_path / "c.gfs"
    assert run(["synth", "--spec", str(spec), "--output", str(out), flag, str(cfg)]) == 2
    assert f"error [usage]: unrecognized arguments: {flag} {cfg}\n" in capsys.readouterr().err
    assert not out.exists()


def test_config_without_a_path_is_usage_error(raw_stack, capsys):
    assert run(["stats", "--input", str(raw_stack), "--train-years", "2015", "--config"]) == 2
    assert capsys.readouterr().err.endswith("error [usage]: argument --config: expected one argument\n")


def test_config_equals_form_loads_and_later_files_win(tmp_path, capsys):
    spec, (nine, five) = _seed_configs(tmp_path, 9, 5)
    out = tmp_path / "c.gfs"
    for argv, seed in ((["--config=" + str(nine)], 9),
                       (["--config=" + str(five), "--config", str(nine)], 9),
                       (["--config", str(nine), "--config=" + str(five)], 5)):
        assert run(["synth", "--spec", str(spec), "--output", str(out), "--json"] + argv) == 0
        assert json.loads(capsys.readouterr().out)["seed"] == seed


def test_synth_seed_overrides_the_spec_seed(tmp_path, capsys):
    spec, _ = _seed_configs(tmp_path)
    spec9 = tmp_path / "spec9.json"
    spec9.write_text(json.dumps({**CLIMATE_SPEC, "seed": 9}))
    out, want, spec_seed = tmp_path / "out.gfs", tmp_path / "want.gfs", tmp_path / "spec_seed.gfs"
    assert run(["synth", "--spec", str(spec), "--seed", "9", "--output", str(out), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["seed"] == 9
    assert run(["synth", "--spec", str(spec9), "--output", str(want)]) == 0
    assert run(["synth", "--spec", str(spec), "--output", str(spec_seed)]) == 0
    assert out.read_bytes() == want.read_bytes() != spec_seed.read_bytes()


def test_persistence_min_persistence_filters_the_library_diagrams(tmp_path, raw_stack, stats_file, capsys):
    out, want = tmp_path / "pd.csv", tmp_path / "want.csv"
    assert run(["persistence", "--input", str(raw_stack), "--date", "2015-01-04", "--stats", str(stats_file),
                "--min-persistence", "0.05", "--output", str(out)]) == 0
    field = normalized(read_stack(raw_stack).values[3, 0], NormStats(**json.loads(stats_file.read_text())))
    full = [sublevel_persistence(field, dim) for dim in (0, 1)]
    kept = [filter_by_persistence(pd, 0.05) for pd in full]
    write_diagram_csv(want, kept)
    assert out.read_bytes() == want.read_bytes()
    assert 0 < sum(map(len, kept)) < sum(map(len, full))


def test_persistence_normalize_first(tmp_path, raw_stack, stats_file, capsys):
    out_raw = tmp_path / "raw.csv"
    out_norm = tmp_path / "norm.csv"
    run(["persistence", "--input", str(raw_stack), "--date", "2015-01-01", "--output", str(out_raw)])
    run(["persistence", "--input", str(raw_stack), "--date", "2015-01-01",
         "--stats", str(stats_file), "--output", str(out_norm)])
    capsys.readouterr()
    raw_pd = read_diagram_csv(out_raw)[0]
    norm_pd = read_diagram_csv(out_norm)[0]
    assert all(0.0 <= b <= 1.0 for b, _ in norm_pd.pairs)
    assert raw_pd.pairs != norm_pd.pairs


def test_module_entry_point(tmp_path, raw_stack):
    proc = subprocess.run(
        [sys.executable, "-m", "topofield", "stats", "--input", str(raw_stack), "--train-years", "2015", "--json"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "p99" in json.loads(proc.stdout)


# ---------------------------------------------------------------------------
# Error contract: a bad flag value is a usage error (exit 2), a bad input file
# a domain error (exit 1); neither escapes as a traceback.


def test_bad_bins_is_usage_error(capsys):
    assert run(["stratify", "--lambda", "lam.gfs", "--rmse", "err.gfs", "--bins", "a,b"]) == 2
    assert "error [usage]: argument --bins" in capsys.readouterr().err


def test_bad_train_years_is_usage_error(raw_stack, capsys):
    assert run(["stats", "--input", str(raw_stack), "--train-years", "abc"]) == 2
    assert "error [usage]: argument --train-years" in capsys.readouterr().err


@pytest.mark.parametrize("spec,reason", [("2012-2010", "bad year range '2012-2010'"), (",", "no years in ','")])
def test_reversed_or_empty_train_years_are_usage_errors(raw_stack, spec, reason, capsys):
    assert run(["stats", "--input", str(raw_stack), "--train-years", spec]) == 2
    assert reason in capsys.readouterr().err


@pytest.mark.parametrize("content", ['{"p99": 300.0}', '{"p1": "x", "p99": 300.0}', "[1, 2]", "{not json"])
def test_bad_stats_file_is_exit_1(tmp_path, raw_stack, content, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(content)
    out = tmp_path / "out.gfs"
    assert run(["normalize", "--input", str(raw_stack), "--stats", str(bad), "--output", str(out)]) == 1
    assert "error [format_error]" in capsys.readouterr().err
    assert not out.exists()


def test_stats_on_constant_training_values_is_degenerate(tmp_path, capsys):
    path = tmp_path / "flat.gfs"
    write_stack(FieldStack((dt.date(2015, 1, 1), dt.date(2015, 1, 2)), np.full((2, 1, 4, 5), 280.0)), path)
    assert run(["stats", "--input", str(path), "--train-years", "2015"]) == 1
    assert capsys.readouterr().err == "error [degenerate_stats]: p99 - p1 = 0.0 is below 1e-12\n"


def test_stats_on_a_4_channel_stack_is_format_error(tmp_path, raw_stack, stats_file, capsys):
    channels = tmp_path / "channels.gfs"
    assert run(["channels", "--input", str(raw_stack), "--stats", str(stats_file), "--output", str(channels)]) == 0
    capsys.readouterr()
    out = tmp_path / "channel_stats.json"
    assert run(["stats", "--input", str(channels), "--train-years", "2015", "--output", str(out)]) == 1
    assert capsys.readouterr().err == "error [format_error]: --input must be a 1-channel stack, got 4 channels\n"
    assert not out.exists()


@pytest.mark.filterwarnings("error")
def test_stats_whose_span_overflows_are_degenerate(tmp_path, capsys):
    pred = make_norm_stack(tmp_path, "p.gfs", n=2, seed=8)
    truth = make_norm_stack(tmp_path, "t.gfs", n=2, seed=9)
    stats = tmp_path / "stats.json"
    stats.write_text(json.dumps({"p1": -1e308, "p99": 1e308}))
    assert run(["evaluate", "--pred", str(pred), "--truth", str(truth), "--clim", str(truth),
                "--stats", str(stats), "--tau", "45", "--overlap"]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error [degenerate_stats]: p99 - p1 overflows") and err.count("\n") == 1


def test_bad_scores_file_is_exit_1(tmp_path, capsys):
    pred = make_norm_stack(tmp_path, "p.gfs", n=1, seed=8)
    truth = make_norm_stack(tmp_path, "t.gfs", n=1, seed=9)
    fake = tmp_path / "fake.json"
    fake.write_text("[0.5,")
    assert run(["losses", "--pred", str(pred), "--truth", str(truth), "--fake-scores", str(fake)]) == 1
    assert "error [format_error]" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["0", "-4"])
def test_threads_below_one_is_usage_error(tmp_path, raw_stack, stats_file, value, capsys):
    out = tmp_path / "x.gfs"
    args = ["channels", "--input", str(raw_stack), "--stats", str(stats_file), "--output", str(out)]
    assert run(args + ["--threads", value]) == 2
    assert "error [usage]: argument --threads" in capsys.readouterr().err
    assert not out.exists()


def test_default_threads_count_the_cpus_this_process_may_use(monkeypatch):
    default = argparse.Namespace(threads=None)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {1, 3, 5}, raising=False)
    assert cli._resolve_threads(default) == 3
    assert cli._resolve_threads(argparse.Namespace(threads=2)) == 2
    monkeypatch.delattr(os, "sched_getaffinity")  # a platform without CPU affinity
    assert cli._resolve_threads(default) == 8
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert cli._resolve_threads(default) == 1


def test_evaluate_pool_holds_at_most_one_thread_per_usable_cpu(tmp_path, stats_file, monkeypatch, capsys):
    """``--threads 100000`` on a one-chunk-per-date ``evaluate --overlap`` asks for
    no more workers than the CPUs this process may use. The pool is a stand-in
    that records its size and runs the work in the calling thread."""
    import concurrent.futures

    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", RecordingPool)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2}, raising=False)
    pred = make_norm_stack(tmp_path, "p.gfs", n=4, seed=8)
    truth = make_norm_stack(tmp_path, "t.gfs", n=4, seed=9)
    clim = make_norm_stack(tmp_path, "c.gfs", n=4, seed=10)
    argv = ["evaluate", "--pred", str(pred), "--truth", str(truth), "--clim", str(clim), "--stats", str(stats_file),
            "--overlap", "--json"]
    assert run(argv + ["--threads", "1"]) == 0
    serial = capsys.readouterr().out
    assert sizes == []
    assert run(argv + ["--threads", "100000"]) == 0
    assert capsys.readouterr().out == serial
    assert sizes == [2]  # the overlaps: one chunk per date


def test_sample_count_below_one_is_usage_error(capsys):
    assert run(["sample", "--input", "x.gfs", "--count", "-5"]) == 2
    assert "error [usage]: argument --count" in capsys.readouterr().err


def test_threads_below_one_from_config_is_exit_1(tmp_path, raw_stack, stats_file, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"threads": 0}))
    out = tmp_path / "x.gfs"
    args = ["channels", "--input", str(raw_stack), "--stats", str(stats_file), "--output", str(out)]
    assert run(args + ["--config", str(cfg)]) == 1
    assert "error [format_error]: --threads must be at least 1" in capsys.readouterr().err


def test_sample_count_is_deterministic_without_seed(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(CLIMATE_SPEC))
    raw = tmp_path / "climate.gfs"
    assert run(["synth", "--spec", str(spec), "--output", str(raw)]) == 0
    stats = tmp_path / "stats.json"
    assert run(["stats", "--input", str(raw), "--train-years", "2010-2012", "--output", str(stats)]) == 0
    x = tmp_path / "x.gfs"
    assert run(["channels", "--input", str(raw), "--stats", str(stats), "--output", str(x)]) == 0
    manifests = [tmp_path / f"m{k}.txt" for k in range(3)]
    seeds = ([], [], ["--seed", "0"])
    outs = []
    for manifest, seed in zip(manifests, seeds):
        capsys.readouterr()
        assert run(["sample", "--input", str(x), "--count", "6", "--output", str(manifest), "--json"] + seed) == 0
        outs.append(capsys.readouterr().out)
    assert manifests[0].read_bytes() == manifests[1].read_bytes() == manifests[2].read_bytes()
    assert outs[0] == outs[1] == outs[2]
    assert len(manifests[0].read_text().splitlines()) == 6


def test_numeric_config_value_is_parsed_like_the_flag(tmp_path, raw_stack, capsys):
    assert run(["stats", "--input", str(raw_stack), "--train-years", "2015", "--json"]) == 0
    by_flag = json.loads(capsys.readouterr().out)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"train_years": 2015, "threads": 1}))
    assert run(["stats", "--input", str(raw_stack), "--config", str(cfg), "--json"]) == 0
    assert json.loads(capsys.readouterr().out) == by_flag


@pytest.mark.parametrize("value", [[2010], {"from": 2010}])
def test_list_or_object_config_value_is_usage_error(tmp_path, raw_stack, value, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"train_years": value}))
    assert run(["stats", "--input", str(raw_stack), "--config", str(cfg)]) == 2
    assert "error [usage]: config value for --train-years" in capsys.readouterr().err


def test_bad_config_value_names_its_flag(tmp_path, raw_stack, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"date": "not-a-date"}))
    assert run(["stats", "--input", str(raw_stack), "--train-years", "2015", "--config", str(cfg)]) == 1
    assert "error [format_error]: --date" in capsys.readouterr().err


def test_config_switch_takes_a_json_boolean(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(CLIMATE_SPEC))
    argv = ["synth", "--spec", str(spec), "--output", str(tmp_path / "x.gfs"), "--config", str(tmp_path / "cfg.json")]
    (tmp_path / "cfg.json").write_text(json.dumps({"json": "no"}))
    assert run(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == "error [format_error]: --json takes true or false (config value 'no')\n"
    (tmp_path / "cfg.json").write_text(json.dumps({"json": False}))
    assert run(argv) == 0
    assert capsys.readouterr().out.startswith("n_fields: 1461\n")
    (tmp_path / "cfg.json").write_text(json.dumps({"json": True}))
    assert run(argv) == 0
    assert json.loads(capsys.readouterr().out)["n_fields"] == 1461


def test_undecodable_config_is_exit_1(tmp_path, raw_stack, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(b"\xff\xfe{")
    assert run(["stats", "--input", str(raw_stack), "--train-years", "2015", "--config", str(cfg)]) == 1
    assert "error [config]" in capsys.readouterr().err


def test_malformed_config_is_exit_1_naming_the_file(tmp_path, raw_stack, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text("{not json")
    assert run(["stats", "--input", str(raw_stack), "--train-years", "2015", "--config", str(cfg)]) == 1
    assert capsys.readouterr().err.startswith(f"error [config]: config file {cfg} is not valid JSON: ")


@pytest.mark.parametrize("content", [
    "{not json",
    "null",
    json.dumps(dict(CLIMATE_SPEC, n_years="five")),
    json.dumps(dict(CLIMATE_SPEC, annual_amp=None)),
    json.dumps(dict(CLIMATE_SPEC, height=24.5)),
    json.dumps(dict(CLIMATE_SPEC, seed="x")),
    json.dumps(dict(CLIMATE_SPEC, seed=-1)),
    json.dumps(dict(CLIMATE_SPEC, height=1)),
    json.dumps(dict(CLIMATE_SPEC, start_year=0)),
    json.dumps({"n_years": 4}),
], ids=["malformed", "null", "text-count", "null-amplitude", "fractional-height", "text-seed",
        "negative-seed", "one-row-grid", "year-zero", "missing-keys"])
def test_bad_climate_spec_is_exit_1(tmp_path, content, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(content)
    out = tmp_path / "climate.gfs"
    assert run(["synth", "--spec", str(spec), "--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error [format_error]: ") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize("args", [
    ["synth", "--spec", "spec.json", "--seed", "-3"],
    ["sample", "--input", "x.gfs", "--count", "2", "--seed", "-1"],
])
def test_negative_seed_is_usage_error(args, capsys):
    assert run(args) == 2
    assert "error [usage]: argument --seed: must be at least 0, got" in capsys.readouterr().err


_WEIGHT_FLAGS = ("--eta1", "--eta2", "--eta3")
_LOSS_FLAGS = _WEIGHT_FLAGS + ("--alpha", "--beta", "--gamma", "--delta")


@pytest.mark.parametrize("args", [
    ["persistence", "--input", "x.gfs", "--min-persistence", "-1"],
    ["persistence", "--input", "x.gfs", "--min-persistence", "nan"],
    *(["regularize", "--lambda", "lam.gfs", flag, "nan"] for flag in _WEIGHT_FLAGS),
    ["regularize", "--lambda", "lam.gfs", "--eta2", "-0.5"],
    *(["losses", "--pred", "p.gfs", "--truth", "t.gfs", flag, "nan"] for flag in _LOSS_FLAGS),
    ["losses", "--pred", "p.gfs", "--truth", "t.gfs", "--gamma", "inf"],
    ["losses", "--pred", "p.gfs", "--truth", "t.gfs", "--alpha", "-1"],
], ids=lambda args: " ".join([args[0], *args[-2:]]))
def test_bad_threshold_or_weight_is_usage_error(args, capsys):
    assert run(args) == 2
    errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error")]
    assert len(errors) == 1
    assert errors[0].startswith(f"error [usage]: argument {args[-2]}: must be ")


def test_nan_weight_from_config_is_exit_1(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"eta1": "nan"}))
    assert run(["regularize", "--lambda", "lam.gfs", "--config", str(cfg)]) == 1
    assert "error [format_error]: --eta1 must be a finite number" in capsys.readouterr().err


@pytest.mark.parametrize("args", [
    ["losses", "--pred", "p.gfs", "--truth", "t.gfs", "--every", "0"],
    ["losses", "--pred", "p.gfs", "--truth", "t.gfs", "--step", "-3"],
    ["losses", "--pred", "p.gfs", "--truth", "t.gfs", "--warmup", "-1"],
    ["losses", "--pred", "p.gfs", "--truth", "t.gfs", "--every", "2.5"],
    ["evaluate", "--pred", "p.gfs", "--truth", "t.gfs", "--clim", "c.gfs", "--stats", "s.json", "--tau", "-7"],
], ids=lambda args: " ".join([args[0], *args[-2:]]))
def test_bad_step_or_lead_time_is_usage_error(args, capsys):
    assert run(args) == 2
    errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error")]
    assert len(errors) == 1
    assert errors[0].startswith(f"error [usage]: argument {args[-2]}: must be ")


def test_zero_every_from_config_is_exit_1(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"every": 0}))
    assert run(["losses", "--pred", "p.gfs", "--truth", "t.gfs", "--config", str(cfg)]) == 1
    assert "error [format_error]: --every must be at least 1" in capsys.readouterr().err


def test_negative_seed_from_config_is_exit_1(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(CLIMATE_SPEC))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": -2}))
    out = tmp_path / "climate.gfs"
    assert run(["synth", "--spec", str(spec), "--output", str(out), "--config", str(cfg)]) == 1
    assert "error [format_error]: --seed must be at least 0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("row", ["x,0.1,0.2", "1,abc,0.2", "1,0.1,zz", "1,-inf,0.2", "1,nan,inf"])
def test_bad_diagram_csv_row_is_exit_1(tmp_path, row, capsys):
    good, bad = tmp_path / "good.csv", tmp_path / "bad.csv"
    good.write_text("dim,birth,death\n1,0.1,0.3\n")
    bad.write_text(f"dim,birth,death\n1,0.1,0.3\n{row}\n")
    assert run(["bottleneck", str(good), str(bad), "--json"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error [format_error]: bad diagram CSV row: ") and err.count("\n") == 1
    assert repr(row.split(",")) in err


@pytest.mark.parametrize("case", ["stats-input", "output", "config"])
def test_directory_path_is_io_error(tmp_path, raw_stack, case, capsys):
    out = tmp_path / "out.gfs"
    args = {
        "stats-input": ["normalize", "--input", str(raw_stack), "--stats", str(tmp_path), "--output", str(out)],
        "output": ["stats", "--input", str(raw_stack), "--train-years", "2015", "--output", str(tmp_path)],
        "config": ["stats", "--input", str(raw_stack), "--train-years", "2015", "--config", str(tmp_path)],
    }[case]
    assert run(args) == 1
    assert "error [io_error]" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("case", ["normalize-invert", "synth", "signalling-nan"])
def test_gfs_overflow_or_signalling_nan_exits_1_and_writes_nothing(tmp_path, case, capsys):
    norm, snan, out = make_norm_stack(tmp_path, "n.gfs"), tmp_path / "snan.gfs", tmp_path / "out.gfs"
    raw = bytearray(norm.read_bytes())
    raw[-4:] = (0x7F800001).to_bytes(4, "little")  # a signalling NaN as the last value
    snan.write_bytes(bytes(raw))
    stats, spec = tmp_path / "stats.json", tmp_path / "spec.json"
    stats.write_text(json.dumps({"p1": 0, "p99": 1e300 if case == "normalize-invert" else 1}))
    spec.write_text(json.dumps(dict(CLIMATE_SPEC, annual_amp=1e300)))
    overflow = "error [out_of_range]: values on {} lie outside the float32 range of a GFS file\n"
    args, expected = {
        "normalize-invert": (["normalize", "--input", str(norm), "--stats", str(stats), "--invert"],
                             overflow.format("2020-01-01")),
        "synth": (["synth", "--spec", str(spec)], overflow.format("2010-01-01")),
        "signalling-nan": (["normalize", "--input", str(snan), "--stats", str(stats)],
                           "error [format_error]: FieldStack contains NaN or Inf\n"),
    }[case]
    assert run([*args, "--output", str(out)]) == 1
    assert capsys.readouterr().err == expected
    assert not out.exists()


def test_missing_input_keeps_missing_file_code(tmp_path, capsys):
    assert run(["stats", "--input", str(tmp_path / "nope.gfs"), "--train-years", "2015"]) == 1
    assert "error [missing_file]" in capsys.readouterr().err


@pytest.mark.parametrize("exc, message", [
    (MemoryError("Unable to allocate 43.5 GiB for an array with shape (4, 2000, 2000)"), "Unable to allocate 43.5 GiB"),
    (MemoryError(), "not enough memory"),
])
def test_memory_error_is_exit_1_without_traceback(monkeypatch, raw_stack, exc, message, capsys):
    def exhausted(args):
        raise exc

    monkeypatch.setitem(cli._COMMANDS, "stats", exhausted)
    assert run(["stats", "--input", str(raw_stack), "--train-years", "2015"]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error [out_of_memory]: {message}") and err.count("\n") == 1


# ---------------------------------------------------------------------------
# Diagram CSVs: mutated files exit cleanly, valid ones round-trip

DIAGRAM_CSV = b"dim,birth,death\n0,0.10000000000000001,inf\n0,0.25,0.5\n1,0.125,0.75\n1,-0,0.625\n"
CSV_PIECES = [b"0", b"1", b"9", b".", b",", b"-", b"e", b"inf", b"nan", b"1e400", b"\n", b"\r", b" ", b'"',
              b"\x00", b"\xff", b"dim,birth,death"]


@st.composite
def mutated_csv(draw) -> bytes:
    data = bytearray(DIAGRAM_CSV)
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(data)))
        kind = draw(st.sampled_from(["insert", "replace", "delete", "truncate"]))
        if kind == "insert":
            data[at:at] = draw(st.sampled_from(CSV_PIECES))
        elif kind == "replace":
            data[at:at + 1] = draw(st.sampled_from(CSV_PIECES))
        elif kind == "delete":
            del data[at:at + draw(st.integers(1, 8))]
        else:
            del data[at:]
    return bytes(data)


@given(blob=mutated_csv())
@settings(max_examples=50, deadline=None)
def test_mutated_diagram_csv_exits_cleanly(tmp_path_factory, blob):
    tmp = tmp_path_factory.mktemp("csv")
    good, bad = tmp / "good.csv", tmp / "bad.csv"
    good.write_bytes(DIAGRAM_CSV)
    bad.write_bytes(blob)
    for args in ([str(good), str(bad)], [str(bad), str(good)]):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(["bottleneck", *args, "--dim", "1"])
        assert code in (0, 1, 2)
        assert err.getvalue().count("error [") == (code != 0) and "Traceback" not in err.getvalue()


finite = st.floats(allow_nan=False, allow_infinity=False)


@given(rows=st.lists(st.tuples(st.sampled_from([1, 0]), finite, finite | st.just(math.inf)), max_size=12))
@settings(max_examples=50, deadline=None)
def test_valid_diagram_csv_round_trips_byte_identically(tmp_path_factory, rows):
    by_dim = {}
    for dim, birth, x in rows:
        by_dim.setdefault(dim, []).append((birth, max(birth, x)))
    diagrams = [PersistenceDiagram(dim, pairs) for dim, pairs in by_dim.items()]
    text = diagrams_to_csv(diagrams)
    path = tmp_path_factory.mktemp("csv") / "d.csv"
    path.write_text(text)
    back = read_diagram_csv(path)
    assert list(back.values()) == diagrams
    assert diagrams_to_csv(back.values()) == text


# ---------------------------------------------------------------------------
# GFS stacks: mutated files exit cleanly, valid ones round-trip


def _gfs_blob(dates, values) -> bytes:
    return stack_to_bytes(FieldStack(tuple(dates), values))


_SAMPLE_DATES = sorted([dt.date(y, 6, 1) for y in (2010, 2011, 2012)]  # what a 2013-06-01 sample at tau 45 reads
                       + [dt.date(2013, 6, 1) - dt.timedelta(days=k) for k in (135, 90, 45, 0)])
_KELVIN = _gfs_blob([dt.date(2015, 1, 1) + dt.timedelta(days=k) for k in range(3)],
                    np.random.default_rng(61).uniform(260.0, 300.0, (3, 1, 4, 5)))
_SAMPLE_VALUES = np.zeros((len(_SAMPLE_DATES), 4, 4, 5))  # [SF, T, V, C] with T, V and C zero
_SAMPLE_VALUES[:, 0] = np.random.default_rng(62).uniform(0.0, 1.0, (len(_SAMPLE_DATES), 4, 5))
# each command with a stack it accepts; the stats file maps 265-295 K to [0, 1]
GFS_COMMANDS = {
    "stats": (_KELVIN, ["stats", "--train-years", "2015", "--input"]),
    "normalize": (_KELVIN, ["normalize", "--stats", "{stats}", "--output", "{out}", "--input"]),
    "channels": (_KELVIN, ["channels", "--stats", "{stats}", "--output", "{out}", "--input"]),
    "persistence": (_KELVIN, ["persistence", "--date", "2015-01-02", "--input"]),
    "sample": (_gfs_blob(_SAMPLE_DATES, _SAMPLE_VALUES), ["sample", "--date", "2013-06-01", "--tau", "45", "--input"]),
    "regularize": (_gfs_blob([dt.date(2015, 1, 1)], np.random.default_rng(63).uniform(0.0, 1.0, (1, 1, 4, 5))),
                   ["regularize", "--eta1", "1", "--lambda"]),
}


@st.composite
def gfs_mutations(draw) -> list:
    """Edits to apply to any stack: (kind, where as a fraction, bytes)."""
    kinds = ["truncate", "extend", "header", "dates", "values"]
    return draw(st.lists(st.tuples(st.sampled_from(kinds), st.floats(0.0, 1.0, exclude_max=True),
                                   st.binary(min_size=1, max_size=9)), min_size=1, max_size=3))


def mutate_gfs(blob: bytes, edits) -> bytes:
    """Truncate, over-extend or overwrite bytes of the header, the dates or the values."""
    data = bytearray(blob)
    n = int.from_bytes(blob[4:8], "little")
    regions = {"header": (0, 20), "dates": (20, 20 + 8 * n), "values": (20 + 8 * n, len(blob))}
    for kind, where, chunk in edits:
        if kind == "truncate":
            del data[int(where * len(data)):]
        elif kind == "extend":
            data += chunk
        else:
            lo, hi = regions[kind]
            at = lo + int(where * (hi - lo))
            chunk = chunk[:hi - at]
            data[at:at + len(chunk)] = chunk
    return bytes(data)


def test_gfs_commands_accept_their_unmutated_stacks(tmp_path):
    (tmp_path / "stats.json").write_text(json.dumps({"p1": 265.0, "p99": 295.0}))
    for name, (blob, argv) in GFS_COMMANDS.items():
        (tmp_path / "in.gfs").write_bytes(blob)
        argv = [a.format(stats=tmp_path / "stats.json", out=tmp_path / "out.gfs") for a in argv]
        assert run([*argv, str(tmp_path / "in.gfs")]) == 0, name


@given(edits=gfs_mutations())
@settings(max_examples=50, deadline=None)
def test_mutated_gfs_stacks_exit_cleanly(tmp_path_factory, edits):
    tmp = tmp_path_factory.mktemp("gfs")
    (tmp / "stats.json").write_text(json.dumps({"p1": 265.0, "p99": 295.0}))
    for name, (blob, argv) in GFS_COMMANDS.items():
        (tmp / "in.gfs").write_bytes(mutate_gfs(blob, edits))
        argv = [a.format(stats=tmp / "stats.json", out=tmp / "out.gfs") for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run([*argv, str(tmp / "in.gfs")])
        assert code in (0, 1, 2), name
        assert err.getvalue().count("error [") == (code != 0), (name, err.getvalue())
        assert "Traceback" not in out.getvalue() + err.getvalue(), name


@given(n=st.integers(0, 3), channels=st.sampled_from([1, 4]), h=st.integers(2, 4), w=st.integers(2, 4),
       first=st.integers(dt.date.min.toordinal(), dt.date.max.toordinal() - 40),
       steps=st.lists(st.integers(1, 10), min_size=3, max_size=3), data=st.data())
@settings(max_examples=50, deadline=None)
def test_valid_gfs_stacks_round_trip_byte_identically(n, channels, h, w, first, steps, data):
    dates = [dt.date.fromordinal(first + sum(steps[:k])) for k in range(n)]
    values = np.array(data.draw(st.lists(st.floats(width=32, allow_nan=False, allow_infinity=False),
                                         min_size=n * channels * h * w, max_size=n * channels * h * w)))
    raw = stack_to_bytes(FieldStack(tuple(dates), values.reshape(n, channels, h, w)))
    back = stack_from_bytes(raw)
    assert back.dates == tuple(dates) and np.array_equal(back.values, values.reshape(back.values.shape))
    assert stack_to_bytes(back) == raw


# ---------------------------------------------------------------------------
# Config files and climate specs: mutated ones exit cleanly

# each command with the positional arguments and the config that make it
# succeed; "{name}" is a file of the example's folder (see config_folder)
CONFIG_COMMANDS = {
    "stats": ([], {"input": "{kelvin}", "train_years": "2015"}),
    "normalize": ([], {"input": "{kelvin}", "stats": "{stats}", "output": "{out}"}),
    "channels": ([], {"input": "{kelvin}", "stats": "{stats}", "output": "{out}", "threads": 2}),
    "persistence": ([], {"input": "{kelvin}", "stats": "{stats}", "date": "2015-01-02", "dim": 1,
                         "min_persistence": 0.01, "output": "{out}"}),
    "bottleneck": (["{csv}", "{csv}"], {"dim": 0}),
    "sample": ([], {"input": "{sample}", "date": "2013-06-01", "tau": 45}),
    "regularize": ([], {"lam": "{lam}", "eta1": 1, "target": 0.5}),
    "synth": ([], {"spec": "{spec}", "output": "{out}", "seed": 3}),
}
# keys a mutation may add; not --count, whose value sets how long sample runs
CONFIG_KEYS = ["json", "threads", "date", "dim", "seed", "tau", "role", "season", "train_years", "test_years",
               "invert", "stats", "output", "input", "no_such_flag"]
# small values only: no integer above 4, and no float whose digits a deletion could join
CONFIG_VALUES = (st.none() | st.booleans() | st.integers(-2, 4) | st.sampled_from([0.5, -1.0, math.nan, math.inf])
                 | st.sampled_from(["", "x", "0", "-1", "nan", "1e400", "2015-2016", "2015-01-02", "train", "JJA",
                                    "{kelvin}", "{stats}", "{out}", "{csv}", "{folder}"])
                 | st.lists(st.integers(0, 3), max_size=2) | st.fixed_dictionaries({"a": st.integers(0, 1)}))
# byte edits that hold no digit, so that no number grows past what was drawn
JSON_PIECES = [b",", b"{", b"}", b"[", b"]", b'"', b":", b" ", b"-", b"null", b"\x00", b"\xff"]


def config_folder(tmp) -> dict:
    """Write every input a CONFIG_COMMANDS entry reads; returns the path of each placeholder."""
    paths = {name: tmp / name for name in ("kelvin", "stats", "out", "csv", "sample", "lam", "spec")}
    paths["kelvin"].write_bytes(_KELVIN)
    paths["sample"].write_bytes(_gfs_blob(_SAMPLE_DATES, _SAMPLE_VALUES))
    paths["lam"].write_bytes(GFS_COMMANDS["regularize"][0])
    paths["stats"].write_text(json.dumps({"p1": 265.0, "p99": 295.0}))
    paths["csv"].write_bytes(DIAGRAM_CSV)
    paths["spec"].write_text(json.dumps(CLIMATE_SPEC))
    return {f"{{{name}}}": str(path) for name, path in dict(paths, folder=tmp).items()}


def with_paths(blob: bytes, paths: dict) -> bytes:
    for placeholder, path in paths.items():
        blob = blob.replace(placeholder.encode(), path.encode())
    return blob


@st.composite
def edited_json(draw, base: dict, keys, values) -> bytes:
    """``base`` with some values replaced or dropped and some keys added, then at most one byte edit."""
    obj = dict(base)
    for key in draw(st.lists(st.sampled_from(sorted(obj)), max_size=3, unique=True)):
        if draw(st.booleans()):
            obj[key] = draw(values)
        else:
            del obj[key]
    for key in draw(st.lists(st.sampled_from(keys), max_size=2, unique=True)):
        obj[key] = draw(values)
    blob = bytearray(json.dumps(obj).encode())
    kind = draw(st.sampled_from(["none", "insert", "replace", "delete", "truncate"]))
    at = draw(st.integers(0, len(blob)))
    if kind in ("insert", "replace"):
        blob[at:at + (kind == "replace")] = draw(st.sampled_from(JSON_PIECES))
    elif kind == "delete":
        del blob[at:at + draw(st.integers(1, 8))]
    elif kind == "truncate":
        del blob[at:]
    return bytes(blob)


def run_quietly(argv, folder) -> tuple[int, str]:
    """Run in ``folder``, where a relative output path such as "x" lands; returns the status and all output."""
    out, err = io.StringIO(), io.StringIO()
    home = os.getcwd()
    os.chdir(folder)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv)
    finally:
        os.chdir(home)
    return code, out.getvalue() + err.getvalue()


def assert_clean_exit(code: int, output: str) -> None:
    assert code in (0, 1, 2), output
    assert output.count("error [") == (code != 0) and "Traceback" not in output, output


def test_config_commands_accept_their_unmutated_configs(tmp_path):
    paths = config_folder(tmp_path)
    for name, (positional, config) in CONFIG_COMMANDS.items():
        (tmp_path / "cfg.json").write_bytes(with_paths(json.dumps(config).encode(), paths))
        assert run([name, *(paths[a] for a in positional), "--config", str(tmp_path / "cfg.json")]) == 0, name


@given(name=st.sampled_from(sorted(CONFIG_COMMANDS)), data=st.data())
@settings(max_examples=50, deadline=None)
def test_mutated_config_files_exit_cleanly(tmp_path_factory, name, data):
    tmp = tmp_path_factory.mktemp("config")
    paths = config_folder(tmp)
    positional, config = CONFIG_COMMANDS[name]
    (tmp / "cfg.json").write_bytes(with_paths(data.draw(edited_json(config, CONFIG_KEYS, CONFIG_VALUES)), paths))
    argv = [name, *(paths[a] for a in positional), "--config", str(tmp / "cfg.json")]
    assert_clean_exit(*run_quietly(argv, tmp))


# n_years and the grid sides stay at most 6, so a spec that succeeds is small
SPEC_VALUES = (st.none() | st.booleans() | st.integers(-2, 6)
               | st.sampled_from([0.0, 0.5, 1.0, -1.0, math.nan, math.inf, "", "x", "4"])
               | st.lists(st.integers(0, 3), max_size=2))


@given(spec=edited_json(CLIMATE_SPEC, ["start_year", "no_such_key"], SPEC_VALUES),
       seed=st.none() | st.integers(-1, 4))
@settings(max_examples=50, deadline=None)
def test_mutated_climate_specs_exit_cleanly(tmp_path_factory, spec, seed):
    tmp = tmp_path_factory.mktemp("spec")
    (tmp / "spec.json").write_bytes(spec)
    argv = ["synth", "--spec", str(tmp / "spec.json"), "--output", str(tmp / "out.gfs")]
    assert_clean_exit(*run_quietly(argv + ([] if seed is None else ["--seed", str(seed)]), tmp))


# ---------------------------------------------------------------------------
# Stack commands give the per-field results


def test_normalize_invert_matches_per_field_denormalize(tmp_path, raw_stack, stats_file, capsys):
    norm, back = tmp_path / "norm.gfs", tmp_path / "back.gfs"
    assert run(["normalize", "--input", str(raw_stack), "--stats", str(stats_file), "--output", str(norm)]) == 0
    stats = NormStats(**json.loads(stats_file.read_text()))
    stack = read_stack(norm)
    want = np.stack([denormalize(stack.field(i), stats).values for i in range(len(stack))])[:, None]
    assert run(["normalize", "--input", str(norm), "--stats", str(stats_file), "--output", str(back), "--invert"]) == 0
    assert back.read_bytes() == stack_to_bytes(FieldStack(stack.dates, want))
    bad = stack.values.copy()
    bad[5, 0, 2, 2] = 1.5
    bad[6, 0, 1, 1] = -1.0
    write_stack(FieldStack(stack.dates, bad), norm)
    capsys.readouterr()
    assert run(["normalize", "--input", str(norm), "--stats", str(stats_file), "--output", str(back), "--invert"]) == 1
    with pytest.raises(OutOfRange) as first_bad:
        denormalize(read_stack(norm).field(5), stats)
    assert capsys.readouterr().err == f"error [out_of_range]: {first_bad.value}\n"


def test_invert_on_kelvin_values_prints_plain_bounds(raw_stack, stats_file, tmp_path, capsys):
    assert run(["normalize", "--input", str(raw_stack), "--stats", str(stats_file),
                "--output", str(tmp_path / "back.gfs"), "--invert"]) == 1
    first = read_stack(raw_stack).values[0]
    err = capsys.readouterr().err
    assert err.startswith(f"error [out_of_range]: values in [{float(first.min())}, {float(first.max())}] exceed [0, 1]")
    assert "np.float64(" not in err


def per_field_fuse(inter, intra, lam, residual, clamp):
    out = []
    for i, date in enumerate(inter.dates):
        li = lam.index_of(date) if len(lam) > 1 else 0
        fused = apply_residual(fuse(inter.field(i), intra.field(i), LambdaMap.of(lam.field(li))),
                               residual.field(residual.index_of(date)))
        out.append(np.clip(fused.values, 0.0, 1.0) if clamp else fused.values)
    return stack_to_bytes(FieldStack(inter.dates, np.stack(out)[:, None]))


@pytest.mark.parametrize("one_map", [False, True])
def test_fuse_matches_per_field_fusion(tmp_path, one_map):
    paths = [make_norm_stack(tmp_path, f"{name}.gfs", n=5, seed=30 + k)
             for k, name in enumerate(("inter", "intra", "lam", "res"))]
    if one_map:
        write_stack(FieldStack(read_stack(paths[2]).dates[3:4], read_stack(paths[2]).values[3:4]), paths[2])
    inter, intra, lam, res = (read_stack(p) for p in paths)
    out = tmp_path / "fused.gfs"
    for clamp in (False, True):
        argv = ["fuse", "--inter", str(paths[0]), "--intra", str(paths[1]), "--lambda", str(paths[2]),
                "--residual", str(paths[3]), "--output", str(out)] + ["--clamp"] * clamp
        assert run(argv) == 0
        assert out.read_bytes() == per_field_fuse(inter, intra, lam, res, clamp)


@pytest.mark.parametrize("flag,phrase", [("--lambda", "--lambda has no map"), ("--residual", "--residual has no field")])
def test_fuse_names_the_first_missing_date(tmp_path, flag, phrase, capsys):
    inter = make_norm_stack(tmp_path, "inter.gfs", n=5, seed=40)
    intra = make_norm_stack(tmp_path, "intra.gfs", n=5, seed=41)
    full = make_norm_stack(tmp_path, "full.gfs", n=5, seed=42)
    part = tmp_path / "part.gfs"
    stack = read_stack(full)
    write_stack(FieldStack(stack.dates[:1] + stack.dates[3:], stack.values[[0, 3, 4]]), part)
    maps = {"--lambda": str(full), "--residual": str(full), flag: str(part)}
    argv = ["fuse", "--inter", str(inter), "--intra", str(intra), "--lambda", maps["--lambda"],
            "--residual", maps["--residual"], "--output", str(tmp_path / "out.gfs")]
    assert run(argv) == 1
    assert capsys.readouterr().err == f"error [format_error]: {phrase} for {stack.dates[1].isoformat()}\n"


@pytest.mark.parametrize("bad", [-0.25, 1.5])
def test_fuse_rejects_lambda_outside_unit_interval(tmp_path, bad, capsys):
    inter = make_norm_stack(tmp_path, "inter.gfs", n=5, seed=45)
    intra = make_norm_stack(tmp_path, "intra.gfs", n=5, seed=46)
    lam = read_stack(make_norm_stack(tmp_path, "lam.gfs", n=5, seed=47))
    values = lam.values.copy()
    values[2, 0, 1, 1] = bad
    write_stack(FieldStack(lam.dates, values), tmp_path / "lam.gfs")
    write_stack(FieldStack(lam.dates[2:3], values[2:3]), tmp_path / "lam1.gfs")
    for lam_path in ("lam.gfs", "lam1.gfs"):
        argv = ["fuse", "--inter", str(inter), "--intra", str(intra), "--lambda", str(tmp_path / lam_path),
                "--output", str(tmp_path / "out.gfs")]
        assert run(argv) == 1
        assert capsys.readouterr().err == "error [format_error]: lambda values must lie in [0, 1]\n"
    # a map for a date that is not fused is not read
    extra = lam.dates + (lam.dates[-1] + dt.timedelta(days=1),)
    write_stack(FieldStack(extra, np.concatenate([lam.values, np.full(lam.values[:1].shape, bad)])),
                tmp_path / "lam.gfs")
    argv[6] = str(tmp_path / "lam.gfs")
    assert run(argv) == 0


def test_evaluate_is_thread_count_independent_and_matches_records(tmp_path, capsys):
    rng = np.random.default_rng(44)
    dates = tuple(dt.date(2020, 1, 1) + dt.timedelta(days=9 * k) for k in range(40))
    truth = rng.uniform(0.3, 0.7, size=(40, 1, 12, 13))
    pred = np.clip(truth + rng.normal(0, 0.02, truth.shape), 0, 1)
    clim = np.clip(truth[:1] + rng.normal(0, 0.05, truth[:1].shape), 0, 1)  # one map for every date
    for name, vals in (("truth.gfs", truth), ("pred.gfs", pred)):
        write_stack(FieldStack(dates, vals), tmp_path / name)
    write_stack(FieldStack(dates[:1], clim), tmp_path / "clim.gfs")
    (tmp_path / "stats.json").write_text(json.dumps({"p1": 260.0, "p99": 300.0}))
    outputs = []
    for threads in ("1", "2"):
        argv = ["evaluate", "--pred", str(tmp_path / "pred.gfs"), "--truth", str(tmp_path / "truth.gfs"),
                "--clim", str(tmp_path / "clim.gfs"), "--stats", str(tmp_path / "stats.json"), "--tau", "30",
                "--overlap", "--output", str(tmp_path / "records.csv"), "--summary", str(tmp_path / "summary.csv"),
                "--json", "--threads", threads]
        assert run(argv) == 0
        outputs.append((capsys.readouterr().out, (tmp_path / "records.csv").read_bytes(),
                        (tmp_path / "summary.csv").read_bytes()))
    assert outputs[0] == outputs[1]
    p, t = read_stack(tmp_path / "pred.gfs"), read_stack(tmp_path / "truth.gfs")
    c = read_stack(tmp_path / "clim.gfs").field(0)
    stats = NormStats(260.0, 300.0)
    rows = json.loads(outputs[0][0])["records"]
    for i in (0, 17, 39):
        rec = make_eval_record(p.field(i), t.field(i), c, stats, dates[i], 30, with_overlap=True)
        assert rows[i] == {"target_date": dates[i].isoformat(), "tau": 30, "season": rec.season, "rmse": rec.rmse,
                           "psnr": rec.psnr, "ssim": rec.ssim, "acc": rec.acc, "overlap": rec.overlap}
    lines = outputs[0][1].decode().splitlines()
    assert lines[18] == f"{dates[17].isoformat()},30,{rows[17]['season']}," + ",".join(
        format(rows[17][k], ".17g") for k in ("rmse", "psnr", "ssim", "acc", "overlap"))


def test_regularize_rows_equal_the_one_map_terms_bit_for_bit(tmp_path, capsys):
    path = make_norm_stack(tmp_path, "lam.gfs", n=6, seed=50)
    stack = read_stack(path)
    values = stack.values.copy()
    values[2] = np.where(values[2] < 0.5, 0.0, 1.0)  # exact 0 and 1 weights
    write_stack(FieldStack(stack.dates, values), path)
    stack = read_stack(path)
    weights = RegWeights(0.7, 1.3, 2.9, 0.35)
    argv = ["regularize", "--lambda", str(path), "--eta1", "0.7", "--eta2", "1.3", "--eta3", "2.9", "--target", "0.35"]
    assert run(argv + ["--json"]) == 0
    rows = json.loads(capsys.readouterr().out)["maps"]
    assert len(rows) == len(stack)
    for i, row in enumerate(rows):
        m = stack.values[i, 0]
        assert row == {"date": stack.dates[i].isoformat(), "tv": tv(m), "entropy": entropy_term(m),
                       "mean_balance": mean_balance(m, 0.35), "l_reg": l_reg(LambdaMap.of(m), weights)}
    assert run(argv) == 0
    keys = [line.split(":")[0].strip() for line in capsys.readouterr().out.splitlines()]
    assert keys[2:8] == ["maps", "date", "tv", "entropy", "mean_balance", "l_reg"]


def test_regularize_of_an_empty_lambda_stack_has_no_rows(tmp_path, capsys):
    write_stack(FieldStack((), np.zeros((0, 1, 3, 4))), tmp_path / "lam.gfs")
    assert run(["regularize", "--lambda", str(tmp_path / "lam.gfs"), "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["maps"] == []


def test_sample_count_on_a_stack_without_dates_is_exit_1(tmp_path, capsys):
    write_stack(FieldStack((), np.zeros((0, 4, 3, 4))), tmp_path / "x.gfs")
    assert run(["sample", "--input", str(tmp_path / "x.gfs"), "--count", "3"]) == 1
    assert capsys.readouterr().err == "error [format_error]: only 0 of 3 samples constructible from this stack\n"


def _sample_stack(path, bad_date, channel):
    """[SF, T, V, C] grids on the dates a 2013-06-01 sample at tau 45 reads, with one 0.5 in ``channel``
    on ``bad_date`` and valid T codes and C masks elsewhere."""
    t = dt.date(2013, 6, 1)
    dates = sorted([dt.date(y, 6, 1) for y in (2010, 2011, 2012)] + [t - dt.timedelta(days=k) for k in (135, 90, 45, 0)])
    values = np.zeros((len(dates), 4, 4, 5))
    values[:, 0] = np.random.default_rng(51).uniform(0.0, 1.0, (len(dates), 4, 5))
    values[dates.index(bad_date), channel, 2, 3] = 0.5
    write_stack(FieldStack(tuple(dates), values), path)


@pytest.mark.parametrize("channel,message", [
    (1, "T channel contains values outside the code set"),
    (3, "C channel must be a {0,1} mask"),
])
@pytest.mark.parametrize("bad_date", [dt.date(2010, 6, 1), dt.date(2013, 4, 17)])
def test_sample_rejects_bad_structural_codes_on_an_input_date(tmp_path, channel, message, bad_date, capsys):
    _sample_stack(tmp_path / "x.gfs", bad_date, channel)
    assert run(["sample", "--input", str(tmp_path / "x.gfs"), "--date", "2013-06-01", "--tau", "45"]) == 1
    assert capsys.readouterr().err == f"error [format_error]: {message}\n"


@pytest.mark.parametrize("channel", [1, 3])
def test_sample_reads_only_sf_on_the_target_date(tmp_path, channel, capsys):
    _sample_stack(tmp_path / "x.gfs", dt.date(2013, 6, 1), channel)
    assert run(["sample", "--input", str(tmp_path / "x.gfs"), "--date", "2013-06-01", "--tau", "45"]) == 0


def _daily_stack(path, channels, bad_t=False):
    """Every day of 2010-2013 on a 3x4 grid: SF random, T, V and C zero, and T = 0.5 in one cell if ``bad_t``."""
    dates = tuple(dt.date(2010, 1, 1) + dt.timedelta(days=k) for k in range(4 * 365 + 1))
    values = np.zeros((len(dates), channels, 3, 4))
    values[:, 0] = np.random.default_rng(52).uniform(0.0, 1.0, (len(dates), 3, 4))
    if bad_t:
        values[:, 1, 1, 2] = 0.5
    write_stack(FieldStack(dates, values), path)


def test_sample_count_reports_a_one_channel_stack_at_once(tmp_path, capsys):
    _daily_stack(tmp_path / "x.gfs", channels=1)
    assert run(["sample", "--input", str(tmp_path / "x.gfs"), "--count", "3"]) == 1
    assert capsys.readouterr().err == "error [format_error]: sample construction needs a 4-channel stack, got 1\n"


def test_sample_count_reports_bad_structural_codes_instead_of_retrying(tmp_path, capsys):
    _daily_stack(tmp_path / "x.gfs", channels=4, bad_t=True)
    assert run(["sample", "--input", str(tmp_path / "x.gfs"), "--count", "3"]) == 1
    assert capsys.readouterr().err == "error [format_error]: T channel contains values outside the code set\n"
    _daily_stack(tmp_path / "x.gfs", channels=4)  # the same stack with valid codes gives its samples
    assert run(["sample", "--input", str(tmp_path / "x.gfs"), "--count", "3", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["n_samples"] == 3


@pytest.mark.parametrize("days", [2**62, -10**7])
def test_gfs_date_outside_the_calendar_is_exit_1(tmp_path, days):
    raw = bytearray(stack_to_bytes(FieldStack((dt.date(2020, 1, 1),), np.full((1, 1, 3, 4), 280.0))))
    raw[20:28] = np.int64(days).tobytes()  # the one date follows the 20-byte header
    (tmp_path / "x.gfs").write_bytes(bytes(raw))
    (tmp_path / "stats.json").write_text(json.dumps({"p1": 260.0, "p99": 300.0}))
    proc = subprocess.run(
        [sys.executable, "-m", "topofield", "normalize", "--input", str(tmp_path / "x.gfs"),
         "--stats", str(tmp_path / "stats.json"), "--output", str(tmp_path / "out.gfs")],
        capture_output=True, text=True,
    )
    assert proc.returncode == 1
    assert proc.stderr.startswith("error [format_error]: ") and proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("case", ["four-channel", "no-date", "absent-date", "fuse-dates", "evaluate-dates",
                                  "sample-mode", "config-array", "scores-of-strings"])
def test_bad_input_is_exit_1_with_its_message(tmp_path, raw_stack, case, capsys):
    a = make_norm_stack(tmp_path, "a.gfs", n=3, seed=60)
    b = make_norm_stack(tmp_path, "b.gfs", n=3, seed=61, start=dt.date(2020, 1, 2))
    x4, stats, strings = tmp_path / "x4.gfs", tmp_path / "stats.json", tmp_path / "strings.json"
    write_stack(FieldStack(read_stack(a).dates, np.zeros((3, 4, 12, 14))), x4)
    stats.write_text(json.dumps({"p1": 0.0, "p99": 1.0}))
    strings.write_text(json.dumps([["a"]]))  # a JSON array, but not of numbers
    out = tmp_path / "out.gfs"
    argv, err = {
        "four-channel": (["channels", "--input", str(x4), "--output", str(out)],
                         "error [format_error]: channel input must be a 1-channel stack, got 4 channels"),
        "no-date": (["persistence", "--input", str(raw_stack)],
                    "error [format_error]: input stack holds 8 dates; pick one with --date"),
        "absent-date": (["persistence", "--input", str(raw_stack), "--date", "2016-01-01"],
                        "error [format_error]: input stack has no field for 2016-01-01"),
        "fuse-dates": (["fuse", "--inter", str(a), "--intra", str(b), "--lambda", str(a), "--output", str(out)],
                       "error [format_error]: --inter and --intra stacks cover different dates"),
        "evaluate-dates": (["evaluate", "--pred", str(a), "--truth", str(b), "--clim", str(a), "--stats", str(stats)],
                           "error [format_error]: --pred and --truth stacks cover different dates"),
        "sample-mode": (["sample", "--input", str(x4)],
                        "error [format_error]: provide --date and --tau, or --count for batch sampling"),
        "config-array": (["stats", "--input", str(raw_stack), "--train-years", "2015", "--config", str(strings)],
                         "error [config]: config file must hold a JSON object"),
        "scores-of-strings": (["losses", "--pred", str(a), "--truth", str(a), "--date", "2020-01-01",
                               "--fake-scores", str(strings)],
                              f"error [format_error]: scores file {strings} must hold an array of numbers"),
    }[case]
    assert run(argv) == 1
    assert capsys.readouterr().err == err + "\n"
    assert not out.exists()


def _structural_stack(path, first: dt.date, n: int, shape=(3, 3), seed=0) -> tuple:
    """A daily 4-channel stack of ``n`` random fields from ``first``; returns its dates."""
    dates = tuple(first + dt.timedelta(days=k) for k in range(n))
    values = np.random.default_rng(seed).uniform(0.0, 1.0, (n, 1, *shape))
    write_stack(build_structural_stack(FieldStack(dates, values)), path)
    return dates


def test_sample_before_the_calendar_s_fourth_year_is_insufficient_history(tmp_path, capsys):
    _structural_stack(tmp_path / "x.gfs", dt.date(1, 1, 1), 4 * 365 + 1)
    assert run(["sample", "--input", str(tmp_path / "x.gfs"), "--date", "0002-03-01", "--tau", "30"]) == 1
    assert capsys.readouterr().err == "error [insufficient_history]: 0002-03-01 - 3 years precedes 0001-01-01\n"
    assert run(["sample", "--input", str(tmp_path / "x.gfs"), "--count", "3", "--seed", "1", "--json"]) == 0
    targets = [dt.date.fromisoformat(s["target_date"]) for s in json.loads(capsys.readouterr().out)["samples"]]
    assert [t.year for t in targets] == [4, 4, 4]


@given(first=st.dates(min_value=dt.date(1, 1, 1), max_value=dt.date(4, 12, 31)), extra=st.integers(0, 60),
       h=st.integers(3, 5), w=st.integers(3, 5), pick=st.integers(0, 4 * 365), tau=st.integers(TAU_MIN, TAU_MAX),
       seed=st.integers(0, 2**32 - 1))
@settings(max_examples=25, deadline=None)
def test_sample_on_stacks_at_the_calendar_s_start_exits_cleanly(tmp_path_factory, first, extra, h, w, pick, tau,
                                                                seed):
    tmp = tmp_path_factory.mktemp("sample")
    dates = _structural_stack(tmp / "x.gfs", first, 4 * 365 + 1 + extra, (h, w), seed)
    for argv in (["--date", dates[pick].isoformat(), "--tau", str(tau)], ["--count", "2", "--seed", str(seed)]):
        code, output = run_quietly(["sample", "--input", str(tmp / "x.gfs"), *argv], tmp)
        assert code in (0, 1), output
        assert_clean_exit(code, output)
