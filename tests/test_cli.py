import datetime as dt
import json
import subprocess
import sys

import numpy as np
import pytest

from topofield import (
    FieldStack,
    LambdaMap,
    NormStats,
    apply_residual,
    bottleneck_distance,
    denormalize,
    fuse,
    make_eval_record,
    read_diagram_csv,
    stack_to_bytes,
    sublevel_persistence,
)
from topofield.cli import run
from topofield.errors import OutOfRange
from topofield.gfs import read_stack, write_stack


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
    code = run([
        "stratify", "--lambda", str(tmp_path / "lam.gfs"), "--rmse", str(tmp_path / "err.gfs"),
        "--bins", "3,4,5", "--season", "DJF", "--json",
    ])
    assert code == 0
    result = json.loads(capsys.readouterr().out)
    assert result["season"] == "DJF"
    # GFS stores float32, so medians come back float32-quantized
    quantized = [float(np.float32(x)) for x in (0.687, 0.698, 0.737, 0.742)]
    assert result["medians"] == quantized
    assert result["delta"] == pytest.approx(0.055, abs=1e-6)
    assert result["bins"] == ["3-", "3-4", "4-5", "5+"]


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


def test_threads_env_fallback(tmp_path, raw_stack, stats_file, monkeypatch):
    out1 = tmp_path / "x1.gfs"
    out2 = tmp_path / "x2.gfs"
    monkeypatch.setenv("TOPOFIELD_THREADS", "2")
    assert run(["channels", "--input", str(raw_stack), "--stats", str(stats_file), "--output", str(out1)]) == 0
    monkeypatch.setenv("TOPOFIELD_THREADS", "1")
    assert run(["channels", "--input", str(raw_stack), "--stats", str(stats_file), "--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


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


@pytest.mark.parametrize("content", ['{"p99": 300.0}', '{"p1": "x", "p99": 300.0}', "[1, 2]", "{not json"])
def test_bad_stats_file_is_exit_1(tmp_path, raw_stack, content, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(content)
    out = tmp_path / "out.gfs"
    assert run(["normalize", "--input", str(raw_stack), "--stats", str(bad), "--output", str(out)]) == 1
    assert "error [format_error]" in capsys.readouterr().err
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


def test_undecodable_config_is_exit_1(tmp_path, raw_stack, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(b"\xff\xfe{")
    assert run(["stats", "--input", str(raw_stack), "--train-years", "2015", "--config", str(cfg)]) == 1
    assert "error [config]" in capsys.readouterr().err


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


def test_missing_input_keeps_missing_file_code(tmp_path, capsys):
    assert run(["stats", "--input", str(tmp_path / "nope.gfs"), "--train-years", "2015"]) == 1
    assert "error [missing_file]" in capsys.readouterr().err


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
