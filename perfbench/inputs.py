"""Write a workload's seeded inputs (the benchmark's set-up step).

Usage: python perfbench/inputs.py WORKLOAD SEED OUTDIR [SPANS_JSON]

Run as its own process so that its wall time is the set-up time a user pays:
interpreter start, ``import topofield`` and writing the inputs. The same
seed gives byte-identical inputs. With SPANS_JSON the layer calls made here
are traced too.
"""

from __future__ import annotations

import datetime as dt
import json
import sys
from pathlib import Path

from spans import Tracer, install

# The readme-cli climate is the README's 24x32, 5-year example; paper-verify
# uses the same recipe at the paper's 101x237 grid over 4 years.
README_SPEC = {"n_years": 5, "height": 24, "width": 32, "annual_amp": 8.0,
               "interannual_amp": 2.0, "weather_amp": 3.0, "ar1_coeff": 0.85}
PAPER_SPEC = dict(README_SPEC, n_years=4, height=101, width=237)
TRAIN_YEARS = (2010, 2011, 2012)
TAU = 45
README_MONTH = (2014, 7)          # one month of the test year
PAPER_SEASON = (2013, (6, 7, 8))  # JJA of the test year: 92 dates
OVERLAP_DATES = 3                 # evaluate --overlap subset on paper-verify

# paper-topo: every pair shares one fixed smooth background and the seed
# draws the roughness and the prediction noise. The bottleneck cost is set
# mostly by a field's few large loops, so fixing them keeps the cost per call
# comparable across seeds and pairs (about 4 s on a 2.1 GHz Xeon) while each
# diagram still has ~2.5k H1 pairs.
TOPO_BACKGROUND_KEY = (0, 1)
TOPO_PAIRS = 6
TOPO_SHAPE = (101, 237)
TOPO_ROUGHNESS = 0.3
TOPO_PRED_NOISE = 0.02


def train_percentiles(values, dates):
    """Training-year 1st/99th percentiles of float32-stored values."""
    import numpy as np

    train = [i for i, d in enumerate(dates) if d.year in TRAIN_YEARS]
    pooled = values[train].astype(np.float32).astype(np.float64).ravel()
    return tuple(float(x) for x in np.percentile(pooled, [1.0, 99.0]))


def _smooth(rng, shape):
    import numpy as np
    from scipy import ndimage

    s = ndimage.gaussian_filter(rng.standard_normal(shape), sigma=min(shape) / 6.0, mode="reflect")
    return (s - s.mean()) / s.std()


def _unit(x):
    return (x - x.min()) / (x.max() - x.min())


def climatology(climate):
    from topofield import SplitSpec, build_climatology

    return build_climatology(climate, SplitSpec(frozenset(TRAIN_YEARS)))


def write_prediction_set(out: Path, climate, clim, target_dates, seed: int, p1: float, p99: float) -> None:
    """Normalized truth, two candidate predictions, lambda, residual, climatology."""
    import numpy as np
    from topofield import FieldStack, write_stack

    idx = {d: i for i, d in enumerate(climate.dates)}
    raw = climate.values[:, 0]

    def norm(a):
        return np.clip((a - p1) / (p99 - p1), 0.0, 1.0)

    def stack(arrays):
        return FieldStack(tuple(target_dates), np.stack(arrays)[:, None])

    truth = [raw[idx[t]] for t in target_dates]
    inter = [raw[idx[t.replace(year=t.year - 1)]] for t in target_dates]
    intra = [raw[idx[t - dt.timedelta(days=TAU)]] for t in target_dates]
    shape = raw.shape[1:]
    rng = np.random.default_rng([seed, 17])
    lam = [1.0 / (1.0 + np.exp(-2.0 * _smooth(rng, shape))) for _ in target_dates]
    delta = [0.02 * rng.standard_normal(shape) for _ in target_dates]
    write_stack(stack([norm(a) for a in truth]), out / "truth.gfs")
    write_stack(stack([norm(a) for a in inter]), out / "inter.gfs")
    write_stack(stack([norm(a) for a in intra]), out / "intra.gfs")
    write_stack(stack([norm(clim.forecast(t).values) for t in target_dates]), out / "clim.gfs")
    write_stack(stack(lam), out / "lambda.gfs")
    write_stack(stack(delta), out / "delta.gfs")
    mid = len(target_dates) // 2
    err = np.abs(intra[mid] - truth[mid])
    write_stack(FieldStack((target_dates[mid],), err[None, None]), out / "errmap.gfs")


def readme_cli(out: Path, seed: int) -> None:
    from topofield import ClimateSpec, generate_climate, write_stack

    spec = dict(README_SPEC, seed=seed)
    (out / "climate.json").write_text(json.dumps(spec, sort_keys=True) + "\n")
    climate = generate_climate(ClimateSpec.from_dict(spec))
    write_stack(climate, out / "climate_ref.gfs")  # what `synth` must reproduce
    p1, p99 = train_percentiles(climate.values, climate.dates)
    year, month = README_MONTH
    days = [dt.date(year, month, d) for d in range(1, 32)]
    write_prediction_set(out, climate, climatology(climate), days, seed, p1, p99)


def paper_verify(out: Path, seed: int) -> None:
    from topofield import ClimateSpec, FieldStack, generate_climate, write_stack

    climate = generate_climate(ClimateSpec.from_dict(dict(PAPER_SPEC, seed=seed)))
    write_stack(climate, out / "climate.gfs")
    year, months = PAPER_SEASON
    season = [d for d in climate.dates if d.year == year and d.month in months]
    first = climate.dates.index(season[0])
    write_stack(FieldStack(tuple(season), climate.values[first:first + len(season)]), out / "season_raw.gfs")
    p1, p99 = train_percentiles(climate.values, climate.dates)
    clim = climatology(climate)
    write_prediction_set(out, climate, clim, season, seed, p1, p99)
    sub = out / "subset"
    sub.mkdir()
    write_prediction_set(sub, climate, clim, season[:OVERLAP_DATES], seed, p1, p99)


def paper_topo(out: Path, seed: int) -> None:
    import numpy as np

    truth, pred, clim = [], [], []
    background = _smooth(np.random.default_rng(TOPO_BACKGROUND_KEY), TOPO_SHAPE)
    for k in range(TOPO_PAIRS):
        rng = np.random.default_rng([seed, k])
        field = _unit(background + TOPO_ROUGHNESS * rng.standard_normal(TOPO_SHAPE))
        truth.append(field)
        pred.append(np.clip(field + TOPO_PRED_NOISE * rng.standard_normal(TOPO_SHAPE), 0.0, 1.0))
        clim.append(_unit(background))
    np.savez(out / "fields.npz", truth=np.stack(truth), pred=np.stack(pred), clim=np.stack(clim))


WORKLOADS = {"readme-cli": readme_cli, "paper-topo": paper_topo, "paper-verify": paper_verify}


def main() -> None:
    workload, seed, out = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    spans_path = sys.argv[4] if len(sys.argv) > 4 else None
    tracer = Tracer("setup")
    try:
        with tracer.span("cli.import"):
            import topofield  # noqa: F401
        if spans_path:
            install(tracer)
        out.mkdir(parents=True, exist_ok=True)
        WORKLOADS[workload](out, seed)
    finally:
        if spans_path:
            tracer.dump(spans_path)


if __name__ == "__main__":
    main()
