"""The three workloads: their fixed op lists and the checks of every output.

readme-cli    The README pipeline on the 24x32, 5-year climate, one fresh
              ``python -m topofield`` process per command. Process start-up
              and per-field Python overhead dominate; topology is cheap.
paper-topo    The training-loop topology path in process, on six 101x237
              rough truth/prediction pairs with ~2.5k H1 pairs each:
              topo_loss (H1 + bottleneck) and H0 per pair, the structural
              channels of four fields, then one verification record and its
              season summary. No I/O and no process start-up.
paper-verify  Season-by-season verification on a 4-year 101x237 synthetic
              climate (a 140 MB GFS). GFS I/O, normalization and KDE
              dominate; the smooth fields have ~2 H1 pairs, so this workload
              bypasses the persistence cost that paper-topo exercises.
              It is left out of BENCHMARK.json and runs only when named:
              one run takes about 50 s, 23 s of it in set-up, for two or
              three ops of each kind, and on a 2-vCPU shared host the
              spread of its rates across seeds reached 15-24%, too close
              to the 25% bound.

Every end-to-end metric is reported on every workload, so each workload has
at least one op of each kind. After its one full pass a run repeats the ops
that have a kind, in rounds, for as long as ``--seconds`` allows, so that
each rate is a median over several op runs. The topo_loss cost of a
paper-topo pair varies by a fifth from seed to seed while repeats of one
pair agree within a few percent, so those ops run once each, on six pairs,
and are not repeated. A paper-verify run has room for few rounds, so its
pass holds two or three ops of each kind.

An op's ``kind`` names the end-to-end metrics it feeds: ``channels``
(channels_fields_per_s), ``topo`` (topo_loss_per_s), ``overlap``
(evaluate_dates_per_s) and ``summary`` (summary_s); ``units`` is the number
of fields, calls or dates it processes.
"""

from __future__ import annotations

import datetime as dt
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

import checks as ck
from checks import require
from inputs import OVERLAP_DATES, PAPER_SEASON, README_MONTH, TAU, TOPO_PAIRS, TRAIN_YEARS

TRAIN = f"{TRAIN_YEARS[0]}-{TRAIN_YEARS[-1]}"
REG_ETAS = ("--eta1", "1", "--eta2", "0.1", "--eta3", "1")
LOSS_FLAGS = ("--alpha", "1", "--delta", "1", "--step", "15", "--warmup", "10", "--every", "5")
SAMPLE_COUNT = 8
PAPER_TOPO_STATS = (250.0, 310.0)  # kelvin span that paper-topo's [0, 1] fields map onto


@dataclass
class Op:
    label: str
    command: str | None = None          # CLI subcommand; None for an in-process op
    args: tuple = ()
    outputs: tuple = ()
    json: bool = False
    fn: Callable[[int], Any] | None = None  # called with the thread count
    check: Callable[["Ctx", "Result"], None] | None = None
    kinds: tuple = ()
    units: int = 1
    known_defect: str | None = None     # stderr text of a documented failure
    repeat: bool = True                 # run again in every round (ops with a kind only)

    def reads(self) -> list[str]:
        return [a for a in self.args if str(a).endswith(".gfs") and a not in self.outputs]


@dataclass
class Result:
    op: Op
    wall: float = 0.0
    speed: float = 1.0                  # host-speed scale factor of an untraced op (run.Calibrated)
    rc: int = 0
    rss_mb: float = 0.0
    stdout: bytes = b""
    stderr: bytes = b""
    value: Any = None
    known: bool = False
    error: str | None = None
    digests: dict = field(default_factory=dict)


@dataclass
class Ctx:
    """What the ops and checks of one workload run share."""

    work: Path
    seed: int
    threads: int
    state: dict = field(default_factory=dict)     # values the in-process ops share
    counts: dict = field(default_factory=dict)    # computed work counts of one pass
    cache: dict = field(default_factory=dict)     # GFS files parsed while checking one pass

    def read(self, name: str) -> bytes:
        return (self.work / name).read_bytes()

    def gfs(self, name: str):
        if name not in self.cache:
            self.cache[name] = ck.read_gfs(self.read(name))
        return self.cache[name]

    def count(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + value


# ---------------------------------------------------------------------------
# Checks shared by the CLI workloads


def _stats(ctx: Ctx) -> tuple[float, float]:
    obj = ck.json_object(ctx.read("stats.json"))
    require(set(obj) == {"p1", "p99"}, f"stats keys {sorted(obj)}")
    return float(obj["p1"]), float(obj["p99"])


def check_stats(ctx: Ctx, res: Result) -> None:
    dates, values = ctx.gfs("climate.gfs")
    train = [i for i, d in enumerate(dates) if d.year in TRAIN_YEARS]
    pooled = values[train].astype(np.float64).ravel()
    p1, p99 = _stats(ctx)
    require(ck.json_object(res.stdout) == {"p1": p1, "p99": p99}, "stats stdout differs from stats.json")
    for got, q in ((p1, 0.01), (p99, 0.99)):
        ck.close(got, ck.linear_percentile(pooled, q), 1e-12, f"percentile {q}")


def check_normalize(ctx: Ctx, res: Result) -> None:
    dates, values = ctx.gfs("climate.gfs")
    want = ck.gfs_bytes(dates, ck.normalized(values, *_stats(ctx)))
    ck.same_bytes(ctx.read("norm.gfs"), want, "norm.gfs")


def check_channels(source: str, output: str = "channels.gfs", normalize: bool = True):
    def check(ctx: Ctx, res: Result) -> None:
        dates, values = ctx.gfs(source)
        norm = ck.normalized(values[:, 0], *_stats(ctx)) if normalize else values[:, 0].astype(np.float64)
        want = np.stack([ck.structural_channels(f) for f in norm])
        got = ctx.read(output)
        ck.same_bytes(got, ck.gfs_bytes(dates, want), output)
        ctx.count("computed.fields", len(dates))
        ctx.count("computed.cells", norm.size)
        ctx.count("computed.saddles", ck.saddle_count(ck.read_gfs(got)[1]))
    return check


def check_fuse(ctx: Ctx, res: Result) -> None:
    dates, inter = ctx.gfs("inter.gfs")
    _, intra = ctx.gfs("intra.gfs")
    _, lam = ctx.gfs("lambda.gfs")
    _, delta = ctx.gfs("delta.gfs")
    a, b, l, d = (x.astype(np.float64) for x in (inter, intra, lam, delta))
    want = np.clip(l * a + (1.0 - l) * b + d, 0.0, 1.0)
    ck.same_bytes(ctx.read("fused.gfs"), ck.gfs_bytes(dates, want), "fused.gfs")


def check_regularize(ctx: Ctx, res: Result) -> None:
    obj = ck.json_object(res.stdout)
    dates, lam = ctx.gfs("lambda.gfs")
    require(len(obj["maps"]) == len(dates), "one regularizer row per lambda map")
    for row, d, l in zip(obj["maps"], dates, lam[:, 0].astype(np.float64)):
        require(row["date"] == d.isoformat(), f"regularizer row for {row['date']}")
        diffs = np.concatenate([np.abs(np.diff(l, axis=1)).ravel(), np.abs(np.diff(l, axis=0)).ravel()])
        ck.close(row["tv"], float(diffs.mean()), 1e-9, "total variation")
        ck.close(row["mean_balance"], float((l.mean() - 0.5) ** 2), 1e-9, "mean balance")
        require(0.0 <= row["entropy"] <= math.log(2.0) + 1e-12, "entropy outside [0, ln 2]")
        ck.close(row["l_reg"], row["tv"] - 0.1 * row["entropy"] + row["mean_balance"], 1e-12, "l_reg")


def _h1(field: np.ndarray):
    import topofield

    return [p for p in topofield.sublevel_persistence(field, 1).pairs]


def check_losses(date: dt.date):
    def check(ctx: Ctx, res: Result) -> None:
        obj = ck.json_object(res.stdout)
        fdates, fused = ctx.gfs("fused.gfs")
        tdates, truth = ctx.gfs("truth.gfs")
        p = fused[fdates.index(date), 0].astype(np.float64)
        t = truth[tdates.index(date), 0].astype(np.float64)
        require(obj["topo_gate_open"] is True, "the topological gate is open at step 15")
        require(obj["content"] >= 0.0, "content loss is negative")
        ck.close(obj["total"], obj["content"] + obj["topo"], 1e-12, "total loss")
        pa, pb = _h1(t), _h1(p)
        ck.bottleneck_within_bound(obj["topo"], pa, pb)
        ctx.count("computed.h1_pairs", len(pa) + len(pb))
        ctx.count("computed.bottleneck_cells", len(pa) * len(pb))
    return check


def losses_op(date: dt.date) -> Op:
    return Op(f"losses-{date.isoformat()}", "losses",
              ("--pred", "fused.gfs", "--truth", "truth.gfs", "--date", date.isoformat()) + LOSS_FLAGS,
              json=True, check=check_losses(date), kinds=("topo",))


def check_evaluate(pred: str, truth: str, records: str, overlap: bool, summary: bool):
    def check(ctx: Ctx, res: Result) -> None:
        dates, p = ctx.gfs(pred)
        _, t = ctx.gfs(truth)
        p1, p99 = _stats(ctx)
        ck.eval_records(ctx.read(records), dates, p[:, 0], t[:, 0], p1, p99, TAU, overlap)
        require(ck.json_object(res.stdout)["n_records"] == len(dates), "n_records")
        cells = p[0, 0].size
        if overlap:
            ctx.count("computed.kde_samples", 2 * len(dates) * cells)
        if summary:
            ck.summary_rows(ctx.read("summary.csv"), len(dates))
            ctx.count("computed.kde_samples", 2 * len(dates) * cells)
    return check


def persistence_check(date: dt.date, csv: str, routes: bool):
    def check(ctx: Ctx, res: Result) -> None:
        dates, values = ctx.gfs("climate.gfs")
        field = ck.normalized(values[dates.index(date), 0], *_stats(ctx))
        diagrams = ck.diagram_csv(ctx.read(csv))
        ck.h0_births_are_minima(diagrams[0], field, f"{csv} ({date})")
        ctx.count("computed.h0_pairs", len(diagrams[0]))
        ctx.count("computed.h1_pairs", len(diagrams[1]))
        if routes:
            import topofield

            union_find = topofield.sublevel_persistence(field, 0).pairs
            reduction = topofield.sublevel_persistence_reduction(field, 0).pairs
            require(union_find == reduction, f"H0 union-find and reduction routes differ on {date}")
            require(list(union_find) == sorted(diagrams[0]), f"{csv} H0 rows differ from the library diagram")
    return check


# ---------------------------------------------------------------------------
# readme-cli


def readme_cli(ctx: Ctx) -> list[Op]:
    year, month = README_MONTH
    mid = dt.date(year, month, 16)
    pa, pb = dt.date(2013, 7, 15), dt.date(2013, 7, 16)
    n_month = len(ctx.gfs("truth.gfs")[0])

    def synth(ctx, res):
        ck.same_bytes(ctx.read("climate.gfs"), ctx.read("climate_ref.gfs"), "climate.gfs")
        dates, values = ctx.gfs("climate.gfs")
        require(values.shape == (1826, 1, 24, 32), f"climate shape {values.shape}")
        require(dates[0] == dt.date(2010, 1, 1) and (dates[-1] - dates[0]).days == len(dates) - 1,
                "climate dates are not consecutive days from 2010-01-01")

    def sample_one(ctx, res):
        inter = [pa.replace(year=pa.year - k) for k in (3, 2, 1)]
        intra = [pa - dt.timedelta(days=k * TAU) for k in (3, 2, 1)]
        line = ",".join([pa.isoformat(), str(TAU)] + [d.isoformat() for d in inter + intra])
        ck.manifest(ctx.read("manifest.txt"), ck.read_gfs(ctx.read("channels.gfs"))[0], [line])

    def sample_batch(ctx, res):
        lines = ck.manifest(ctx.read("batch.txt"), ck.read_gfs(ctx.read("channels.gfs"))[0])
        require(len(lines) == SAMPLE_COUNT, f"{len(lines)} sampled lines, asked for {SAMPLE_COUNT}")

    def bottleneck(ctx, res):
        a = ck.diagram_csv(ctx.read("a.csv"))[1]
        b = ck.diagram_csv(ctx.read("b.csv"))[1]
        obj = ck.json_object(res.stdout)
        require(obj["dim"] == 1, "bottleneck dimension")
        ck.bottleneck_within_bound(obj["distance"], a, b)
        ctx.count("computed.bottleneck_cells", len(a) * len(b))

    def stratify(ctx, res):
        obj = ck.json_object(res.stdout)
        dates, lam = ctx.gfs("lambda.gfs")
        _, err = ctx.gfs("errmap.gfs")
        lam = lam[dates.index(mid), 0].astype(np.float64).ravel()
        bins = np.searchsorted(np.array([3.0, 4.0, 5.0]), err[0, 0].astype(np.float64).ravel(), side="right")
        counts = [int((bins == b).sum()) for b in range(4)]
        medians = [float(np.sort(lam[bins == b])[(c - 1) // 2]) if c else None for b, c in enumerate(counts)]
        require(obj["counts"] == counts, f"bin counts {obj['counts']} are not {counts}")
        require(obj["medians"] == medians, f"bin medians {obj['medians']} are not {medians}")
        require(obj["delta"] == medians[-1] - medians[0], "separation is not last minus first median")
        rows = ck.csv_rows(ctx.read("strat.csv"), "season,median_3-,median_3-4,median_4-5,median_5+,delta,"
                           "n_3-,n_3-4,n_4-5,n_5+")
        require(len(rows) == 1 and rows[0][0] == "JJA" and [int(c) for c in rows[0][6:]] == counts,
                "stratification CSV")

    mid_s = mid.isoformat()
    return [
        Op("synth", "synth", ("--spec", "climate.json", "--output", "climate.gfs"), ("climate.gfs",),
           check=synth),
        Op("stats", "stats", ("--input", "climate.gfs", "--train-years", TRAIN, "--output", "stats.json"),
           ("stats.json",), json=True, check=check_stats),
        Op("normalize", "normalize", ("--input", "climate.gfs", "--stats", "stats.json", "--output", "norm.gfs"),
           ("norm.gfs",), check=check_normalize),
        Op("channels", "channels", ("--input", "climate.gfs", "--stats", "stats.json", "--output", "channels.gfs"),
           ("channels.gfs",), check=check_channels("climate.gfs"), kinds=("channels",), units=1826),
        Op("sample", "sample", ("--input", "channels.gfs", "--date", pa.isoformat(), "--tau", str(TAU),
                                "--output", "manifest.txt"), ("manifest.txt",), json=True, check=sample_one),
        Op("sample-count", "sample", ("--input", "channels.gfs", "--count", str(SAMPLE_COUNT), "--seed",
                                      str(ctx.seed), "--output", "batch.txt"), ("batch.txt",), json=True,
           check=sample_batch),
        Op("persistence-a", "persistence", ("--input", "climate.gfs", "--stats", "stats.json", "--date",
                                            pa.isoformat(), "--output", "a.csv"), ("a.csv",), json=True,
           check=persistence_check(pa, "a.csv", routes=True)),
        Op("persistence-b", "persistence", ("--input", "climate.gfs", "--stats", "stats.json", "--date",
                                            pb.isoformat(), "--output", "b.csv"), ("b.csv",), json=True,
           check=persistence_check(pb, "b.csv", routes=True)),
        Op("bottleneck", "bottleneck", ("a.csv", "b.csv", "--dim", "1"), json=True, check=bottleneck),
        Op("fuse", "fuse", ("--inter", "inter.gfs", "--intra", "intra.gfs", "--lambda", "lambda.gfs",
                            "--residual", "delta.gfs", "--clamp", "--output", "fused.gfs"), ("fused.gfs",),
           check=check_fuse),
        Op("regularize", "regularize", ("--lambda", "lambda.gfs") + REG_ETAS, json=True, check=check_regularize),
        # twice, on two dates, so that topo_loss_per_s is not one sample per pass
        losses_op(mid),
        losses_op(mid + dt.timedelta(days=14)),
        Op("stratify", "stratify", ("--lambda", "lambda.gfs", "--rmse", "errmap.gfs", "--date", mid_s,
                                    "--bins", "3,4,5", "--season", "JJA", "--output", "strat.csv"),
           ("strat.csv",), json=True, check=stratify),
        Op("evaluate", "evaluate", ("--pred", "fused.gfs", "--truth", "truth.gfs", "--clim", "clim.gfs",
                                    "--stats", "stats.json", "--tau", str(TAU), "--overlap",
                                    "--output", "records.csv", "--summary", "summary.csv"),
           ("records.csv", "summary.csv"), json=True,
           check=check_evaluate("fused.gfs", "truth.gfs", "records.csv", overlap=True, summary=True),
           kinds=("overlap", "summary"), units=n_month),
    ]


# ---------------------------------------------------------------------------
# paper-verify


def paper_verify(ctx: Ctx) -> list[Op]:
    # A run makes one pass and no rounds, so each op an end-to-end rate is
    # taken from runs two or three times, on the candidate predictions or on
    # several dates.
    year, _ = PAPER_SEASON
    day, day2, day3 = dt.date(year, 7, 15), dt.date(year, 8, 15), dt.date(year, 6, 15)
    n_season = len(ctx.gfs("truth.gfs")[0])
    evaluate = ("--clim", "clim.gfs", "--stats", "stats.json", "--tau", str(TAU))

    def overlap(branch: str) -> Op:
        out = f"overlap_{branch}.csv"
        return Op(f"evaluate-overlap-{branch}", "evaluate",
                  ("--pred", f"subset/{branch}.gfs", "--truth", "subset/truth.gfs", "--clim", "subset/clim.gfs",
                   "--stats", "stats.json", "--tau", str(TAU), "--overlap", "--output", out), (out,), json=True,
                  check=check_evaluate(f"subset/{branch}.gfs", "subset/truth.gfs", out, overlap=True, summary=False),
                  kinds=("overlap",), units=OVERLAP_DATES)

    def channels(name: str, source: str, normalize: bool) -> Op:
        out = f"{name.replace('-', '_')}.gfs"
        stats = ("--stats", "stats.json") if normalize else ()
        return Op(name, "channels", ("--input", source) + stats + ("--output", out), (out,),
                  check=check_channels(source, out, normalize=normalize), kinds=("channels",), units=n_season)

    # Ops of one kind sit apart in the pass, so that a few seconds of host
    # slowdown do not fall on every op a rate is taken from.
    return [
        Op("stats", "stats", ("--input", "climate.gfs", "--train-years", TRAIN, "--output", "stats.json"),
           ("stats.json",), json=True, check=check_stats),
        channels("channels", "season_raw.gfs", normalize=True),
        Op("fuse", "fuse", ("--inter", "inter.gfs", "--intra", "intra.gfs", "--lambda", "lambda.gfs",
                            "--residual", "delta.gfs", "--clamp", "--output", "fused.gfs"), ("fused.gfs",),
           check=check_fuse),
        losses_op(day),
        overlap("inter"),
        Op("normalize", "normalize", ("--input", "climate.gfs", "--stats", "stats.json", "--output", "norm.gfs"),
           ("norm.gfs",), check=check_normalize),
        channels("channels-inter", "inter.gfs", normalize=False),
        losses_op(day2),
        Op("regularize", "regularize", ("--lambda", "lambda.gfs") + REG_ETAS, json=True, check=check_regularize),
        Op("evaluate", "evaluate", ("--pred", "fused.gfs", "--truth", "truth.gfs") + evaluate
           + ("--output", "records.csv"), ("records.csv",), json=True,
           check=check_evaluate("fused.gfs", "truth.gfs", "records.csv", overlap=False, summary=False)),
        overlap("intra"),
        Op("persistence", "persistence", ("--input", "climate.gfs", "--stats", "stats.json", "--date",
                                          day.isoformat(), "--output", "pd.csv"), ("pd.csv",), json=True,
           check=persistence_check(day, "pd.csv", routes=False)),
        channels("channels-intra", "intra.gfs", normalize=False),
        losses_op(day3),
        # pools all 92 dates of the season: a (2048 x 2.2M) KDE matrix that
        # the library cannot allocate today; kept at paper size on purpose
        Op("evaluate-summary", "evaluate", ("--pred", "fused.gfs", "--truth", "truth.gfs") + evaluate
           + ("--summary", "summary.csv"), ("summary.csv",), json=True,
           check=lambda ctx, res: ck.summary_rows(ctx.read("summary.csv"), n_season),
           kinds=("summary",), known_defect="MemoryError"),
    ]


# ---------------------------------------------------------------------------
# paper-topo (in process)


def paper_topo(ctx: Ctx) -> list[Op]:
    import topofield as tf

    data = np.load(ctx.work / "fields.npz")
    truth, pred, clim = data["truth"], data["pred"], data["clim"]
    stats = tf.NormStats(*PAPER_TOPO_STATS)
    day = dt.date(2013, 7, 1)
    ctx.state.update(truth=truth, pred=pred, clim=clim)

    def topo(k):
        def check(ctx, res):
            pa, pb = _h1(truth[k]), _h1(pred[k])
            require(math.isfinite(res.value), "topo_loss is not finite")
            ck.bottleneck_within_bound(res.value, pa, pb)
            ctx.count("computed.h1_pairs", len(pa) + len(pb))
            ctx.count("computed.bottleneck_cells", len(pa) * len(pb))
        return Op(f"topo_loss-{k}", fn=lambda threads: tf.topo_loss(truth[k], pred[k]), check=check, kinds=("topo",),
                  repeat=False)

    def h0(k):
        def check(ctx, res):
            ck.h0_births_are_minima(res.value.pairs, truth[k], f"field {k}")
            ctx.count("computed.h0_pairs", len(res.value))
        return Op(f"h0-{k}", fn=lambda threads: tf.sublevel_persistence(truth[k], 0), check=check)

    # four fields: an even count keeps the thread pool balanced
    fields = np.concatenate([truth[:2], pred[:2]])
    field_dates = tuple(day + dt.timedelta(days=k) for k in range(len(fields)))

    def channels(threads):
        return tf.build_structural_stack(tf.FieldStack(field_dates, fields[:, None]), threads=threads).values

    def check_channels_value(ctx, res):
        want = np.stack([ck.structural_channels(f) for f in fields])
        require(res.value.tobytes() == want.tobytes(), "structural channels differ from the numpy reference")
        ctx.count("computed.fields", len(fields))
        ctx.count("computed.cells", fields.size)
        ctx.count("computed.saddles", ck.saddle_count(res.value))

    def evaluate(threads):
        records = [tf.make_eval_record(pred[0], truth[0], clim[0], stats, day, TAU, with_overlap=True)]
        ctx.state["records"] = records
        return records

    def check_evaluate_value(ctx, res):
        (rec,) = res.value
        ck.close(rec.rmse, ck.rmse_kelvin(pred[0], truth[0], *PAPER_TOPO_STATS), 1e-9, "rmse")
        ck.in_unit_interval(rec.overlap, "overlap")
        ctx.count("computed.kde_samples", 2 * truth[0].size)

    def summary(threads):
        records = ctx.state["records"]
        out = tf.seasonal_summary(records)
        pk = tf.denormalize(tf.ScalarField(pred[0]), stats).values.ravel()
        tk = tf.denormalize(tf.ScalarField(truth[0]), stats).values.ravel()
        out[records[0].season]["overlap"] = tf.kde_overlap(pk, tk)
        return out

    def check_summary_value(ctx, res):
        (row,) = res.value.values()
        require(row["n"] == 1, "summary covers one record")
        ck.in_unit_interval(row["overlap"], "season overlap")
        ctx.count("computed.kde_samples", 2 * truth[0].size)

    # the ops that set the other rates sit between the topology pairs, as in
    # paper-verify; evaluate makes the record that summary pools
    between = [
        Op("channels", fn=channels, check=check_channels_value, kinds=("channels",), units=len(fields)),
        Op("evaluate", fn=evaluate, check=check_evaluate_value, kinds=("overlap",)),
        Op("summary", fn=summary, check=check_summary_value, kinds=("summary",)),
    ]
    ops = []
    for k in range(TOPO_PAIRS):
        ops += [topo(k), h0(k)] + between[k:k + 1]
    return ops


WORKLOADS: dict[str, Callable[[Ctx], list[Op]]] = {
    "readme-cli": readme_cli,
    "paper-topo": paper_topo,
    "paper-verify": paper_verify,
}
IN_PROCESS = {"paper-topo"}
