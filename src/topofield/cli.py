"""Batch command-line surface.

One executable, subcommand style. Outputs are written only to paths given
by flags; with --json a single JSON result object goes to stdout. Exit
codes: 0 success, 1 domain error (message on stderr), 2 usage error.
--config PATH, before or after the command, supplies flag defaults from a
JSON object (explicit flags win); it may be repeated, later files win, and
it must be spelled in full. Each command imports the kernels it runs, so a
process loads only the modules its command needs.
"""

from __future__ import annotations

import argparse
import datetime as dt
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import gfs
from .errors import FormatError, InsufficientHistory, MissingDate, TopofieldError
from .field import (
    FieldStack,
    NormStats,
    SplitSpec,
    as_values,
    compute_norm_stats,
    denormalize_stack,
    denormalized,
    normalize_stack,
    normalized,
    usable_cpus,
)


# ---------------------------------------------------------------------------
# Helpers


def _json_safe(obj):
    """Make a result object strictly JSON-serializable (finite numbers only)."""
    if isinstance(obj, dict):
        return {str(k): _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    if isinstance(obj, float):
        if math.isnan(obj):
            return "nan"
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
        return obj
    if isinstance(obj, (np.floating, np.integer)):
        return _json_safe(obj.item())
    if isinstance(obj, dt.date):
        return obj.isoformat()
    return obj


def _emit(result: dict, args, human: str) -> None:
    if args.json:
        print(json.dumps(_json_safe(result), sort_keys=True))
    elif human:
        print(human)


def _parse_years(spec: str) -> frozenset[int]:
    """argparse type for year sets like "2010-2019" or "2010,2012,2014" (mixable)."""
    years: set[int] = set()
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        lo, hi = part.split("-", 1) if "-" in part else (part, part)
        try:
            lo, hi = int(lo), int(hi)
        except ValueError:
            raise argparse.ArgumentTypeError(f"bad year {part!r} in {spec!r}") from None
        if not dt.MINYEAR <= lo <= hi <= dt.MAXYEAR:
            raise argparse.ArgumentTypeError(f"bad year range {part!r} in {spec!r}")
        years.update(range(lo, hi + 1))
    if not years:
        raise argparse.ArgumentTypeError(f"no years in {spec!r}")
    return frozenset(years)


def _number_at_least(kind: type, low):
    """argparse type for a finite ``kind`` (int or float) of at least ``low``."""
    noun = "an integer" if kind is int else "a finite number"

    def parse(text):
        try:
            n = kind(text)
        except (TypeError, ValueError):
            n = math.nan
        if not math.isfinite(n):
            raise argparse.ArgumentTypeError(f"must be {noun}, got {text!r}")
        if n < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {n}")
        return n

    return parse


_positive_int = _number_at_least(int, 1)
_nonnegative_int = _number_at_least(int, 0)
_nonnegative_float = _number_at_least(float, 0.0)
_finite_float = _number_at_least(float, -math.inf)


def _parse_bins(spec: str) -> tuple[float, ...]:
    """argparse type for comma-separated bin edges."""
    return tuple(_finite_float(e) for e in spec.split(","))


def _parse_date(s: str) -> dt.date:
    return dt.date.fromisoformat(s)


def _resolve_threads(args) -> int:
    """--threads (or its config value), else the CPUs this process may run on."""
    return args.threads or usable_cpus()


def _read_json(path, what: str):
    try:
        return json.loads(Path(path).read_text())
    except ValueError as exc:  # undecodable bytes or malformed JSON
        raise FormatError(f"{what} {path} is not valid JSON: {exc}") from None


def _load_stats(path) -> NormStats:
    d = _read_json(path, "stats file")
    try:
        p1, p99 = float(d["p1"]), float(d["p99"])
    except (KeyError, TypeError, ValueError):
        raise FormatError(f"stats file {path} must hold numeric p1 and p99") from None
    return NormStats(p1, p99)


def _single_channel(stack: FieldStack, what: str) -> FieldStack:
    if stack.channels != 1:
        raise FormatError(f"{what} must be a 1-channel stack, got {stack.channels} channels")
    return stack


def _pick_date(stack: FieldStack, date: dt.date | None, what: str) -> int:
    if date is None:
        if len(stack) != 1:
            raise FormatError(f"{what} holds {len(stack)} dates; pick one with --date")
        return 0
    idx = stack.index_of(date)
    if idx is None:
        raise FormatError(f"{what} has no field for {date.isoformat()}")
    return idx


def _date_indices(stack: FieldStack, dates, missing: str) -> np.ndarray:
    """Index of each date's field in ``stack``; a one-field stack serves every date."""
    if len(stack) == 1:
        return np.zeros(len(dates), dtype=np.intp)
    idx = [stack.index_of(d) for d in dates]
    for d, i in zip(dates, idx):
        if i is None:
            raise FormatError(f"{missing} for {d.isoformat()}")
    return np.array(idx, dtype=np.intp)


def _values_at(stack: FieldStack, dates, missing: str) -> np.ndarray:
    """``stack``'s values for ``dates``, uncopied when its dates are those or it holds one field."""
    if len(stack) == 1 or stack.dates == dates:
        return stack.values  # one field broadcasts over the dates
    return stack.values[_date_indices(stack, dates, missing)]


def _cell(x) -> str:
    if x is None or (isinstance(x, float) and math.isnan(x)):
        return ""
    if isinstance(x, float):
        return format(x, ".17g")
    return x.isoformat() if isinstance(x, dt.date) else str(x)


def _write_csv(path, header, rows) -> None:
    """One header line, then one line per row; floats keep 17 significant digits."""
    lines = [",".join(header)] + [",".join(_cell(x) for x in row) for row in rows]
    Path(path).write_text("\n".join(lines) + "\n")


def _scores_from_json(path) -> np.ndarray:
    data = _read_json(path, "scores file")
    try:
        return np.asarray(data, dtype=np.float64)
    except (TypeError, ValueError):
        raise FormatError(f"scores file {path} must hold an array of numbers") from None


# ---------------------------------------------------------------------------
# Commands


def _cmd_stats(args) -> dict:
    stack = _single_channel(gfs.read_stack(args.input), "--input")
    split = SplitSpec(args.train_years, frozenset())
    stats = compute_norm_stats(stack, split)
    result = {"p1": stats.p1, "p99": stats.p99}
    if args.output:
        Path(args.output).write_text(json.dumps(result, sort_keys=True) + "\n")
    return result


def _cmd_normalize(args) -> dict:
    stack = gfs.read_stack(args.input)
    stats = _load_stats(args.stats)
    out = (denormalize_stack if args.invert else normalize_stack)(stack, stats)
    gfs.write_stack(out, args.output)
    return {"n_fields": len(out), "output": str(args.output), "inverted": bool(args.invert)}


def _cmd_channels(args) -> dict:
    from .structural import build_structural_stack

    stack = _single_channel(gfs.read_stack(args.input), "channel input")
    if args.stats:
        stack = normalize_stack(stack, _load_stats(args.stats))
    out = build_structural_stack(stack, threads=_resolve_threads(args))
    gfs.write_stack(out, args.output)
    return {"n_fields": len(out), "channels": 4, "output": str(args.output)}


def _cmd_persistence(args) -> dict:
    from .persistence import FILTRATION_CONFIG, _sublevel_diagrams, filter_by_persistence, write_diagram_csv

    stack = gfs.read_stack(args.input)
    stats = _load_stats(args.stats) if args.stats else None
    idx = _pick_date(stack, args.date, "input stack")
    field = stack.values[idx, 0]
    if stats is not None:
        field = normalized(field, stats)  # elementwise: the picked date alone needs it
    dims = [args.dim] if args.dim is not None else [0, 1]
    diagrams = _sublevel_diagrams(as_values(field), dims)  # ranks the field once for both dimensions
    if args.min_persistence > 0:
        diagrams = [filter_by_persistence(pd, args.min_persistence) for pd in diagrams]
    if args.output:
        write_diagram_csv(args.output, diagrams)
    result = {
        "date": stack.dates[idx],
        "filtration": FILTRATION_CONFIG,
        "n_pairs": {str(pd.dim): len(pd) for pd in diagrams},
    }
    if args.output:
        result["output"] = str(args.output)
    return result


def _cmd_bottleneck(args) -> dict:
    from .persistence import PersistenceDiagram, bottleneck_distance, read_diagram_csv

    da = read_diagram_csv(args.diagram_a)
    db = read_diagram_csv(args.diagram_b)
    dim = args.dim
    pa = da.get(dim, PersistenceDiagram(dim, ()))
    pb = db.get(dim, PersistenceDiagram(dim, ()))
    return {"dim": dim, "distance": bottleneck_distance(pa, pb)}


def _cmd_sample(args) -> dict:
    from .temporal import LeadTime, build_sample, manifest_line, sample_lead_times, validate_split

    stack = gfs.read_stack(args.input)
    split = None
    if args.train_years:
        split = SplitSpec(args.train_years, args.test_years or frozenset())
    lines = []
    records = []
    if args.count:
        rng = np.random.default_rng(args.seed)
        taus = sample_lead_times(args.count, args.seed + 1)
        dates = list(stack.dates)
        made = 0
        attempts = 0
        while dates and made < args.count and attempts < args.count * 200:
            attempts += 1
            t = dates[int(rng.integers(0, len(dates)))]
            tau = taus[made]
            try:
                sample = build_sample(stack, t, tau)
            except (InsufficientHistory, MissingDate):  # only missing history is worth another draw
                continue
            if split and args.role and not validate_split(sample, split, args.role):
                continue
            lines.append(manifest_line(sample))
            records.append({"target_date": t, "tau": tau.tau})
            made += 1
        if made < args.count:
            raise FormatError(f"only {made} of {args.count} samples constructible from this stack")
    else:
        if args.date is None or args.tau is None:
            raise FormatError("provide --date and --tau, or --count for batch sampling")
        sample = build_sample(stack, args.date, LeadTime(args.tau))
        if split and args.role and not validate_split(sample, split, args.role):
            raise FormatError("sample fails split validation for role " + args.role)
        lines.append(manifest_line(sample))
        records.append({"target_date": args.date, "tau": args.tau,
                        "inter_dates": list(sample.inter_dates),
                        "intra_dates": list(sample.intra_dates)})
    if args.output:
        Path(args.output).write_text("".join(line + "\n" for line in lines))
    return {"n_samples": len(lines), "samples": records}


def _cmd_fuse(args) -> dict:
    from .fusion import add_residual, blend

    inter = _single_channel(gfs.read_stack(args.inter), "--inter")
    intra = _single_channel(gfs.read_stack(args.intra), "--intra")
    lam_stack = _single_channel(gfs.read_stack(args.lam), "--lambda")
    residual = _single_channel(gfs.read_stack(args.residual), "--residual") if args.residual else None
    if inter.dates != intra.dates:
        raise FormatError("--inter and --intra stacks cover different dates")
    vals = blend(inter.values, intra.values, _values_at(lam_stack, inter.dates, "--lambda has no map"))
    if residual is not None:
        vals = add_residual(vals, _values_at(residual, inter.dates, "--residual has no field"))
    if args.clamp:
        np.clip(vals, 0.0, 1.0, out=vals)
    out = FieldStack._adopt(inter.dates, vals)
    gfs.write_stack(out, args.output)
    return {"n_fields": len(out), "clamped": bool(args.clamp), "output": str(args.output)}


def _cmd_regularize(args) -> dict:
    from .fusion import RegWeights, _regularizer

    lam_stack = _single_channel(gfs.read_stack(args.lam), "--lambda")
    weights = RegWeights(args.eta1, args.eta2, args.eta3, args.target)
    terms = (x.tolist() for x in _regularizer(lam_stack.values[:, 0], weights))
    per_date = [
        {"date": date, "tv": t, "entropy": e, "mean_balance": m, "l_reg": r}
        for date, t, e, m, r in zip(lam_stack.dates, *terms)
    ]
    return {
        "eta": [args.eta1, args.eta2, args.eta3],
        "lambda_target": args.target,
        "maps": per_date,
    }


def _cmd_losses(args) -> dict:
    from .losses import GateSchedule, LossWeights, content_loss, hinge_d, hinge_g, loss_report, topo_loss

    pred = _single_channel(gfs.read_stack(args.pred), "--pred")
    truth = _single_channel(gfs.read_stack(args.truth), "--truth")
    pi = _pick_date(pred, args.date, "--pred")
    ti = _pick_date(truth, args.date, "--truth")
    p, t = pred.values[pi, 0], truth.values[ti, 0]
    content = content_loss(p, t)
    topo = topo_loss(t, p)
    adv = hinge_g(_scores_from_json(args.fake_scores)) if args.fake_scores else 0.0
    reg = 0.0
    if args.lam:
        from .fusion import RegWeights, _regularizer

        lam_stack = _single_channel(gfs.read_stack(args.lam), "--lambda")
        li = _pick_date(lam_stack, args.date, "--lambda")
        reg_weights = RegWeights(args.eta1, args.eta2, args.eta3, args.target)
        reg = _regularizer(lam_stack.values[li : li + 1, 0], reg_weights)[3].item()
    weights = LossWeights(args.alpha, args.beta, args.gamma, args.delta)
    gate = GateSchedule(args.warmup, args.every)
    report = loss_report(content, adv, reg, topo, weights, args.step, gate)
    if args.real_scores and args.fake_scores:
        report["hinge_d"] = hinge_d(_scores_from_json(args.real_scores), _scores_from_json(args.fake_scores))
    return report


def _cmd_evaluate(args) -> dict:
    from .metrics import evaluate_stack, kde_overlap, seasonal_summary

    pred = _single_channel(gfs.read_stack(args.pred), "--pred")
    truth = _single_channel(gfs.read_stack(args.truth), "--truth")
    clim = _single_channel(gfs.read_stack(args.clim), "--clim")
    stats = _load_stats(args.stats)
    if pred.dates != truth.dates:
        raise FormatError("--pred and --truth stacks cover different dates")
    clim_index = _date_indices(clim, pred.dates, "--clim has no field")
    p, t = pred.values[:, 0], truth.values[:, 0]
    records = evaluate_stack(p, t, clim.values[:, 0], stats, pred.dates, args.tau, with_overlap=args.overlap,
                             threads=_resolve_threads(args), clim_index=clim_index)
    rows = [{key: getattr(r, key) for key in _RECORD_COLUMNS} for r in records]
    if args.output:
        _write_csv(args.output, _RECORD_COLUMNS, [row.values() for row in rows])
    result: dict = {"n_records": len(rows), "records": rows}
    if args.summary:
        summary = seasonal_summary(records)
        # season-level overlap pools every grid cell of the season's dates, in kelvin
        seasons = np.array([r.season for r in records])
        for season, row in summary.items():
            pool = seasons == season
            row["overlap"] = kde_overlap(denormalized(p[pool], stats), denormalized(t[pool], stats))
        result["seasonal_summary"] = summary
        _write_csv(args.summary, _SUMMARY_COLUMNS, [[season] + [row[k] for k in _SUMMARY_COLUMNS[1:]]
                                                   for season, row in summary.items()])
    return result


_RECORD_COLUMNS = ("target_date", "tau", "season", "rmse", "psnr", "ssim", "acc", "overlap")
_SUMMARY_COLUMNS = ("season", "n", "mean_rmse", "std_rmse", "mean_acc", "overlap")


def _cmd_stratify(args) -> dict:
    from .metrics import BinSpec, lambda_bin_analysis

    lam_stack = _single_channel(gfs.read_stack(args.lam), "--lambda")
    rmse_stack = _single_channel(gfs.read_stack(args.rmse), "--rmse")
    li = _pick_date(lam_stack, args.date, "--lambda")
    ri = _pick_date(rmse_stack, args.date, "--rmse")
    bins = BinSpec(args.bins)
    row = lambda_bin_analysis(lam_stack.values[li, 0], rmse_stack.values[ri, 0], bins, season=args.season)
    labels = bins.labels
    if args.output:
        header = ["season"] + [f"median_{l}" for l in labels] + ["delta"] + [f"n_{l}" for l in labels]
        _write_csv(args.output, header, [[row.season, *row.medians, row.delta, *row.counts]])
    return {
        "season": row.season,
        "bins": list(labels),
        "medians": list(row.medians),
        "counts": list(row.counts),
        "delta": row.delta,
    }


def _cmd_synth(args) -> dict:
    from .synthetic import ClimateSpec, generate_climate

    spec_dict = _read_json(args.spec, "climate spec")
    if args.seed is not None and isinstance(spec_dict, dict):
        spec_dict["seed"] = args.seed
    spec = ClimateSpec.from_dict(spec_dict)
    stack = generate_climate(spec)
    gfs.write_stack(stack, args.output)
    return {
        "n_fields": len(stack),
        "height": stack.height,
        "width": stack.width,
        "seed": spec.seed,
        "output": str(args.output),
    }


# ---------------------------------------------------------------------------
# Parser


class _Parser(argparse.ArgumentParser):
    """Prints usage errors in the CLI's ``error [code]: message`` form."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(2, f"error [usage]: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="topofield", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--json", action="store_true", help="print a single JSON result object")
        p.add_argument("--threads", type=_positive_int, default=None,
                       help="worker threads, at most the CPUs this process may use (default: that many)")

    p = sub.add_parser("stats", help="compute normalization percentiles from training years")
    p.add_argument("--input", required=True)
    p.add_argument("--train-years", type=_parse_years, required=True, help='e.g. "2010-2019"')
    p.add_argument("--output", help="write {p1, p99} JSON here")
    common(p)

    p = sub.add_parser("normalize", help="apply (or invert) percentile normalization")
    p.add_argument("--input", required=True)
    p.add_argument("--stats", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--invert", action="store_true", help="map [0,1] back to kelvin")
    common(p)

    p = sub.add_parser("channels", help="build the 4-channel structural stack")
    p.add_argument("--input", required=True)
    p.add_argument("--stats", help="normalize first with these percentiles")
    p.add_argument("--output", required=True)
    common(p)

    p = sub.add_parser("persistence", help="sublevel persistence diagrams to CSV")
    p.add_argument("--input", required=True)
    p.add_argument("--stats", help="normalize with these percentiles before filtering")
    p.add_argument("--date", type=_parse_date)
    p.add_argument("--dim", type=int, choices=(0, 1), default=None, help="restrict to one dimension")
    p.add_argument("--min-persistence", type=_nonnegative_float, default=0.0)
    p.add_argument("--output")
    common(p)

    p = sub.add_parser("bottleneck", help="bottleneck distance between two diagram CSVs")
    p.add_argument("diagram_a")
    p.add_argument("diagram_b")
    p.add_argument("--dim", type=int, choices=(0, 1), default=1)
    common(p)

    p = sub.add_parser("sample", help="construct dual-trend sample manifests")
    p.add_argument("--input", required=True)
    p.add_argument("--date", type=_parse_date)
    p.add_argument("--tau", type=int)
    p.add_argument("--count", type=_positive_int, help="draw this many (date, tau) samples")
    p.add_argument("--seed", type=_nonnegative_int, default=0, help="seed of the --count draws (default 0)")
    p.add_argument("--train-years", type=_parse_years)
    p.add_argument("--test-years", type=_parse_years)
    p.add_argument("--role", choices=("train", "test"))
    p.add_argument("--output", help="manifest path")
    common(p)

    p = sub.add_parser("fuse", help="blend two predictions with a lambda map")
    p.add_argument("--inter", required=True)
    p.add_argument("--intra", required=True)
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--residual")
    p.add_argument("--clamp", action="store_true", help="clip the output to [0, 1]")
    p.add_argument("--output", required=True)
    common(p)

    p = sub.add_parser("regularize", help="fusion-weight regularizer terms")
    p.add_argument("--lambda", dest="lam", required=True)
    for flag in ("--eta1", "--eta2", "--eta3"):
        p.add_argument(flag, type=_nonnegative_float, default=0.0)
    p.add_argument("--target", type=float, default=0.5)
    common(p)

    p = sub.add_parser("losses", help="evaluate the training-loss kernels")
    p.add_argument("--pred", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--date", type=_parse_date)
    p.add_argument("--real-scores", help="JSON array of discriminator scores")
    p.add_argument("--fake-scores", help="JSON array of discriminator scores")
    p.add_argument("--lambda", dest="lam", help="lambda map stack for the regularizer")
    for flag in ("--eta1", "--eta2", "--eta3"):
        p.add_argument(flag, type=_nonnegative_float, default=0.0)
    p.add_argument("--target", type=float, default=0.5)
    for flag, default in (("--alpha", 1.0), ("--beta", 0.0), ("--gamma", 0.0), ("--delta", 0.0)):
        p.add_argument(flag, type=_nonnegative_float, default=default)
    p.add_argument("--step", type=_nonnegative_int, default=0)
    p.add_argument("--warmup", type=_nonnegative_int, default=0)
    p.add_argument("--every", type=_positive_int, default=5)
    common(p)

    p = sub.add_parser("evaluate", help="verification metrics per date")
    p.add_argument("--pred", required=True)
    p.add_argument("--truth", required=True)
    p.add_argument("--clim", required=True)
    p.add_argument("--stats", required=True)
    p.add_argument("--tau", type=_nonnegative_int, default=0, help="lead time recorded with each row")
    p.add_argument("--overlap", action="store_true", help="add per-date KDE overlap")
    p.add_argument("--output", help="records CSV")
    p.add_argument("--summary", help="per-season summary CSV")
    common(p)

    p = sub.add_parser("stratify", help="median lambda per error bin")
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--rmse", required=True)
    p.add_argument("--date", type=_parse_date)
    p.add_argument("--bins", type=_parse_bins, default="3,4,5")
    p.add_argument("--season", choices=("DJF", "MAM", "JJA", "SON"))
    p.add_argument("--output", help="stratification CSV")
    common(p)

    p = sub.add_parser("synth", help="generate a synthetic climate stack")
    p.add_argument("--spec", required=True, help="climate-spec JSON")
    p.add_argument("--seed", type=_nonnegative_int, default=None, help="override the spec seed")
    p.add_argument("--output", required=True)
    common(p)

    return parser


_COMMANDS = {
    "stats": _cmd_stats,
    "normalize": _cmd_normalize,
    "channels": _cmd_channels,
    "persistence": _cmd_persistence,
    "bottleneck": _cmd_bottleneck,
    "sample": _cmd_sample,
    "fuse": _cmd_fuse,
    "regularize": _cmd_regularize,
    "losses": _cmd_losses,
    "evaluate": _cmd_evaluate,
    "stratify": _cmd_stratify,
    "synth": _cmd_synth,
}


def _human(result: dict, indent: int = 0) -> str:
    pad = "  " * indent
    lines = []
    for key in result:
        val = result[key]
        if isinstance(val, dict):
            lines.append(f"{pad}{key}:")
            lines.append(_human(val, indent + 1))
        elif isinstance(val, (list, tuple)) and val and isinstance(val[0], dict):
            lines.append(f"{pad}{key}:")
            for item in val:
                lines.append(_human(item, indent + 1))
                lines.append(pad + "  -")
            lines.pop()
        else:
            lines.append(f"{pad}{key}: {_json_safe(val)}")
    return "\n".join(lines)


def _split_config(argv: list[str]) -> tuple[dict, list[str]]:
    """The merged JSON objects of every --config PATH (later files win), and the other arguments."""
    pre = _Parser(prog="topofield", add_help=False, allow_abbrev=False)
    pre.add_argument("--config", action="append", metavar="PATH", default=[])
    known, rest = pre.parse_known_args(argv)
    config: dict = {}
    for path in known.config:
        loaded = _read_json(path, "config file")
        if not isinstance(loaded, dict):
            raise FormatError("config file must hold a JSON object")
        config.update(loaded)
    return config, rest


def _subparsers(parser: argparse.ArgumentParser):
    for action in parser._actions:  # noqa: SLF001 - argparse offers no public walk
        if isinstance(action, argparse._SubParsersAction):
            yield from action.choices.values()


def _known_dests(parser: argparse.ArgumentParser) -> set[str]:
    dests: set[str] = set()
    for sub in _subparsers(parser):
        dests |= {a.dest for a in sub._actions if a.dest != "help"}
    return dests


def _apply_config(parser: argparse.ArgumentParser, config: dict) -> None:
    """Config values become defaults; flags they cover stop being required.

    A value for a flag that takes one is parsed as the flag's text would be,
    by its type and choices: a bad value is a format error, a list or object
    a usage error. A switch takes a JSON boolean. A null value leaves the
    flag as it is.
    """
    for sub in _subparsers(parser):
        defaults = {}
        for action in sub._actions:
            value = config.get(action.dest)
            if value is None:
                continue
            flag = action.option_strings[0] if action.option_strings else action.dest
            if action.nargs == 0:  # a switch such as --json
                if not isinstance(value, bool):
                    raise FormatError(f"{flag} takes true or false (config value {value!r})")
            elif isinstance(value, (list, dict)):
                parser.error(f"config value for {flag} must be a single value, got {value!r}")
            else:
                try:
                    parsed = str(value) if action.type is None else action.type(str(value))
                except (argparse.ArgumentTypeError, ValueError) as exc:
                    raise FormatError(f"{flag} {exc} (config value {value!r})") from None
                if action.choices is not None and parsed not in action.choices:
                    choices = ", ".join(map(str, action.choices))
                    raise FormatError(f"{flag} must be one of {choices} (config value {value!r})")
                value = parsed
            defaults[action.dest] = value
            action.required = False
        sub.set_defaults(**defaults)


def _fail(code: str, exc: Exception) -> int:
    print(f"error [{code}]: {exc}", file=sys.stderr)
    return 1


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        config, argv = _split_config(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:  # --config without a path
        return int(exc.code or 0)
    except (TopofieldError, FileNotFoundError) as exc:
        return _fail("config", exc)
    except OSError as exc:
        return _fail("io_error", exc)
    unknown = sorted(set(config) - _known_dests(parser))
    if unknown:
        print(f"error [config]: unknown config keys: {unknown}", file=sys.stderr)
        return 2
    try:
        _apply_config(parser, config)
        args = parser.parse_args(argv)
        result = _COMMANDS[args.command](args)
    except SystemExit as exc:  # usage errors, --help
        return int(exc.code or 0)
    except TopofieldError as exc:
        return _fail(exc.code, exc)
    except FileNotFoundError as exc:
        return _fail("missing_file", exc)
    except OSError as exc:
        return _fail("io_error", exc)
    except MemoryError as exc:  # an input too large for this host
        return _fail("out_of_memory", exc if str(exc) else "not enough memory")
    _emit(result, args, _human(result))
    return 0


def main() -> None:
    sys.exit(run())
