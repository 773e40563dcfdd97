"""topofield benchmark: one workload, one seed, end-to-end or per-layer metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload readme-cli --seed 1 --seconds 60 --trace 0

``--workload all`` runs readme-cli, paper-topo and paper-verify in turn.
Workloads are described in ``workloads.py``. The run:

1. sets up three times, each a fresh process (``inputs.py``) that starts the
   interpreter, imports topofield and writes the seeded inputs; ``setup_s``
   is the median;
2. with ``--trace 0``, makes one pass over the workload's fixed op list, each
   CLI command a fresh ``python -m topofield`` process with an explicit
   ``--threads 1``, then repeats the ops that set a rate (channels, topo
   loss, evaluate, summary) in rounds until ``--seconds`` have passed since
   the run started; every op's time is the median of its runs;
3. checks every output of the pass and of each round and prints the SHA-256
   digest of every output file and ``--json`` stdout;
4. with ``--trace 1``, runs one untraced pass, one traced pass (layer spans
   recorded from outside the library, see ``spans.py``) and the channels and
   evaluate ops again at ``--threads nproc``, and reports per-layer metrics.

The timed ops run at one thread. On a small shared host two Python threads
contend for the interpreter lock and for a second core that other tenants
also use: at nproc = 2 the channels op is slower than at one thread and its
time varies by half from one run to the next. The traced run reports the
speed-up nproc threads give (``threads.*_speedup``). Child processes run with
``OPENBLAS_NUM_THREADS=1`` (and the OpenMP and MKL equivalents): topofield
makes no BLAS calls, and an idle BLAS pool of nproc threads per process would
put more threads than cores on the machine.

End-to-end metrics: ``setup_s`` is the median set-up; ``run_s`` the time of
one pass, the sum over its ops of each op's median time; ``topo_loss_per_s``,
``channels_fields_per_s`` and ``evaluate_dates_per_s`` the median over the
runs of the ops of that kind of units per op time (process start to exit for
a CLI op); ``summary_s`` the median summary op; ``peak_rss_mb`` the highest
max-RSS of any op process, or of this process for an in-process workload.
An op that fails the way its ``known_defect`` says (today ``evaluate
--summary`` at paper size) counts as attempted but not failed: it is
reported as a known failure, in ``ops.known_failed`` and in ``summary_s`` as
FAILED_OP_PENALTY_S plus its time, so that fixing it reads as a gain.

Host-speed scaling. Other tenants of a shared host slow the processes on it
by up to half, for seconds to minutes at a time; compute-bound work such as
interpreted Python slows most, memory-bound work such as the KDE matrix
less. So every timed set-up and op is bracketed by a fixed calibration
kernel (``calibrate``: the median of five runs of a piece of interpreted
Python and numpy sorting, about 30 ms in all), and the end-to-end times are
reported scaled to a host on which that kernel takes ``CAL_REF_S``:
``wall * CAL_REF_S / cal``, with ``cal`` the mean of the kernel's times just
before and just after the op. The kernel does not depend on the program, so
a faster or slower program moves the scaled time as it moves the wall time.
The unscaled metrics are logged beside the scaled ones; per-layer metrics
are raw wall times.

Human-readable lines start with ``#``; the last line of stdout is the JSON
result ``{"correct", "attempted", "failed", "metrics"}``. Nothing is written
outside ``perfbench/_work``, which is removed at the end.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

# set before numpy is imported, here or in a child process; see the module docstring
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BUDGET_S = 170.0          # the whole run, so that it exits within 180 s
SETUP_REPEATS = 3
FAILED_OP_PENALTY_S = 180.0  # a failed op counts as missing the per-op time limit
E2E_THREADS = 1           # --threads of every timed op; see the module docstring
CAL_REF_S = 0.005         # calibrate() on a quiet core of a 2.1 GHz Xeon

E2E_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "topo_loss_per_s": "calls/s",
    "channels_fields_per_s": "fields/s",
    "evaluate_dates_per_s": "dates/s",
    "summary_s": "s",
    "peak_rss_mb": "MB",
}
CLI_COMMANDS = ("synth", "stats", "normalize", "channels", "sample", "persistence", "bottleneck",
                "fuse", "regularize", "losses", "stratify", "evaluate")
LAYER_SPANS = (
    "gfs.read_stack", "gfs.write_stack",
    "field.compute_norm_stats", "field.normalize_stack", "field.denormalize",
    "order.vertex_ranks",
    "persistence.h0", "persistence.h1", "persistence.bottleneck", "persistence.reduction_h0",
    "structural.classify_critical_points", "structural.extract_saddle_contours",
    "structural.build_structural_stack",
    "metrics.kde_overlap", "metrics.make_eval_record", "metrics.seasonal_summary",
    "losses.topo_loss", "losses.ssim", "fusion.fuse", "fusion.apply_residual", "fusion.l_reg",
    "temporal.build_sample", "temporal.build_climatology", "synthetic.generate_climate",
)
SPAN_COUNTS = {
    "gfs.read.mb": "MB", "gfs.write.mb": "MB",
    "persistence.h0_pairs": "count", "persistence.h1_pairs": "count",
    "persistence.bottleneck_cells": "count", "structural.saddles": "count",
    "metrics.kde_samples": "count", "metrics.kde_matrix_mb": "MB",
}
COMPUTED = {
    "computed.fields": "count", "computed.cells": "count", "computed.saddles": "count",
    "computed.h0_pairs": "count", "computed.h1_pairs": "count", "computed.bottleneck_cells": "count",
    "computed.kde_samples": "count", "computed.kde_matrix_mb": "MB",
    "computed.gfs_read_mb": "MB", "computed.gfs_write_mb": "MB",
}


def per_layer_units() -> dict[str, str]:
    units = {"cli.import.s": "s"}
    for c in CLI_COMMANDS:
        units[f"cli.{c}.s"] = "s"
        units[f"cli.{c}.rss_mb"] = "MB"
    for name in LAYER_SPANS:
        units[f"{name}.s"] = "s"
        units[f"{name}.calls"] = "count"
    units.update(SPAN_COUNTS)
    units.update({"trace.overhead_s": "s", "trace.layer_share": "ratio",
                  "threads.channels_speedup": "ratio", "threads.evaluate_speedup": "ratio",
                  "ops.known_failed": "count"})
    units.update(COMPUTED)
    return units


def log(line: str) -> None:
    print("# " + line, flush=True)


# ---------------------------------------------------------------------------
# Machine record


def machine(threads: int) -> dict:
    import numpy
    import scipy

    info = {"nproc": len(os.sched_getaffinity(0)), "threads": threads,
            "python": platform.python_version(), "numpy": numpy.__version__, "scipy": scipy.__version__}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu"] = line.split(":", 1)[1].strip()
                break
        for line in Path("/proc/meminfo").read_text().splitlines():
            if line.startswith("MemTotal"):
                info["memtotal_kb"] = int(line.split()[1])
        caches = Path("/sys/devices/system/cpu/cpu0/cache")
        for idx in sorted(caches.glob("index*")):
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            if kind in ("Unified", "Data"):
                info[f"l{level}"] = (idx / "size").read_text().strip()
    except OSError:
        pass
    return info


# ---------------------------------------------------------------------------
# Host-speed calibration

_CAL_SORT = None


def calibrate() -> float:
    """Median wall time of five runs of a fixed piece of interpreted Python and numpy sorting."""
    import numpy as np

    global _CAL_SORT
    if _CAL_SORT is None:
        _CAL_SORT = np.random.default_rng(0).standard_normal((256, 256))
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        s = 0
        for i in range(50_000):
            s += i * i
        b = _CAL_SORT
        for _ in range(4):
            b = np.sort(b, axis=1) + 0.0
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class Calibrated:
    """Brackets timed work with the calibration kernel; a kernel run ends one op and starts the next."""

    def __init__(self):
        self.last = calibrate()

    def speed(self) -> float:
        """The scale factor for the work timed since the previous call."""
        before, self.last = self.last, calibrate()
        return CAL_REF_S / ((before + self.last) / 2.0)


# ---------------------------------------------------------------------------
# Processes


class Runner:
    def __init__(self, workload: str, seed: int, threads: int, deadline: float):
        self.workload = workload
        self.seed = seed
        self.threads = threads
        self.deadline = deadline
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.env.pop("TOPOFIELD_THREADS", None)
        self.n_spawned = 0

    def spawn(self, argv: list[str], cwd: Path, stdout: Path, stderr: Path):
        """Run a child to completion; returns (wall, exit code, max RSS MB)."""
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise TimeoutError("benchmark time budget exhausted")
        with open(stdout, "wb") as out, open(stderr, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=cwd, env=self.env, stdout=out, stderr=err)
            killer = threading.Timer(remaining, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
                killer.join()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        self.n_spawned += 1
        return wall, proc.returncode, usage.ru_maxrss / 1024.0


def run_setup(runner: Runner, work: Path, spans_path: Path | None = None) -> float:
    """One set-up in a fresh process; returns its wall time."""
    if work.exists():
        shutil.rmtree(work)
    work.mkdir(parents=True)
    argv = [sys.executable, str(HERE / "inputs.py"), runner.workload, str(runner.seed), str(work)]
    if spans_path:
        argv.append(str(spans_path))
    wall, rc, _ = runner.spawn(argv, work.parent, work.parent / "setup.out", work.parent / "setup.err")
    if rc != 0:
        raise RuntimeError("set-up failed:\n" + (work.parent / "setup.err").read_text())
    return wall


# ---------------------------------------------------------------------------
# Passes


def run_op(runner, ctx, op, threads, tracer):
    from workloads import Result

    res = Result(op)
    if op.command is None:
        gc.collect()  # start every in-process op from the same collector state
        t0 = time.perf_counter()
        try:
            res.value = op.fn(threads)
        except Exception:  # an op failure is counted, never fatal
            res.rc, res.error = 1, traceback.format_exc()
        res.wall = time.perf_counter() - t0
        return res
    argv = [op.command, *op.args, "--threads", str(threads)] + (["--json"] if op.json else [])
    n = runner.n_spawned
    out, err = ctx.work / f".op{n}.out", ctx.work / f".op{n}.err"
    if tracer is None:
        cmd = [sys.executable, "-m", "topofield", *argv]
    else:
        spans_path = ctx.work / f".op{n}.spans.json"
        cmd = [sys.executable, str(HERE / "cli_child.py"), str(spans_path), *argv]
        span = tracer.begin(f"cli.{op.command}")
    try:
        res.wall, res.rc, res.rss_mb = runner.spawn(cmd, ctx.work, out, err)
    except TimeoutError:
        res.rc, res.error = -1, "benchmark time budget exhausted"
        return res
    finally:
        if tracer is not None:
            tracer.end(span)
            if spans_path.exists():
                tracer.adopt(json.loads(spans_path.read_text()), span["id"])
    res.stdout, res.stderr = out.read_bytes(), err.read_bytes()
    return res


def run_pass(runner, ctx, ops, threads, tracer=None):
    """One pass over ``ops``; returns (wall, results, root span).

    An untraced pass brackets every op with the calibration kernel and sets
    each result's ``speed``; its wall time is then the sum of the op walls,
    without the kernel runs.
    """
    root = tracer.begin("pass") if tracer else None
    cal = None if tracer else Calibrated()
    t0 = time.perf_counter()
    results = []
    for op in ops:
        results.append(run_op(runner, ctx, op, threads, tracer))
        if cal:
            results[-1].speed = cal.speed()
    wall = sum(r.wall for r in results) if cal else time.perf_counter() - t0
    if tracer:
        tracer.end(root)
    return wall, results, root


def value_digest(value) -> str:
    import numpy as np

    import checks

    if isinstance(value, np.ndarray):
        return checks.sha256(value.tobytes())
    return checks.sha256(repr(value).encode())


def check_pass(ctx, results, reference: dict | None, full: bool = False) -> tuple[int, int, int, dict]:
    """Check every op's outputs; returns (attempted, failed, known failures, work counts).

    Without a reference every output is checked in full. With one, outputs
    must be byte-identical to the reference pass, whose outputs were checked
    in full, so the content checks run again only when ``full`` is set.
    """
    import checks
    from spans import KDE_GRID_POINTS

    attempted = failed = known = 0
    ctx.counts, ctx.cache = {}, {}
    for res in results:
        op = res.op
        attempted += 1
        if res.rc != 0 and op.known_defect and op.known_defect.encode() in res.stderr:
            res.known = True
            known += 1
            log(f"op {op.label}: known failure ({op.known_defect}), exit {res.rc}, {res.wall:.3f} s")
            continue
        if res.rc == 0 and b"Traceback" not in res.stderr and res.error is None:
            try:
                if op.command is None:
                    res.digests["value"] = value_digest(res.value)
                else:
                    for name in op.outputs:
                        res.digests[name] = checks.sha256(ctx.read(name))
                    if op.json:
                        res.digests["stdout"] = checks.sha256(res.stdout)
                if op.check and (full or reference is None):
                    op.check(ctx, res)
                if reference is not None and reference.get(op.label) != res.digests:
                    raise checks.CheckFailed("outputs differ from the first pass")
                for name in op.reads():
                    ctx.count("computed.gfs_read_mb", (ctx.work / name).stat().st_size / 1e6)
                for name in op.outputs:
                    if name.endswith(".gfs"):
                        ctx.count("computed.gfs_write_mb", (ctx.work / name).stat().st_size / 1e6)
            except checks.CheckFailed as exc:
                res.error = f"check failed: {exc}"
            except Exception:  # a crashing check is a failed check
                res.error = "check crashed:\n" + traceback.format_exc()
        elif res.error is None:
            res.error = f"exit {res.rc}: " + res.stderr.decode(errors="replace")[-2000:]
        if res.error:
            failed += 1
            log(f"op {op.label}: FAILED {res.error}")
    ctx.counts["computed.kde_matrix_mb"] = 8 * KDE_GRID_POINTS * ctx.counts.get("computed.kde_samples", 0) / 1e6
    return attempted, failed, known, ctx.counts


def print_digests(workload, seed, results) -> None:
    for res in results:
        for name, digest in res.digests.items():
            log(f"digest {workload} seed={seed} {res.op.label} {name} sha256={digest}")


# ---------------------------------------------------------------------------
# Metrics


def e2e_metrics(setups, results, in_process_rss, scaled=True) -> dict:
    """End-to-end metrics over every measured op run (the pass and the rounds).

    ``setups`` are (wall, speed) pairs. With ``scaled`` every time is scaled
    to the reference host speed; without, the raw wall times are used.
    """
    def t(r):
        return r.wall * r.speed if scaled else r.wall

    def rate(kind):
        return statistics.median(r.op.units / t(r) for r in results if kind in r.op.kinds)
    by_op: dict[str, list[float]] = {}
    for r in results:
        by_op.setdefault(r.op.label, []).append(t(r))
    summary = [t(r) + (FAILED_OP_PENALTY_S if r.known else 0.0) for r in results if "summary" in r.op.kinds]
    rss = max([r.rss_mb for r in results] + [in_process_rss])
    return {
        "setup_s": statistics.median(w * (sp if scaled else 1.0) for w, sp in setups),
        "run_s": sum(statistics.median(ts) for ts in by_op.values()),
        "topo_loss_per_s": rate("topo"),
        "channels_fields_per_s": rate("channels"),
        "evaluate_dates_per_s": rate("overlap"),
        "summary_s": statistics.median(summary),
        "peak_rss_mb": rss,
    }


def self_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def subtree(spans: list[dict], root_id: int) -> set[int]:
    ids, grew = {root_id}, True
    while grew:
        new = {s["id"] for s in spans if s["parent"] in ids} - ids
        ids |= new
        grew = bool(new)
    return ids


def layer_metrics(tracer, untraced_wall, traced_wall, root, check_root, untraced_results, baseline, known,
                  counts) -> dict:
    from spans import aggregate, self_times

    # Layers are measured on the set-up and the traced pass. Checks run
    # outside the workload, except the reduction route: it exists only as
    # the cross-check of H0 union-find, so its spans come from the checks.
    checked = subtree(tracer.spans, check_root["id"])
    self_s, calls, span_counts = aggregate([s for s in tracer.spans if s["id"] not in checked])
    check_s, check_calls, _ = aggregate([s for s in tracer.spans if s["id"] in checked])
    for name in ("persistence.reduction_h0",):
        self_s[name], calls[name] = check_s.get(name, 0.0), check_calls.get(name, 0)
    units = per_layer_units()
    out = {name: 0.0 for name in units}
    for name, secs in self_s.items():
        if f"{name}.s" in out:
            out[f"{name}.s"] = secs
        if f"{name}.calls" in out:
            out[f"{name}.calls"] = calls[name]
    for name, value in span_counts.items():
        out[name] = value
    for res in untraced_results:
        if res.op.command:
            key = f"cli.{res.op.command}.rss_mb"
            out[key] = max(out[key], res.rss_mb)
    pass_self = self_times(tracer.spans)[root["id"]]
    out["trace.overhead_s"] = traced_wall - untraced_wall
    out["trace.layer_share"] = 1.0 - pass_self / (root["end"] - root["start"])
    out.update(baseline)
    out["ops.known_failed"] = known
    out.update(counts)
    return out


# ---------------------------------------------------------------------------
# Main


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, help="a workload name, or 'all' to run each in turn")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    start = time.monotonic()
    if not (SRC / "topofield" / "__init__.py").is_file():
        print(f"error: no topofield package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload == "all":
        codes = [subprocess.call([sys.executable, __file__, "--workload", w, "--seed", str(args.seed),
                                  "--seconds", f"{args.seconds:g}", "--trace", str(args.trace)])
                 for w in workloads.WORKLOADS]
        return max(codes)
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    threads = len(os.sched_getaffinity(0))
    runner = Runner(args.workload, args.seed, threads, start + BUDGET_S)
    base = HERE / "_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        return measure(args, runner, base, start)
    finally:
        shutil.rmtree(base, ignore_errors=True)
        with contextlib.suppress(OSError):
            base.parent.rmdir()  # only once no other run uses it


def measure(args, runner, base: Path, start: float) -> int:
    import workloads
    from spans import Tracer, install, uninstall

    info = machine(E2E_THREADS)
    log(f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace} "
        + " ".join(f"{k}={v!r}" for k, v in info.items()))
    work = base / "work"
    base.mkdir(parents=True, exist_ok=True)
    tracer = Tracer(f"{args.workload}-{args.seed}") if args.trace else None
    if tracer:
        spans_path = base / "setup.spans.json"
        with tracer.span("setup") as setup_root:
            run_setup(runner, work, spans_path)
        tracer.adopt(json.loads(spans_path.read_text()), setup_root["id"])
    else:
        cal = Calibrated()
        setups = [(run_setup(runner, work), cal.speed()) for _ in range(SETUP_REPEATS)]
        log("setup_s runs (wall x speed): " + " ".join(f"{w:.4f}x{sp:.3f}" for w, sp in setups))

    ctx = workloads.Ctx(work, args.seed, E2E_THREADS)
    ops = workloads.WORKLOADS[args.workload](ctx)
    in_process = args.workload in workloads.IN_PROCESS
    wall, results, _ = run_pass(runner, ctx, ops, E2E_THREADS)
    attempted, failed, known, counts = check_pass(ctx, results, None)
    reference = {r.op.label: r.digests for r in results}
    print_digests(args.workload, args.seed, results)
    log_pass("pass", wall, results)
    measured = list(results)
    rate_ops = [op for op in ops if op.kinds and op.repeat]
    rounds, round_s = 0, sum(r.wall for r in results if r.op in rate_ops)
    while not args.trace and time.monotonic() - start + round_s < args.seconds:
        wall, results, _ = run_pass(runner, ctx, rate_ops, E2E_THREADS)
        a, f, k, _ = check_pass(ctx, results, reference)
        attempted, failed, known = attempted + a, failed + f, known + k
        measured += results
        rounds, round_s = rounds + 1, wall
        log_pass(f"round {rounds}", wall, results)
    for name, value in sorted(counts.items()):
        log(f"computed {name} = {value:g} (per pass, from inputs and outputs)")
    log(f"ops: attempted {attempted}, failed {failed}, known failures {known}, "
        f"ops_failed = {(failed + known) / attempted:.4f} counting known failures")

    if not args.trace:
        rss = self_rss_mb() if in_process else 0.0
        for name, value in e2e_metrics(setups, measured, rss, scaled=False).items():
            log(f"unscaled {name} = {value!r} {E2E_UNITS[name]}")
        metrics = e2e_metrics(setups, measured, rss)
        units = E2E_UNITS
    else:
        install(tracer)
        try:
            traced_wall, traced_results, root = run_pass(runner, ctx, ops, E2E_THREADS, tracer)
            with tracer.span("check") as check_root:
                a, f, _, _ = check_pass(ctx, traced_results, reference, full=True)
        finally:
            uninstall()
        attempted, failed = attempted + a, failed + f
        baseline, a, f = thread_baseline(runner, ctx, measured, reference)
        attempted, failed = attempted + a, failed + f
        metrics = layer_metrics(tracer, sum(r.wall for r in measured), traced_wall, root, check_root, measured,
                                baseline, known, counts)
        units = per_layer_units()
    for name, value in metrics.items():
        log(f"metric {name} = {value!r} {units[name]}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    log(f"elapsed {time.monotonic() - start:.1f} s")
    print(json.dumps(result))
    return 0


def log_pass(name, wall, results) -> None:
    log(f"{name}: {wall:.4f} s, " + ", ".join(f"{r.op.label} {r.wall:.3f}x{r.speed:.3f}" for r in results))


def thread_baseline(runner, ctx, untraced_results, reference):
    """The channels and evaluate ops rerun at --threads nproc: speed-up, and outputs must not change."""
    out = {"threads.channels_speedup": 0.0, "threads.evaluate_speedup": 0.0}
    attempted = failed = 0
    for key, kind in (("threads.channels_speedup", "channels"), ("threads.evaluate_speedup", "overlap")):
        picks = [r for r in untraced_results if kind in r.op.kinds and (r.op.command or kind == "channels")]
        if not picks:
            continue
        res_1 = picks[0]
        _, results, _ = run_pass(runner, ctx, [res_1.op], runner.threads)
        a, f, _, _ = check_pass(ctx, results, reference)
        attempted, failed = attempted + a, failed + f
        if not f:
            out[key] = res_1.wall / results[0].wall
            log(f"threads: {res_1.op.label} {res_1.wall:.4f} s at {E2E_THREADS} thread, {results[0].wall:.4f} s "
                f"at {runner.threads}; outputs identical")
    return out, attempted, failed


if __name__ == "__main__":
    sys.exit(main())
