"""diwt benchmark: closed-loop CLI workloads with end-to-end and per-layer metrics.

Usage (from the repository root):

    python3 perfbench/run.py --workload {invert,coeff-profile,audit} \
        --seed N --seconds S --trace {0,1}

One client in one process drives ``diwt.cli.main`` exactly as a user's
``diwt <command> --config ... --out ...`` request, one request after the
previous one completes.  Requests come from the workload's fixed cycle of
cells (see workloads.py); the next cell starts only while it is predicted to
finish within ``--seconds`` (the slowest cell so far is the prediction), and
at least one cell always runs.

With ``--trace 0`` the last stdout line reports the end-to-end metrics; with
``--trace 1`` the same loop runs with every layer boundary wrapped (see
tracing.py) and reports the per-layer metrics, per checked item.

Every run is hermetic: a fresh temporary directory inside the checkout holds
``DIWT_CACHE_DIR`` and all outputs and is removed at exit, bytecode is not
written, and BLAS pools are capped at the CPU count.

Loop times are reported in reference seconds.  The speed of a shared host can
drift by up to 1.7x within seconds, which moves wall times more than any
useful bound.  So a fixed calibration kernel that does not touch diwt is
timed from a timer signal every SAMPLE_PERIOD_S while the loop runs, and
each wall interval (probe time excluded) is scaled by REF_PROBE_S times the
mean of 1/probe over the samples taken in it: the time the same work takes
on a machine where the kernel runs in REF_PROBE_S.  Raw wall figures are
printed on the detail line before the result.  Set-up time stays in wall
seconds: a probe after a cold import does not track the import's speed.
"""

from __future__ import annotations

import sys

sys.dont_write_bytecode = True

import argparse
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import tempfile
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 5
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
ACCURACY_FLOOR = 1e-20
SAMPLE_PERIOD_S = 0.25
REF_PROBE_S = 1.0e-3

END_TO_END = (
    ("items_per_s", "1/s"),
    ("request_s_p50", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("pass_frac", "ratio"),
    ("err_margin_digits", "digits"),
    ("bound_digits", "digits"),
)

# (metric, unit).  Counts and times are per checked item so that runs with
# different request counts compare; see tracing.py for the boundaries.
PER_LAYER = (
    ("specfun.log_gamma.calls", "count/item"),
    ("specfun.log_gamma.points", "count/item"),
    ("specfun.log_gamma.self_s", "s/item"),
    ("specfun.cyl_d.calls", "count/item"),
    ("specfun.cyl_d.points", "count/item"),
    ("specfun.cyl_d.self_s", "s/item"),
    ("specfun.w_mb.calls", "count/item"),
    ("specfun.w_mb.self_s", "s/item"),
    ("specfun.w_contour.calls", "count/item"),
    ("specfun.w_contour.self_s", "s/item"),
    ("specfun.w_bessel.calls", "count/item"),
    ("specfun.w_bessel.total_s", "s/item"),
    ("specfun.bessel_k.calls", "count/item"),
    ("specfun.bessel_k.self_s", "s/item"),
    ("specfun.contour_cache.lookups", "count/item"),
    ("specfun.contour_cache.hit_ratio", "ratio"),
    ("specfun.contour_grid.lookups", "count/item"),
    ("specfun.contour_grid.hit_ratio", "ratio"),
    ("specfun.self_s", "s/item"),
    ("quad.finite.calls", "count/item"),
    ("quad.finite.evals", "count/item"),
    ("quad.finite.self_s", "s/item"),
    ("quad.finite.nonconverged", "count/item"),
    ("quad.line.calls", "count/item"),
    ("quad.line.evals", "count/item"),
    ("quad.line.self_s", "s/item"),
    ("quad.line.nonconverged", "count/item"),
    ("quad.evals_per_integral", "count"),
    ("quad.ts_nodes.lookups", "count/item"),
    ("quad.ts_nodes.hit_ratio", "ratio"),
    ("quad.self_s", "s/item"),
    ("transforms.invert_series.calls", "count/item"),
    ("transforms.invert_series.total_s", "s/item"),
    ("transforms.coefficient_transform.calls", "count/item"),
    ("transforms.coefficient_transform.total_s", "s/item"),
    ("transforms.synthesize_series.calls", "count/item"),
    ("transforms.synthesize_series.total_s", "s/item"),
    ("transforms.function_from_profile.calls", "count/item"),
    ("transforms.function_from_profile.total_s", "s/item"),
    ("transforms.f_evals", "count/item"),
    ("transforms.self_s", "s/item"),
    ("kernels.kernel_evals", "count/item"),
    ("kernels.nonconverged", "count/item"),
    ("kernels.total_s", "s/item"),
    ("kernels.self_s", "s/item"),
    ("cli.self_s", "s/item"),
    ("cli.bytes_out", "B/item"),
    ("oracles.reports", "count/item"),
    ("oracles.self_s", "s/item"),
    ("trace.wall_s", "s/item"),
    ("trace.untraced_s", "s/item"),
    ("trace.overhead_frac", "ratio"),
    ("trace.absent", "count"),
)


def _cap_blas_threads() -> dict:
    ncpu = os.cpu_count() or 1
    for var in BLAS_VARS:
        try:
            cur = int(os.environ.get(var, ""))
        except ValueError:
            cur = 0
        if not 0 < cur <= ncpu:
            os.environ[var] = str(ncpu)
    return {var: os.environ[var] for var in BLAS_VARS}


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    # self-test only: a fixed cell count instead of the time budget, and a
    # deliberately wrong reference for the correctness gate
    p.add_argument("--cells", type=int, default=0, help=argparse.SUPPRESS)
    p.add_argument("--corrupt-reference", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _import_diwt():
    sys.path.insert(0, str(SRC))
    import diwt.cli

    return diwt.cli


def _setup_probe(args) -> int:
    # child process: import diwt, generate inputs, report readiness
    import workloads

    _import_diwt()
    workloads.make_cells(args.workload, args.seed, 64)
    print("ready", flush=True)
    return 0


def _measure_setup(args, env) -> list:
    """Wall seconds from process start until a fresh child is ready."""
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        child = subprocess.Popen(
            [sys.executable, "-B", str(Path(__file__).resolve()), "--setup-probe",
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", "0", "--trace", "0"],
            stdout=subprocess.PIPE, cwd=str(ROOT), env=env, text=True)
        try:
            line = child.stdout.readline()
            elapsed = time.perf_counter() - t0
            child.wait(timeout=60)
        finally:
            if child.poll() is None:
                child.kill()
                child.wait()
            child.stdout.close()
        if line.strip() != "ready" or child.returncode != 0:
            raise RuntimeError("set-up probe failed")
        times.append(elapsed)
    return times


def _probe() -> float:
    """Wall seconds of a fixed numpy and Python kernel, about 1 ms here."""
    import numpy as np

    z = np.linspace(0.5, 3.0, 40) + 0.1j
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(100):
        w = np.log(z + i * 1e-3) * np.exp(-z) / (z + 1.0)
        acc += float(np.abs(w).sum())
    return time.perf_counter() - t0


class _SpeedSampler:
    """Times the calibration kernel from SIGALRM while the loop runs."""

    def __init__(self):
        self.rates = []     # 1 / probe seconds, one per sample
        self.busy = 0.0     # wall seconds spent in the handler

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self.rates.append(1.0 / _probe())
        self.busy += time.perf_counter() - t0

    def __enter__(self):
        self._tick(None, None)      # so that every interval has a sample
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def mark(self):
        return len(self.rates), self.busy

    def scale(self, since: int = 0) -> float:
        """Reference seconds per wall second over the samples from `since`."""
        return REF_PROBE_S * statistics.fmean(self.rates[since:] or self.rates[-1:])


class _Loop:
    """Runs cells through the CLI and accumulates results."""

    def __init__(self, cli, workloads, args, tmp: Path, tracer=None):
        self.cli = cli
        self.wl = workloads
        self.args = args
        self.tmp = tmp
        self.tracer = tracer
        self.latencies = []     # wall seconds per cell
        self.ref_latencies = []  # reference seconds per cell
        self.cpu = []
        self.sampler = None
        self.items = []
        self.claims = []
        self.bytes_out = 0
        self.done = []
        self.repeats = 0
        self.errors = []

    def _request(self, command: str, cfg: dict):
        # fixed names: the manifest records the output path, so its size
        # must not depend on the request number
        cfg_path = self.tmp / "request.json"
        out_path = self.tmp / "out" / "request.out"
        cfg_path.write_text(json.dumps(cfg), encoding="utf-8")
        argv = [command, "--config", str(cfg_path), "--out", str(out_path), "--quiet"]
        try:
            if self.tracer is None:
                code = self.cli.main(argv)
            else:
                code = self.tracer.span("cli.main", "cli", self.cli.main, argv)
        except Exception:  # a crash inside the program fails the request
            self.errors.append(traceback.format_exc(limit=3))
            code = -1
        text = manifest = ""
        man_path = Path(str(out_path) + ".manifest.json")
        for path in (out_path, man_path):
            if path.is_file():
                self.bytes_out += path.stat().st_size
        if out_path.is_file():
            text = out_path.read_text(encoding="utf-8")
        if man_path.is_file():
            manifest = man_path.read_text(encoding="utf-8")
        for path in (out_path, man_path, cfg_path):
            if path.exists():
                path.unlink()
        return code, text, manifest

    def run_cell(self, cell):
        mu = self.wl.mu_of(cell)
        if mu is not None and any(self.wl.mu_of(c) == mu for c in self.done):
            self.repeats += 1
        mark = self.sampler.mark() if self.sampler else (0, 0.0)
        t0, c0 = time.perf_counter(), time.process_time()
        codes, texts, manifests = [], [], []
        for command, cfg in cell.requests:
            code, text, manifest = self._request(command, cfg)
            codes.append(code)
            texts.append(text)
            manifests.append(manifest)
        wall = time.perf_counter() - t0
        self.cpu.append(time.process_time() - c0)
        if self.sampler:
            wall -= self.sampler.busy - mark[1]
            self.ref_latencies.append(wall * self.sampler.scale(mark[0]))
        self.latencies.append(wall)
        self.done.append(cell)
        try:
            items, claims = self.wl.check(self.args.workload, cell, codes, texts,
                                          manifests, self.args.corrupt_reference)
        except (ValueError, KeyError, TypeError, IndexError):
            self.errors.append(traceback.format_exc(limit=3))
            items, claims = self.wl.failed_items(cell.items), []
        self.items.extend(items)
        self.claims.extend(claims)

    def run(self, cells):
        """Wall seconds of the loop, probe time excluded."""
        start = time.perf_counter()
        for i, cell in enumerate(cells):
            if not self.args.cells and i > 0:
                predicted = max(self.latencies)
                if time.perf_counter() - start + predicted > self.args.seconds:
                    break
            self.run_cell(cell)
        return time.perf_counter() - start - (self.sampler.busy if self.sampler else 0.0)


def _end_to_end(loop: _Loop, wall: float, setup: list) -> dict:
    passed = sum(1 for it in loop.items if it.ok)
    worst = max((it.ratio for it in loop.items), default=math.inf)
    loosest = max(loop.claims, default=math.inf)
    values = {
        "items_per_s": passed / (wall * loop.sampler.scale()),
        "request_s_p50": statistics.median(loop.ref_latencies),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "pass_frac": passed / len(loop.items),
        "err_margin_digits": -math.log10(max(worst, ACCURACY_FLOOR)),
        "bound_digits": -math.log10(max(loosest, ACCURACY_FLOOR)),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def _per_layer(loop: _Loop, tracer, wall: float, span_cost: float) -> dict:
    import tracing

    items = len(loop.items)
    st = tracer.stats
    absent = set(tracer.absent)
    v = {}

    def put(name, value, per_item=True):
        v[name] = value / items if per_item else value

    for key in ("specfun.log_gamma", "specfun.cyl_d"):
        if key not in absent:
            put(f"{key}.calls", st[key].calls)
            put(f"{key}.points", st[key].points)
            put(f"{key}.self_s", st[key].self_s)
    for key in ("specfun.w_mb", "specfun.w_contour", "specfun.bessel_k"):
        if key not in absent:
            put(f"{key}.calls", st[key].calls)
            put(f"{key}.self_s", st[key].self_s)
    if "specfun.w_bessel" not in absent:
        put("specfun.w_bessel.calls", st["specfun.w_bessel"].calls)
        put("specfun.w_bessel.total_s", st["specfun.w_bessel"].total_s)
    for key in ("specfun.contour_cache", "specfun.contour_grid"):
        if key not in absent:
            c = st[key]
            put(f"{key}.lookups", c.calls)
            put(f"{key}.hit_ratio", c.hits / c.calls if c.calls else 0.0, False)
    for key in ("quad.finite", "quad.line"):
        if key not in absent:
            for field in ("calls", "evals", "self_s", "nonconverged"):
                put(f"{key}.{field}", getattr(st[key], field))
    if not absent & {"quad.finite", "quad.line"}:
        n = st["quad.finite"].calls + st["quad.line"].calls
        ev = st["quad.finite"].evals + st["quad.line"].evals
        put("quad.evals_per_integral", ev / n if n else 0.0, False)
    ts = tracer.ts_nodes_counts()
    if ts is not None:
        put("quad.ts_nodes.lookups", ts[1])
        put("quad.ts_nodes.hit_ratio", ts[0] / ts[1] if ts[1] else 0.0, False)
    for fn in ("invert_series", "coefficient_transform", "synthesize_series",
               "function_from_profile"):
        key = f"transforms.{fn}"
        if key not in absent:
            put(f"{key}.calls", st[key].calls)
            put(f"{key}.total_s", st[key].total_s)
    if "transforms.f_evals" not in absent:
        put("transforms.f_evals", st["transforms.f_evals"].points)
    if "kernels.kernel_eval" not in absent:
        put("kernels.kernel_evals", st["kernels.kernel_eval"].calls)
        put("kernels.nonconverged", st["kernels.kernel_eval"].nonconverged)
    put("kernels.total_s", tracer.layer_total["kernels"])
    put("cli.bytes_out", loop.bytes_out)
    if "oracles.run_suite" not in absent:
        put("oracles.reports", st["oracles.run_suite"].points)
    layer_sum = 0.0
    for layer in tracing.LAYERS:
        put(f"{layer}.self_s", tracer.layer_self[layer])
        layer_sum += tracer.layer_self[layer]
    overhead = tracer.spans * span_cost
    put("trace.wall_s", wall)
    put("trace.untraced_s", wall - layer_sum)
    put("trace.overhead_frac", overhead / max(wall - overhead, 1e-9), False)
    put("trace.absent", len(absent), False)
    units = dict(PER_LAYER)
    return {name: {"value": v[name], "unit": units[name]}
            for name, _ in PER_LAYER if name in v}


def _environment(blas: dict) -> dict:
    import numpy
    import scipy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(), "blas_threads": blas}


def main(argv=None) -> int:
    args = _parse_args(argv)
    blas = _cap_blas_threads()
    import workloads  # numpy loads only after the thread caps are set

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.setup_probe:
        return _setup_probe(args)
    if not (SRC / "diwt" / "cli.py").is_file():
        print(f"error: diwt sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.seconds <= 0 and not args.cells:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        (tmp / "out").mkdir()
        os.environ["DIWT_CACHE_DIR"] = str(tmp / "cache")
        # set-up time is an end-to-end metric; traced runs skip the probes
        setup = [] if args.trace else _measure_setup(args, dict(os.environ))
        cli = _import_diwt()
        cells = (workloads.make_cells(args.workload, args.seed, args.cells) if args.cells
                 else workloads.iter_cells(args.workload, args.seed))
        tracer = None
        if args.trace:
            import tracing

            tracer = tracing.Tracer()
            tracer.install()
        loop = _Loop(cli, workloads, args, tmp, tracer)
        if tracer is not None:
            wall = loop.run(cells)
            tracer.uninstall()
            metrics = _per_layer(loop, tracer, wall, tracer.calibrate())
        else:
            with _SpeedSampler() as loop.sampler:
                wall = loop.run(cells)
            metrics = _end_to_end(loop, wall, setup)
        failed = sum(1 for it in loop.items if not it.ok)
        for err in loop.errors:
            print(err, file=sys.stderr)
        detail = {
            "workload": args.workload, "seed": args.seed, "trace": args.trace,
            "cells": [c.label for c in loop.done], "items": len(loop.items),
            "repeat_share": loop.repeats / len(loop.done),
            "latency_samples": len(loop.latencies),
            "wall_s": wall, "latencies_s": loop.latencies, "cpu_s": loop.cpu,
            "ref_latencies_s": loop.ref_latencies, "setup_samples_s": setup,
            "speed_samples": len(loop.sampler.rates) if loop.sampler else 0,
            "ref_s_per_wall_s": loop.sampler.scale() if loop.sampler else None,
            "absent_boundaries": tracer.absent if tracer else [],
            "environment": _environment(blas),
        }
        print(json.dumps(detail))
        print(json.dumps({"correct": failed == 0 and len(loop.items) > 0,
                          "attempted": len(loop.items), "failed": failed,
                          "metrics": metrics}))
        return 0
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
