#!/usr/bin/env python3
"""ocksr benchmark: one workload, whole sessions for a fixed time, checked outputs.

    python3 perfbench/run.py --workload stream --seed 1 --seconds 30 --trace 0

Run from the repository root.  The library is imported from ./src; the
CLI workload runs ./src's ``ocksr.cli`` entry point in child processes.
BLAS thread variables are left as the user has them.

With ``--trace 0`` the result line carries the end-to-end metrics,
medians over untraced sessions.  With ``--trace 1`` untraced and traced
sessions alternate; the result carries per-layer metrics from the
traced ones, the step timings from the untraced ones, and the tracing
overhead.  Every session's outputs are checked; the last stdout line is
the JSON result.
"""

import os
import time


def _since_process_start() -> float:
    """Seconds since this process started (the kernel's start stamp, 10 ms ticks)."""
    try:
        with open("/proc/self/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        start = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        return time.clock_gettime(time.CLOCK_BOOTTIME) - start
    except (OSError, IndexError, ValueError, AttributeError):
        return time.perf_counter() - _IMPORTED


_IMPORTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import tracer  # noqa: E402  (standard library only; ocksr is imported on install)

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")

# name, unit, better, bound (share of the parent's median a metric may worsen)
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("session_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("train_s", "s", "lower", 0.25),
]

# Timings of single steps of a session, from untraced sessions of a traced run.
STEPS = [
    ("bandwidth_s", "s", "lower"),
    ("fit_s", "s", "lower"),
    ("append_rows_per_s", "rows/s", "higher"),
    ("append_p50_ms", "ms", "lower"),
    ("append_p99_ms", "ms", "lower"),
    ("score_probes_per_s", "probes/s", "higher"),
    ("calibrate_s", "s", "lower"),
    ("grid_s", "s", "lower"),
    ("cli_train_s", "s", "lower"),
    ("cli_append_s", "s", "lower"),
    ("cli_score_s", "s", "lower"),
]

STEP_NAMES = {name for name, _, _ in STEPS}

# Traced layers: "<span>.<field>" with field s (inclusive), self_s or calls.
LAYERS = [
    "kernel.median_pairwise_distance.s",
    "kernel.gram.s", "kernel.gram.calls",
    "kernel.kernel_cross.s",
    "cholesky.factor_batch.s", "cholesky.factor_batch.calls",
    "cholesky.factor_extend.s",
    "cholesky.solve_upper.s",
    "cholesky.solve_lower_transposed.s",
    "model.fit.self_s", "model.fit.calls",
    "model.fit_incremental.self_s",
    "model.score_batch.self_s",
    "model.calibrate_threshold.self_s",
    "model.project_train.s",
    "model.save_model.s", "model.load_model.s",
    "baselines.kmeans_fit.s", "baselines.kmeans_score.calls",
    "baselines.knndd_fit.s", "baselines.knndd_fit.calls",
    *[f"evaluation.{cls}.{meth}.s"
      for cls in ("OcksrScorer", "KMeansScorer", "KnnddScorer")
      for meth in ("fit", "novelty")],
    "evaluation.repeated_aucs.calls",
    "evaluation.roc_auc.s",
    "evaluation.bench_run.self_s",
    "dataset.random_split.s",
    "dataset.load_csv.s", "dataset.load_features_csv.s",
    "dataset.l2_normalize_rows.s",
    "cli.import.s",
]


def per_layer_specs() -> list[tuple[str, str, str]]:
    """Every per-layer metric as (name, unit, better)."""
    specs = [(name, unit, better) for name, unit, better in STEPS]
    for name in LAYERS:
        specs.append((name, "count" if name.endswith(".calls") else "s", "lower"))
    specs.append(("trace.overhead_s", "s", "lower"))
    return specs


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def _peak_rss_mb(children: bool) -> float:
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        # children run one at a time: the parent plus the largest child
        kib += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kib / 1024.0


class Run:
    """Sessions of one workload until the time is spent, with their checks."""

    def __init__(self, workload, seconds: float, trace: bool):
        self.w = workload
        self.seconds = seconds
        self.trace = trace
        self.plain: list[dict] = []
        self.layers: list[dict] = []
        self.traced_s: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.peak_rss_mb = None
        self.rec = None

    def _session(self, rec):
        """One session; a session that raises counts all its operations failed."""
        self.attempted += self.w.ops
        if rec is not None:
            rec.install()
        try:
            return self.w.session(rec)
        except Exception:
            traceback.print_exc()
            self.failed += self.w.ops
            return None
        finally:
            if rec is not None:
                rec.uninstall()

    def _plain(self) -> None:
        done = self._session(None)
        if self.peak_rss_mb is None:
            self.peak_rss_mb = _peak_rss_mb(children=self.w.name == "cli")
        if done is not None:
            self.w.check(done[1])
            self.plain.append(done[0])

    def _traced(self) -> None:
        self.rec.trace_id = len(self.traced_s)
        with self.rec.span("session"):
            done = self._session(self.rec)
        if done is not None:
            self.w.check(done[1])
            self.traced_s.append(done[0]["session_s"])
            self.layers.append(tracer.layer_totals(self.rec.spans, self.rec.trace_id))

    def go(self) -> None:
        steps = [self._plain]
        if self.trace:
            self.rec = tracer.Recorder()
            steps.append(self._traced)
        begin = time.perf_counter()
        while True:
            t0 = time.perf_counter()
            for step in steps:
                step()
            steps.reverse()  # alternate which kind of session runs first
            round_s = time.perf_counter() - t0
            # whole rounds only: stop before a round that would overrun the time
            if time.perf_counter() - begin + round_s > self.seconds:
                break

    def end_to_end(self, setup_s: float) -> dict:
        values = {
            "setup_s": setup_s,
            "session_s": _median([m["session_s"] for m in self.plain]),
            "peak_rss_mb": self.peak_rss_mb,
            "train_s": _median([m["train_s"] for m in self.plain]),
        }
        return {name: {"value": values[name], "unit": unit}
                for name, unit, _, _ in END_TO_END}

    def per_layer(self) -> dict:
        out = {}
        for name, unit, _ in per_layer_specs():
            if name == "trace.overhead_s":
                value = (_median(self.traced_s)
                         - _median([m["session_s"] for m in self.plain]))
            elif name in STEP_NAMES:
                value = _median([m[name] for m in self.plain if name in m])
            else:
                span, field = name.rsplit(".", 1)
                value = _median([agg.get(span, {}).get(field, 0) for agg in self.layers])
            out[name] = {"value": value, "unit": unit}
        return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "ocksr", "__init__.py")):
        sys.stderr.write(f"no ocksr sources under {SRC}; run from the repository root\n")
        return 2
    sys.path.insert(0, SRC)

    import numpy  # noqa: F401
    import scipy.linalg  # noqa: F401

    import checks
    import envinfo
    import workloads

    if args.workload not in workloads.WORKLOADS:
        sys.stderr.write(f"unknown workload {args.workload!r}; choose from "
                         f"{sorted(workloads.WORKLOADS)}\n")
        return 2
    env = envinfo.collect()
    workdir = os.path.join(BENCH_DIR, "work", f"{args.workload}-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir, SRC)
        setup_s = _since_process_start()
        for line in envinfo.lines(env):
            print(line)
        run = Run(workload, args.seconds, bool(args.trace))
        try:
            run.go()
        except checks.CheckFailed as exc:
            print(f"# check failed: {exc}")
            print(json.dumps({"correct": False, "attempted": run.attempted,
                              "failed": run.failed, "metrics": {}}))
            return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        trace_dir = os.path.join(BENCH_DIR, "traces")
        os.makedirs(trace_dir, exist_ok=True)
        run.rec.dump(os.path.join(trace_dir, f"{args.workload}-seed{args.seed}.json"))
        metrics = run.per_layer()
    else:
        metrics = run.end_to_end(setup_s)
    print(f"# {args.workload} seed {args.seed}: {len(run.plain)} untraced and "
          f"{len(run.traced_s)} traced sessions, setup {setup_s:.3f} s")
    for m in run.plain:
        print("# session " + " ".join(f"{k}={v:.6g}" for k, v in m.items()))
    print(json.dumps({"correct": True, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
