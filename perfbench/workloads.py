"""The benchmark's four workloads.

Each workload builds its inputs from the seed alone, then runs whole
sessions: one client calling the public API (or the command line)
sequentially, each call waiting for the previous one (a closed loop).
``session`` returns the session's timings and outputs; ``check``
verifies those outputs with ``checks``, which never calls ocksr.

Library calls go through the ``ocksr`` package attribute at call time,
so the tracer's wrappers see them when tracing is on.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time

import numpy as np

import checks
import ocksr
import tracer

clock = time.perf_counter


def _unit(rng: np.random.Generator, d: int) -> np.ndarray:
    v = rng.standard_normal(d)
    return v / np.linalg.norm(v)


def _sample(rng: np.random.Generator, n: int, k: int, always=()) -> np.ndarray:
    picked = rng.choice(n, size=k, replace=False)
    return np.unique(np.concatenate([picked, np.asarray(always, dtype=np.int64)]))


class TrainLarge:
    """One large training session: bandwidth, fit, batch scoring, one block append."""

    name = "train-large"
    N, D, PROBES, APPEND, SHIFT = 3200, 1024, 3200, 64, 0.3
    ops = 4  # bandwidth, fit, score_batch, fit_incremental

    def __init__(self, seed: int, workdir: str, src: str):
        rng = np.random.default_rng([seed, 1])
        self.X = rng.standard_normal((self.N, self.D))
        half = self.PROBES // 2
        self.Z = np.vstack([rng.standard_normal((half, self.D)),
                            rng.standard_normal((half, self.D)) + self.SHIFT])
        self.new = rng.standard_normal((self.APPEND, self.D))
        self.rows = _sample(rng, self.N, 12, always=(0, self.N - 1))
        self.grown_rows = _sample(rng, self.N + self.APPEND, 8,
                                  always=range(self.N, self.N + self.APPEND, 16))
        self.probe_rows = _sample(rng, self.PROBES, 16, always=(0, self.PROBES - 1))

    def session(self, rec) -> tuple[dict, tuple]:
        t0 = clock()
        sigma = ocksr.median_pairwise_distance(self.X)
        t1 = clock()
        model = ocksr.fit(self.X, ocksr.KernelSpec(sigma=sigma))
        t2 = clock()
        proj, nov = ocksr.score_batch(model, self.Z)
        t3 = clock()
        grown = ocksr.fit_incremental(model, self.new)
        t4 = clock()
        metrics = {"session_s": t4 - t0, "train_s": t2 - t0,
                   "bandwidth_s": t1 - t0, "fit_s": t2 - t1,
                   "score_probes_per_s": self.PROBES / (t3 - t2),
                   "append_rows_per_s": self.APPEND / (t4 - t3)}
        return metrics, (sigma, model, proj, nov, grown)

    def check(self, out: tuple) -> None:
        sigma, model, proj, nov, grown = out
        checks.check_sigma(self.X, sigma)
        spec = model.spec
        checks.check_training_residual(self.X, model.alpha, sigma, spec.delta, self.rows)
        checks.check_novelties(self.X, model.alpha, sigma, self.Z, proj, nov,
                               self.probe_rows)
        X_all = np.vstack([self.X, self.new])
        if not np.array_equal(grown.X_train, X_all):
            raise checks.CheckFailed("appended model does not hold the appended rows")
        checks.check_training_residual(X_all, grown.alpha, sigma, grown.spec.delta,
                                       self.grown_rows)


class Stream:
    """A base fit, then single-row appends with a probe batch scored every 10th."""

    name = "stream"
    BASE, APPENDS, D, PROBES, SCORE_EVERY, SHIFT = 1500, 1000, 64, 64, 10, 0.5
    ops = 2 + APPENDS + APPENDS // SCORE_EVERY

    def __init__(self, seed: int, workdir: str, src: str):
        rng = np.random.default_rng([seed, 2])
        n = self.BASE + self.APPENDS
        self.X = rng.standard_normal((n, self.D))
        half = self.PROBES // 2
        self.Z = np.vstack([rng.standard_normal((half, self.D)),
                            rng.standard_normal((half, self.D)) + self.SHIFT])
        self.rows = _sample(rng, n, 16, always=(0, self.BASE, n - 1))
        self.probe_rows = np.arange(self.PROBES)

    def session(self, rec) -> tuple[dict, tuple]:
        X, Z = self.X, self.Z
        lat = np.empty(self.APPENDS)
        score_s = 0.0
        t0 = clock()
        sigma = ocksr.median_pairwise_distance(X[: self.BASE])
        t1 = clock()
        model = ocksr.fit(X[: self.BASE], ocksr.KernelSpec(sigma=sigma))
        t2 = clock()
        for i in range(self.APPENDS):
            row = X[self.BASE + i: self.BASE + i + 1]
            t = clock()
            model = ocksr.fit_incremental(model, row)
            lat[i] = clock() - t
            if i % self.SCORE_EVERY == self.SCORE_EVERY - 1:
                t = clock()
                proj, nov = ocksr.score_batch(model, Z)
                score_s += clock() - t
        t3 = clock()
        metrics = {"session_s": t3 - t0, "train_s": t2 - t0,
                   "bandwidth_s": t1 - t0, "fit_s": t2 - t1,
                   "append_rows_per_s": self.APPENDS / float(lat.sum()),
                   "append_p50_ms": 1e3 * float(np.percentile(lat, 50)),
                   "append_p99_ms": 1e3 * float(np.percentile(lat, 99)),
                   "score_probes_per_s":
                       self.PROBES * (self.APPENDS // self.SCORE_EVERY) / score_s}
        return metrics, (sigma, model, proj, nov)

    def check(self, out: tuple) -> None:
        sigma, model, proj, nov = out
        checks.check_sigma(self.X[: self.BASE], sigma)
        if not np.array_equal(model.X_train, self.X):
            raise checks.CheckFailed("streamed model does not hold every appended row")
        checks.check_training_residual(self.X, model.alpha, sigma, model.spec.delta,
                                       self.rows)
        checks.check_novelties(self.X, model.alpha, sigma, self.Z, proj, nov,
                               self.probe_rows)
        batch = ocksr.fit(self.X, model.spec)
        if batch.spec.delta != model.spec.delta:
            raise checks.CheckFailed(
                f"batch fit settled on delta={batch.spec.delta:g}, the stream on "
                f"{model.spec.delta:g}")
        checks.check_same_alpha(model.alpha, batch.alpha, "incremental vs batch")


class HarnessSmall:
    """The default synthetic AUC grid, then a leave-one-out threshold calibration."""

    name = "harness-small"
    SEPARATIONS, N_POS, N_NEG, D, REPEATS = (0.0, 2.0, 4.0, 6.0), 100, 100, 10, 20
    CAL_N, CAL_D, REJECTION = 250, 8, 0.05
    CHECKED_CELL = 2  # the dataset whose ocksr AUCs are reproduced
    ops = 3  # bench_run, bandwidth, calibrate_threshold

    def __init__(self, seed: int, workdir: str, src: str):
        rng = np.random.default_rng([seed, 3])
        self.seed = seed
        self.datasets = []
        for sep in self.SEPARATIONS:
            shift = sep * _unit(rng, self.D)
            X = np.vstack([rng.standard_normal((self.N_POS, self.D)),
                           shift + rng.standard_normal((self.N_NEG, self.D))])
            labels = np.r_[np.ones(self.N_POS, dtype=np.int64),
                           np.zeros(self.N_NEG, dtype=np.int64)]
            self.datasets.append(ocksr.Dataset(X, labels, name=f"sep{sep:g}"))
        # kpca is left out: its subspace iteration fails to converge on some
        # seeds, which would make the failed share depend on the seed.
        self.methods = ["ocksr", "kmeans", "knndd"]
        self.cal = rng.standard_normal((self.CAL_N, self.CAL_D))

    def session(self, rec) -> tuple[dict, tuple]:
        t0 = clock()
        report = ocksr.bench_run(self.datasets, self.methods, self.REPEATS, self.seed)
        t1 = clock()
        sigma = ocksr.median_pairwise_distance(self.cal)
        t2 = clock()
        tau = ocksr.calibrate_threshold(self.cal, ocksr.KernelSpec(sigma=sigma),
                                        self.REJECTION)
        t3 = clock()
        metrics = {"session_s": t3 - t0, "train_s": t3 - t1, "grid_s": t1 - t0,
                   "bandwidth_s": t2 - t1, "calibrate_s": t3 - t2}
        return metrics, (report, sigma, tau)

    def check(self, out: tuple) -> None:
        report, sigma, tau = out
        names = [ds.name for ds in self.datasets]
        for ds in names:
            for m in self.methods:
                cell = report.cells[ds][m]
                if cell.error is not None or len(cell.aucs) != self.REPEATS:
                    raise checks.CheckFailed(f"cell ({ds}, {m}) incomplete: {cell.error}")
        if report.ranked_datasets != names:
            raise checks.CheckFailed(f"ranked {report.ranked_datasets}, expected {names}")
        means = np.array([[report.cells[d][m].mean for m in self.methods] for d in names])
        for d, row in zip(names, means):
            aucs = np.array([report.cells[d][m].aucs for m in self.methods])
            if not np.allclose(row, aucs.mean(axis=1), rtol=0, atol=1e-12):
                raise checks.CheckFailed(f"{d}: cell means are not the mean AUCs")
        per_dataset = np.array([[report.per_dataset_ranks[d][m] for m in self.methods]
                                for d in names])
        average = np.array([report.average_ranks[m] for m in self.methods])
        checks.check_friedman(means, per_dataset, average, report.chi_square,
                              report.p_value)
        ds = self.datasets[self.CHECKED_CELL]
        checks.check_ocksr_cell(np.asarray(ds.X), np.asarray(ds.labels),
                                report.cells[ds.name]["ocksr"].aucs, self.seed)
        checks.check_sigma(self.cal, sigma)
        checks.check_tau(tau, self.cal, sigma, 0.0, self.REJECTION)


# The console script ``ocksr`` is exactly this: import the entry point and exit
# with its return code.
ENTRY = "import sys; from ocksr.cli import main; sys.exit(main())"
TRACED_ENTRY = os.path.join(os.path.dirname(os.path.abspath(__file__)), "traced_cli.py")


class Cli:
    """ocksr train, train --append and score as child processes on CSV files."""

    name = "cli"
    N_POS, N_NEG, D, APPEND, PROBES, SHIFT = 2000, 500, 256, 100, 1000, 3.0
    ops = 3  # train, train --append, score

    def __init__(self, seed: int, workdir: str, src: str):
        rng = np.random.default_rng([seed, 4])
        shift = self.SHIFT * _unit(rng, self.D)
        self.pos = rng.standard_normal((self.N_POS, self.D))
        neg = shift + rng.standard_normal((self.N_NEG, self.D))
        self.new = rng.standard_normal((self.APPEND, self.D))
        half = self.PROBES // 2
        self.Z = np.vstack([rng.standard_normal((half, self.D)),
                            shift + rng.standard_normal((half, self.D))])
        n_all = self.N_POS + self.APPEND
        self.rows = _sample(rng, self.N_POS, 12, always=(0, self.N_POS - 1))
        self.grown_rows = _sample(rng, n_all, 8,
                                  always=range(self.N_POS, n_all, 25))
        self.probe_rows = _sample(rng, self.PROBES, 16, always=(0, self.PROBES - 1))

        self.dir = workdir
        self.path = {k: os.path.join(workdir, f) for k, f in (
            ("train", "train.csv"), ("append", "append.csv"), ("probes", "probes.csv"),
            ("model", "model.bin"), ("grown", "grown.bin"), ("scores", "scores.csv"),
            ("spans", "child-spans.json"))}
        labeled = np.vstack([self.pos, neg])
        labels = np.r_[np.ones(self.N_POS), np.zeros(self.N_NEG)]
        _write_csv(self.path["train"], labeled, labels)
        _write_csv(self.path["append"], self.new, np.ones(self.APPEND))
        _write_csv(self.path["probes"], self.Z, None)
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [src] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))
        self.commands = [
            ("train", ["train", "--data", self.path["train"], "--label-col", "0",
                       "--out", self.path["model"]]),
            ("append", ["train", "--data", self.path["append"], "--label-col", "0",
                        "--append", self.path["model"], "--out", self.path["grown"]]),
            ("score", ["score", "--model", self.path["grown"], "--data",
                       self.path["probes"], "--out", self.path["scores"]]),
        ]

    def _child(self, argv: list[str]) -> None:
        proc = subprocess.run(argv, env=self.env, cwd=self.dir, capture_output=True,
                              text=True, timeout=150)
        if proc.returncode != 0:
            raise RuntimeError(f"{' '.join(argv[-8:])} exited {proc.returncode}: "
                               f"{proc.stderr.strip()[-400:]}")

    def session(self, rec) -> tuple[dict, tuple]:
        times = {}
        t_start = clock()
        for step, args in self.commands:
            t0 = clock()
            if rec is None:
                self._child([sys.executable, "-c", ENTRY, *args])
            else:
                with rec.span(f"child.{step}") as idx:
                    self._child([sys.executable, TRACED_ENTRY, self.path["spans"], *args])
                rec.adopt(tracer.load_dump(self.path["spans"]), idx)
            times[step] = clock() - t0
        session_s = clock() - t_start
        if rec is not None:
            with rec.span("cli.import"):
                self._child([sys.executable, "-c", "import ocksr.cli"])
        metrics = {"session_s": session_s, "train_s": times["train"],
                   "cli_train_s": times["train"], "cli_append_s": times["append"],
                   "cli_score_s": times["score"]}
        return metrics, ()

    def check(self, out: tuple) -> None:
        m1 = checks.read_ocksr1(self.path["model"])
        X1 = checks.unit_rows(self.pos)
        if (m1["n"], m1["n_neg"], m1["d"]) != (self.N_POS, 0, self.D):
            raise checks.CheckFailed(f"trained model shape {m1['n'], m1['n_neg'], m1['d']}")
        if not np.allclose(m1["X"], X1, rtol=0, atol=1e-15):
            raise checks.CheckFailed("trained model rows are not the normalized targets")
        checks.check_sigma(X1, m1["sigma"])
        checks.check_training_residual(X1, m1["alpha"], m1["sigma"], m1["delta"],
                                       self.rows)
        m2 = checks.read_ocksr1(self.path["grown"])
        X2 = np.vstack([X1, checks.unit_rows(self.new)])
        if (m2["n"], m2["sigma"], m2["delta"]) != (X2.shape[0], m1["sigma"], m1["delta"]):
            raise checks.CheckFailed("appended model changed its size or kernel settings")
        if not np.allclose(m2["X"], X2, rtol=0, atol=1e-15):
            raise checks.CheckFailed("appended model rows are not targets + new rows")
        checks.check_training_residual(X2, m2["alpha"], m2["sigma"], m2["delta"],
                                       self.grown_rows)
        checks.check_same_alpha(m2["alpha"], checks.direct_alpha(X2, m2["sigma"],
                                                                 m2["delta"]),
                                "appended model vs direct solve")
        proj, nov = checks.read_scores(self.path["scores"], self.PROBES)
        checks.check_novelties(m2["X"], m2["alpha"], m2["sigma"],
                               checks.unit_rows(self.Z), proj, nov, self.probe_rows,
                               print_rtol=5e-12)


def _write_csv(path: str, X: np.ndarray, labels) -> None:
    """Features at full precision; labels, when given, in column 0 under a header."""
    with open(path, "w") as fh:
        if labels is not None:
            fh.write(",".join(["label"] + [f"x{j}" for j in range(X.shape[1])]) + "\n")
        for i, row in enumerate(X):
            line = ",".join(map(repr, row.tolist()))
            if labels is not None:
                line = f"{int(labels[i])},{line}"
            fh.write(line + "\n")


WORKLOADS = {w.name: w for w in (TrainLarge, Stream, HarnessSmall, Cli)}
