"""The benchmark's correctness checks pass on real outputs and reject corrupted ones.

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

import json
import os
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import ocksr  # noqa: E402
import ocksr.cli  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402


def _fitted(n=120, d=6, seed=0):
    X = np.random.default_rng(seed).standard_normal((n, d))
    model = ocksr.fit(X, ocksr.KernelSpec(sigma=ocksr.median_pairwise_distance(X)))
    return X, model


def test_perturbed_alpha_is_rejected():
    X, model = _fitted()
    rows = np.arange(0, X.shape[0], 7)
    sigma, delta = model.spec.sigma, model.spec.delta
    checks.check_sigma(X, sigma)
    checks.check_training_residual(X, model.alpha, sigma, delta, rows)
    rng = np.random.default_rng(1)
    bad = model.alpha * (1.0 + 1e-6 * rng.standard_normal(model.n))
    with pytest.raises(checks.CheckFailed):
        checks.check_training_residual(X, bad, sigma, delta, rows)
    with pytest.raises(checks.CheckFailed):
        checks.check_same_alpha(bad, model.alpha, "perturbed")
    with pytest.raises(checks.CheckFailed):
        checks.check_sigma(X, sigma * (1.0 + 1e-6))


def test_shuffled_novelty_column_is_rejected(tmp_path):
    rng = np.random.default_rng(2)
    X = checks.unit_rows(rng.standard_normal((80, 5)))
    Z = rng.standard_normal((40, 5)) + np.r_[np.zeros((20, 5)), np.full((20, 5), 2.0)]
    model = ocksr.fit(X, ocksr.KernelSpec(sigma=ocksr.median_pairwise_distance(X)))
    model_path, probes, scores = (str(tmp_path / f) for f in
                                  ("m.bin", "probes.csv", "scores.csv"))
    ocksr.save_model(model, model_path)
    np.savetxt(probes, Z, delimiter=",", fmt="%.17g")
    assert ocksr.cli.main(["score", "--model", model_path, "--data", probes,
                           "--out", scores]) == 0
    parsed = checks.read_ocksr1(model_path)
    proj, nov = checks.read_scores(scores, Z.shape[0])
    rows = np.arange(Z.shape[0])
    checks.check_novelties(parsed["X"], parsed["alpha"], parsed["sigma"],
                           checks.unit_rows(Z), proj, nov, rows, print_rtol=5e-12)

    with open(scores) as fh:
        lines = fh.read().splitlines()
    cells = [line.split(",") for line in lines[1:]]
    column = [c[2] for c in cells]
    rng.shuffle(column)
    with open(scores, "w") as fh:
        fh.write("\n".join([lines[0]] + [",".join([c[0], c[1], v])
                                          for c, v in zip(cells, column)]) + "\n")
    proj, nov = checks.read_scores(scores, Z.shape[0])
    with pytest.raises(checks.CheckFailed):
        checks.check_novelties(parsed["X"], parsed["alpha"], parsed["sigma"],
                               checks.unit_rows(Z), proj, nov, rows, print_rtol=5e-12)


def test_wrong_tau_is_rejected():
    X = np.random.default_rng(3).standard_normal((40, 4))
    spec = ocksr.KernelSpec(sigma=ocksr.median_pairwise_distance(X))
    tau = ocksr.calibrate_threshold(X, spec, 0.1)
    checks.check_tau(tau, X, spec.sigma, spec.delta, 0.1)
    for wrong in (tau * 1.01, tau * 0.99, ocksr.calibrate_threshold(X, spec, 0.2)):
        with pytest.raises(checks.CheckFailed):
            checks.check_tau(wrong, X, spec.sigma, spec.delta, 0.1)


def test_corrupted_friedman_rank_is_rejected():
    rng = np.random.default_rng(4)
    datasets = []
    for i, sep in enumerate((0.0, 3.0, 6.0)):
        X = np.vstack([rng.standard_normal((30, 4)), sep + rng.standard_normal((30, 4))])
        datasets.append(ocksr.Dataset(X, np.r_[np.ones(30), np.zeros(30)], name=f"d{i}"))
    methods = ["ocksr", "kmeans", "knndd"]
    report = ocksr.bench_run(datasets, methods, 3, 0, fixed_k=3)
    names = report.ranked_datasets
    means = np.array([[report.cells[d][m].mean for m in methods] for d in names])
    ranks = np.array([[report.per_dataset_ranks[d][m] for m in methods] for d in names])
    avg = np.array([report.average_ranks[m] for m in methods])
    checks.check_friedman(means, ranks, avg, report.chi_square, report.p_value)

    swapped = ranks.copy()
    swapped[0, [0, 1]] = swapped[0, [1, 0]]
    shifted = avg.copy()
    shifted[0] += 0.5
    for args in ((means, swapped, swapped.mean(axis=0), report.chi_square, report.p_value),
                 (means, ranks, shifted, report.chi_square, report.p_value),
                 (means, ranks, avg, report.chi_square * 1.001, report.p_value),
                 (means, ranks, avg, report.chi_square, report.p_value * 1.001)):
        with pytest.raises(checks.CheckFailed):
            checks.check_friedman(*args)

    ds = datasets[1]
    aucs = report.cells[ds.name]["ocksr"].aucs
    checks.check_ocksr_cell(np.asarray(ds.X), np.asarray(ds.labels), aucs, 0)
    with pytest.raises(checks.CheckFailed):
        checks.check_ocksr_cell(np.asarray(ds.X), np.asarray(ds.labels),
                                [a - 0.05 for a in aucs], 0)


def test_truncated_model_file_is_rejected(tmp_path):
    _, model = _fitted(n=30, d=3)
    path = str(tmp_path / "m.bin")
    ocksr.save_model(model, path)
    parsed = checks.read_ocksr1(path)
    np.testing.assert_array_equal(parsed["alpha"], model.alpha)
    with open(path, "rb") as fh:
        blob = fh.read()
    for cut in (len(blob) - 8, checks.OCKSR1_HEAD.size - 1):
        with open(path, "wb") as fh:
            fh.write(blob[:cut])
        with pytest.raises(checks.CheckFailed):
            checks.read_ocksr1(path)
    with open(path, "wb") as fh:
        fh.write(b"OCKSR2" + blob[6:])
    with pytest.raises(checks.CheckFailed):
        checks.read_ocksr1(path)


def test_tracer_sees_calls_wherever_they_are_looked_up():
    original = ocksr.model.factor_batch
    rec = tracer.Recorder()
    rec.install()
    try:
        assert ocksr.model.factor_batch is ocksr.cholesky.factor_batch is not original
        with rec.span("session"):
            _fitted(n=20, d=3)
    finally:
        rec.uninstall()
    assert ocksr.model.factor_batch is original
    totals = tracer.layer_totals(rec.spans)
    for name in ("model.fit", "kernel.gram", "cholesky.factor_batch",
                 "kernel.median_pairwise_distance"):
        assert totals[name]["calls"] == 1, name
    fit = totals["model.fit"]
    assert 0.0 < fit["self_s"] < fit["s"] <= totals["session"]["s"]
    parent = {i: s[tracer.PARENT] for i, s in enumerate(rec.spans)}
    names = [s[tracer.NAME] for s in rec.spans]
    assert names[parent[names.index("cholesky.factor_batch")]] == "model.fit"


def test_metric_lists_match_benchmark_json():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] \
        == [tuple(m) for m in run.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == run.per_layer_specs()
